"""End-to-end and per-layer benchmark for conductor (started by run.py,
which puts the package under src/ on the path first).

One run: generate the workload's sample pool from the seed (in separate
processes), time set-up in fresh interpreters, check a pinned default-seed
replay against its digests, then measure a run phase (`run_batch` +
`export_records`) and an eval phase (`load_records` + `score_run`) through
the public API the CLI uses, interleaved so that both span the whole run.
A pool that runs out before the run budget is extended outside the timed
spans. CPU-bound results are scaled to a reference host speed
(calibrate.py). Every record is checked against the generation pass.
`--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
work untraced and then traced on fresh samples, and prints the per-layer
metrics with the tracing overhead. The last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`; the exit
code is 0 only when every output matched.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import conductor.pipelines as pipelines
from conductor import (
    EvalConfig,
    LiveBackend,
    MethodConfig,
    ReplayBackend,
    export_records,
    load_dataset,
    load_records,
    run_batch,
    score_run,
)
from conductor.core import SchemaKind
from conductor.evalmetrics import PANELS
from conductor.pipelines import Method

from calibrate import kernel, slowdown
from checks import digest, mismatches, pinned, totals
from simserver import SimServer
from tracer import Tracer
from workloads import WORKLOADS, merge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
# Metric names and units come from the benchmark's contract file.
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

PIN_SEED = 0
PIN_SAMPLES = 20
SETUP_REPEATS = 5
CALIBRATE_EVERY_S = 0.25  # seconds of measured work between calibration kernels
FILE_RECORDS = 20  # records per exported file, as one eval step
GEN_SHARDS = 4
POOL_MARGIN = 1.25  # a pool covers this multiple of the run phase at the rate expected
LATENCY_S = 0.05  # simulated server latency per call
API_KEY_ENV = "CONDUCTOR_API_KEY"
NPROC = len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Spec:
    """How one workload is driven.

    `chunk` is the number of samples of one (kind, method) stream handed
    to one `run_batch` call; `run_rate` (chunks/s) and `eval_rate` (record
    files/s) are the untraced rates measured when the benchmark was written.
    They size the initial sample pool and the fixed work of a traced run,
    never the result: a faster program extends the pool (`extend_pool`).
    """
    chunk: int
    run_share: float
    run_rate: float
    eval_rate: float
    live: bool = False
    busy: tuple[tuple[str, str], ...] = ()
    idle: tuple[tuple[str, str], ...] = ()


_COMMON_BUSY = (
    ("run", "plangrammar.parse"),
    ("run", "core.render"),
    ("run", "core.template_load"),
    ("run", "data.demo_select"),
    ("run", "backend.complete"),
    ("run", "data.export"),
    ("eval", "data.load_records"),
    ("eval", "retrieval.tokenize"),
    ("eval", "evalmetrics.token_f1"),
)
# ReplayBackend keys its fixtures by request hash; LiveBackend hashes nothing.
_REPLAY_BUSY = _COMMON_BUSY + (("run", "backend.request_hash"),)
_RETRIEVAL = (
    ("run", "retrieval.tokenize"),
    ("run", "retrieval.index_build"),
    ("run", "retrieval.topk"),
)
_FOCUS_EVAL = (("eval", "evalmetrics.avg_bleu"), ("eval", "evalmetrics.rouge_l"))

SPECS = {
    "focus-replay": Spec(
        chunk=4, run_share=0.6, run_rate=4.0, eval_rate=14.0,
        busy=_REPLAY_BUSY + _RETRIEVAL + _FOCUS_EVAL,
    ),
    "strategy-replay": Spec(
        chunk=10, run_share=0.6, run_rate=20.0, eval_rate=23.0,
        busy=_REPLAY_BUSY
        + (
            ("eval", "evalmetrics.avg_bleu"),
            ("eval", "evalmetrics.corpus_bleu"),
            ("eval", "evalmetrics.distinct_n"),
        ),
        idle=_RETRIEVAL,
    ),
    "live-sim": Spec(
        chunk=0, run_share=0.8, run_rate=0.0, eval_rate=0.0, live=True,
        busy=_COMMON_BUSY + _RETRIEVAL + _FOCUS_EVAL + (("run", "backend.live.post"),),
    ),
}

# (metric, phase or None for both, layer, field)
LAYER_METRICS = (
    ("retrieval.tokenize.calls", None, "retrieval.tokenize", "calls"),
    ("retrieval.tokenize.chars", None, "retrieval.tokenize.chars", "counter"),
    ("retrieval.tokenize.ms", None, "retrieval.tokenize", "self"),
    ("retrieval.index_build.count", "run", "retrieval.index_build", "calls"),
    ("retrieval.index_build.ms", "run", "retrieval.index_build", "self"),
    ("retrieval.topk.calls", "run", "retrieval.topk", "calls"),
    ("retrieval.topk.ms", "run", "retrieval.topk", "self"),
    ("plangrammar.parse.calls", "run", "plangrammar.parse", "calls"),
    ("plangrammar.parse.ms", "run", "plangrammar.parse", "self"),
    ("plangrammar.parse_failed", "run", "plangrammar.parse.failed", "counter"),
    ("core.render.calls", "run", "core.render", "calls"),
    ("core.render.ms", "run", "core.render", "self"),
    ("core.template_load.calls", "run", "core.template_load", "calls"),
    ("core.template_load.ms", "run", "core.template_load", "self"),
    ("data.demo_select.calls", "run", "data.demo_select", "calls"),
    ("data.demo_select.ms", "run", "data.demo_select", "self"),
    ("data.export.ms", "run", "data.export", "self"),
    ("data.load_records.ms", "eval", "data.load_records", "self"),
    ("backend.request_hash.calls", "run", "backend.request_hash", "calls"),
    ("backend.request_hash.ms", "run", "backend.request_hash", "self"),
    ("backend.complete.calls", "run", "backend.complete", "calls"),
    ("backend.complete.ms", "run", "backend.complete", "self"),
    ("backend.live.post_ms", "run", "backend.live.post", "total"),
    ("evalmetrics.avg_bleu.ms", "eval", "evalmetrics.avg_bleu", "self"),
    ("evalmetrics.token_f1.ms", "eval", "evalmetrics.token_f1", "self"),
    ("evalmetrics.rouge_l.ms", "eval", "evalmetrics.rouge_l", "self"),
    ("evalmetrics.corpus_bleu.ms", "eval", "evalmetrics.corpus_bleu", "self"),
    ("evalmetrics.distinct_n.ms", "eval", "evalmetrics.distinct_n", "self"),
)


@dataclass
class Tally:
    """Work done by one phase: sample runs or records scored, and busy time."""

    items: int = 0
    busy: float = 0.0
    scaled_busy: float = 0.0  # busy time at the reference host speed
    scaled_times: list = field(default_factory=list)  # `run_method` times, likewise
    files: list = field(default_factory=list)
    reports: list = field(default_factory=list)


class Calibrator:
    """Scales measured work to the reference host speed (see calibrate.py).

    The kernel runs after about every CALIBRATE_EVERY_S of measured work;
    each step in between, and each `run_method` time measured in it, is
    scaled by the mean slowdown of the two kernels around it."""

    def __init__(self) -> None:
        self.kernel_s = [kernel()]
        self.window: list[tuple[Tally, float, Sequence[float]]] = []

    def step(self, tally: Tally, busy: float, times: Sequence[float] = ()) -> None:
        self.window.append((tally, busy, times))
        if sum(b for _, b, _ in self.window) >= CALIBRATE_EVERY_S:
            self.calibrate()

    def calibrate(self) -> None:
        self.kernel_s.append(kernel())
        factor = slowdown(self.kernel_s[-2:])
        for tally, busy, times in self.window:
            tally.scaled_busy += busy / factor
            tally.scaled_times.extend(t / factor for t in times)
        self.window.clear()


class BenchError(Exception):
    """The benchmark could not run (missing program, failed generation)."""


def child_env() -> dict[str, str]:
    return {k: v for k, v in os.environ.items() if k != API_KEY_ENV}


def run_child(args: list[str]) -> str:
    done = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=child_env(), timeout=170
    )
    if done.returncode != 0:
        raise BenchError(f"{' '.join(args[:2])} failed:\n{done.stderr[-2000:]}")
    return done.stdout


def generate_pools(workload: str, pools: list[tuple[Path, int, int, int, int]]) -> list[dict]:
    """Write pools concurrently, each (out, seed, samples, first slot, shards)
    in `shards` generator processes, merge each and return their manifests."""
    procs = []
    for out, seed, samples, first, shards in pools:
        for i in range(shards):
            cmd = [
                sys.executable, str(HERE / "workloads.py"), "--workload", workload,
                "--seed", str(seed), "--samples", str(samples), "--first", str(first),
                "--shard", f"{i}/{shards}", "--out", f"{out}-{i}",
            ]
            procs.append(
                subprocess.Popen(
                    cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                    env=child_env(),
                )
            )
    errors = []
    try:
        for proc in procs:
            _, err = proc.communicate(timeout=170)
            if proc.returncode != 0:
                errors.append(err[-2000:])
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if errors:
        raise BenchError("workload generation failed:\n" + "\n".join(errors))
    return [
        merge([Path(f"{out}-{i}") for i in range(shards)], out)
        for out, _, _, _, shards in pools
    ]


def measure_setup(workload: str, pool: Path) -> tuple[float, float]:
    """Median set-up time over fresh interpreters, unscaled and scaled to the
    reference host speed measured in each interpreter right after set-up."""
    backend = "live" if SPECS[workload].live else "replay"
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        out = run_child([str(HERE / "setup_probe.py"), str(SRC), str(pool), backend])
        setup_s, host_slowdown = (float(x) for x in out.split())
        raw.append(setup_s)
        scaled.append(setup_s / host_slowdown)
    return statistics.median(raw), statistics.median(scaled)


def read_lines(path: Path) -> list[str]:
    with path.open(encoding="utf-8") as handle:
        return handle.readlines()


class Bench:
    """State of one benchmark run over one generated pool."""

    def __init__(self, workload: str, seed: int, seconds: float, work: Path, trace: bool):
        self.workload = workload
        self.seed = seed
        self.spec = SPECS[workload]
        self.seconds = seconds
        self.work = work
        self.trace = trace
        self.plan = [(SchemaKind(kind), methods) for kind, methods in WORKLOADS[workload]]
        # Kinds alternate, so an eval phase cut by its budget scores them alike.
        self.streams = [
            (kind, methods[i])
            for i in range(max(len(methods) for _, methods in self.plan))
            for kind, methods in self.plan
            if i < len(methods)
        ]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.sample_s: list[float] = []
        self.tracer = None
        self.server = None
        self.extensions = 0

    # -- sizing -------------------------------------------------------------

    def run_budget(self) -> float:
        return self.seconds * self.spec.run_share

    def eval_budget(self) -> float:
        return self.seconds * (1.0 - self.spec.run_share)

    def live_batch(self) -> int:
        """Samples in one live batch: what the ideal rate completes in the budget."""
        ideal = NPROC / (3 * LATENCY_S)  # tpe makes 3 calls per sample
        share = 0.5 if self.trace else 1.0
        return max(2, math.ceil(ideal * self.run_budget() * share))

    def trace_chunks(self) -> int:
        return max(1, math.ceil(self.spec.run_rate * self.run_budget() / 2))

    def trace_files(self) -> int:
        return max(1, math.ceil(self.spec.eval_rate * self.eval_budget() / 2))

    def pool_chunks(self) -> int:
        if self.spec.live:
            return 2 if self.trace else 1
        if self.trace:
            return 2 * self.trace_chunks()
        return math.ceil(POOL_MARGIN * self.spec.run_rate * self.run_budget())

    def chunk_size(self) -> int:
        return self.live_batch() if self.spec.live else self.spec.chunk

    def pool_samples(self) -> int:
        return self.chunk_size() * self.pool_chunks() * len(self.streams)

    # -- loading ------------------------------------------------------------

    def load(self, pool: Path) -> dict:
        """The pool's samples per kind, loaded as the CLI loads a dataset."""
        return {
            (kind, method): load_dataset(
                str(pool / f"samples_{kind.value}_{method}.jsonl"), kind
            )
            for kind, methods in self.plan
            for method in methods
        }

    def replay_backend(self, pool: Path):
        return ReplayBackend.load(str(pool / "fixtures.jsonl"))

    def live_backend(self, pool: Path, post=None):
        if self.server is None:
            fixtures = {}
            for line in read_lines(pool / "fixtures.jsonl"):
                fixture = json.loads(line)
                fixtures[fixture["hash"]] = fixture
            self.server = SimServer(fixtures, LATENCY_S)
            os.environ[API_KEY_ENV] = "perfbench-dummy-key"
        return LiveBackend("http://sim.invalid/v1", post_fn=post or self.server.post)

    def extend_pool(self, pool: Path, samples: dict, rate: float, left_s: float):
        """Append fresh samples to a replay pool that ran out before the run
        budget was spent, enough for the `left_s` seconds left at `rate`
        samples/s with the usual margin, and return a backend with the
        extended fixtures. Runs outside the timed spans, so a faster program
        still measures the whole budget on samples it has not seen."""
        self.extensions += 1
        first = min(len(batch) for batch in samples.values())
        chunks = math.ceil(POOL_MARGIN * rate * left_s / (self.chunk_size() * len(self.streams)))
        count = max(1, chunks) * self.chunk_size() * len(self.streams)
        ext = self.work / f"ext-{self.extensions}"
        generate_pools(self.workload, [(ext, self.seed, count, first, min(NPROC, GEN_SHARDS))])
        names = ["fixtures.jsonl"]
        for kind, method in self.streams:
            names += [f"samples_{kind.value}_{method}.jsonl", f"ref_{kind.value}_{method}.jsonl"]
            samples[(kind, method)] += load_dataset(
                str(ext / f"samples_{kind.value}_{method}.jsonl"), kind
            )
        for name in names:
            with (pool / name).open("a", encoding="utf-8") as handle:
                handle.writelines(read_lines(ext / name))
        return self.replay_backend(pool)

    # -- phases -------------------------------------------------------------

    def run_chunk(self, samples, backend, out: Path, size: int, chunk: int, tally) -> bool:
        """Run chunk `chunk` (`size` samples) of every stream through
        `run_batch` + `export_records`; False when the pool has no such chunk."""
        if (chunk + 1) * size > min(len(batch) for batch in samples.values()):
            return False
        export = export_records
        if self.tracer is not None:
            export = self.tracer.wrap("data.export", export_records)
        parallelism = NPROC if self.spec.live else 1
        out.mkdir(parents=True, exist_ok=True)
        for kind, method in self.streams:
            batch = samples[(kind, method)][chunk * size : (chunk + 1) * size]
            config = MethodConfig(method=Method(method), dataset_kind=kind)
            path = out / f"{chunk:05d}_{kind.value}_{method}.jsonl"
            start = perf_counter()
            records = run_batch(batch, config, backend, parallelism=parallelism)
            paths = []
            for first in range(0, len(records), FILE_RECORDS):
                paths.append(path.with_suffix(f".{first:05d}.jsonl"))
                export(records[first : first + FILE_RECORDS], str(paths[-1]))
            tally.busy += perf_counter() - start
            tally.items += len(records)
            for i, part in enumerate(paths):
                n = min(FILE_RECORDS, len(records) - i * FILE_RECORDS)
                tally.files.append((part, kind, method, chunk * size + i * FILE_RECORDS, n))
        return True

    def score_file(self, samples, entry: tuple, tally) -> None:
        """`load_records` + `score_run` over one exported file, as `conductor
        eval` scores it."""
        load = load_records
        if self.tracer is not None:
            load = self.tracer.wrap("data.load_records", load_records)
        path, kind, method, start, n = entry
        batch = samples[(kind, method)][start : start + n]
        references = [(s.id, s.gold_response) for s in batch]
        config = eval_config(kind, batch)
        begin = perf_counter()
        records = load(str(path))
        report = score_run(records, references, config)
        tally.busy += perf_counter() - begin
        tally.items += len(records)
        tally.reports.append(report)
        self.check_report(report, n, set(PANELS[kind]), path.name)

    def run_phase(
        self,
        samples,
        backend,
        out: Path,
        size: int,
        first: int = 0,
        chunks: int | None = None,
        calibrator: Calibrator | None = None,
    ) -> Tally:
        """Run `chunks` chunks from chunk `first` on (all that remain when
        None), calibrating between chunks when given a calibrator."""
        tally = Tally()
        chunk = first
        while chunks is None or chunk < first + chunks:
            before = tally.busy
            if not self.run_chunk(samples, backend, out, size, chunk, tally):
                break
            if calibrator is not None:
                calibrator.step(tally, tally.busy - before)
            chunk += 1
        return tally

    def eval_phase(self, samples, files: list, calibrator: Calibrator | None = None) -> Tally:
        tally = Tally()
        for entry in files:
            before = tally.busy
            self.score_file(samples, entry, tally)
            if calibrator is not None:
                calibrator.step(tally, tally.busy - before)
        return tally

    def timed_phases(
        self, pool: Path, samples, backend, out: Path
    ) -> tuple[Tally, Tally, Calibrator]:
        """Interleave run chunks and eval files until each phase has spent its
        budget, so both are measured across the whole run: the phase that has
        used the smaller share of its budget goes next. A replay pool that
        runs out first is extended; the live pool is one batch sized at the
        ideal rate, which no program can beat."""
        run, ev = Tally(), Tally()
        run_budget, eval_budget = self.run_budget(), self.eval_budget()
        calibrator = Calibrator()
        chunk, pool_left = 0, True
        while True:
            run_due = pool_left and run.busy < run_budget
            eval_due = len(ev.reports) < len(run.files) and ev.busy < eval_budget
            if not (run_due or eval_due):
                calibrator.calibrate()
                return run, ev, calibrator
            if run_due and (not eval_due or run.busy / run_budget <= ev.busy / eval_budget):
                tally, before, timed = run, run.busy, len(self.sample_s)
                if self.run_chunk(samples, backend, out, self.chunk_size(), chunk, run):
                    chunk += 1
                elif self.spec.live:
                    pool_left = False
                else:
                    rate = run.items / run.busy
                    backend = self.extend_pool(pool, samples, rate, run_budget - run.busy)
            else:
                tally, before, timed = ev, ev.busy, len(self.sample_s)
                self.score_file(samples, run.files[len(ev.reports)], ev)
            calibrator.step(tally, tally.busy - before, self.sample_s[timed:])

    # -- checks -------------------------------------------------------------

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)

    def check_report(self, report, n: int, panel: set, name: str) -> None:
        values = report.aggregates.values()
        if (
            report.n_samples != n
            or report.n_failures
            or set(report.aggregates) != panel
            or not all(math.isfinite(v) and 0.0 <= v <= 100.0 for v in values)
        ):
            self.fail(f"eval report for {name} is malformed: {report.to_json_obj()}")

    def check_run(self, pool: Path, files: list, live: bool) -> None:
        """Compare every exported record, and the token/USD totals, with the
        generation pass. Records with an error count as failed."""
        refs: dict[tuple, list[str]] = {}
        got_totals = [0, 0, 0]
        want_totals = [0, 0, 0]
        for path, kind, method, start, n in files:
            key = (kind.value, method)
            if key not in refs:
                refs[key] = read_lines(pool / f"ref_{kind.value}_{method}.jsonl")
            got = read_lines(path)
            want = refs[key][start : start + n]
            self.attempted += n
            bad = set(mismatches(got, want, live=live))
            bad.update(i for i, line in enumerate(got) if json.loads(line)["error"])
            if bad:
                self.fail(f"{path.name}: {len(bad)} records differ or carry an error", len(bad))
            for acc, lines in ((got_totals, got), (want_totals, want)):
                for i, value in enumerate(totals(lines)):
                    acc[i] += value
        if got_totals != want_totals:
            self.fail(f"token/USD totals {got_totals} differ from reference {want_totals}")

    def check_pinned(self, pin: Path) -> None:
        """Replay the default-seed pool; its records and eval reports must
        match the generation pass and the digests pinned in pinned.json."""
        samples, backend = self.load(pin), self.replay_backend(pin)
        size = min(len(batch) for batch in samples.values())
        result = self.run_phase(samples, backend, self.work / "pin-out", size)
        self.check_run(pin, result.files, live=False)
        reports = self.eval_phase(samples, result.files).reports
        self.attempted += 1
        got = {
            "records": digest([line for f in result.files for line in read_lines(f[0])]),
            "reports": digest([json.dumps(r.to_json_obj(), sort_keys=True) for r in reports]),
        }
        want = pinned(self.workload)
        if got != want:
            self.fail(f"default-seed digests {got} differ from pinned {want}")

    # -- hooks --------------------------------------------------------------

    def hook_run_method(self) -> None:
        """Time every `run_method` call, patched where `run_batch` looks it up."""
        self.run_method = pipelines.run_method

        def timed(sample, config, *args, **kwargs):
            if self.tracer is not None:
                self.tracer.set_run(f"{config.method.value}/{sample.id}")
            start = perf_counter()
            try:
                return self.run_method(sample, config, *args, **kwargs)
            finally:
                self.sample_s.append(perf_counter() - start)

        pipelines.run_method = timed

    def start_tracing(self):
        self.tracer = Tracer()
        self.tracer.install()
        self.run_method = self.tracer.wrap("pipelines", self.run_method)
        return self.tracer

    def trace_backend(self, backend):
        backend.complete = self.tracer.wrap("backend.complete", backend.complete)
        return backend


def eval_config(kind, batch):
    """The eval configuration `conductor eval` builds for these samples."""
    if kind is not SchemaKind.FOCUS:
        return EvalConfig(kind=kind)
    return EvalConfig(
        kind=kind,
        gold_persona_sets={s.id: s.gold_persona_texts() for s in batch},
        gold_document_sets={s.id: s.gold_document_texts() for s in batch},
    )


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def untraced(bench: Bench, pool: Path) -> tuple[dict, dict]:
    """End-to-end metrics: interleaved run and eval phases for their budgets
    (live: one closed-loop batch sized to the budget at the ideal rate, then
    its eval). Rates are scaled to the reference host speed, except the live
    run phase, which is bound by the simulated latency."""
    samples = bench.load(pool)
    live = bench.spec.live
    backend = bench.live_backend(pool) if live else bench.replay_backend(pool)
    run, ev, calibrator = bench.timed_phases(pool, samples, backend, bench.work / "run")
    if live:
        run.scaled_busy = run.busy
    kernel_s = calibrator.kernel_s
    rss = peak_rss_mb()
    bench.check_run(pool, run.files, live)
    # On the CPU-bound replay workloads the median run time is taken over
    # run times scaled like the rates. The 99th percentile is set by short
    # stalls the kernel does not sample; scaling would only add the kernel's
    # own noise, so it stays an unscaled wall time.
    ms = [t * 1e3 for t in bench.sample_s]
    scaled_ms = ms if live else [t * 1e3 for t in run.scaled_times]
    raw = {
        "run_samples_per_s": run.items / run.busy,
        "sample_ms_p50": statistics.median(ms),
        "eval_records_per_s": ev.items / ev.busy,
    }
    metrics = {
        "run_samples_per_s": run.items / run.scaled_busy,
        "sample_ms_p50": statistics.median(scaled_ms),
        "sample_ms_p99": percentile(ms, 99),
        "eval_records_per_s": ev.items / ev.scaled_busy,
        "peak_rss_mb": rss,
    }
    info = {
        "sample_runs": run.items,
        "records_scored": ev.items,
        "run_phase_s": run.busy,
        "eval_phase_s": ev.busy,
        "host_slowdown": slowdown(kernel_s),
        "calibration_kernels": len(kernel_s),
        "pool_extensions": bench.extensions,
        **{f"unscaled {name}": value for name, value in raw.items()},
    }
    if live:
        calls = bench.server.posts / run.items
        ideal = NPROC / (calls * LATENCY_S)
        info.update(
            clients=NPROC,
            calls_per_sample=calls,
            ideal_samples_per_s=ideal,
            share_of_ideal=raw["run_samples_per_s"] / ideal,
            in_flight_max=bench.server.in_flight_max,
            retries=bench.server.retries,
        )
    return metrics, info


def traced(bench: Bench, pool: Path) -> tuple[dict, dict]:
    """Per-layer metrics: pass A runs fixed work untraced, pass B the same
    amount of work on the next samples with every layer wrapped. Both passes
    are calibrated, so the tracing overhead compares busy time at the
    reference host speed (the live run phase, bound by latency, unscaled)."""
    samples = bench.load(pool)
    live = bench.spec.live
    size = bench.chunk_size()
    chunks = 1 if live else bench.trace_chunks()
    files = None if live else bench.trace_files()
    backend = bench.live_backend(pool) if live else bench.replay_backend(pool)
    calibrator = Calibrator()
    a = bench.run_phase(samples, backend, bench.work / "a", size, 0, chunks, calibrator)
    ea = bench.eval_phase(samples, a.files[:files], calibrator)

    tracer = bench.start_tracing()
    if live:
        server = bench.server
        server.retries = server.in_flight_max = 0
        backend = bench.live_backend(pool, tracer.wrap("backend.live.post", server.post))
    bench.trace_backend(backend)
    b = bench.run_phase(samples, backend, bench.work / "b", size, chunks, chunks, calibrator)
    tracer.phase = "eval"
    eb = bench.eval_phase(samples, b.files[:files], calibrator)
    tracer.uninstall()
    calibrator.calibrate()
    bench.check_run(pool, a.files + b.files, live)

    metrics: dict[str, float] = {}
    for name, phase, layer, field in LAYER_METRICS:
        value = 0.0
        for p in ("run", "eval") if phase is None else (phase,):
            calls, total_ms, self_ms = tracer.layer(p, layer)
            value += {
                "calls": calls,
                "self": self_ms,
                "total": total_ms,
                "counter": tracer.counters[(p, layer)],
            }[field]
        metrics[name] = value
    builds = tracer.layer("run", "retrieval.index_build")[0]
    metrics["retrieval.index_reuse"] = tracer.distinct_indexes("run") / builds if builds else 1.0
    metrics["data.record_bytes"] = sum(f[0].stat().st_size for f in b.files)
    metrics["backend.live.wait_ms"] = tracer.layer("run", "backend.complete")[2] if live else 0.0
    metrics["backend.live.in_flight_max"] = bench.server.in_flight_max if live else 0
    metrics["backend.live.retries"] = bench.server.retries if live else 0
    runs = tracer.layer("run", "pipelines")[0]
    metrics["pipelines.calls_per_sample"] = tracer.layer("run", "backend.complete")[0] / runs
    metrics["pipelines.self_ms"] = tracer.layer("run", "pipelines")[2]
    metrics["evalmetrics.tokenize_per_record"] = (
        tracer.layer("eval", "retrieval.tokenize")[0] / eb.items
    )
    def per_item(tally: Tally, scaled: bool) -> float:
        return (tally.scaled_busy if scaled else tally.busy) / tally.items

    metrics["trace.run_overhead_pct"] = 100.0 * (per_item(b, not live) / per_item(a, not live) - 1)
    metrics["trace.eval_overhead_pct"] = 100.0 * (per_item(eb, True) / per_item(ea, True) - 1)
    metrics["trace.sample_runs"] = b.items
    metrics["trace.records_scored"] = eb.items

    for phase, layer in bench.spec.busy:
        if tracer.layer(phase, layer)[0] == 0:
            bench.fail(f"guard: {layer} saw no calls in the {phase} phase")
    for phase, layer in bench.spec.idle:
        if tracer.layer(phase, layer)[0] != 0:
            bench.fail(f"guard: {layer} must see no calls in the {phase} phase")

    WORK.mkdir(exist_ok=True)
    spans = WORK / f"spans-{bench.workload}-seed{bench.seed}.jsonl"
    tracer.write_spans(str(spans))
    info = {
        "spans_file": str(spans.relative_to(ROOT)),
        "spans_kept": len(tracer.spans),
        "phases": {
            p: {
                layer: tracer.layer(p, layer)
                for (q, layer) in sorted(tracer.calls)
                if q == p
            }
            for p in ("run", "eval")
        },
    }
    return metrics, info


def measure(args: argparse.Namespace, work: Path) -> dict:
    bench = Bench(args.workload, args.seed, args.seconds, work, bool(args.trace))
    pool, pin = work / "pool", work / "pin"
    manifest, _ = generate_pools(
        args.workload,
        [
            (pool, args.seed, bench.pool_samples(), 0, min(NPROC, GEN_SHARDS)),
            (pin, PIN_SEED, PIN_SAMPLES, 0, 1),
        ],
    )
    bench.check_pinned(pin)
    bench.hook_run_method()
    if args.trace:
        metrics, info = traced(bench, pool)
        listed = CONTRACT["per_layer"]
    else:
        raw_setup_s, setup_s = measure_setup(args.workload, pool)
        metrics, info = untraced(bench, pool)
        metrics["setup_s"] = setup_s
        info["unscaled setup_s"] = raw_setup_s
        listed = CONTRACT["end_to_end"]
        info["samples_timed"] = len(bench.sample_s)
    units = {metric["name"]: metric["unit"] for metric in listed}
    info["pool_samples"] = manifest["streams"]
    info["fixtures"] = manifest["fixtures"]
    info["prompt_shared_share"] = manifest["prompt_shared_share"]
    info["unsupported_pairs"] = manifest["unsupported_pairs"]
    return {
        "bench": bench,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "info": info,
    }


def report(args: argparse.Namespace, result: dict) -> None:
    bench = result["bench"]
    info = result["info"]
    print(
        f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} nproc={NPROC} python={sys.version.split()[0]}"
    )
    for key, value in info.items():
        if key != "phases":
            print(f"  {key}: {value}")
    for phase, layers in info.get("phases", {}).items():
        print(f"  {phase} phase: layer calls total_ms self_ms")
        for layer, (calls, total_ms, self_ms) in layers.items():
            print(f"    {layer:28} {calls:9d} {total_ms:11.1f} {self_ms:11.1f}")
    for name, metric in result["metrics"].items():
        print(f"  {name:34} {metric['value']:14.4f} {metric['unit']}")
    if not args.trace:
        share = bench.failed / bench.attempted
        print(f"  {'failed_share':34} {share:14.4f} share ({bench.failed} of {bench.attempted})")
    for problem in bench.problems:
        print(f"  FAILED: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="conductor benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        result = measure(args, work)
    except (BenchError, LookupError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    bench = result["bench"]
    report(args, result)
    summary = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": result["metrics"],
    }
    print(json.dumps(summary))
    return 0 if bench.failed == 0 else 1
