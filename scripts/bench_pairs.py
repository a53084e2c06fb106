"""Alternating parent/change benchmark pairs, written to one JSON file.

Runs ``python3 perfbench/run.py`` untraced on a checkout of a base revision
and on the working tree, one pair per (seed, workload), alternating which
side runs first from pair to pair. Every workload in ``BENCHMARK.json`` runs
for its ``run_seconds``. Writes ``BENCH_<label>.json`` at the repository
root with the machine, the Python version, every run's metrics and, per
workload and side, the median and quartiles of each end-to-end metric in
``BENCHMARK.json``, how many pairs the change won and each run's
``pool_extensions``. A pair whose sides extended their replay pools a
different number of times gets a warning on standard error and in
``uneven_pool_pairs``: the reload raises that side's ``peak_rss_mb``.

On the first seed each workload also runs once traced (``--trace 1``) per
side. A traced run does fixed work, so its per-layer counts are
deterministic: every per-layer metric whose ``BENCHMARK.json`` unit is
``count`` and whose value differs between the sides is listed in
``traced_count_diffs`` and on standard error. An empty list means the
change does the same counted work (template loads, renders, tokenizer
calls, backend calls, ...) as the base.

Run from the repository root, standard library only:

    python3 scripts/bench_pairs.py --label eval_tokenize_once --base HEAD~1 \\
        --seeds 1 2 3 4 5 7 8 9 10 11

``--base`` is the revision before the change. With the change still
uncommitted that is ``HEAD``; once it is committed, ``HEAD~1``. The script
refuses a base that is the same code as the working tree.

The base revision is extracted with ``git archive`` into a temporary
directory, so an interrupted run leaves no worktree registered in ``.git``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
INFO_LINE = re.compile(r"^  ([a-z_ ]+): (.*)$")


def git(*args: str) -> bytes:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True
    ).stdout


def extract(rev: str, into: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev))) as archive:
        archive.extractall(into)


def machine() -> dict:
    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text(encoding="utf-8", errors="replace").splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "platform": platform.platform(),
        "cpu": cpu,
        "usable_cpus": len(os.sched_getaffinity(0)),
    }


def bench_once(tree: Path, workload: str, seed: int, trace: int = 0) -> dict:
    """One benchmark run: exit code, info lines and metric values."""
    command = [
        sys.executable, "perfbench/run.py",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(CONTRACT["run_seconds"]),
        "--trace", str(trace),
    ]
    started = time.time()
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    run = {"exit": proc.returncode, "wall_s": round(time.time() - started, 2)}
    lines = proc.stdout.splitlines()
    if lines and lines[-1].startswith("{"):
        summary = json.loads(lines[-1])
        run["correct"] = summary["correct"]
        run["failed_share"] = summary["failed"] / summary["attempted"]
        run["metrics"] = {k: v["value"] for k, v in summary["metrics"].items()}
        run["info"] = {
            m.group(1): m.group(2) for m in map(INFO_LINE.match, lines) if m
        }
    else:
        run["stderr_tail"] = proc.stderr.strip().splitlines()[-5:]
    return run


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def extensions(run: dict) -> int:
    return int(run["info"].get("pool_extensions", 0))


def uneven_pools(runs: list[dict]) -> list[str]:
    """One warning per pair in which the sides extended their pools a
    different number of times: a reloaded pool raises that side's
    `peak_rss_mb` whatever the program does."""
    sides: dict = {}
    for r in runs:
        if "metrics" in r:
            sides.setdefault((r["workload"], r["seed"]), {})[r["side"]] = extensions(r)
    return [
        f"{workload} seed={seed}: pool extended base {counts['base']}x, "
        f"change {counts['change']}x; peak_rss_mb not comparable in this pair"
        for (workload, seed), counts in sides.items()
        if len(counts) == 2 and counts["base"] != counts["change"]
    ]


def count_diffs(traced: list[dict]) -> list[str]:
    """One line per count-unit per-layer metric that differs between the
    two traced sides of a workload, or per side that reported no metrics."""
    names = [m["name"] for m in CONTRACT["per_layer"] if m["unit"] == "count"]
    diffs = []
    for workload in WORKLOADS:
        sides = {r["side"]: r.get("metrics") for r in traced if r["workload"] == workload}
        missing = [side for side in ("base", "change") if not sides.get(side)]
        if missing:
            diffs.extend(f"{workload}: no traced metrics from {side}" for side in missing)
            continue
        for name in names:
            base, change = sides["base"].get(name), sides["change"].get(name)
            if base != change:
                diffs.append(f"{workload} {name}: base {base}, change {change}")
    return diffs


def summarize(runs: list[dict]) -> dict:
    """Per workload: each side's median and quartiles, pairs won, and each
    side's pool extensions per run, in seed order."""
    better = {m["name"]: m["better"] for m in CONTRACT["end_to_end"]}
    summary = {}
    for workload in WORKLOADS:
        ok = [r for r in runs if r["workload"] == workload and "metrics" in r]
        pairs = {}
        for r in ok:
            pairs.setdefault(r["seed"], {})[r["side"]] = r["metrics"]
        pairs = [p for p in pairs.values() if len(p) == 2]
        rows = {}
        for name, direction in better.items():
            sides = {
                side: spread([r["metrics"][name] for r in ok if r["side"] == side])
                for side in ("base", "change")
                if sum(1 for r in ok if r["side"] == side) >= 2
            }
            sign = 1 if direction == "higher" else -1
            wins = sum(1 for p in pairs if sign * (p["change"][name] - p["base"][name]) > 0)
            row = {**sides, "change_wins": f"{wins} of {len(pairs)}"}
            if len(sides) == 2 and sides["base"]["median"]:
                row["ratio"] = sides["change"]["median"] / sides["base"]["median"]
            rows[name] = row
        rows["pool_extensions"] = {
            side: [extensions(r) for r in ok if r["side"] == side]
            for side in ("base", "change")
        }
        summary[workload] = rows
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument(
        "--base", required=True, help="revision the working tree is compared to"
    )
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)

    try:
        base_rev = git("rev-parse", "--verify", args.base + "^{commit}").decode().strip()
    except subprocess.CalledProcessError:
        parser.error(f"--base {args.base} is not a commit")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no").strip())
    head = git("rev-parse", "HEAD").decode().strip()
    if not dirty and git("rev-parse", base_rev + "^{tree}") == git("rev-parse", "HEAD^{tree}"):
        parser.error(
            f"--base {args.base} has the same files as the clean working tree; "
            "both sides would run the same code"
        )
    runs: list[dict] = []
    traced: list[dict] = []
    scratch = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        base_tree = scratch / "base"
        extract(base_rev, base_tree)
        trees = {"base": base_tree, "change": ROOT}
        pair = 0
        for seed in args.seeds:
            for workload in WORKLOADS:
                order = ("base", "change") if pair % 2 == 0 else ("change", "base")
                for side in order:
                    run = bench_once(trees[side], workload, seed)
                    runs.append({"workload": workload, "seed": seed, "side": side, **run})
                    print(
                        f"pair {pair} {workload} seed={seed} {side}: exit={run['exit']} "
                        f"{run.get('metrics', run.get('stderr_tail'))}",
                        flush=True,
                    )
                    if seed == args.seeds[0]:
                        run = bench_once(trees[side], workload, seed, trace=1)
                        traced.append({"workload": workload, "seed": seed, "side": side, **run})
                        print(f"traced {workload} seed={seed} {side}: exit={run['exit']}", flush=True)
                pair += 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    result = {
        "label": args.label,
        "base": base_rev,
        "change": f"working tree at {head}" + (" with uncommitted changes" if dirty else ""),
        "machine": machine(),
        "python": sys.version.split()[0],
        "command": "python3 perfbench/run.py --trace 0; --trace 1 once per side on the first seed",
        "seconds": CONTRACT["run_seconds"],
        "seeds": args.seeds,
        "order": "pairs alternate which side runs first",
        "summary": summarize(runs),
        "uneven_pool_pairs": uneven_pools(runs),
        "traced_count_diffs": count_diffs(traced),
        "runs": runs,
        "traced_runs": traced,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    for warning in result["uneven_pool_pairs"]:
        print(f"warning: {warning}", file=sys.stderr)
    for diff in result["traced_count_diffs"]:
        print(f"traced count differs: {diff}", file=sys.stderr)
    print(f"wrote {out}")
    return 0 if all(r["exit"] == 0 for r in runs + traced) else 1


if __name__ == "__main__":
    sys.exit(main())
