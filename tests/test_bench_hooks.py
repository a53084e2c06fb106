"""The names the benchmark patches from outside the package still exist.

`perfbench/tracer.py` wraps module-level names (``conductor.pipelines.
load_template``, ``conductor.retrieval.build_index``, ...) that the program
looks up at call time, and the benchmark times `run_method` where
`run_batch` looks it up. A refactor that moves one of them fails here
rather than as a failed benchmark run. The eval-phase guard catches a
metric that stops looking its helpers up where the tracer patches them, and
the construction guard a backend or `Generation` signature the harness
still calls.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

from conftest import FIXTURES
from conductor import evalmetrics, pipelines
from conductor.backend import (
    API_KEY_ENV,
    CompletionRequest,
    Generation,
    LiveBackend,
    ReplayBackend,
    make_fixture_record,
)
from conductor.core import RunRecord, SchemaKind
from conductor.data import load_dataset, references_from_samples, select_demonstrations

PERFBENCH = Path(__file__).parent.parent / "perfbench"


def _load(name: str):
    path = PERFBENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_and_is_restored():
    tracer_module = _load("tracer")
    owners = [
        (tracer_module._resolve(path), attr) for path, attr, _ in tracer_module.TARGETS
    ]
    originals = [owner.__dict__[attr] for owner, attr in owners]
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for owner, attr in owners:
            assert hasattr(getattr(owner, attr), "__wrapped__"), attr
    finally:
        tracer.uninstall()
    assert [owner.__dict__[attr] for owner, attr in owners] == originals


def test_run_batch_calls_the_module_level_run_method(monkeypatch):
    seen = []
    original = pipelines.run_method

    def spy(sample, config, *args, **kwargs):
        seen.append(sample.id)
        return original(sample, config, *args, **kwargs)

    monkeypatch.setattr(pipelines, "run_method", spy)
    samples = load_dataset(str(FIXTURES / "cima_samples.jsonl"), SchemaKind.CIMA)
    config = pipelines.MethodConfig(
        method=pipelines.Method.COT, dataset_kind=SchemaKind.CIMA
    )
    backend = ReplayBackend.load(str(FIXTURES / "replay.jsonl"))
    for parallelism in (1, 2):
        seen.clear()
        records = pipelines.run_batch(samples, config, backend, parallelism=parallelism)
        assert sorted(seen) == sorted(sample.id for sample in samples)
        assert [record.error for record in records] == [None] * len(samples)


# The eval layers the benchmark's zero-call guard expects to be busy.
EVAL_LAYERS = (
    "evalmetrics.avg_bleu",
    "evalmetrics.token_f1",
    "evalmetrics.rouge_l",
    "evalmetrics.corpus_bleu",
    "evalmetrics.distinct_n",
    "retrieval.tokenize",
)


def _replayed(kind: SchemaKind):
    samples = load_dataset(str(FIXTURES / f"{kind.value}_samples.jsonl"), kind)
    config = pipelines.MethodConfig(method=pipelines.Method.TPE, dataset_kind=kind)
    backend = ReplayBackend.load(str(FIXTURES / "replay.jsonl"))
    records = pipelines.run_batch(samples, config, backend)
    return records, references_from_samples(samples)


def _psyqa():
    texts = [
        demo.response_text for demo in select_demonstrations(SchemaKind.PSYQA, "tpe")
    ]
    records = [
        RunRecord(sample_id=f"p{i}", method="tpe", kind=SchemaKind.PSYQA, response=text)
        for i, text in enumerate(texts)
    ]
    return records, [(r.sample_id, text) for r, text in zip(records, texts[::-1])]


def test_eval_phase_reaches_every_traced_metric(monkeypatch):
    scored = {kind: _replayed(kind) for kind in (SchemaKind.FOCUS, SchemaKind.CIMA)}
    scored[SchemaKind.PSYQA] = _psyqa()
    tracer = _load("tracer").Tracer()
    tracer.install()
    try:
        tracer.phase = "eval"
        # Every tokenize call of the eval phase goes through the name the
        # tracer patches in conductor.evalmetrics.
        via_evalmetrics = []
        traced_tokenize = evalmetrics.tokenize

        def spy(text, *args, **kwargs):
            via_evalmetrics.append(text)
            return traced_tokenize(text, *args, **kwargs)

        monkeypatch.setattr(evalmetrics, "tokenize", spy)
        for kind, (records, references) in scored.items():
            evalmetrics.score_run(records, references, evalmetrics.EvalConfig(kind=kind))
    finally:
        monkeypatch.undo()
        tracer.uninstall()
    for layer in EVAL_LAYERS:
        assert tracer.layer("eval", layer)[0] > 0, layer
    assert tracer.layer("eval", "retrieval.tokenize")[0] == len(via_evalmetrics)
    assert tracer.layer("run", "retrieval.tokenize")[0] == 0


def test_backends_build_as_the_harness_builds_them(monkeypatch, tmp_path):
    # perfbench/bench.py: the live-sim backend posts to an in-process server.
    fixture = make_fixture_record("gpt-3.5-turbo", "prompt", "reply")
    server = _load("simserver").SimServer({fixture["hash"]: fixture}, 0.0)
    monkeypatch.setenv(API_KEY_ENV, "perfbench-dummy-key")
    live = LiveBackend("http://sim.invalid/v1", post_fn=server.post)
    request = CompletionRequest(messages=(("user", "prompt"),), model_id="gpt-3.5-turbo")
    assert live.complete(request).text == "reply"
    assert (server.posts, server.in_flight_max) == (1, 1)
    # perfbench/setup_probe.py: set-up time of each backend.
    LiveBackend("http://127.0.0.1:9/v1")
    path = tmp_path / "fixtures.jsonl"
    path.write_text(json.dumps(fixture) + "\n", encoding="utf-8")
    assert ReplayBackend.load(str(path)).complete(request).text == "reply"
    # perfbench/workloads.py: ScriptedBackend's generations.
    generation = Generation(
        text="reply",
        prompt_tokens=1,
        completion_tokens=1,
        latency_ms=0,
        backend_tag="replay",
        model_id="gpt-3.5-turbo",
    )
    assert generation.usage().backend_tag == "replay"
