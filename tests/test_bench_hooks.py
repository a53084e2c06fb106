"""The names the benchmark patches from outside the package still exist.

`perfbench/tracer.py` wraps module-level names (``conductor.pipelines.
load_template``, ``conductor.retrieval.build_index``, ...) that the program
looks up at call time, and the benchmark times `run_method` where
`run_batch` looks it up. A refactor that moves one of them fails here
rather than as a failed benchmark run.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from conftest import FIXTURES
from conductor import pipelines
from conductor.backend import ReplayBackend
from conductor.core import SchemaKind
from conductor.data import load_dataset

TRACER = Path(__file__).parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_and_is_restored():
    tracer_module = _load_tracer()
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
