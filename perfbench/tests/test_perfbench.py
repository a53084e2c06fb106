"""The benchmark's own checks: seeded generation is reproducible and the
output check catches a single altered field."""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
for path in (BENCH, BENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import checks  # noqa: E402
import simserver  # noqa: E402
import workloads  # noqa: E402
from conductor.backend import CompletionRequest, request_hash  # noqa: E402


def _files(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def _pool(tmp_path: Path, name: str, workload: str, seed: int, samples: int, shards: int):
    parts = []
    for index in range(shards):
        part = tmp_path / f"{name}-part{index}"
        workloads.generate(workload, seed, samples, part, (index, shards))
        parts.append(part)
    workloads.merge(parts, tmp_path / name)
    return _files(tmp_path / name)


def test_same_seed_gives_identical_workload_files(tmp_path):
    for workload, samples in (("focus-replay", 10), ("strategy-replay", 20)):
        first = _pool(tmp_path, f"{workload}-a", workload, 7, samples, 1)
        assert first == _pool(tmp_path, f"{workload}-b", workload, 7, samples, 1)
        assert first == _pool(tmp_path, f"{workload}-c", workload, 7, samples, 2)
        other = _pool(tmp_path, f"{workload}-d", workload, 8, samples, 1)
        assert other["fixtures.jsonl"] != first["fixtures.jsonl"]


def test_output_check_flags_one_altered_field(tmp_path):
    workloads.generate("strategy-replay", 3, 10, tmp_path)
    reference = (tmp_path / "ref_cima_tpe.jsonl").read_text(encoding="utf-8").splitlines()
    assert checks.mismatches(reference, reference) == []

    for field, change in (
        ("response", lambda obj: obj["response"] + "!"),
        ("cost_usd", lambda obj: "0.999999"),
    ):
        altered = list(reference)
        obj = json.loads(altered[0])
        obj[field] = change(obj)
        altered[0] = json.dumps(obj, ensure_ascii=False)
        assert checks.mismatches(altered, reference) == [0], field

    altered = list(reference)
    obj = json.loads(altered[-1])
    obj["usages"][0]["completion_tokens"] += 1
    altered[-1] = json.dumps(obj, ensure_ascii=False)
    assert checks.mismatches(altered, reference) == [len(reference) - 1]
    assert checks.totals(altered) != checks.totals(reference)
    assert checks.mismatches(reference[:-1], reference) == [len(reference) - 1]


def test_live_check_ignores_only_timing_fields():
    line = json.dumps(
        {
            "response": "ok",
            "usages": [
                {"backend": "replay", "latency_ms": 0, "prompt_tokens": 3, "completion_tokens": 1}
            ],
        }
    )
    live = json.loads(line)
    live["usages"][0].update(backend="live", latency_ms=153)
    assert checks.mismatches([json.dumps(live)], [line], live=True) == []
    live["usages"][0]["prompt_tokens"] = 4
    assert checks.mismatches([json.dumps(live)], [line], live=True) == [0]


def test_sim_server_keys_requests_as_the_backend_hashes_them():
    messages = (("system", "Be brief."), ("user", "你好, what is BM25?"))
    request = CompletionRequest(messages=messages, model_id=workloads.MODEL)
    body = {"model": workloads.MODEL, "messages": [{"role": r, "content": c} for r, c in messages]}
    assert simserver.fixture_key(body) == request_hash(request)
