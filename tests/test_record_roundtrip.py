"""Record files survive a load and re-export unchanged.

Every record the golden replay digests pin (the ten supported fixture pairs
and the five scripted error records) is exported, loaded back and exported
again: the two files must be byte-identical and the loaded records equal to
the ones that were written. The in-memory codec inverts itself as well.
"""

from __future__ import annotations

import pytest

from conftest import FIXTURES, QueueBackend
from conductor.backend import ReplayBackend
from conductor.core import SchemaKind
from conductor.data import (
    export_records,
    load_dataset,
    load_records,
    record_from_obj,
    record_to_obj,
)
from conductor.pipelines import Method, MethodConfig, run_batch, run_method
from test_golden_replay import REPLAY_DIGESTS, SCRIPTED


def _samples(kind: str):
    return load_dataset(str(FIXTURES / f"{kind}_samples.jsonl"), SchemaKind(kind))


def _assert_round_trip(records, tmp_path) -> None:
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    export_records(records, str(first))
    loaded = load_records(str(first))
    export_records(loaded, str(second))
    assert second.read_bytes() == first.read_bytes()
    assert loaded == records
    assert [record_from_obj(record_to_obj(r)) for r in records] == records


@pytest.mark.parametrize("method,kind", sorted(REPLAY_DIGESTS))
def test_fixture_records_round_trip(method, kind, tmp_path):
    config = MethodConfig(method=Method(method), dataset_kind=SchemaKind(kind))
    backend = ReplayBackend.load(str(FIXTURES / "replay.jsonl"))
    _assert_round_trip(run_batch(_samples(kind), config, backend), tmp_path)


@pytest.mark.parametrize(
    "method,kind,index,max_steps,script",
    [case[1:6] for case in SCRIPTED],
    ids=[case[0] for case in SCRIPTED],
)
def test_scripted_records_round_trip(method, kind, index, max_steps, script, tmp_path):
    config = MethodConfig(
        method=method, dataset_kind=SchemaKind(kind), react_max_steps=max_steps
    )
    record = run_method(_samples(kind)[index], config, QueueBackend(*script))
    _assert_round_trip([record], tmp_path)
