"""Pinned bytes of replay record files.

Every supported (method, kind) pair runs the shipped fixtures through
`run_batch` on the fixture replay backend; the sha256 of the exported file
is pinned. Scripted runs pin the bytes of the error records that plan
failures, unknown tools, loop exhaustion and unknown module names produce.
A change to any digest is a change to the record format or to pipeline
behaviour, never a refactoring.
"""

from __future__ import annotations

import hashlib

import pytest

from conftest import FIXTURES, QueueBackend
from conductor.backend import ReplayBackend
from conductor.core import SchemaKind
from conductor.data import export_records, load_dataset
from conductor.pipelines import Method, MethodConfig, run_batch, run_method

REPLAY_DIGESTS = {
    ("tpe", "focus"): "b13ef94a4bd25c6950135dacfb12f3c640c6e7e2eb3b78e862229227e93668c7",
    ("cot", "focus"): "3b99245181d406093485e345542386807674b1d72f891ef3c1e9dbfdc6270024",
    ("react", "focus"): "8a0be5ba15fe4008c3c978381fa63a5e28d3368d4a57471a4e4a7f537c9a4c56",
    ("rewoo", "focus"): "1b7c21a8dd9ecc73230684557341d5dcb2f6a18c3aaa95ad6348e0b61f0fa4bf",
    ("chameleon", "focus"): "08c307bcf508b8a04da2d43a5b59200b8b7b36c331291625fe820d6bbef879d4",
    ("tpe", "cima"): "aa57c2e1b4ddab2f1e4d1073bf77927f5efc68b97ebb866a186877062b71c8f4",
    ("cot", "cima"): "7fbe06fe323340f39e3659ad0a3b8a70f1bfc9825f2d95d25f2971b13f2175b7",
    ("react", "cima"): "1ab07e73e06a106e851862d560dc5e93919a2acf3bd42917c28a9f1a023ba6c5",
    ("chameleon", "cima"): "ab74c2b177348bc874ac3218d94ffce47ec55d9548c4e49c0ce760bcec55ad85",
    ("cuecot", "cima"): "71400896b79f08abf113109f48251d65c71b09e7a8732d4a2b877a8118cbdc00",
}


def _samples(kind: str):
    return load_dataset(str(FIXTURES / f"{kind}_samples.jsonl"), SchemaKind(kind))


def _digest(records, tmp_path) -> str:
    path = tmp_path / "records.jsonl"
    export_records(records, str(path))
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("method,kind", sorted(REPLAY_DIGESTS))
def test_fixture_replay_digest(method, kind, tmp_path):
    config = MethodConfig(method=Method(method), dataset_kind=SchemaKind(kind))
    backend = ReplayBackend.load(str(FIXTURES / "replay.jsonl"))
    records = run_batch(_samples(kind), config, backend)
    assert [r.error for r in records] == [None] * len(records)
    assert _digest(records, tmp_path) == REPLAY_DIGESTS[(method, kind)]


# (name, method, kind, sample index, max ReAct steps, scripted generations,
#  expected error kind, expected evidence variables, pinned digest)
SCRIPTED = [
    (
        "tpe_unknown_source_in_step_two",
        Method.TPE, "focus", 0, 8,
        (
            "the thought",
            "Search.\n#So1 = PERSONA[context]\nPlan: more\n#So2 = WEB[#So1]",
        ),
        "UnknownTool", (),
        "82e99ed4b78fdc2bdb1adeaeb2869daaad63cc2beea31a41b1480b581ae5973b",
    ),
    (
        "tpe_unparseable_plan",
        Method.TPE, "focus", 0, 8,
        ("the thought", "no plan structure whatsoever"),
        "ParseError", (),
        "7bef69eef365fa10d7e8b13b7f2cc513daf42ba40c5fc689201dc4e4ddd09923",
    ),
    (
        "tpe_cima_unparseable_strategy_plan",
        Method.TPE, "cima", 0, 8,
        ("the thought", "Hint\nDo: box is scatola.\nPlan: Question"),
        "ParseError", (),
        "5dd9bb0c074a8865e363842ce58644b0978cb441f494bf582cd1b583757422bf",
    ),
    (
        "tpe_focus_consecutive_plan_lines",
        Method.TPE, "focus", 0, 8,
        (
            "the thought",
            "Search memories.\nPlan: Search documents.\n#So1 = PERSONA[context]",
        ),
        "ParseError", (),
        "2f32e81793a17c6f0f31a56b7d15f97ba24a02c4287492b482b46516802b4111",
    ),
    (
        "react_focus_exhaustion",
        Method.REACT, "focus", 0, 3,
        ("Thought: still looking\nAction: Knowledge[The Arctic Cordillera]",) * 3,
        "FallbackExhausted", ("Obs1", "Obs2", "Obs3"),
        "16e4fe1a8b1583c48503a84d1b47c1944cb901bd8b4eb07c8e4e2da9aa30bddf",
    ),
    (
        "react_cima_bracketed_tool_call",
        Method.REACT, "cima", 0, 8,
        ("Thought: look it up\nAction: Knowledge[scatola]",),
        "UnknownTool", (),
        "edddd15aa60fb528de717c711accce72c0ab406aeefc7060e2e5829661955b74",
    ),
    (
        "chameleon_focus_unknown_modules_only",
        Method.CHAMELEON, "focus", 0, 8,
        (' ["Web_Search", "Calculator"]', "the answer"),
        None, ("K1", "K2"),
        "5738a541e3e9d6d6e25ae316c41416e28578b2d2b38236998fb202e997988ba0",
    ),
]


@pytest.mark.parametrize(
    "method,kind,index,max_steps,script,error,variables,digest",
    [case[1:] for case in SCRIPTED],
    ids=[case[0] for case in SCRIPTED],
)
def test_scripted_record_digest(
    method, kind, index, max_steps, script, error, variables, digest, tmp_path
):
    config = MethodConfig(
        method=method, dataset_kind=SchemaKind(kind), react_max_steps=max_steps
    )
    backend = QueueBackend(*script)
    record = run_method(_samples(kind)[index], config, backend)
    assert not backend.queue
    assert (record.error.kind if record.error else None) == error
    assert record.evidence.variables() == variables
    assert _digest([record], tmp_path) == digest
