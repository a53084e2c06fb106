"""Every flow turns any model text into one well-formed record.

Hypothesis scripts the backend with arbitrary text and with text built from
the plan grammar's own lines (source plans, strategy pairs, reasoning/acting
steps, module lists), so both the parse-failure paths and the paths that run
a plan to its end are reached. For every supported (method, kind) pair,
`run_method` must return a record without raising and without an
`InternalError`, the record must invert through the in-memory codec, and a
record file must load and re-export byte for byte.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from conftest import FIXTURES
from conductor.backend import Backend, Generation, estimate_tokens
from conductor.core import Dialogue, RunRecord, SchemaKind, Utterance
from conductor.data import (
    Sample,
    export_records,
    load_dataset,
    load_records,
    record_from_obj,
    record_to_obj,
)
from conductor.pipelines import FLOWS, MethodConfig, run_method
from conductor.profiles import profile_for

# Every (method, kind) pair a MethodConfig accepts; together they reach each
# FLOWS entry.
PAIRS = [
    (method, kind)
    for method, multi_source in FLOWS
    for kind in SchemaKind
    if profile_for(kind).is_multi_source == multi_source
]

PSYQA_SAMPLE = Sample(
    id="psyqa-1",
    dialogue=Dialogue(
        id="psyqa-1",
        utterances=(Utterance("Seeker", "最近我总是失眠，该怎么办？"),),
        schema_kind=SchemaKind.PSYQA,
    ),
    gold_response="",
)

# Grammar lines a planner, an actor or a module policy might write.
LINES = st.sampled_from(
    [
        "Plan: Search for personal memories about the place.",
        "#So1 = PERSONA[context]",
        "#So2 = DOCUMENT[#So1]",
        "#So2 = KNOWLEDGE[overview of #So1]",
        "#So3 = WEATHER[context]",
        "#E1 = Persona[context]",
        "#E2 = Document[#E1 and more]",
        "#E2 = DOCUMENT[#E5]",
        "Plan: Hint",
        "Plan: Direct Guidance",
        "Do: box is scatola.",
        "Do: 试着每天散步半小时。",
        "Do:",
        "Thought: I need to search for more information.",
        "Action: PERSONA[context]",
        "Action: Knowledge[New Zealand [North Island]]",
        "Action: Calculator[1+1]",
        "Action: Hint",
        "Action: Question",
        "Action: Response",
        "Action: Finish[Sure, it is in Auckland.]",
        "Action: Finish[]",
        "Modules: ['Persona_Retrieval', 'Knowledge_Retrieval', 'Answer_Generator']",
        'Modules: ["Answer_Generator"]',
        "Modules: ['Weather_Retrieval']",
        "Modules: []",
        "Strategies: ['Hint', 'Question', 'Answer_Generator']",
        "Strategies: ['Approval and Reassurance', 'Direct Guidance']",
        "Strategies: ['Made Up']",
        "Observation: the persona says so",
        "",
    ]
)

SOURCES = st.sampled_from(["PERSONA", "DOCUMENT", "KNOWLEDGE", "Persona", "WEATHER"])
STRATEGIES = st.sampled_from(["Hint", "Question", "Direct Guidance", "Others", "Made Up"])
ACTIONS = st.sampled_from(
    [
        "PERSONA[context]",
        "DOCUMENT[]",
        "KNOWLEDGE[where is it]",
        "Hint",
        "Information",
        "Response",
        "Finish[It is in Auckland.]",
    ]
)
MODULES = st.sampled_from(
    ["Persona_Retrieval", "Knowledge_Retrieval", "Answer_Generator", "Hint", "Information"]
)


def _source_plan(sigil: str, names: list[str]) -> str:
    steps = []
    for i, name in enumerate(names, start=1):
        query = f"{sigil}{i - 1}" if i > 1 else "context"
        steps.append(f"Plan: step {i}\n{sigil}{i} = {name}[{query}]")
    return "\n".join(steps)


def _module_list(names: list[str]) -> str:
    cue = "Modules" if any("Retrieval" in name for name in names) else "Strategies"
    return f"{cue}: {names}"


# Outputs that parse, so that plans also run to their end.
WELL_FORMED = st.one_of(
    st.builds(
        _source_plan,
        st.sampled_from(["#So", "#E"]),
        st.lists(SOURCES, min_size=1, max_size=3),
    ),
    st.lists(STRATEGIES, min_size=1, max_size=3).map(
        lambda names: "\n".join(f"Plan: {n}\nDo: say {n.lower()}" for n in names)
    ),
    ACTIONS.map(lambda action: f"Thought: look it up.\nAction: {action}"),
    st.lists(MODULES, min_size=1, max_size=3).map(_module_list),
)

MODEL_TEXT = st.one_of(
    st.text(max_size=80),
    st.lists(st.one_of(LINES, st.text(max_size=30)), max_size=8).map("\n".join),
    WELL_FORMED,
)


class DrawnBackend(Backend):
    """Answers each request with text drawn from `MODEL_TEXT`."""

    def __init__(self, data):
        self.data = data

    def complete(self, request) -> Generation:
        text = self.data.draw(MODEL_TEXT, label="generation")
        return Generation(
            text=text,
            prompt_tokens=estimate_tokens(request.prompt_text),
            completion_tokens=estimate_tokens(text),
            latency_ms=0,
            backend_tag="drawn",
            model_id=request.model_id,
        )


def _samples(kind: SchemaKind) -> list[Sample]:
    if kind is SchemaKind.PSYQA:
        return [PSYQA_SAMPLE]
    return load_dataset(str(FIXTURES / f"{kind.value}_samples.jsonl"), kind)


SAMPLES = {kind: _samples(kind) for kind in SchemaKind}


def test_pairs_cover_every_flow():
    assert {(m, profile_for(k).is_multi_source) for m, k in PAIRS} == set(FLOWS)


@pytest.mark.parametrize(
    "method,kind", PAIRS, ids=[f"{m.value}-{k.value}" for m, k in PAIRS]
)
@given(data=st.data(), max_steps=st.integers(min_value=1, max_value=4))
def test_any_model_text_gives_one_well_formed_record(method, kind, data, max_steps):
    sample = data.draw(st.sampled_from(SAMPLES[kind]), label="sample")
    config = MethodConfig(method=method, dataset_kind=kind, react_max_steps=max_steps)
    record = run_method(sample, config, DrawnBackend(data))

    assert isinstance(record, RunRecord)
    assert record.sample_id == sample.id
    assert record.error is None or record.error.kind != "InternalError", record.error
    assert record_from_obj(record_to_obj(record)) == record
    with tempfile.TemporaryDirectory() as scratch:
        first, second = Path(scratch, "first.jsonl"), Path(scratch, "second.jsonl")
        export_records([record], str(first))
        loaded = load_records(str(first))
        export_records(loaded, str(second))
        assert second.read_bytes() == first.read_bytes()
    assert loaded == [record]
