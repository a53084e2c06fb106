"""Golden-file pins for the committed prompt templates.

The snapshots under tests/golden/ were frozen after the first faithful
transcription of the committed templates; any byte drift in template files,
personas, toolsets, or demo banks fails here.
"""

from __future__ import annotations

from importlib import resources

import pytest

from conftest import FIXTURES, GOLDEN
from conductor.backend import ReplayBackend
from conductor.core import SchemaKind, load_template
from conductor.data import load_dataset
from conductor.pipelines import Method, MethodConfig, run_method

# Prompt call site (flow and dataset kind) -> the template file it loads.
# Call sites whose prompt text is byte-identical share one file.
ALL_TEMPLATES = {
    "tpe_thinker_focus": "tpe_thinker",
    "tpe_thinker_cima": "tpe_thinker",
    "tpe_thinker_psyqa": "tpe_thinker",
    "tpe_planner_focus": "tpe_planner_focus",
    "tpe_executor_focus": "response",
    "tpe_plannerexec_cima": "tpe_plannerexec_cima",
    "tpe_plannerexec_psyqa": "tpe_plannerexec_psyqa",
    "cot_focus": "response",
    "cot_cima": "response",
    "cot_psyqa": "response",
    "cuecot_status_cima": "cuecot_status",
    "cuecot_status_psyqa": "cuecot_status",
    "cuecot_response_cima": "cuecot_response",
    "cuecot_response_psyqa": "cuecot_response",
    "react_focus": "react_focus",
    "react_cima": "react_cima",
    "react_psyqa": "react_psyqa",
    "rewoo_planner_focus": "rewoo_planner_focus",
    "rewoo_solver_focus": "rewoo_solver_focus",
    "chameleon_planner_focus": "chameleon_planner_modules",
    "chameleon_answer_focus": "response",
    "chameleon_planner_cima": "chameleon_planner_strategies",
    "chameleon_strategy_cima": "chameleon_strategy",
    "chameleon_planner_psyqa": "chameleon_planner_strategies",
    "chameleon_strategy_psyqa": "chameleon_strategy",
}

KNOWN_SLOTS = {
    "persona", "toolset", "demos", "extras", "dialogue", "scratchpad", "strategy",
}


class TestTemplateFiles:
    @pytest.mark.parametrize("name", ALL_TEMPLATES.values(), ids=ALL_TEMPLATES)
    def test_loads_and_uses_known_slots(self, name):
        template = load_template(name)
        assert template.text
        assert set(template.slots()) <= KNOWN_SLOTS
        assert "{dialogue}" in template.text or "{scratchpad}" in template.text

    def test_every_committed_file_is_in_the_registry_list(self):
        files = {
            path.name[: -len(".txt")]
            for path in resources.files("conductor").joinpath("templates").iterdir()
            if path.name.endswith(".txt")
        }
        assert files == set(ALL_TEMPLATES.values())

    def test_react_focus_keeps_table_anchors(self):
        text = load_template("react_focus").text
        assert "interleaving Thought, Action, Observation steps" in text
        assert "(3) Finish[response], which returns the response and finishes the task." in text

    def test_react_cima_keeps_numbering_quirk(self):
        # the committed table numbers the composing action (8) after (5)
        text = load_template("react_cima").text
        assert "(5) Others:" in text
        assert "(8) Response: Combines all observations, and forms the final response." in text

    def test_planner_header_wording_per_dataset(self):
        assert "The two knowledge sources of evidence are defined as follows:" in (
            load_template("tpe_planner_focus").text
        )
        assert "The five strategies are defined as follows:" in (
            load_template("tpe_plannerexec_cima").text
        )
        assert "The seven strategies are defined as follows:" in (
            load_template("tpe_plannerexec_psyqa").text
        )
        assert "The modules are defined as follows:" in (
            load_template("chameleon_planner_modules").text
        )


def _prompt_for(method: Method, kind: SchemaKind, sample_index: int, pick) -> str:
    fixtures = str(FIXTURES / "replay.jsonl")
    dataset = FIXTURES / ("focus_samples.jsonl" if kind is SchemaKind.FOCUS else "cima_samples.jsonl")
    samples = load_dataset(str(dataset), kind)
    backend = ReplayBackend.load(fixtures)
    seen = []
    original = backend.complete

    def tap(request):
        seen.append(request.prompt_text)
        return original(request)

    backend.complete = tap
    record = run_method(samples[sample_index], MethodConfig(method=method, dataset_kind=kind), backend)
    assert record.error is None
    return pick(seen)


class TestGoldenPrompts:
    def test_tpe_planner_focus_f2(self):
        prompt = _prompt_for(Method.TPE, SchemaKind.FOCUS, 1, lambda seen: seen[1])
        assert prompt == (GOLDEN / "tpe_planner_focus_f2.txt").read_text(encoding="utf-8")

    def test_tpe_executor_focus_f2(self):
        prompt = _prompt_for(Method.TPE, SchemaKind.FOCUS, 1, lambda seen: seen[2])
        assert prompt == (GOLDEN / "tpe_executor_focus_f2.txt").read_text(encoding="utf-8")

    def test_react_focus_f2_first_prompt(self):
        prompt = _prompt_for(Method.REACT, SchemaKind.FOCUS, 1, lambda seen: seen[0])
        assert prompt == (GOLDEN / "react_focus_f2_first.txt").read_text(encoding="utf-8")

    def test_planner_prompt_embeds_exemplar_plan_lines(self):
        golden = (GOLDEN / "tpe_planner_focus_f2.txt").read_text(encoding="utf-8")
        for anchor in (
            "#So1 = PERSONA[context]",
            "#So2 = DOCUMENT[#So1]",
            "#So1 = DOCUMENT[The Arctic Cordillera]",
            "- PERSONA: This knowledge base stores",
            "- DOCUMENT: This knowledge base stores",
        ):
            assert anchor in golden
