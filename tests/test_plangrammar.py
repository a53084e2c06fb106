from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from conductor.core import EvidenceStore, Evidence
from conductor.errors import (
    DanglingReference,
    ParseError,
    UnboundVariable,
)
from conductor.plangrammar import (
    ContextRef,
    Finish,
    Literal,
    QuerySpec,
    SourcePlanProgram,
    SourcePlanStep,
    StrategyCall,
    StrategyPlanStep,
    ToolCall,
    VarRef,
    parse_module_list,
    parse_react_step,
    parse_source_plan,
    parse_strategy_plan,
    render_source_plan,
    render_strategy_plan,
    substitute_vars,
)


class TestParseSourcePlan:
    def test_two_step_dependency_plan(self):
        text = (
            "Plan: Search for personal memories about the place.\n"
            "#So1 = PERSONA[context]\n"
            "Plan: Search for more information about the place.\n"
            "#So2 = DOCUMENT[#So1]"
        )
        program = parse_source_plan(text, "#So")
        assert len(program.steps) == 2
        first, second = program.steps
        assert first.source_name == "PERSONA"
        assert first.output_var == "So1"
        assert first.query.parts == (ContextRef(),)
        assert second.source_name == "DOCUMENT"
        assert second.query.parts == (VarRef("So1"),)
        assert second.output_var == "So2"

    def test_literal_query(self):
        text = (
            "Plan: Search for more information about the Arctic Cordillera.\n"
            "#So1 = DOCUMENT[The Arctic Cordillera]"
        )
        program = parse_source_plan(text, "#So")
        assert program.steps[0].query.parts == (Literal("The Arctic Cordillera"),)

    def test_e_sigil_and_bare_first_assignment(self):
        text = "#E1 = PERSONA[context]\nPlan: next\n#E2 = KNOWLEDGE[#E1]"
        program = parse_source_plan(text, "#E")
        assert [s.output_var for s in program.steps] == ["E1", "E2"]
        assert program.steps[0].description == ""
        assert program.steps[1].query.parts == (VarRef("E1"),)

    def test_empty_is_parse_error(self):
        with pytest.raises(ParseError):
            parse_source_plan("", "#So")

    def test_leading_thought_block_ignored(self):
        text = (
            "Thought: I need personal memories first.\n"
            "Some spilled prose.\n"
            "Plan: Search.\n#So1 = PERSONA[context]\n"
            "That is all."
        )
        program = parse_source_plan(text, "#So")
        assert len(program.steps) == 1

    def test_forward_reference_rejected(self):
        with pytest.raises(DanglingReference):
            parse_source_plan("Plan: a\n#So1 = PERSONA[#So2]\nPlan: b\n#So2 = DOCUMENT[context]", "#So")

    def test_unknown_reference_rejected(self):
        with pytest.raises(DanglingReference):
            parse_source_plan("Plan: a\n#So1 = DOCUMENT[#So9]", "#So")

    def test_non_increasing_index_rejected(self):
        with pytest.raises(ParseError):
            parse_source_plan(
                "Plan: a\n#So2 = PERSONA[context]\nPlan: b\n#So1 = DOCUMENT[context]",
                "#So",
            )

    def test_dangling_plan_line_rejected(self):
        with pytest.raises(ParseError):
            parse_source_plan("Plan: a\nPlan: b\n#So1 = PERSONA[context]", "#So")

    def test_mixed_literal_and_var(self):
        program = parse_source_plan("Plan: a\n#So1 = PERSONA[context]\nPlan: b\n#So2 = DOCUMENT[overview of #So1]", "#So")
        assert program.steps[1].query.parts == (Literal("overview of"), VarRef("So1"))


class TestParseStrategyPlan:
    def test_hint_question(self):
        steps = parse_strategy_plan(
            "Plan: Hint\nDo: box is scatola.\n"
            "Plan: Question\nDo: Do you remember how to say the plant?"
        )
        assert steps == (
            StrategyPlanStep("Hint", "box is scatola."),
            StrategyPlanStep("Question", "Do you remember how to say the plant?"),
        )

    def test_single_step(self):
        steps = parse_strategy_plan("Plan: Hint\nDo: la pianta e dentro la scatola verdeverde")
        assert len(steps) == 1

    def test_orphan_plan_line(self):
        with pytest.raises(ParseError):
            parse_strategy_plan("Plan: Hint\nPlan: Question\nDo: x")

    def test_orphan_do_line(self):
        with pytest.raises(ParseError):
            parse_strategy_plan("Do: x")

    def test_multiplicity_preserved(self):
        steps = parse_strategy_plan(
            "Plan: Hint\nDo: one\nPlan: Question\nDo: two\nPlan: Hint\nDo: three"
        )
        assert [s.strategy_name for s in steps] == ["Hint", "Question", "Hint"]

    def test_invented_names_kept(self):
        steps = parse_strategy_plan("Plan: Hint Confirmation\nDo: mixed move")
        assert steps[0].strategy_name == "Hint Confirmation"

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["Hint", "Question", "Correction", "Hint Confirmation"]),
                st.text(
                    alphabet=st.characters(blacklist_characters="\n\r", min_codepoint=32),
                    min_size=1,
                ).filter(lambda s: s.strip() == s and s),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_round_trip(self, pairs):
        steps = tuple(StrategyPlanStep(n, f) for n, f in pairs)
        assert parse_strategy_plan(render_strategy_plan(steps)) == steps


class TestParseReactStep:
    def test_tool_call(self):
        step = parse_react_step(
            "Thought: I need to search for more information about the Arctic Cordillera.\n"
            "Action: Knowledge[The Arctic Cordillera]"
        )
        assert step.action == ToolCall("Knowledge", "The Arctic Cordillera")
        assert step.thought.startswith("I need to search")

    def test_finish_with_nested_brackets(self):
        step = parse_react_step(
            "Thought: combine them\n"
            "Action: Finish[It's called Newton [a suburb] and it is small.]"
        )
        assert step.action == Finish("It's called Newton [a suburb] and it is small.")

    def test_bare_strategy_call(self):
        step = parse_react_step("Thought: I need to provide a hint\nAction: Hint")
        assert step.action == StrategyCall("Hint")

    def test_multiword_strategy_call(self):
        step = parse_react_step("Thought: reassure\nAction: Approval and Reassurance")
        assert step.action == StrategyCall("Approval and Reassurance")

    def test_missing_action_is_parse_error(self):
        with pytest.raises(ParseError):
            parse_react_step("Thought: nothing actionable here")

    def test_takes_final_action(self):
        step = parse_react_step(
            "Thought: first\nAction: Persona[context]\n"
            "Observation: I like cities.\n"
            "Thought: second\nAction: Finish[done]"
        )
        assert step.action == Finish("done")
        assert step.thought == "second"


class TestParseModuleList:
    def test_double_quoted_modules(self):
        names = parse_module_list('Modules: ["Knowledge_Retrieval", "Answer_Generator"]')
        assert names == ("Knowledge_Retrieval", "Answer_Generator")

    def test_single_quoted_strategies(self):
        assert parse_module_list("Strategies: ['Hint', 'Question']") == ("Hint", "Question")

    def test_empty_list_rejected(self):
        with pytest.raises(ParseError):
            parse_module_list("Modules: []")

    def test_missing_list_rejected(self):
        with pytest.raises(ParseError):
            parse_module_list("no list in sight")


class TestSubstituteVars:
    def _store(self):
        store = EvidenceStore()
        store.bind(
            "So1",
            Evidence("So1", "PERSONA", "q", (("persona-00", "I like living in a city.", 1.0),)),
        )
        store.bind("St1", "a fragment")
        return store

    def test_pure_var(self):
        out = substitute_vars(QuerySpec((VarRef("So1"),)), self._store(), "ctx")
        assert out == "I like living in a city."

    def test_context_ref(self):
        out = substitute_vars(QuerySpec((ContextRef(),)), self._store(), "USER: I know this place")
        assert out == "USER: I know this place"

    def test_literal_plus_var(self):
        out = substitute_vars(
            QuerySpec((Literal("overview of"), VarRef("So1"))),
            self._store(),
            "ctx",
        )
        assert out == "overview of I like living in a city."

    def test_fragment_binding(self):
        assert substitute_vars(QuerySpec((VarRef("St1"),)), self._store(), "c") == "a fragment"

    def test_unbound(self):
        with pytest.raises(UnboundVariable):
            substitute_vars(QuerySpec((VarRef("So9"),)), self._store(), "c")


# Round-trip property: rendering a valid program and re-parsing it yields a
# structurally identical program.

_literal = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"), max_codepoint=0x2FF),
    min_size=1,
    max_size=12,
).filter(lambda s: s != "context")
_source = st.sampled_from(["PERSONA", "DOCUMENT", "KNOWLEDGE", "WEB"])


@st.composite
def _programs(draw):
    n_steps = draw(st.integers(min_value=1, max_value=4))
    steps = []
    for i in range(1, n_steps + 1):
        choices = ["context", "literal"] + (["var"] if i > 1 else [])
        mode = draw(st.sampled_from(choices))
        if mode == "context":
            parts = (ContextRef(),)
        elif mode == "var":
            ref = draw(st.integers(min_value=1, max_value=i - 1))
            if draw(st.booleans()):
                parts = (VarRef(f"So{ref}"),)
            else:
                parts = (Literal(draw(_literal)), VarRef(f"So{ref}"))
        else:
            parts = (Literal(draw(_literal)),)
        steps.append(
            SourcePlanStep(
                description=draw(_literal),
                source_name=draw(_source),
                output_var=f"So{i}",
                query=QuerySpec(parts),
            )
        )
    return SourcePlanProgram(tuple(steps))


@given(_programs())
def test_source_plan_round_trip(program):
    rendered = render_source_plan(program, "#So")
    assert parse_source_plan(rendered, "#So") == program


@given(_programs())
def test_no_forward_references_survive(program):
    rendered = render_source_plan(program, "#So")
    parsed = parse_source_plan(rendered, "#So")
    defined: set[str] = set()
    for step in parsed.steps:
        assert all(ref in defined for ref in step.query.var_names())
        defined.add(step.output_var)


@given(st.text(max_size=300))
def test_parsers_never_panic(text):
    for parse in (
        lambda t: parse_source_plan(t, "#So"),
        parse_strategy_plan,
        parse_react_step,
        parse_module_list,
    ):
        try:
            parse(text)
        except (ParseError, DanglingReference):
            pass
