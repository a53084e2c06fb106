from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from oracles import pairwise_source_plan, pairwise_strategy_plan
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


# Every ParseError branch of the two paired-line readers, pinned as
# (text, position, reason).
SOURCE_PLAN_ERRORS = [
    pytest.param(
        "Plan: a\nPlan: b\n#So1 = PERSONA[context]",
        2, "Plan line without a following assignment",
        id="consecutive-plan-lines",
    ),
    pytest.param(
        "Thought: first\n\nPlan: a\n\nprose\nPlan: b\n#So1 = PERSONA[context]",
        6, "Plan line without a following assignment",
        id="consecutive-plan-lines-across-prose",
    ),
    pytest.param(
        "#So1 = PERSONA[context]\n\nPlan: dangling\n\nThat is all.",
        3, "Plan line without a following assignment",
        id="trailing-plan-line",
    ),
    pytest.param(
        "Plan: a\n#So2 = PERSONA[context]\nPlan: b\n#So1 = DOCUMENT[context]",
        4, "variable index 1 does not increase (last was 2)",
        id="decreasing-index",
    ),
    pytest.param(
        "#So1 = PERSONA[context]\n\n#So1 = DOCUMENT[#So1]",
        3, "variable index 1 does not increase (last was 1)",
        id="repeated-index",
    ),
    pytest.param(
        "Plan: a\n#So0 = PERSONA[context]",
        2, "variable index 0 does not increase (last was 0)",
        id="zero-index",
    ),
    pytest.param("", 1, "empty plan", id="empty-text"),
    pytest.param("Thought: no plan\n\nmore prose", 1, "empty plan", id="prose-only"),
    pytest.param("#E1 = PERSONA[context]", 1, "empty plan", id="other-sigil-is-prose"),
]

STRATEGY_PLAN_ERRORS = [
    pytest.param(
        "Plan: Hint\nPlan: Question\nDo: x",
        2, "Plan line without a following Do line",
        id="consecutive-plan-lines",
    ),
    pytest.param(
        "Plan: Hint\nDo: x\n\nPlan: Question\ntrailing prose",
        4, "Plan line without a following Do line",
        id="trailing-plan-line",
    ),
    pytest.param(
        "Plan: Hint\nPlan:  ",
        2, "Plan line without a following Do line",
        id="pending-checked-before-empty-name",
    ),
    pytest.param("Plan:\nDo: x", 1, "Plan line names no strategy", id="empty-name"),
    pytest.param(
        "prose\nPlan:   \nPlan: Hint",
        2, "Plan line names no strategy",
        id="empty-name-before-next-plan-line",
    ),
    pytest.param("Do: x", 1, "Do line without a preceding Plan line", id="orphan-do"),
    pytest.param(
        "Plan: Hint\nDo: x\n\nDo: y",
        4, "Do line without a preceding Plan line",
        id="second-do-line",
    ),
    pytest.param("Plan: Hint\nDo:   ", 2, "Do line carries no fragment", id="empty-fragment"),
    pytest.param(
        "Plan: Hint\n\nprose\nDo:",
        4, "Do line carries no fragment",
        id="empty-fragment-across-prose",
    ),
    pytest.param("", 1, "no strategy steps found", id="empty-text"),
    pytest.param("just prose\n\n", 1, "no strategy steps found", id="prose-only"),
]


@pytest.mark.parametrize("text,position,reason", SOURCE_PLAN_ERRORS)
def test_source_plan_error_position_and_reason(text, position, reason):
    with pytest.raises(ParseError) as info:
        parse_source_plan(text, "#So")
    assert (info.value.position, info.value.reason) == (position, reason)
    assert str(info.value) == f"line {position}: {reason}"


@pytest.mark.parametrize("text,position,reason", STRATEGY_PLAN_ERRORS)
def test_strategy_plan_error_position_and_reason(text, position, reason):
    with pytest.raises(ParseError) as info:
        parse_strategy_plan(text)
    assert (info.value.position, info.value.reason) == (position, reason)
    assert str(info.value) == f"line {position}: {reason}"


@pytest.mark.parametrize(
    "text,name",
    [
        ("Plan: a\n#So1 = PERSONA[#So2]\nPlan: b\n#So2 = DOCUMENT[context]", "So2"),
        ("Plan: a\n#So1 = DOCUMENT[#So9]", "So9"),
        ("#So1 = DOCUMENT[overview of #So1]", "So1"),
        # the first error in line order wins
        ("#So1 = DOCUMENT[#So3]\nPlan: a\nPlan: b", "So3"),
    ],
)
def test_dangling_reference_names_variable(text, name):
    with pytest.raises(DanglingReference) as info:
        parse_source_plan(text, "#So")
    assert info.value.name == name
    assert str(info.value) == f"reference to undefined or later variable #{name}"


def test_plan_line_pairs_across_blank_lines_and_prose():
    source = parse_source_plan(
        "Plan: Search memories.\n\nI will now write it down.\n   \n#So1 = PERSONA[context]",
        "#So",
    )
    assert source == SourcePlanProgram(
        (SourcePlanStep("Search memories.", "PERSONA", "So1", QuerySpec((ContextRef(),))),)
    )
    strategy = parse_strategy_plan("Plan: Hint\n\nsome prose\n\t\nDo: box is scatola.")
    assert strategy == (StrategyPlanStep("Hint", "box is scatola."),)


@pytest.mark.parametrize("brackets", ["[]", "[  ]"], ids=["empty", "blank"])
def test_empty_brackets_are_one_empty_literal(brackets):
    program = parse_source_plan(f"Plan: Look it up.\n#So1 = PERSONA{brackets}", "#So")
    assert program.steps[0].query == QuerySpec((Literal(""),))
    assert substitute_vars(program.steps[0].query, EvidenceStore(), "ctx") == ""


# Differential oracle: the readers against copies of their earlier bodies
# (tests/oracles.py), on text built from labelled lines with ragged
# whitespace, so every pairing and error branch is reached.
_PAD = st.text(alphabet=" \t\r\x0b\x0c\x1c\x85\xa0\u2028\u3000", max_size=2)
_WORD = st.sampled_from(["", "Hint", "Question", "Search memories.", "x", "#So1"])


@st.composite
def _labelled_text(draw):
    index = st.integers(min_value=0, max_value=4)
    query = st.one_of(
        st.just("context"),
        st.builds(lambda s, i: f"{s}{i}", st.sampled_from(["#So", "#E"]), index),
        st.builds(lambda i: f"overview of #So{i}", index),
    )
    plan = st.builds(lambda w: f"Plan: {w}", _WORD)
    do = st.builds(lambda w: f"Do:{w}", _WORD)
    assignment = st.builds(
        lambda s, i, src, q: f"{s}{i} = {src}[{q}]",
        st.sampled_from(["#So", "#E"]),
        index,
        st.sampled_from(["PERSONA", "DOCUMENT"]),
        query,
    )
    prose = st.sampled_from(["", "Thought: think first.", "prose", "Plan", "Do"])
    if draw(st.booleans()):  # only pairs of one kind and prose, so plans also parse
        follower = draw(st.sampled_from([do, assignment]))
        line = st.one_of(st.builds(lambda p, f: f"{p}\n{f}", plan, follower), prose)
    else:
        line = st.one_of(plan, do, assignment, prose)
    padded = st.builds(lambda a, body, b: a + body + b, _PAD, line, _PAD)
    return "\n".join(draw(st.lists(padded, max_size=8)))


def _outcome(parse, text):
    try:
        return parse(text)
    except (ParseError, DanglingReference) as exc:
        return type(exc), str(exc)


@settings(max_examples=200)  # the readers are cheap; most texts end in an error
@given(_labelled_text(), st.sampled_from(["#So", "#E"]))
def test_readers_match_pairwise_oracle(text, sigil):
    assert _outcome(lambda t: parse_source_plan(t, sigil), text) == _outcome(
        lambda t: pairwise_source_plan(t, sigil), text
    )
    assert _outcome(parse_strategy_plan, text) == _outcome(pairwise_strategy_plan, text)


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


# Every ParseError branch of the reasoning/acting step parser, pinned as
# (text, position, reason). A text without an Action line names line 1;
# every other error names the final Action line.
REACT_STEP_ERRORS = [
    pytest.param(
        "Thought: nothing actionable here\n\nObservation: x",
        1, "no Action line present",
        id="no-action-line",
    ),
    pytest.param("", 1, "no Action line present", id="empty-text"),
    pytest.param("Thought: t\n\nAction:   ", 3, "Action line names no action", id="empty-action"),
    pytest.param(
        "Action: Hint\nThought: t\nAction:",
        3, "Action line names no action",
        id="final-action-line-empty",
    ),
    pytest.param(
        "Thought: t\nAction: Knowledge[open",
        2, "unclosed bracket in action",
        id="unclosed-bracket",
    ),
    pytest.param(
        "Thought: t\n\nAction: Knowledge]x[y",
        3, "unclosed bracket in action",
        id="closing-before-opening",
    ),
    # The Action line's leading whitespace is never part of the action, so
    # a bracket with no name before it is malformed, not a nameless call.
    pytest.param(
        "Thought: t\nAction: \u3000[x]",
        2, "malformed brackets in action",
        id="bracket-without-name",
    ),
    # The action ends at its closing "]": no text may follow it.
    pytest.param(
        "Thought: t\nAction: a[b]c[",
        2, "malformed brackets in action",
        id="bracket-after-call",
    ),
    pytest.param(
        "Thought: t\nAction: Finish[ok] trailing words",
        2, "malformed brackets in action",
        id="words-after-finish",
    ),
]


@pytest.mark.parametrize("text,position,reason", REACT_STEP_ERRORS)
def test_react_step_error_position_and_reason(text, position, reason):
    with pytest.raises(ParseError) as info:
        parse_react_step(text)
    assert (info.value.position, info.value.reason) == (position, reason)
    assert str(info.value) == f"line {position}: {reason}"


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

    def test_closing_bracket_alone_is_parse_error(self):
        with pytest.raises(ParseError) as exc_info:
            parse_react_step("Thought: t\nAction: Empathy]")
        assert exc_info.value.position == 2
        assert exc_info.value.reason == "malformed brackets in action"

    def test_takes_final_action(self):
        step = parse_react_step(
            "Thought: first\nAction: Persona[context]\n"
            "Observation: I like cities.\n"
            "Thought: second\nAction: Finish[done]"
        )
        assert step.action == Finish("done")
        assert step.thought == "second"


# Every ParseError branch of the module-list parser, pinned as
# (text, position, reason). Both errors name line 1, wherever the list is.
MODULE_LIST_ERRORS = [
    pytest.param("no list in sight", 1, "no Modules/Strategies list found", id="no-list"),
    pytest.param(
        'Thought: pick\nModules: ["A", "B"',
        1, "no Modules/Strategies list found",
        id="unclosed-list",
    ),
    pytest.param("Thought: none fit\nModules: []", 1, "module list is empty", id="empty-list"),
    pytest.param(
        "Strategies: [Hint, Question]", 1, "module list is empty", id="unquoted-names"
    ),
]


@pytest.mark.parametrize("text,position,reason", MODULE_LIST_ERRORS)
def test_module_list_error_position_and_reason(text, position, reason):
    with pytest.raises(ParseError) as info:
        parse_module_list(text)
    assert (info.value.position, info.value.reason) == (position, reason)
    assert str(info.value) == f"line {position}: {reason}"


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
