from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from conductor.core import (
    ROLE_LABELS,
    Demonstration,
    Dialogue,
    Evidence,
    EvidenceStore,
    PromptTemplate,
    SchemaKind,
    Thought,
    Utterance,
    load_template,
    render_demo_slot,
    render_demonstration,
    render_dialogue,
    render_toolset,
)
from conductor.errors import MissingSection
from conductor.profiles import CIMA_STRATEGIES, FOCUS_SOURCES


def _dialogue(*turns: tuple[str, str], kind=SchemaKind.FOCUS) -> Dialogue:
    return Dialogue(
        id="d",
        utterances=tuple(Utterance(speaker=s, text=t) for s, t in turns),
        schema_kind=kind,
    )


class TestTypes:
    def test_utterance_rejects_blank_text(self):
        with pytest.raises(ValueError):
            Utterance(speaker="USER", text="   ")

    def test_dialogue_must_end_on_user_side(self):
        with pytest.raises(ValueError, match="USER"):
            _dialogue(("USER", "hi"), ("SYSTEM", "hello"))

    def test_dialogue_rejects_foreign_speaker(self):
        with pytest.raises(ValueError, match="Teacher"):
            _dialogue(("Teacher", "hi"))

    def test_cima_roles(self):
        d = _dialogue(("Teacher", "Green is verde."), ("Student", "what is green?"),
                      kind=SchemaKind.CIMA)
        assert ROLE_LABELS[d.schema_kind] == ("Student", "Teacher")

    def test_thought_nonempty(self):
        with pytest.raises(ValueError):
            Thought("   ")

    def test_demonstration_needs_some_field(self):
        with pytest.raises(ValueError):
            Demonstration(dialogue_text="USER: hi")

    def test_evidence_scores_non_increasing(self):
        with pytest.raises(ValueError):
            Evidence("So1", "PERSONA", "q", (("a", "x", 0.1), ("b", "y", 0.5)))

    def test_evidence_store_orders_and_rejects_rebind(self):
        store = EvidenceStore()
        store.bind("So1", "first")
        store.bind("So2", "second")
        assert store.variables() == ("So1", "So2")
        assert store.text_of("So1") == "first"
        with pytest.raises(ValueError):
            store.bind("So1", "again")


class TestRenderDialogue:
    def test_two_turn_focus(self):
        d = _dialogue(
            ("USER", "What is the geography of this place?"),
            ("SYSTEM", "The Arctic Cordillera is geographically diverse."),
            ("USER", "What is the overview of this area?"),
        )
        assert render_dialogue(d) == (
            "USER: What is the geography of this place?\t"
            "SYSTEM: The Arctic Cordillera is geographically diverse.\t"
            "USER: What is the overview of this area?"
        )

    def test_single_turn(self):
        assert render_dialogue(_dialogue(("USER", "Hi"))) == "USER: Hi"

    def test_cima_labels(self):
        d = _dialogue(
            ("Teacher", "Green is verde."),
            ("Student", "what is the word for green?"),
            kind=SchemaKind.CIMA,
        )
        assert render_dialogue(d) == (
            "Teacher: Green is verde.\tStudent: what is the word for green?"
        )

    @given(
        st.lists(
            st.text(
                alphabet=st.characters(blacklist_characters="\t\n\r", min_codepoint=32),
                min_size=1,
            ).filter(lambda s: s.strip()),
            min_size=1,
            max_size=6,
        )
    )
    def test_round_trip(self, texts):
        # alternate speakers backwards from the final (user-side) turn
        turns = []
        for i, text in enumerate(reversed(texts)):
            speaker = "USER" if i % 2 == 0 else "SYSTEM"
            turns.append((speaker, text))
        turns.reverse()
        dialogue = _dialogue(*turns)
        # tab-separated "ROLE: text" segments give the utterances back
        recovered = tuple(
            Utterance(*segment.split(": ", 1))
            for segment in render_dialogue(dialogue).split("\t")
        )
        assert recovered == dialogue.utterances


class TestRenderToolset:
    def test_focus_sources(self):
        text = render_toolset(FOCUS_SOURCES)
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("- PERSONA: This knowledge base stores")
        assert lines[1].startswith("- DOCUMENT: This knowledge base stores")

    def test_line_count_equals_tool_count(self):
        text = render_toolset(CIMA_STRATEGIES)
        assert len(text.splitlines()) == len(CIMA_STRATEGIES.tools)
        assert text.splitlines()[0] == (
            "- Hint: The teacher provides knowledge to the student via a hint."
        )

    def test_examples_append_indented(self):
        text = render_toolset(CIMA_STRATEGIES, include_examples=True)
        lines = text.splitlines()
        assert len(lines) > len(CIMA_STRATEGIES.tools)
        assert any(line.startswith("    Dialogue: ") for line in lines)
        assert any(line.startswith("    Hint: box is scatola.") for line in lines)

    def test_descriptions_off_leaves_names(self):
        text = render_toolset(CIMA_STRATEGIES, include_descriptions=False)
        assert text.splitlines()[0] == "- Hint"

    def test_empty_registry_renders_empty(self):
        from conductor.core import ToolSet

        assert render_toolset(ToolSet(tools=())) == ""


class TestPromptTemplate:
    def test_missing_section(self):
        template = PromptTemplate("t", "{persona}\n\nDialogue: {dialogue}\nPlan:")
        with pytest.raises(MissingSection):
            template.render(persona="P")

    def test_slots_found(self):
        template = load_template("tpe_planner_focus")
        assert set(template.slots()) == {
            "persona", "toolset", "demos", "extras", "dialogue",
        }

    def test_render_replaces_all(self):
        template = load_template("tpe_thinker")
        out = template.render(persona="P", demos="", extras="", dialogue="USER: Hi")
        assert out == "P\n\nDialogue: USER: Hi\nThought:"


class TestDemoRendering:
    def test_planner_view_includes_thought(self):
        demo = Demonstration(
            dialogue_text="USER: Hi",
            thought_text="the thought",
            plan_text="Plan: do it\n#So1 = PERSONA[context]",
        )
        block = render_demonstration(demo, "planner")
        assert block == (
            "Dialogue: USER: Hi\nThought: the thought\n"
            "Plan: do it\n#So1 = PERSONA[context]"
        )
        without = render_demonstration(demo, "planner", include_thought=False)
        assert "Thought:" not in without

    def test_rewoo_view(self):
        demo = Demonstration(
            dialogue_text="USER: Hi", plan_text="Plan: x\n#E1 = A[q]"
        )
        assert render_demonstration(demo, "rewoo") == (
            "Dialogue: USER: Hi\n\n--PLANNER--\nPlan: x\n#E1 = A[q]"
        )

    def test_demo_slot_empty_is_empty(self):
        assert render_demo_slot([]) == ""
        assert render_demo_slot(["a", "b"]) == "a\n\nb\n\n"

    def test_unknown_view_rejected(self):
        demo = Demonstration(dialogue_text="USER: Hi", response_text="Hello")
        with pytest.raises(ValueError, match="unknown demo view 'summary'"):
            render_demonstration(demo, "summary")
