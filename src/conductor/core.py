"""Domain types shared by every pipeline, plus deterministic prompt rendering.

The types here are immutable after construction and safe to share across
threads. Rendering is pure: the same inputs always produce byte-identical
strings, which is what makes replay fixtures and golden-file tests possible.

Dialogue turns render as "ROLE: text" segments joined with a single tab.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from decimal import Decimal
from enum import Enum
from importlib import resources
from typing import Any, Iterable, Iterator

from conductor.errors import MissingSection

TURN_SEPARATOR = "\t"


class SchemaKind(Enum):
    FOCUS = "focus"
    CIMA = "cima"
    PSYQA = "psyqa"


# (user-side label, system-side label); the system responds to the user side.
ROLE_LABELS: dict[SchemaKind, tuple[str, str]] = {
    SchemaKind.FOCUS: ("USER", "SYSTEM"),
    SchemaKind.CIMA: ("Student", "Teacher"),
    SchemaKind.PSYQA: ("Seeker", "Counselor"),
}


@dataclass(frozen=True)
class Utterance:
    speaker: str
    text: str

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise ValueError("utterance text must be non-empty")
        if not self.speaker:
            raise ValueError("utterance speaker must be non-empty")


@dataclass(frozen=True)
class Dialogue:
    """An ordered conversation that the system must respond to next."""

    id: str
    utterances: tuple[Utterance, ...]
    schema_kind: SchemaKind

    def __post_init__(self) -> None:
        if not self.utterances:
            raise ValueError("dialogue needs at least one utterance")
        user_role, system_role = ROLE_LABELS[self.schema_kind]
        allowed = {user_role, system_role}
        for utt in self.utterances:
            if utt.speaker not in allowed:
                raise ValueError(
                    f"speaker {utt.speaker!r} not one of {sorted(allowed)}"
                )
        if self.utterances[-1].speaker != user_role:
            raise ValueError(
                f"dialogue must end with the {user_role!r} side speaking"
            )


@dataclass(frozen=True)
class ConceptualTool:
    """A knowledge source or response strategy the planner may call.

    `examples` holds (input dialogue text, output text) pairs used both for
    the optional in-context tool examples and as per-strategy module
    exemplars.
    """

    name: str
    description: str
    examples: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tool name must be non-empty")
        if not self.description:
            raise ValueError(f"tool {self.name!r} needs a description")


@dataclass(frozen=True)
class ToolSet:
    tools: tuple[ConceptualTool, ...]

    def __post_init__(self) -> None:
        names = [t.name for t in self.tools]
        if len(set(names)) != len(names):
            raise ValueError("tool names must be pairwise distinct")

    def names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.tools)

    def get(self, name: str) -> ConceptualTool | None:
        for tool in self.tools:
            if tool.name == name:
                return tool
        return None


@dataclass(frozen=True)
class Demonstration:
    """One fixed few-shot exemplar, stored as structured fields so ablations
    (drop thought, drop plan) are mechanical rather than string surgery."""

    dialogue_text: str
    thought_text: str | None = None
    plan_text: str | None = None
    response_text: str | None = None

    def __post_init__(self) -> None:
        if not (self.thought_text or self.plan_text or self.response_text):
            raise ValueError("demonstration needs thought, plan, or response")


@dataclass(frozen=True)
class Thought:
    """Verbatim Thinker output: the inferred internal status plus blueprint."""

    text: str

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise ValueError("thought text must be non-empty")


@dataclass(frozen=True)
class Evidence:
    """Retrieval result bound to one plan variable."""

    variable: str
    source_name: str
    resolved_query: str
    passages: tuple[tuple[str, str, float], ...]  # (doc_id, text, score)

    def __post_init__(self) -> None:
        scores = [score for _, _, score in self.passages]
        if any(a < b for a, b in zip(scores, scores[1:])):
            raise ValueError("passage scores must be non-increasing")

    def text(self) -> str:
        return " ".join(text for _, text, _ in self.passages)


class EvidenceStore:
    """Ordered variable-to-evidence/fragment bindings, append-only.

    Insertion order is the plan-step order; later queries reference earlier
    bindings by variable name.
    """

    def __init__(self) -> None:
        self._bindings: dict[str, Evidence | str] = {}

    def bind(self, variable: str, value: Evidence | str) -> None:
        if variable in self._bindings:
            raise ValueError(f"variable {variable} already bound")
        self._bindings[variable] = value

    def __contains__(self, variable: str) -> bool:
        return variable in self._bindings

    def __len__(self) -> int:
        return len(self._bindings)

    def items(self) -> Iterator[tuple[str, Evidence | str]]:
        return iter(self._bindings.items())

    def get(self, variable: str) -> Evidence | str | None:
        return self._bindings.get(variable)

    def text_of(self, variable: str) -> str:
        value = self._bindings[variable]
        return value.text() if isinstance(value, Evidence) else value

    def variables(self) -> tuple[str, ...]:
        return tuple(self._bindings)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EvidenceStore):
            return NotImplemented
        return list(self._bindings.items()) == list(other._bindings.items())


@dataclass(frozen=True)
class ErrorInfo:
    kind: str
    detail: str


_COUNTS = ("prompt_tokens", "completion_tokens", "latency_ms")


def check_counts(*counts: Any) -> None:
    """Raise ValueError unless each of a call's counts, in `_COUNTS` order,
    is an int, not a bool, and at least 0."""
    for name, count in zip(_COUNTS, counts):
        if type(count) is not int or count < 0:
            raise ValueError(f"{name} must be a non-negative int, got {count!r:.60}")


@dataclass(frozen=True)
class CallUsage:
    """Token accounting for one completion call, as stored on a RunRecord."""

    model_id: str
    backend_tag: str
    prompt_tokens: int
    completion_tokens: int
    latency_ms: int = 0

    def __post_init__(self) -> None:
        check_counts(self.prompt_tokens, self.completion_tokens, self.latency_ms)


@dataclass
class RunRecord:
    """One sample's full trace through a pipeline."""

    sample_id: str
    method: str
    kind: SchemaKind
    thought: Thought | None = None
    raw_plan_text: str = ""
    parsed_plan: Any = None
    evidence: EvidenceStore = field(default_factory=EvidenceStore)
    response: str = ""
    usages: tuple[CallUsage, ...] = ()
    cost_usd: Decimal = Decimal("0")
    error: ErrorInfo | None = None

    def __post_init__(self) -> None:
        if self.error is None and not self.response:
            raise ValueError("a record without an error must carry a response")


# ---------------------------------------------------------------------------
# Rendering


def render_dialogue(dialogue: Dialogue) -> str:
    """Render a dialogue as tab-joined "ROLE: text" segments."""
    return TURN_SEPARATOR.join(f"{u.speaker}: {u.text}" for u in dialogue.utterances)


def render_toolset(
    toolset: ToolSet,
    include_examples: bool = False,
    include_descriptions: bool = True,
) -> str:
    """One "- NAME: description" line per tool, in registry order.

    With `include_examples`, each of a tool's example pairs is appended on
    indented lines after its description. With descriptions off, only the
    "- NAME" stub remains (the names carry their own semantics).
    """
    lines: list[str] = []
    for tool in toolset.tools:
        if include_descriptions:
            lines.append(f"- {tool.name}: {tool.description}")
        else:
            lines.append(f"- {tool.name}")
        if include_examples:
            for example_in, example_out in tool.examples:
                lines.append(f"    Dialogue: {example_in}")
                lines.append(f"    {tool.name}: {example_out}")
    return "\n".join(lines)


def render_extras(extras: Iterable[tuple[str, str]]) -> str:
    """Labeled extra lines ("Label: text\\n" each) placed before the target
    dialogue line."""
    return "".join(f"{label}: {text}\n" for label, text in extras)


def render_demonstration(
    demo: Demonstration, view: str, include_thought: bool = True
) -> str:
    """Render one demonstration block for the given pipeline view."""
    lines = [f"Dialogue: {demo.dialogue_text}"]
    if view == "thinker":
        lines.append(f"Thought: {demo.thought_text}")
    elif view == "planner":
        if include_thought and demo.thought_text:
            lines.append(f"Thought: {demo.thought_text}")
        lines.append(demo.plan_text or "")
    elif view == "response":
        lines.append(f"Response: {demo.response_text}")
    elif view == "status":
        lines.append(f"Status: {demo.thought_text}")
    elif view == "status_response":
        lines.append(f"Status: {demo.thought_text}")
        lines.append(f"Response: {demo.response_text}")
    elif view == "react":
        lines.append(demo.plan_text or "")
    elif view == "rewoo":
        lines += ["", "--PLANNER--", demo.plan_text or ""]
    elif view == "modules":
        lines.append(f"Modules: {demo.plan_text}")
    elif view == "strategies":
        lines.append(f"Strategies: {demo.plan_text}")
    else:
        raise ValueError(f"unknown demo view {view!r}")
    return "\n".join(lines)


def render_demo_slot(blocks: Iterable[str]) -> str:
    """Join demo blocks for a {demos} slot; each block carries its own
    blank-line separator so an empty slot leaves no gap."""
    return "".join(f"{block}\n\n" for block in blocks)


# ---------------------------------------------------------------------------
# Versioned template files


_SLOT = re.compile(r"\{([^\W\d]\w*)\}")


class PromptTemplate:
    """A committed prompt skeleton with named placeholder slots.

    Slots use single-brace {name} syntax. Rendering substitutes every slot
    in one pass over the file text, so a "{name}" inside a substituted value
    stays as it is; a slot present in the file but absent from the provided
    values raises MissingSection. Unused provided values are ignored.
    """

    def __init__(self, name: str, text: str):
        self.name = name
        self.text = text

    def slots(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(_SLOT.findall(self.text)))

    def render(self, **values: str) -> str:
        try:
            return _SLOT.sub(lambda match: values[match[1]], self.text)
        except KeyError as exc:
            raise MissingSection(exc.args[0]) from None


def load_template(name: str) -> PromptTemplate:
    """Load a committed template by file stem, e.g. "tpe_planner_focus".

    Files may end with a POSIX trailing newline; the canonical template text
    does not include it.
    """
    path = resources.files("conductor").joinpath("templates", f"{name}.txt")
    raw = path.read_text(encoding="utf-8")
    if raw.endswith("\n"):
        raw = raw[:-1]
    return PromptTemplate(name, raw)
