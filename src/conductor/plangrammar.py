"""Parsers that turn raw planner output into executable plan structures.

Four textual plan formats are covered:

* source plans: "Plan: ..." description lines paired with variable
  assignments like ``#So1 = PERSONA[context]`` (the sigil is fixed per
  method: ``#So`` for tpe, ``#E`` for rewoo);
* strategy plans: alternating ``Plan: <name>`` / ``Do: <fragment>`` lines;
* reasoning/acting steps: the newest ``Thought:``/``Action:`` continuation
  of a scratchpad, where the action is a bracketed tool call, a bare
  strategy name, or ``Finish[response]``;
* module lists: ``Modules: ["A", "B"]`` (or ``Strategies: [...]``).

Parsing is line-oriented (lines are "\n"-separated; other Unicode line
breaks are ordinary characters) and case-sensitive on keywords, tolerant of
surrounding whitespace, and ignores prose before and after the structured
region. Parsers are pure and never raise anything but ParseError /
DanglingReference on arbitrary input.

Source names are not checked here: the pipeline resolves them through the
dataset profile's aliases when the plan executes, and an unknown one fails
the record with UnknownTool. Unknown strategy names are kept; models invent
combined strategies and the distribution analysis wants them verbatim.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Union

from conductor.core import EvidenceStore
from conductor.errors import DanglingReference, ParseError, UnboundVariable

CONTEXT_KEYWORD = "context"


# ---------------------------------------------------------------------------
# Query segments


@dataclass(frozen=True)
class Literal:
    text: str


@dataclass(frozen=True)
class ContextRef:
    """The whole dialogue context used as the retrieval query."""


@dataclass(frozen=True)
class VarRef:
    name: str  # e.g. "So1" / "E2" (no leading '#')


Segment = Union[Literal, ContextRef, VarRef]


@dataclass(frozen=True)
class QuerySpec:
    parts: tuple[Segment, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("query needs at least one segment")

    def var_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.parts if isinstance(p, VarRef))


@dataclass(frozen=True)
class SourcePlanStep:
    description: str
    source_name: str
    output_var: str
    query: QuerySpec


@dataclass(frozen=True)
class SourcePlanProgram:
    steps: tuple[SourcePlanStep, ...]


@dataclass(frozen=True)
class StrategyPlanStep:
    strategy_name: str
    fragment: str

    def __post_init__(self) -> None:
        if not self.fragment:
            raise ValueError("strategy fragment must be non-empty")


@dataclass(frozen=True)
class ToolCall:
    name: str
    argument: str


@dataclass(frozen=True)
class StrategyCall:
    name: str


@dataclass(frozen=True)
class Finish:
    response: str


Action = Union[ToolCall, StrategyCall, Finish]


@dataclass(frozen=True)
class ReActStep:
    thought: str
    action: Action


# ---------------------------------------------------------------------------
# Paired lines


_PLAN_LINE = re.compile(r"^\s*Plan:\s*(.*?)\s*$")
_DO_LINE = re.compile(r"^\s*Do:\s*(.*?)\s*$")


def _paired_lines(
    text: str, follower: re.Pattern[str], noun: str
) -> Iterator[tuple[int, str | None, re.Match[str] | None]]:
    """The "Plan:" lines of `text` and the `follower` lines they pair with.

    Yields ``(line_no, plan, None)`` per Plan line, `plan` being its trimmed
    text, and ``(line_no, plan, match)`` per `follower` line, `plan` being
    the open Plan line's text or None. Blank lines and prose are skipped.
    A Plan line followed by another Plan line, or left open at the end,
    raises ParseError "Plan line without a following <noun>" at the later
    line or at the open one respectively.
    """
    pending: str | None = None
    pending_line = 0
    for line_no, line in enumerate(text.split("\n"), start=1):
        plan_match = _PLAN_LINE.match(line)
        if plan_match:
            if pending is not None:
                raise ParseError(line_no, f"Plan line without a following {noun}")
            pending, pending_line = plan_match.group(1), line_no
            yield line_no, pending, None
            continue
        match = follower.match(line)
        if match:
            yield line_no, pending, match
            pending = None
    if pending is not None:
        raise ParseError(pending_line, f"Plan line without a following {noun}")


# ---------------------------------------------------------------------------
# Source plans


def _parse_query(content: str, sigil: str) -> QuerySpec:
    stripped = content.strip()
    if stripped == CONTEXT_KEYWORD:
        return QuerySpec((ContextRef(),))
    pattern = re.compile(re.escape(sigil) + r"\d+")
    parts: list[Segment] = []
    pos = 0
    for match in pattern.finditer(stripped):
        literal = stripped[pos : match.start()].strip()
        if literal:
            parts.append(Literal(literal))
        parts.append(VarRef(match.group()[1:]))  # drop the leading '#'
        pos = match.end()
    tail = stripped[pos:].strip()
    if tail:
        parts.append(Literal(tail))
    if not parts:
        parts.append(Literal(""))
    return QuerySpec(tuple(parts))


def parse_source_plan(text: str, sigil: str = "#So") -> SourcePlanProgram:
    """Parse "(Plan line, assignment line)" pairs into a straight-line program.

    A leading Thought block (or any prose before the first structured line)
    is ignored; so is prose after the final assignment. A bare assignment
    without a preceding Plan line gets an empty description. Forward or
    unknown variable references raise DanglingReference.
    """
    assign_re = re.compile(
        r"^\s*" + re.escape(sigil) + r"(\d+)\s*=\s*([A-Za-z_][A-Za-z0-9_]*)\s*\[(.*)\]\s*$"
    )
    steps: list[SourcePlanStep] = []
    last_index = 0
    for line_no, description, match in _paired_lines(text, assign_re, "assignment"):
        if match is None:
            continue
        index = int(match.group(1))
        if index <= last_index:
            raise ParseError(
                line_no,
                f"variable index {index} does not increase (last was {last_index})",
            )
        query = _parse_query(match.group(3), sigil)
        for ref in query.var_names():
            if ref not in {step.output_var for step in steps}:
                raise DanglingReference(ref)
        steps.append(
            SourcePlanStep(
                description=description or "",
                source_name=match.group(2),
                output_var=sigil[1:] + match.group(1),
                query=query,
            )
        )
        last_index = index
    if not steps:
        raise ParseError(1, "empty plan")
    return SourcePlanProgram(tuple(steps))


def render_source_plan(program: SourcePlanProgram, sigil: str = "#So") -> str:
    """Inverse of parse_source_plan, in the textual format the planner emits."""
    lines: list[str] = []
    for step in program.steps:
        if step.description:
            lines.append(f"Plan: {step.description}")
        rendered_parts: list[str] = []
        for part in step.query.parts:
            if isinstance(part, ContextRef):
                rendered_parts.append(CONTEXT_KEYWORD)
            elif isinstance(part, VarRef):
                rendered_parts.append(f"#{part.name}")
            else:
                rendered_parts.append(part.text)
        query_text = " ".join(p for p in rendered_parts if p)
        lines.append(f"#{step.output_var} = {step.source_name}[{query_text}]")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Strategy plans


def parse_strategy_plan(text: str) -> tuple[StrategyPlanStep, ...]:
    """Pair each "Plan: <name>" line with the following "Do: <fragment>" line.

    Order and duplicates are preserved: the same strategy may appear several
    times in one plan and each occurrence keeps its own fragment.
    """
    steps: list[StrategyPlanStep] = []
    for line_no, name, match in _paired_lines(text, _DO_LINE, "Do line"):
        if match is None:
            if not name:
                raise ParseError(line_no, "Plan line names no strategy")
        elif name is None:
            raise ParseError(line_no, "Do line without a preceding Plan line")
        elif not match.group(1):
            raise ParseError(line_no, "Do line carries no fragment")
        else:
            steps.append(StrategyPlanStep(strategy_name=name, fragment=match.group(1)))
    if not steps:
        raise ParseError(1, "no strategy steps found")
    return tuple(steps)


def render_strategy_plan(steps: tuple[StrategyPlanStep, ...]) -> str:
    lines: list[str] = []
    for step in steps:
        lines.append(f"Plan: {step.strategy_name}")
        lines.append(f"Do: {step.fragment}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# ReAct steps


_THOUGHT_LINE = re.compile(r"^\s*Thought:\s*(.*?)\s*$")
_ACTION_LINE = re.compile(r"^\s*Action:\s*(.*?)\s*$")


def parse_react_step(text: str) -> ReActStep:
    """Extract the final Thought and Action from the newest continuation.

    ``Finish[...]`` and ``Name[arg]`` take the bracket content up to the last
    closing bracket on the line, so responses containing brackets survive.
    A bare action name is a strategy call.
    """
    thought = ""
    action_text: str | None = None
    action_line = 0
    for line_no, line in enumerate(text.split("\n"), start=1):
        thought_match = _THOUGHT_LINE.match(line)
        if thought_match:
            thought = thought_match.group(1)
            continue
        action_match = _ACTION_LINE.match(line)
        if action_match:
            action_text = action_match.group(1)
            action_line = line_no
    if action_text is None:
        raise ParseError(1, "no Action line present")
    if not action_text:
        raise ParseError(action_line, "Action line names no action")

    open_idx = action_text.find("[")
    if open_idx > 0:
        close_idx = action_text.rfind("]")
        if close_idx < open_idx:
            raise ParseError(action_line, "unclosed bracket in action")
        name = action_text[:open_idx].strip()
        argument = action_text[open_idx + 1 : close_idx]
        if not name:
            raise ParseError(action_line, "bracketed action has no name")
        if name == "Finish":
            return ReActStep(thought=thought, action=Finish(argument))
        return ReActStep(thought=thought, action=ToolCall(name=name, argument=argument))
    if "[" in action_text or "]" in action_text:
        raise ParseError(action_line, "malformed brackets in action")
    return ReActStep(thought=thought, action=StrategyCall(action_text))


# ---------------------------------------------------------------------------
# Module lists


_MODULE_LIST = re.compile(r"(?:Modules|Strategies)\s*:\s*\[([^\]]*)\]")
_QUOTED_NAME = re.compile(r"""["']([^"']+)["']""")


def parse_module_list(text: str) -> tuple[str, ...]:
    """Module names from a ``Modules: ["A", "B"]`` (or Strategies:) line."""
    match = _MODULE_LIST.search(text)
    if not match:
        raise ParseError(1, "no Modules/Strategies list found")
    names = tuple(m.group(1) for m in _QUOTED_NAME.finditer(match.group(1)))
    if not names:
        raise ParseError(1, "module list is empty")
    return names


# ---------------------------------------------------------------------------
# Variable substitution


def substitute_vars(query: QuerySpec, store: EvidenceStore, context_text: str) -> str:
    """Resolve a query against the evidence store.

    Literal segments are copied verbatim, the context keyword becomes
    `context_text`, and variable references become the bound evidence's
    concatenated passage texts (or the bound fragment). Rendered segments
    are joined with single spaces.
    """
    rendered: list[str] = []
    for part in query.parts:
        if isinstance(part, Literal):
            rendered.append(part.text)
        elif isinstance(part, ContextRef):
            rendered.append(context_text)
        else:
            if part.name not in store:
                raise UnboundVariable(part.name)
            rendered.append(store.text_of(part.name))
    return " ".join(r for r in rendered if r)
