"""Dataset ingestion, demonstration banks, and run-record serialization.

All files are UTF-8 line-delimited JSON. Dataset records follow one of three
schemas (see docs/data_formats.md): the multi-source schema carries exactly
five persona candidates and ten document candidates per sample with gold
candidates referenced by index; the strategy schemas carry the gold strategy
sequence. Loading validates every line and reports all violations at once.

Demonstration banks ship as package data, one file per (kind, method);
selection is a constant function of (kind, method, count override): there
is no randomness anywhere in the data path.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields
from decimal import Decimal, InvalidOperation
from importlib import resources
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from conductor.core import (
    CallUsage,
    Demonstration,
    Dialogue,
    ErrorInfo,
    Evidence,
    EvidenceStore,
    RunRecord,
    SchemaKind,
    Thought,
    Utterance,
)
from conductor.errors import (
    ConfigError,
    DatasetValidationError,
    MissingDemoBank,
    SchemaViolation,
)
from conductor.plangrammar import (
    ContextRef,
    Literal,
    QuerySpec,
    SourcePlanProgram,
    SourcePlanStep,
    StrategyPlanStep,
    VarRef,
)
from conductor.profiles import profile_for

if TYPE_CHECKING:
    from importlib.resources.abc import Traversable

FOCUS_PERSONA_CANDIDATES = 5
FOCUS_DOCUMENT_CANDIDATES = 10


@dataclass(frozen=True)
class Sample:
    """One evaluation sample: dialogue, gold response, and per-kind extras."""

    id: str
    dialogue: Dialogue
    gold_response: str
    persona_candidates: tuple[str, ...] | None = None
    document_candidates: tuple[str, ...] | None = None
    gold_persona_indices: tuple[int, ...] | None = None
    gold_document_index: int | None = None
    gold_strategies: tuple[str, ...] | None = None

    def gold_persona_texts(self) -> tuple[str, ...]:
        if not self.persona_candidates or not self.gold_persona_indices:
            return ()
        return tuple(self.persona_candidates[i] for i in self.gold_persona_indices)

    def gold_document_texts(self) -> tuple[str, ...]:
        if self.document_candidates is None or self.gold_document_index is None:
            return ()
        return (self.document_candidates[self.gold_document_index],)


# Gold strategy names each strategy schema accepts.
_GOLD_STRATEGIES = {
    kind: frozenset(profile_for(kind).strategy_toolset.names())
    for kind in SchemaKind
    if profile_for(kind).strategy_toolset is not None
}


def _check(value: Any, json_type: type, name: str) -> Any:
    """`value`, which must have exactly `json_type` (a bool is not an int)."""
    if type(value) is not json_type:
        raise TypeError(f"{name} must be {json_type.__name__}, got {value!r:.60}")
    return value


def _index(value: Any, key: str, bound: int) -> int:
    """A candidate index; a JSON boolean is not one."""
    if type(value) is not int or not 0 <= value < bound:
        raise ValueError(f"{key} out of range: {value!r} is not an int in 0..{bound - 1}")
    return value


def _candidates(obj: dict, key: str, count: int) -> tuple[str, ...]:
    """The `count` candidate texts stored under `key`."""
    texts = _check(obj.get(key), list, key)
    if len(texts) != count:
        raise ValueError(f"{key} must have exactly {count} entries, got {len(texts)}")
    for text in texts:
        if type(text) is not str:
            _check(text, str, f"{key} entry")  # raises: the type is wrong
    return tuple(texts)


def sample_from_obj(obj: dict, kind: SchemaKind) -> Sample:
    """The Sample one dataset object holds; ValueError or TypeError when a
    required key is missing or a value is invalid."""
    sample_id = _check(obj.get("id"), str, "id")
    if not sample_id:
        raise ValueError("id must be non-empty")
    utterances = []
    for i, turn in enumerate(_check(obj.get("dialogue"), list, "dialogue")):
        name = f"dialogue[{i}]"
        _check(turn, dict, name)
        speaker = _check(turn.get("speaker"), str, name + " speaker")
        utterances.append(Utterance(speaker, _check(turn.get("text"), str, name + " text")))
    dialogue = Dialogue(id=sample_id, utterances=tuple(utterances), schema_kind=kind)
    gold_response = _check(obj.get("gold_response"), str, "gold_response")
    if kind is not SchemaKind.FOCUS:
        strategies = _check(obj.get("gold_strategies"), list, "gold_strategies")
        if not strategies:
            raise ValueError("gold_strategies must be non-empty")
        allowed = _GOLD_STRATEGIES[kind]
        for strategy in strategies:
            if type(strategy) is not str or strategy not in allowed:
                raise ValueError(f"unknown gold strategy {strategy!r}")
        return Sample(sample_id, dialogue, gold_response, gold_strategies=tuple(strategies))
    personas = _candidates(obj, "persona_candidates", FOCUS_PERSONA_CANDIDATES)
    documents = _candidates(obj, "document_candidates", FOCUS_DOCUMENT_CANDIDATES)
    indices = obj.get("gold_persona_indices")
    if indices is not None:
        indices = tuple(
            _index(i, "gold_persona_indices", FOCUS_PERSONA_CANDIDATES)
            for i in _check(indices, list, "gold_persona_indices")
        )
    document = obj.get("gold_document_index")
    if document is not None:
        document = _index(document, "gold_document_index", FOCUS_DOCUMENT_CANDIDATES)
    return Sample(
        sample_id,
        dialogue,
        gold_response,
        persona_candidates=personas,
        document_candidates=documents,
        gold_persona_indices=indices,
        gold_document_index=document,
    )


def _load_lines(path: str | Traversable, parse: Callable[[dict], Any]) -> Iterator:
    """`parse` of each non-blank line's JSON object, yielded in file order.
    Every invalid line becomes a SchemaViolation; after the last line, any
    violation fails the whole load with all of them listed. A str `path` is
    a file path; a package resource is opened as it is."""
    violations: list[SchemaViolation] = []
    with (open(path, "rb") if isinstance(path, str) else path.open("rb")) as handle:
        for line_no, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if line:
                    yield parse(_check(json.loads(line), dict, "record"))
            except json.JSONDecodeError as exc:
                violations.append(SchemaViolation(line_no, f"invalid JSON: {exc}"))
            except (ValueError, TypeError) as exc:
                violations.append(SchemaViolation(line_no, str(exc)))
    if violations:
        raise DatasetValidationError(str(path), violations)


def load_dataset(path: str, kind: SchemaKind) -> list[Sample]:
    """Validated samples in file order; any invalid line, or one repeating an
    earlier line's id, fails the whole load with every violation listed."""
    seen: set[str] = set()

    def parse(obj: dict) -> Sample:
        sample = sample_from_obj(obj, kind)
        if sample.id in seen:
            raise ValueError(f"duplicate id {sample.id!r}")
        seen.add(sample.id)
        return sample

    return list(_load_lines(path, parse))


# ---------------------------------------------------------------------------
# Demonstration banks


def _demonstration(obj: dict) -> Demonstration:
    return Demonstration(
        dialogue_text=_check(obj.get("dialogue"), str, "dialogue"),
        thought_text=obj.get("thought"),
        plan_text=obj.get("plan"),
        response_text=obj.get("response"),
    )


def select_demonstrations(
    kind: SchemaKind, method: str, count: int | None = None
) -> list[Demonstration]:
    """The fixed demonstrations for (kind, method); `count` trims for
    ablations (0 gives the zero-shot variant)."""
    bank = resources.files("conductor").joinpath(
        "demobanks", f"{kind.value}_{method}.jsonl"
    )
    try:
        demos = list(_load_lines(bank, _demonstration))
    except FileNotFoundError:
        raise MissingDemoBank(kind.value, method)
    if count is None:
        return demos
    if count < 0 or count > len(demos):
        raise ConfigError(
            f"demo count {count} out of range for {kind.value}/{method} "
            f"(bank has {len(demos)})"
        )
    return demos[:count]


# ---------------------------------------------------------------------------
# RunRecord serialization
#
# Each record part (RunRecord, CallUsage, ErrorInfo, Evidence, the plan steps
# and the query segments) is a JSON object with one key per dataclass field,
# in field order. A key a file leaves out, or a null where the default is
# None, takes the field's default; a field without a default is required.

# Attributes stored under another key; every other field keeps its name.
_KEYS = {
    "model_id": "model",
    "backend_tag": "backend",
    "source_name": "source",
    "resolved_query": "query",
    "strategy_name": "strategy",
}
# Query segment classes by their stored "kind" tag.
_SEGMENTS = {"literal": Literal, "context": ContextRef, "var": VarRef}
_SEGMENT_TAGS = {cls: tag for tag, cls in _SEGMENTS.items()}
# JSON type of each field stored as itself, by its annotation.
_LEAF_TYPES = {"str": str, "int": int}
# (attribute, key, leaf type, default or default factory) per field of each
# record part; MISSING marks a required field.
_LAYOUTS = {
    cls: tuple(
        (
            f.name,
            _KEYS.get(f.name, f.name),
            _LEAF_TYPES.get(f.type),
            f.default_factory if f.default is MISSING else f.default,
        )
        for f in fields(cls)
    )
    for cls in (RunRecord, CallUsage, ErrorInfo, Evidence, SourcePlanStep,
                StrategyPlanStep, *_SEGMENT_TAGS)
}


def _to_obj(part: Any, **stored: Any) -> dict:
    """`part` as its stored object; `stored` gives, by key, the values that
    are not stored as themselves."""
    obj = {key: getattr(part, attr) for attr, key, _, _ in _LAYOUTS[type(part)]}
    obj.update(stored)
    return obj


def _from_obj(cls: type, obj: Any, **read: Callable[[Any], Any]) -> Any:
    """The `cls` part stored as `obj`. A value goes through `read[attribute]`
    when given, else must have its field's leaf type."""
    _check(obj, dict, cls.__name__)
    values = {}
    for attr, key, leaf, default in _LAYOUTS[cls]:
        value = obj.get(key, default)
        if value is MISSING:
            raise ValueError(f"missing {cls.__name__} field {key!r}")
        if value is default:
            continue  # the dataclass fills in its default
        if attr in read:
            values[attr] = read[attr](value)
        elif type(value) is leaf:
            values[attr] = value
        else:
            _check(value, leaf, key)  # raises: the type is wrong
    return cls(**values)


def _plan_to_obj(plan: Any) -> dict | None:
    if plan is None:
        return None
    if isinstance(plan, SourcePlanProgram):
        steps = [
            _to_obj(
                step,
                query=[
                    {"kind": _SEGMENT_TAGS[type(part)], **_to_obj(part)}
                    for part in step.query.parts
                ],
            )
            for step in plan.steps
        ]
        return {"format": "source", "steps": steps}
    if isinstance(plan, (list, tuple)) and all(
        isinstance(s, StrategyPlanStep) for s in plan
    ):
        return {"format": "strategy", "steps": [_to_obj(s) for s in plan]}
    if isinstance(plan, (list, tuple)) and all(isinstance(s, str) for s in plan):
        return {"format": "modules", "names": list(plan)}
    raise TypeError(f"cannot serialize plan of type {type(plan).__name__}")


def _segment_from_obj(obj: Any) -> Any:
    tag = _check(obj, dict, "query segment").get("kind")
    if tag not in _SEGMENTS:
        raise ValueError(f"unknown query segment kind {tag!r}")
    return _from_obj(_SEGMENTS[tag], obj)


def _plan_from_obj(obj: Any) -> Any:
    plan_format = _check(obj, dict, "parsed_plan").get("format")
    if plan_format == "modules":
        names = _check(obj.get("names"), list, "names")
        return tuple(_check(name, str, "module name") for name in names)
    if plan_format not in ("source", "strategy"):
        raise ValueError(f"unknown plan format {plan_format!r}")
    steps = _check(obj.get("steps"), list, "steps")
    if plan_format == "strategy":
        return tuple(_from_obj(StrategyPlanStep, step) for step in steps)
    read_query = lambda parts: QuerySpec(
        tuple(_segment_from_obj(part) for part in _check(parts, list, "query"))
    )
    return SourcePlanProgram(
        tuple(_from_obj(SourcePlanStep, step, query=read_query) for step in steps)
    )


def _passage(value: Any) -> tuple[str, str, float]:
    if type(value) is not list or len(value) != 3 or type(value[2]) not in (int, float):
        raise TypeError(f"passage must be [doc_id, text, score], got {value!r:.60}")
    doc_id, text, score = value
    return (_check(doc_id, str, "doc_id"), _check(text, str, "passage text"), float(score))


def _evidence_from_obj(items: Any) -> EvidenceStore:
    store = EvidenceStore()
    for item in _check(items, list, "evidence"):
        if "fragment" in _check(item, dict, "evidence item"):
            variable = _check(item.get("variable"), str, "variable")
            store.bind(variable, _check(item["fragment"], str, "fragment"))
        else:
            evidence = _from_obj(
                Evidence,
                item,
                passages=lambda ps: tuple(_passage(p) for p in _check(ps, list, "passages")),
            )
            store.bind(evidence.variable, evidence)
    return store


def _cost(text: Any) -> Decimal:
    try:
        cost = Decimal(_check(text, str, "cost_usd"))
        if cost.is_finite():
            return cost
    except InvalidOperation:
        pass
    raise ValueError(f"cost_usd must be a finite decimal string, got {text!r:.60}")


def record_to_obj(record: RunRecord) -> dict:
    return _to_obj(
        record,
        kind=record.kind.value,
        thought=record.thought.text if record.thought else None,
        parsed_plan=_plan_to_obj(record.parsed_plan),
        evidence=[
            _to_obj(value, passages=[list(passage) for passage in value.passages])
            if isinstance(value, Evidence)
            else {"variable": variable, "fragment": value}
            for variable, value in record.evidence.items()
        ],
        usages=[_to_obj(usage) for usage in record.usages],
        cost_usd=str(record.cost_usd),
        error=_to_obj(record.error) if record.error else None,
    )


def record_from_obj(obj: dict) -> RunRecord:
    """The record stored as `obj`; ValueError or TypeError when a required
    key is missing or a value is invalid."""
    return _from_obj(
        RunRecord,
        obj,
        kind=SchemaKind,
        thought=lambda text: Thought(_check(text, str, "thought")),
        parsed_plan=_plan_from_obj,
        evidence=_evidence_from_obj,
        usages=lambda usages: tuple(
            _from_obj(CallUsage, usage) for usage in _check(usages, list, "usages")
        ),
        cost_usd=_cost,
        error=lambda error: _from_obj(ErrorInfo, error),
    )


def export_records(records: Iterable[RunRecord], path: str) -> None:
    """Line-delimited UTF-8 records; load_records inverts this exactly."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record_to_obj(record), ensure_ascii=False) + "\n")


def load_records(path: str) -> list[RunRecord]:
    """Records in file order; any invalid line fails the whole load with
    every violation listed."""
    return list(_load_lines(path, record_from_obj))


def references_from_samples(samples: Sequence[Sample]) -> list[tuple[str, str]]:
    return [(sample.id, sample.gold_response) for sample in samples]
