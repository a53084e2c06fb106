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
from dataclasses import dataclass
from decimal import Decimal
from importlib import resources
from typing import Any, Iterable, Sequence

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

FOCUS_PERSONA_CANDIDATES = 5
FOCUS_DOCUMENT_CANDIDATES = 10
OTHERS_LABEL = "Others"


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

    @property
    def kind(self) -> SchemaKind:
        return self.dialogue.schema_kind

    def gold_persona_texts(self) -> tuple[str, ...]:
        if not self.persona_candidates or not self.gold_persona_indices:
            return ()
        return tuple(self.persona_candidates[i] for i in self.gold_persona_indices)

    def gold_document_texts(self) -> tuple[str, ...]:
        if self.document_candidates is None or self.gold_document_index is None:
            return ()
        return (self.document_candidates[self.gold_document_index],)


def _require(obj: dict, key: str, type_: type, line_no: int) -> Any:
    if key not in obj:
        raise SchemaViolation(line_no, f"missing field {key!r}")
    value = obj[key]
    if not isinstance(value, type_):
        raise SchemaViolation(line_no, f"field {key!r} must be {type_.__name__}")
    return value


def sample_from_obj(obj: dict, kind: SchemaKind, line_no: int = 0) -> Sample:
    sample_id = _require(obj, "id", str, line_no)
    if not sample_id:
        raise SchemaViolation(line_no, "id must be non-empty")
    turns = _require(obj, "dialogue", list, line_no)
    utterances = []
    for i, turn in enumerate(turns):
        if not isinstance(turn, dict) or "speaker" not in turn or "text" not in turn:
            raise SchemaViolation(line_no, f"dialogue[{i}] needs speaker and text")
        if not isinstance(turn["speaker"], str) or not isinstance(turn["text"], str):
            raise SchemaViolation(line_no, f"dialogue[{i}] speaker/text must be strings")
        try:
            utterances.append(Utterance(speaker=turn["speaker"], text=turn["text"]))
        except (ValueError, TypeError) as exc:
            raise SchemaViolation(line_no, f"dialogue[{i}]: {exc}")
    try:
        dialogue = Dialogue(id=sample_id, utterances=tuple(utterances), schema_kind=kind)
    except ValueError as exc:
        raise SchemaViolation(line_no, str(exc))
    gold_response = _require(obj, "gold_response", str, line_no)

    persona_candidates = document_candidates = None
    gold_persona_indices: tuple[int, ...] | None = None
    gold_document_index = None
    gold_strategies: tuple[str, ...] | None = None

    if kind is SchemaKind.FOCUS:
        personas = _require(obj, "persona_candidates", list, line_no)
        documents = _require(obj, "document_candidates", list, line_no)
        if len(personas) != FOCUS_PERSONA_CANDIDATES:
            raise SchemaViolation(
                line_no,
                f"persona_candidates must have exactly {FOCUS_PERSONA_CANDIDATES} "
                f"entries, got {len(personas)}",
            )
        if len(documents) != FOCUS_DOCUMENT_CANDIDATES:
            raise SchemaViolation(
                line_no,
                f"document_candidates must have exactly {FOCUS_DOCUMENT_CANDIDATES} "
                f"entries, got {len(documents)}",
            )
        if not all(isinstance(c, str) for c in personas + documents):
            raise SchemaViolation(line_no, "candidate texts must be strings")
        persona_candidates = tuple(personas)
        document_candidates = tuple(documents)
        if "gold_persona_indices" in obj and obj["gold_persona_indices"] is not None:
            indices = tuple(obj["gold_persona_indices"])
            if any(
                not isinstance(i, int) or not 0 <= i < FOCUS_PERSONA_CANDIDATES
                for i in indices
            ):
                raise SchemaViolation(line_no, "gold_persona_indices out of range")
            gold_persona_indices = indices
        if "gold_document_index" in obj and obj["gold_document_index"] is not None:
            index = obj["gold_document_index"]
            if not isinstance(index, int) or not 0 <= index < FOCUS_DOCUMENT_CANDIDATES:
                raise SchemaViolation(line_no, "gold_document_index out of range")
            gold_document_index = index
    else:
        strategies = _require(obj, "gold_strategies", list, line_no)
        if not strategies:
            raise SchemaViolation(line_no, "gold_strategies must be non-empty")
        toolset = profile_for(kind).strategy_toolset
        allowed = set(toolset.names()) | {OTHERS_LABEL}
        for name in strategies:
            if not isinstance(name, str) or name not in allowed:
                raise SchemaViolation(line_no, f"unknown gold strategy {name!r}")
        gold_strategies = tuple(strategies)

    return Sample(
        id=sample_id,
        dialogue=dialogue,
        gold_response=gold_response,
        persona_candidates=persona_candidates,
        document_candidates=document_candidates,
        gold_persona_indices=gold_persona_indices,
        gold_document_index=gold_document_index,
        gold_strategies=gold_strategies,
    )


def load_dataset(path: str, kind: SchemaKind) -> list[Sample]:
    """Validated samples in file order; any invalid line fails the whole load
    with every violation listed."""
    samples: list[Sample] = []
    violations: list[SchemaViolation] = []
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                violations.append(SchemaViolation(line_no, f"invalid JSON: {exc}"))
                continue
            try:
                samples.append(sample_from_obj(obj, kind, line_no))
            except SchemaViolation as violation:
                violations.append(violation)
    if violations:
        raise DatasetValidationError(violations)
    return samples


# ---------------------------------------------------------------------------
# Demonstration banks


def _demo_bank_lines(kind: SchemaKind, method: str) -> list[dict]:
    name = f"{kind.value}_{method}.jsonl"
    path = resources.files("conductor").joinpath("demobanks", name)
    try:
        raw = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise MissingDemoBank(kind.value, method)
    return [json.loads(line) for line in raw.splitlines() if line.strip()]


def select_demonstrations(
    kind: SchemaKind, method: str, count: int | None = None
) -> list[Demonstration]:
    """The fixed demonstrations for (kind, method); `count` trims for
    ablations (0 gives the zero-shot variant)."""
    records = _demo_bank_lines(kind, method)
    demos = [
        Demonstration(
            dialogue_text=record["dialogue"],
            method_tag=method,
            thought_text=record.get("thought"),
            plan_text=record.get("plan"),
            response_text=record.get("response"),
        )
        for record in records
    ]
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


def _query_to_obj(query: QuerySpec) -> list[dict]:
    parts = []
    for part in query.parts:
        if isinstance(part, Literal):
            parts.append({"kind": "literal", "text": part.text})
        elif isinstance(part, ContextRef):
            parts.append({"kind": "context"})
        else:
            parts.append({"kind": "var", "name": part.name})
    return parts


def _query_from_obj(parts: list[dict]) -> QuerySpec:
    segments = []
    for part in parts:
        if part["kind"] == "literal":
            segments.append(Literal(part["text"]))
        elif part["kind"] == "context":
            segments.append(ContextRef())
        else:
            segments.append(VarRef(part["name"]))
    return QuerySpec(tuple(segments))


def _plan_to_obj(plan: Any) -> dict | None:
    if plan is None:
        return None
    if isinstance(plan, SourcePlanProgram):
        return {
            "format": "source",
            "steps": [
                {
                    "description": step.description,
                    "source": step.source_name,
                    "output_var": step.output_var,
                    "query": _query_to_obj(step.query),
                }
                for step in plan.steps
            ],
        }
    if isinstance(plan, (list, tuple)) and all(
        isinstance(s, StrategyPlanStep) for s in plan
    ):
        return {
            "format": "strategy",
            "steps": [
                {"strategy": s.strategy_name, "fragment": s.fragment} for s in plan
            ],
        }
    if isinstance(plan, (list, tuple)) and all(isinstance(s, str) for s in plan):
        return {"format": "modules", "names": list(plan)}
    raise TypeError(f"cannot serialize plan of type {type(plan).__name__}")


def _plan_from_obj(obj: dict | None) -> Any:
    if obj is None:
        return None
    if obj["format"] == "source":
        return SourcePlanProgram(
            tuple(
                SourcePlanStep(
                    description=step["description"],
                    source_name=step["source"],
                    output_var=step["output_var"],
                    query=_query_from_obj(step["query"]),
                )
                for step in obj["steps"]
            )
        )
    if obj["format"] == "strategy":
        return tuple(
            StrategyPlanStep(strategy_name=s["strategy"], fragment=s["fragment"])
            for s in obj["steps"]
        )
    return tuple(obj["names"])


def record_to_obj(record: RunRecord) -> dict:
    evidence = []
    for variable, value in record.evidence.items():
        if isinstance(value, Evidence):
            evidence.append(
                {
                    "variable": variable,
                    "source": value.source_name,
                    "query": value.resolved_query,
                    "passages": [[d, t, s] for d, t, s in value.passages],
                }
            )
        else:
            evidence.append({"variable": variable, "fragment": value})
    return {
        "sample_id": record.sample_id,
        "method": record.method,
        "kind": record.kind.value,
        "thought": record.thought.text if record.thought else None,
        "raw_plan_text": record.raw_plan_text,
        "parsed_plan": _plan_to_obj(record.parsed_plan),
        "evidence": evidence,
        "response": record.response,
        "usages": [
            {
                "model": u.model_id,
                "backend": u.backend_tag,
                "prompt_tokens": u.prompt_tokens,
                "completion_tokens": u.completion_tokens,
                "latency_ms": u.latency_ms,
            }
            for u in record.usages
        ],
        "cost_usd": str(record.cost_usd),
        "error": (
            {"kind": record.error.kind, "detail": record.error.detail}
            if record.error
            else None
        ),
    }


def record_from_obj(obj: dict) -> RunRecord:
    store = EvidenceStore()
    for item in obj.get("evidence", ()):
        if "fragment" in item:
            store.bind(item["variable"], item["fragment"])
        else:
            store.bind(
                item["variable"],
                Evidence(
                    variable=item["variable"],
                    source_name=item["source"],
                    resolved_query=item["query"],
                    passages=tuple((d, t, float(s)) for d, t, s in item["passages"]),
                ),
            )
    return RunRecord(
        sample_id=obj["sample_id"],
        method=obj["method"],
        kind=SchemaKind(obj["kind"]),
        thought=Thought(obj["thought"]) if obj.get("thought") else None,
        raw_plan_text=obj.get("raw_plan_text", ""),
        parsed_plan=_plan_from_obj(obj.get("parsed_plan")),
        evidence=store,
        response=obj.get("response", ""),
        usages=tuple(
            CallUsage(
                model_id=u["model"],
                backend_tag=u["backend"],
                prompt_tokens=u["prompt_tokens"],
                completion_tokens=u["completion_tokens"],
                latency_ms=u.get("latency_ms", 0),
            )
            for u in obj.get("usages", ())
        ),
        cost_usd=Decimal(obj.get("cost_usd", "0")),
        error=(
            ErrorInfo(kind=obj["error"]["kind"], detail=obj["error"]["detail"])
            if obj.get("error")
            else None
        ),
    )


def export_records(records: Iterable[RunRecord], path: str) -> None:
    """Line-delimited UTF-8 records; load_records inverts this exactly."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record_to_obj(record), ensure_ascii=False) + "\n")


def load_records(path: str) -> list[RunRecord]:
    records = []
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise ValueError(f"line {line_no}: record must be a JSON object")
            records.append(record_from_obj(obj))
    return records


def references_from_samples(samples: Sequence[Sample]) -> list[tuple[str, str]]:
    return [(sample.id, sample.gold_response) for sample in samples]
