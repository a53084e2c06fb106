"""Operator command line: run experiments, score records, analyze, and probe.

Exit codes: 0 success; 1 partial failures present in records, or invalid
lines found by schema-check (each printed as INVALID); 2 usage/config error,
or a malformed dataset, record, sample or replay fixture file given to run,
eval, analyze or chat. The live backend reads its bearer token from
CONDUCTOR_API_KEY.

Record files are line-delimited JSON, one RunRecord per line (see
docs/data_formats.md for the exact schema). Dataset and fixture paths may
use the "fixture:<name>" shorthand to reference the shipped 6-sample demo
set, e.g. ``conductor run --dataset fixture:focus --kind focus
--backend replay:fixture --method tpe --out runs.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import sys
from decimal import Decimal
from importlib import resources

from conductor.backend import (
    Backend,
    DEFAULT_PRICES,
    LiveBackend,
    PriceTable,
    ReplayBackend,
    sum_costs,
)
from conductor.core import Dialogue, ROLE_LABELS, SchemaKind, Utterance
from conductor.data import (
    Sample,
    load_dataset,
    load_records,
    export_records,
    references_from_samples,
)
from conductor.errors import (
    ConductorError,
    ConfigError,
    DatasetValidationError,
    LengthMismatch,
)
from conductor.evalmetrics import (
    EvalConfig,
    retrieval_accuracy,
    score_run,
    strategy_distribution,
)
from conductor.pipelines import Method, MethodConfig, run_batch, run_method

FIXTURE_DATASETS = {"focus": "focus_samples.jsonl", "cima": "cima_samples.jsonl"}


def _fixture_path(name: str) -> str:
    return str(resources.files("conductor").joinpath("fixtures", name))


def _resolve_dataset_path(path: str) -> str:
    if path.startswith("fixture:"):
        name = path.split(":", 1)[1]
        if name not in FIXTURE_DATASETS:
            raise ConfigError(f"unknown fixture dataset {name!r}")
        return _fixture_path(FIXTURE_DATASETS[name])
    return path


def _build_backend(args: argparse.Namespace) -> Backend:
    selector = args.backend
    if selector.startswith("replay:"):
        if getattr(args, "base_url", None):
            raise ConfigError("--base-url only applies to the live backend")
        target = selector.split(":", 1)[1]
        if target == "fixture":
            target = _fixture_path("replay.jsonl")
        return ReplayBackend.load(target)
    if selector == "live":
        base_url = getattr(args, "base_url", None)
        if not base_url:
            raise ConfigError("live backend requires --base-url")
        return LiveBackend(base_url)
    raise ConfigError(f"unknown backend {selector!r} (use live or replay:<path>)")


def _prices(args: argparse.Namespace) -> PriceTable:
    if getattr(args, "prices", None):
        return PriceTable.load(args.prices)
    return DEFAULT_PRICES


def _method_config(args: argparse.Namespace) -> MethodConfig:
    return MethodConfig(
        method=Method(args.method),
        dataset_kind=SchemaKind(args.kind),
        model_id=args.model,
        demo_count=args.demos,
        k_retrieved=args.k,
        include_thought_in_planner=not args.no_thought_in_planner,
        include_thought_in_executor=not args.no_thought_in_executor,
        include_tool_examples=args.tool_examples,
        include_tool_descriptions=not args.no_tool_descriptions,
        enrich_query_with_status=not args.no_query_enrichment,
        react_max_steps=args.react_max_steps,
    )


def cmd_run(args: argparse.Namespace) -> int:
    backend = _build_backend(args)
    prices = _prices(args)
    config = _method_config(args)
    samples = load_dataset(_resolve_dataset_path(args.dataset), config.dataset_kind)
    prices.rate_for(config.model_id)  # an unpriced model leaves --out untouched
    open(args.out, "a").close()  # an unwritable --out fails before the first call
    records = run_batch(
        samples,
        config,
        backend,
        prices=prices,
        parallelism=args.parallelism,
    )
    export_records(records, args.out)
    failures = sum(1 for r in records if r.error is not None)
    total_cost = sum_costs(r.cost_usd for r in records)
    print(f"method={config.method.value} kind={config.dataset_kind.value}")
    print(f"samples={len(records)} failures={failures}")
    print("Cost (USD)")
    print(f"  {config.method.value + ' (' + config.model_id + ')':<28} {total_cost}")
    return 1 if failures else 0


def cmd_eval(args: argparse.Namespace) -> int:
    kind = SchemaKind(args.kind)
    if args.out:
        open(args.out, "a").close()  # an unwritable --out fails before scoring
    records = load_records(args.records)
    samples = load_dataset(_resolve_dataset_path(args.references), kind)
    by_id = {sample.id: sample for sample in samples}
    try:
        ordered = [by_id[record.sample_id] for record in records]
    except KeyError as exc:
        raise LengthMismatch(f"no reference for sample id {exc.args[0]!r}")
    config = EvalConfig(
        kind=kind,
        gold_persona_sets={
            s.id: s.gold_persona_texts() for s in ordered if s.gold_persona_texts()
        }
        or None,
        gold_document_sets={
            s.id: s.gold_document_texts() for s in ordered if s.gold_document_texts()
        }
        or None,
    )
    report = score_run(records, references_from_samples(ordered), config)
    print(report.to_table())
    if report.strategy_histogram:
        print("\nStrategy distribution")
        for label, share in sorted(
            report.strategy_histogram.items(), key=lambda kv: -kv[1]
        ):
            print(f"  {share:6.1%}  {label}")
    if report.retrieval_counts is not None:
        persona_hits, document_hits = report.retrieval_counts
        print(f"\ncorrect personas={persona_hits} correct documents={document_hits}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report.to_json_obj(), handle, ensure_ascii=False, indent=2)
        print(f"report written to {args.out}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    records = []
    for path in args.records:
        records.extend(load_records(path))
    if args.analysis == "strategies":
        histogram = strategy_distribution(records)
        if not histogram:
            print("no parsed strategy plans in records")
            return 0
        for label, share in sorted(histogram.items(), key=lambda kv: -kv[1]):
            print(f"{share:6.1%}  {label}")
        return 0
    if args.analysis == "cost":
        # One row per (method, kind), mirroring the per-method cost table.
        table: dict[tuple[str, str], list[Decimal]] = {}
        for record in records:
            table.setdefault((record.method, record.kind.value), []).append(record.cost_usd)
        print(f"{'Method':<12}{'Dataset':<10}{'Cost (USD)'}")
        for (method, kind), costs in sorted(table.items()):
            print(f"{method:<12}{kind:<10}{sum_costs(costs)}")
        return 0
    # retrieval accuracy against the dataset's gold candidate indices
    if not args.dataset or not args.kind:
        raise ConfigError("--analysis retrieval requires --dataset and --kind")
    kind = SchemaKind(args.kind)
    samples = load_dataset(_resolve_dataset_path(args.dataset), kind)
    persona_sets = {s.id: s.gold_persona_texts() for s in samples}
    document_sets = {s.id: s.gold_document_texts() for s in samples}
    persona_hits, document_hits = retrieval_accuracy(records, persona_sets, document_sets)
    print(f"correct personas={persona_hits} correct documents={document_hits}")
    return 0


def cmd_schema_check(args: argparse.Namespace) -> int:
    if (args.what == "dataset") != bool(args.kind):
        raise ConfigError("--kind is required with --what dataset, and only there")
    try:
        if args.what == "dataset":
            items = load_dataset(args.path, SchemaKind(args.kind))
        else:
            items = load_records(args.path)
    except DatasetValidationError as exc:
        for violation in exc.violations:
            print(f"INVALID {violation}")
        return 1
    print(f"OK {len(items)} records")
    return 0


def cmd_chat(args: argparse.Namespace) -> int:
    backend = _build_backend(args)
    prices = _prices(args)
    config = _method_config(args)
    kind = config.dataset_kind
    user_role, system_role = ROLE_LABELS[kind]
    base_sample = None
    if args.sample:
        samples = load_dataset(args.sample, kind)
        if not samples:
            raise ConfigError(f"sample file {args.sample} holds no sample")
        base_sample = samples[0]
    elif kind is SchemaKind.FOCUS:
        raise ConfigError("chat on a multi-source dataset requires --sample")

    turns: list[Utterance] = []
    turn_no = 0
    for line in sys.stdin:
        text = line.strip()
        if not text:
            continue
        turn_no += 1
        turns.append(Utterance(speaker=user_role, text=text))
        dialogue = Dialogue(id=f"chat-{turn_no}", utterances=tuple(turns), schema_kind=kind)
        sample = Sample(
            id=base_sample.id if base_sample else f"chat-{turn_no}",
            dialogue=dialogue,
            gold_response="",
            persona_candidates=base_sample.persona_candidates if base_sample else None,
            document_candidates=base_sample.document_candidates if base_sample else None,
        )
        record = run_method(sample, config, backend, prices=prices)
        if record.thought:
            print(f"[thought] {record.thought.text}")
        if record.raw_plan_text:
            print(f"[plan] {record.raw_plan_text}")
        for variable in record.evidence.variables():
            print(f"[evidence {variable}] {record.evidence.text_of(variable)}")
        if record.error:
            print(f"[error {record.error.kind}] {record.error.detail}")
        print(f"[response] {record.response}")
        turns.append(Utterance(speaker=system_role, text=record.response or "-"))
    return 0


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--method", required=True, choices=[m.value for m in Method])
    parser.add_argument("--kind", required=True, choices=[k.value for k in SchemaKind])
    parser.add_argument("--backend", required=True, help="live or replay:<path>")
    parser.add_argument("--base-url", help="OpenAI-compatible server URL (live only)")
    parser.add_argument("--model", default="gpt-3.5-turbo")
    parser.add_argument("--k", type=int, default=1, help="retrieved passages per step")
    parser.add_argument("--demos", type=int, default=None, help="demo count override")
    parser.add_argument("--prices", help="price table JSON path")
    parser.add_argument("--react-max-steps", type=int, default=8)
    parser.add_argument("--no-thought-in-planner", action="store_true")
    parser.add_argument("--no-thought-in-executor", action="store_true")
    parser.add_argument("--tool-examples", action="store_true")
    parser.add_argument("--no-tool-descriptions", action="store_true")
    parser.add_argument("--no-query-enrichment", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conductor",
        description="Dialogue planning over conceptual tools: run, score, analyze.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run a method over a dataset")
    _add_run_flags(run_parser)
    run_parser.add_argument("--dataset", required=True)
    run_parser.add_argument("--out", required=True)
    run_parser.add_argument("--parallelism", type=int, default=1)
    run_parser.set_defaults(func=cmd_run)

    eval_parser = sub.add_parser("eval", help="score a record file against references")
    eval_parser.add_argument("--records", required=True)
    eval_parser.add_argument("--references", required=True, help="dataset JSONL path")
    eval_parser.add_argument("--kind", required=True, choices=[k.value for k in SchemaKind])
    eval_parser.add_argument("--out", help="write the JSON report here")
    eval_parser.set_defaults(func=cmd_eval)

    analyze_parser = sub.add_parser("analyze", help="strategy/retrieval/cost analysis")
    analyze_parser.add_argument("--records", nargs="+", required=True)
    analyze_parser.add_argument(
        "--analysis", required=True, choices=["strategies", "retrieval", "cost"]
    )
    analyze_parser.add_argument("--dataset", help="dataset path (retrieval analysis)")
    analyze_parser.add_argument("--kind", choices=[k.value for k in SchemaKind])
    analyze_parser.set_defaults(func=cmd_analyze)

    schema_parser = sub.add_parser("schema-check", help="validate third-party exports")
    schema_parser.add_argument("--path", required=True)
    schema_parser.add_argument("--what", required=True, choices=["dataset", "records"])
    schema_parser.add_argument("--kind", choices=[k.value for k in SchemaKind])
    schema_parser.set_defaults(func=cmd_schema_check)

    chat_parser = sub.add_parser("chat", help="interactive probe over stdin turns")
    _add_run_flags(chat_parser)
    chat_parser.add_argument("--sample", help="sample JSON giving candidate pools")
    chat_parser.set_defaults(func=cmd_chat)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ConductorError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
