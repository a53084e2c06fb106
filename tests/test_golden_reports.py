"""Pinned bytes of eval reports.

Every supported (method, kind) pair runs the shipped fixtures through
`run_batch` on the fixture replay backend and scores the records with
`score_run`, configured as `conductor eval` configures it; the sha256 of the
report's sorted JSON is pinned. One PsyQA report, scored over responses from
the shipped demo banks, pins the CJK path. The metric code may be rewritten
freely, but any change to a digest is a change to a reported number.
"""

from __future__ import annotations

import hashlib
import json
from decimal import Decimal

import pytest

from conftest import FIXTURES
from conductor.backend import ReplayBackend
from conductor.core import ErrorInfo, RunRecord, SchemaKind
from conductor.data import load_dataset, references_from_samples, select_demonstrations
from conductor.evalmetrics import EvalConfig, score_run
from conductor.pipelines import Method, MethodConfig, run_batch
from conductor.plangrammar import parse_strategy_plan

REPORT_DIGESTS = {
    ("tpe", "focus"): "2dfad4fe5053567ad791d54bd5c1656a6713f7eb319b66bc03eabf4429b58a3c",
    ("cot", "focus"): "dcf859eb136e863bcdf1b2cc3ae31682d97e732e68769ec95d49a9b40abaca9c",
    ("react", "focus"): "341b61c7eae7ea39c6984003e19872451081e8ee463d94efe6224aec16e40e7f",
    ("rewoo", "focus"): "03e061161bcca8eadb01e009f50014c85073d7a5e3155b3382d19c7576586a16",
    ("chameleon", "focus"): "1b233d1fe939f29c50e15e96d2e77cbb12e7c0d94340fc78ac463559f20ff1d9",
    ("tpe", "cima"): "c01fe88b14bbc8c7bfa0a664b5f62d7023585bc1df319250f918d4e22f772488",
    ("cot", "cima"): "0aa33ef24fc9e94c0f8d582eb057080ffde3154fcfae1e87b3b1f7b0abd1edf3",
    ("react", "cima"): "0d740c5463d00fe3effaaeb01ba0d2b19146951a549df5ec753a283637c715ce",
    ("chameleon", "cima"): "acefa0e1832b22a5be09ccb3d30196934f7c45038a308f4791347144ba11a738",
    ("cuecot", "cima"): "6f7f2aa1abff16a964c974c220ff0300ed4608b8ba5fbbbb2ea8a1f3e949fa90",
}
# The fixture responses equal their golds; scoring each tpe record against
# the next sample's gold gives partial overlap on the English panels.
CROSS_DIGESTS = {
    "focus": "4d6904b4700e9d2ebc327d87213d774ea5ae2e2723cf179f707636bc7fcdc7a7",
    "cima": "a8fb709246ab264320bab7220cccdde7960373bb57b3867bc829b1d14bf1b997",
}
PSYQA_DIGEST = "0ce0590cf06360a11dcf2408626dd44728bbf7dd2eb2bc222d54bcf1aa97a3e6"


def _digest(report) -> str:
    text = json.dumps(report.to_json_obj(), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _eval_config(kind: SchemaKind, samples) -> EvalConfig:
    if kind is not SchemaKind.FOCUS:
        return EvalConfig(kind=kind)
    return EvalConfig(
        kind=kind,
        gold_persona_sets={s.id: s.gold_persona_texts() for s in samples},
        gold_document_sets={s.id: s.gold_document_texts() for s in samples},
    )


def _replay(method: str, kind: str):
    schema = SchemaKind(kind)
    samples = load_dataset(str(FIXTURES / f"{kind}_samples.jsonl"), schema)
    config = MethodConfig(method=Method(method), dataset_kind=schema)
    backend = ReplayBackend.load(str(FIXTURES / "replay.jsonl"))
    return samples, run_batch(samples, config, backend)


@pytest.mark.parametrize("method,kind", sorted(REPORT_DIGESTS))
def test_fixture_report_digest(method, kind):
    samples, records = _replay(method, kind)
    config = _eval_config(SchemaKind(kind), samples)
    report = score_run(records, references_from_samples(samples), config)
    assert _digest(report) == REPORT_DIGESTS[(method, kind)]


@pytest.mark.parametrize("kind", sorted(CROSS_DIGESTS))
def test_cross_scored_report_digest(kind):
    samples, records = _replay("tpe", kind)
    golds = [sample.gold_response for sample in samples]
    references = [
        (record.sample_id, gold) for record, gold in zip(records, golds[1:] + golds[:1])
    ]
    report = score_run(records, references, _eval_config(SchemaKind(kind), samples))
    assert _digest(report) == CROSS_DIGESTS[kind]


def _psyqa_texts() -> tuple[list[str], list[str]]:
    """Demo-bank responses and strategy plans, in bank order."""
    responses, plans = [], []
    for method in ("tpe", "cot", "cuecot"):
        for demo in select_demonstrations(SchemaKind.PSYQA, method):
            responses.append(demo.response_text)
            if demo.plan_text:
                plans.append(demo.plan_text)
    return responses, plans


def test_psyqa_demo_bank_report_digest():
    responses, plans = _psyqa_texts()
    # Each response is scored against the next one, so the n-gram overlap is
    # partial; the record itself is scored against itself once, and one
    # failed record keeps an empty candidate in the denominator.
    golds = responses[1:] + responses[:1]
    records = [
        RunRecord(
            sample_id=f"p{i}",
            method="tpe",
            kind=SchemaKind.PSYQA,
            parsed_plan=parse_strategy_plan(plans[i % len(plans)]),
            response=response,
            cost_usd=Decimal("0.000123"),
        )
        for i, response in enumerate(responses)
    ]
    records.append(
        RunRecord(
            sample_id="self",
            method="tpe",
            kind=SchemaKind.PSYQA,
            response=responses[0],
        )
    )
    golds.append(responses[0])
    records.append(
        RunRecord(
            sample_id="failed",
            method="tpe",
            kind=SchemaKind.PSYQA,
            error=ErrorInfo("ParseError", "no plan"),
        )
    )
    golds.append(responses[1])
    references = [(r.sample_id, gold) for r, gold in zip(records, golds)]
    report = score_run(records, references, EvalConfig(kind=SchemaKind.PSYQA))
    assert report.n_failures == 1
    assert _digest(report) == PSYQA_DIGEST
