"""Text-generation metrics and run-level analysis.

All metrics share one tokenizer (lowercase, punctuation split, CJK per
character) so they stay mutually consistent across English and Chinese
responses. Every metric accepts a string or a token list; `score_run`
tokenizes each record's candidate and gold once and passes the token lists
to every metric of the panel. Rouge-L's LCS uses the bit-vector method
(Allison & Dix 1986; Hyyrö 2004), one Python int per reference. BLEU counts
each side's 1- to n-grams in one `Counter` and clips only the n-grams both
sides share; a single reference's counts are used as they are. Every n-gram
comes from one `zip` over shifted slices. Sentence
BLEU, token F1, Rouge-L, and distinct-n live in [0, 1];
corpus BLEU is reported on the usual 0–100 scale; the report table puts the
per-sample metrics on 0–100 as well, matching how such results are
conventionally displayed.

Averaged BLEU is sentence-averaged: each sample's BLEU-1..4 are averaged,
then averaged across the corpus. Corpus BLEU follows the common corpus-level
BLEU-4 with exponential smoothing for zero counts. BERTScore is deliberately
absent (needs pretrained embeddings); its column is simply not produced.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from decimal import Decimal
from itertools import chain
from typing import Iterable, Iterator, Sequence

from conductor.backend import sum_costs
from conductor.core import Evidence, RunRecord, SchemaKind
from conductor.errors import EmptyCandidate, LengthMismatch
from conductor.plangrammar import StrategyPlanStep
from conductor.retrieval import tokenize

Tokens = Sequence[str]


def _as_tokens(value: str | Tokens) -> list[str]:
    return tokenize(value) if isinstance(value, str) else list(value)


def _grams(tokens: Tokens, n: int) -> Iterator[tuple[str, ...]]:
    """The n-grams of `tokens` in order, as tuples."""
    return zip(*(tokens[i:] for i in range(n)))


def _ngrams_1_to_n(tokens: Tokens, n: int) -> Counter:
    """Counts of every 1- to n-gram of `tokens`; a gram's order is its length."""
    return Counter(chain.from_iterable(_grams(tokens, order) for order in range(1, n + 1)))


def _check_corpus(candidates: Sequence, references: Sequence) -> None:
    if len(candidates) != len(references):
        raise LengthMismatch(f"{len(candidates)} candidates vs {len(references)} references")
    if not candidates:
        raise LengthMismatch("empty corpus")


# ---------------------------------------------------------------------------
# BLEU


def _clipped_1_to_n(
    candidate_tokens: Tokens, ref_counts: Counter, n: int
) -> tuple[list[int], list[int]]:
    """Per order 1..n, the candidate's n-grams clipped by prebuilt reference
    counts (from `_ngrams_1_to_n`), and their totals.

    Only n-grams both sides hold can match, so the clipped sums visit the
    shared n-grams alone (Papineni et al. 2002).
    """
    cand_counts = _ngrams_1_to_n(candidate_tokens, n)
    clipped = [0] * (n + 1)
    for gram in cand_counts.keys() & ref_counts.keys():
        clipped[len(gram)] += min(cand_counts[gram], ref_counts[gram])
    totals = [max(0, len(candidate_tokens) - order + 1) for order in range(1, n + 1)]
    return clipped[1:], totals


def modified_ngram_precision(
    candidate_tokens: Tokens, reference_tokens: Tokens, n: int
) -> tuple[int, int]:
    """Clipped n-gram matches and total candidate n-grams."""
    if n < 1:
        raise ValueError("n must be >= 1")
    clipped, totals = _clipped_1_to_n(
        candidate_tokens, _ngrams_1_to_n(reference_tokens, n), n
    )
    return clipped[-1], totals[-1]


def brevity_penalty(ref_len: int, cand_len: int) -> float:
    if cand_len == 0:
        return 0.0
    return min(1.0, math.exp(1.0 - ref_len / cand_len))


def _bleu_1_to_n(
    cand: list[str], refs: list[list[str]], n: int, smoothing: bool
) -> list[float]:
    """BLEU-1..n in one pass over the orders, sharing one running log-sum.

    Multi-reference clipping uses the per-gram maximum over the references
    (the Counter union).
    """
    # closest reference length; ties prefer the shorter reference
    ref_len = min((abs(len(r) - len(cand)), len(r)) for r in refs)[1]
    bp = brevity_penalty(ref_len, len(cand))
    ref_counts = _ngrams_1_to_n(refs[0], n)
    for ref in refs[1:]:
        ref_counts |= _ngrams_1_to_n(ref, n)
    all_clipped, all_totals = _clipped_1_to_n(cand, ref_counts, n)
    values: list[float] = []
    log_sum = 0.0
    for order, clipped, total in zip(range(1, n + 1), all_clipped, all_totals):
        if clipped > 0:
            precision = clipped / total
        elif smoothing:
            precision = (clipped + 1) / (total + 1)
        else:
            return values + [0.0] * (n - len(values))
        log_sum += math.log(precision)
        values.append(bp * math.exp(log_sum / order))
    return values


def sentence_bleu_n(
    candidate: str | Tokens,
    references: Iterable[str | Tokens],
    n: int,
    smoothing: bool = True,
) -> float:
    """BLEU-n: geometric mean of clipped precisions 1..n times brevity penalty.

    With smoothing on, orders with zero clipped matches use add-one in both
    numerator and denominator; with it off, any zero precision zeroes the
    score.
    """
    if not 1 <= n <= 4:
        raise ValueError("n must be in 1..4")
    cand = _as_tokens(candidate)
    refs = [_as_tokens(r) for r in references]
    if not cand:
        raise EmptyCandidate("candidate has no tokens")
    if not refs:
        raise LengthMismatch("need at least one reference")
    return _bleu_1_to_n(cand, refs, n, smoothing)[-1]


def avg_bleu(
    candidates: Sequence[str | Tokens], references: Sequence[str | Tokens]
) -> float:
    """Mean over samples of smoothed BLEU-n, then mean over n in 1..4.

    A candidate with no tokens contributes 0 (failed samples stay in the
    denominator instead of crashing the batch).
    """
    per_sample = per_sample_avg_bleu(candidates, references)
    return sum(per_sample) / len(per_sample)


def per_sample_avg_bleu(
    candidates: Sequence[str | Tokens], references: Sequence[str | Tokens]
) -> list[float]:
    _check_corpus(candidates, references)
    values = []
    for cand, ref in zip(candidates, references):
        cand_tokens = _as_tokens(cand)
        if cand_tokens:
            values.append(sum(_bleu_1_to_n(cand_tokens, [_as_tokens(ref)], 4, True)) / 4.0)
        else:
            values.append(0.0)
    return values


def corpus_bleu(
    candidates: Sequence[str | Tokens], references: Sequence[str | Tokens]
) -> float:
    """Corpus-level BLEU-4 on the 0–100 scale.

    Clipped matches and totals accumulate over the corpus per order; zero
    counts get exponential smoothing (1 / (2^j * total)); the brevity penalty
    uses corpus-summed lengths. Orders the corpus is too short to populate
    are dropped from the geometric mean (the usual effective-order rule), so
    identical corpora score 100 regardless of length.
    """
    _check_corpus(candidates, references)
    clipped_totals = [0] * 4
    totals = [0] * 4
    cand_len_sum = 0
    ref_len_sum = 0
    for cand, ref in zip(candidates, references):
        cand_tokens = _as_tokens(cand)
        ref_tokens = _as_tokens(ref)
        cand_len_sum += len(cand_tokens)
        ref_len_sum += len(ref_tokens)
        clipped, total = _clipped_1_to_n(cand_tokens, _ngrams_1_to_n(ref_tokens, 4), 4)
        for order in range(4):
            clipped_totals[order] += clipped[order]
            totals[order] += total[order]

    smooth = 1.0
    log_sum = 0.0
    effective_orders = 0
    for order in range(4):
        if totals[order] == 0:
            break
        if clipped_totals[order] > 0:
            precision = clipped_totals[order] / totals[order]
        else:
            smooth *= 2.0
            precision = 1.0 / (smooth * totals[order])
        log_sum += math.log(precision)
        effective_orders += 1
    if effective_orders == 0:
        return 0.0
    bp = brevity_penalty(ref_len_sum, cand_len_sum)
    return 100.0 * bp * math.exp(log_sum / effective_orders)


# ---------------------------------------------------------------------------
# Token F1 / Rouge-L / distinct-n


def token_f1(candidate: str | Tokens, reference: str | Tokens) -> float:
    """Multiset-overlap F1 over normalized tokens; 0 when either side is empty."""
    cand = Counter(_as_tokens(candidate))
    ref = Counter(_as_tokens(reference))
    if not cand or not ref:
        return 0.0
    overlap = sum((cand & ref).values())
    if overlap == 0:
        return 0.0
    precision = overlap / sum(cand.values())
    recall = overlap / sum(ref.values())
    return 2 * precision * recall / (precision + recall)


def _lcs_length(a: Tokens, b: Tokens) -> int:
    """Bit j of `v` is 0 exactly where the LCS of `a` so far with `b[: j + 1]`
    exceeds the one with `b[:j]`, so the 0 bits below len(b) count the LCS.
    Carries past bit len(b) never reach the bits below it."""
    masks: dict[str, int] = {}
    for j, item_b in enumerate(b):
        masks[item_b] = masks.get(item_b, 0) | (1 << j)
    full = (1 << len(b)) - 1
    v = full
    for item_a in a:
        u = v & masks.get(item_a, 0)
        v = (v + u) | (v - u)
    return len(b) - (v & full).bit_count()


def rouge_l(candidate: str | Tokens, reference: str | Tokens, beta: float = 1.0) -> float:
    """LCS-based Rouge-L F-measure; beta weights recall (beta=1 is balanced)."""
    cand = _as_tokens(candidate)
    ref = _as_tokens(reference)
    if not cand or not ref:
        return 0.0
    lcs = _lcs_length(cand, ref)
    if lcs == 0:
        return 0.0
    precision = lcs / len(cand)
    recall = lcs / len(ref)
    beta_sq = beta * beta
    return (1 + beta_sq) * precision * recall / (recall + beta_sq * precision)


def distinct_n(candidates: Sequence[str | Tokens], n: int) -> float:
    """Corpus-level distinct n-grams over total n-grams across all candidates."""
    if n < 1:
        raise ValueError("n must be >= 1")
    seen: set[tuple[str, ...]] = set()
    total = 0
    for cand in candidates:
        tokens = _as_tokens(cand)
        seen.update(_grams(tokens, n))
        total += max(0, len(tokens) - n + 1)
    if total == 0:
        return 0.0
    return len(seen) / total


# ---------------------------------------------------------------------------
# Run analysis


def strategy_label(names: Iterable[str]) -> str:
    return " ".join(names)


def strategy_distribution(records: Iterable[RunRecord]) -> dict[str, float]:
    """Histogram of ordered strategy sequences across records.

    Each record's label is the space-joined strategy names of its parsed
    plan, multiplicity intact ("Hint Question Hint"). Invented names survive
    verbatim. Records without a parsed strategy plan are skipped.
    """
    counts: Counter = Counter()
    for record in records:
        plan = record.parsed_plan
        if not isinstance(plan, (list, tuple)) or not plan:
            continue
        if not all(isinstance(step, StrategyPlanStep) for step in plan):
            continue
        counts[strategy_label(step.strategy_name for step in plan)] += 1
    total = sum(counts.values())
    if total == 0:
        return {}
    return {label: count / total for label, count in counts.items()}


def retrieval_accuracy(
    records: Iterable[RunRecord],
    gold_persona_sets: dict[str, Sequence[str]],
    gold_document_sets: dict[str, Sequence[str]],
) -> tuple[int, int]:
    """Count retrieved passages that exactly equal a gold candidate string.

    Every passage of every evidence binding is checked against its sample's
    gold persona and gold document strings; counts sum over the corpus.
    """
    correct_persona = 0
    correct_document = 0
    for record in records:
        golds_p = set(gold_persona_sets.get(record.sample_id, ()))
        golds_d = set(gold_document_sets.get(record.sample_id, ()))
        for _, value in record.evidence.items():
            if not isinstance(value, Evidence):
                continue
            for _, text, _ in value.passages:
                if text in golds_p:
                    correct_persona += 1
                if text in golds_d:
                    correct_document += 1
    return correct_persona, correct_document


# Metric panels per dataset, in display order.
PANELS: dict[SchemaKind, tuple[str, ...]] = {
    SchemaKind.FOCUS: ("Avg.B", "F1", "Rouge.L"),
    SchemaKind.CIMA: ("sBLEU", "F1"),
    SchemaKind.PSYQA: ("Avg.B", "F1", "D-1"),
}


@dataclass(frozen=True)
class EvalConfig:
    kind: SchemaKind
    gold_persona_sets: dict[str, Sequence[str]] | None = None
    gold_document_sets: dict[str, Sequence[str]] | None = None


@dataclass
class MetricReport:
    kind: SchemaKind
    method: str
    n_samples: int
    n_failures: int
    per_sample: dict[str, list[float]]
    aggregates: dict[str, float]
    total_cost: Decimal
    strategy_histogram: dict[str, float] = field(default_factory=dict)
    retrieval_counts: tuple[int, int] | None = None

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind.value,
            "method": self.method,
            "n_samples": self.n_samples,
            "n_failures": self.n_failures,
            "aggregates": {k: round(v, 4) for k, v in self.aggregates.items()},
            "per_sample": {
                k: [round(v, 6) for v in vs] for k, vs in self.per_sample.items()
            },
            "strategy_histogram": {
                k: round(v, 6) for k, v in self.strategy_histogram.items()
            },
            "retrieval_counts": (
                list(self.retrieval_counts) if self.retrieval_counts else None
            ),
            "total_cost_usd": str(self.total_cost),
        }

    def to_table(self) -> str:
        """Human-readable aligned summary table."""
        headers = ["Method", "#Samples"] + list(self.aggregates) + ["Cost"]
        row = [
            self.method or "-",
            str(self.n_samples),
            *(f"{self.aggregates[name]:.2f}" for name in self.aggregates),
            str(self.total_cost),
        ]
        widths = [max(len(h), len(v)) for h, v in zip(headers, row)]
        header_line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
        value_line = "  ".join(v.ljust(w) for v, w in zip(row, widths))
        rule = "-" * len(header_line)
        return "\n".join([header_line, rule, value_line])


def score_run(
    records: Sequence[RunRecord],
    references: Sequence[tuple[str, str]],
    config: EvalConfig,
) -> MetricReport:
    """Compute the dataset's metric panel over aligned (id, gold) references."""
    if len(records) != len(references):
        raise LengthMismatch(f"{len(records)} records vs {len(references)} references")
    if not records:
        raise LengthMismatch("empty corpus")
    for record, (ref_id, _) in zip(records, references):
        if record.sample_id != ref_id:
            raise LengthMismatch(
                f"record {record.sample_id!r} does not align with reference {ref_id!r}"
            )

    # One tokenization per candidate and gold, shared by every metric below.
    # Looked up per call: the benchmark tracer wraps these module-level names.
    candidates = [tokenize(record.response) for record in records]
    golds = [tokenize(text) for _, text in references]
    pairwise = {"F1": token_f1, "Rouge.L": rouge_l}

    per_sample: dict[str, list[float]] = {}
    aggregates: dict[str, float] = {}
    for name in PANELS[config.kind]:
        if name == "sBLEU":
            aggregates[name] = corpus_bleu(candidates, golds)
            continue
        if name == "D-1":
            aggregates[name] = 100.0 * distinct_n(candidates, 1)
            continue
        if name == "Avg.B":
            values = per_sample_avg_bleu(candidates, golds)
        else:
            values = list(map(pairwise[name], candidates, golds))
        per_sample[name] = values
        aggregates[name] = 100.0 * sum(values) / len(values)

    histogram = (
        strategy_distribution(records) if config.kind != SchemaKind.FOCUS else {}
    )
    counts = None
    if config.gold_persona_sets is not None or config.gold_document_sets is not None:
        counts = retrieval_accuracy(
            records,
            config.gold_persona_sets or {},
            config.gold_document_sets or {},
        )

    return MetricReport(
        kind=config.kind,
        method=records[0].method,
        n_samples=len(records),
        n_failures=sum(1 for r in records if r.error is not None),
        per_sample=per_sample,
        aggregates=aggregates,
        total_cost=sum_costs(r.cost_usd for r in records),
        strategy_histogram=histogram,
        retrieval_counts=counts,
    )
