from __future__ import annotations

import math
import random
from collections import Counter
from decimal import Decimal

import pytest
from hypothesis import given, strategies as st

import oracles
from conftest import FIXTURES
from conductor import evalmetrics
from conductor.backend import ReplayBackend
from conductor.core import (
    CallUsage,
    Evidence,
    EvidenceStore,
    RunRecord,
    SchemaKind,
)
from conductor.data import load_dataset, references_from_samples, select_demonstrations
from conductor.errors import EmptyCandidate, LengthMismatch
from conductor.evalmetrics import (
    EvalConfig,
    _bleu_1_to_n,
    _lcs_length,
    _ngrams_1_to_n,
    avg_bleu,
    corpus_bleu,
    distinct_n,
    modified_ngram_precision,
    per_sample_avg_bleu,
    retrieval_accuracy,
    rouge_l,
    score_run,
    sentence_bleu_n,
    strategy_distribution,
    token_f1,
)
from conductor.pipelines import Method, MethodConfig, run_batch
from conductor.plangrammar import StrategyPlanStep
from conductor.retrieval import Bm25Retriever, Corpus

_tokens = st.lists(st.sampled_from("abcdefgh"), min_size=0, max_size=15)


class TestNgrams:
    @given(st.lists(st.sampled_from("abc"), max_size=20), st.integers(1, 5))
    def test_matches_naive_slices(self, tokens, n):
        naive = Counter(
            gram for order in range(1, n + 1) for gram in oracles.ngram_list(tokens, order)
        )
        assert _ngrams_1_to_n(tokens, n) == naive


class TestNgramPrecision:
    def test_classic_clipping(self):
        assert modified_ngram_precision("the the the".split(), "the cat".split(), 1) == (1, 3)

    def test_identical(self):
        tokens = "a b c d".split()
        assert modified_ngram_precision(tokens, tokens, 2) == (3, 3)

    def test_candidate_shorter_than_n(self):
        assert modified_ngram_precision(["a"], ["a"], 2) == (0, 0)


class TestSentenceBleu:
    def test_identical_is_one_for_all_n(self):
        for n in range(1, 5):
            assert sentence_bleu_n("the cat sat down", ["the cat sat down"], n) == pytest.approx(1.0)

    def test_disjoint_unsmoothed_is_zero(self):
        assert sentence_bleu_n("a b", ["c d"], 1, smoothing=False) == 0.0

    def test_brevity_penalty_hand_case(self):
        value = sentence_bleu_n("the cat sat", ["the cat sat down"], 1)
        assert value == pytest.approx(math.exp(1 - 4 / 3), abs=1e-9)

    def test_empty_candidate_raises(self):
        with pytest.raises(EmptyCandidate):
            sentence_bleu_n("", ["a"], 1)

    @given(_tokens.filter(lambda t: t), _tokens.filter(lambda t: t), st.integers(1, 4))
    def test_matches_oracle(self, cand, ref, n):
        got = sentence_bleu_n(cand, [ref], n)
        assert got == pytest.approx(oracles.sentence_bleu(cand, ref, n), abs=1e-9)


class TestAvgBleu:
    def test_identity_corpus(self):
        pairs = ["the cat sat", "box is scatola"]
        assert avg_bleu(pairs, pairs) == pytest.approx(1.0)

    def test_single_pair_equals_mean_of_orders(self):
        cand, ref = "the cat sat", "the cat sat down"
        by_hand = sum(sentence_bleu_n(cand, [ref], n) for n in range(1, 5)) / 4
        assert avg_bleu([cand], [ref]) == pytest.approx(by_hand)

    def test_empty_corpus_rejected(self):
        with pytest.raises(LengthMismatch):
            avg_bleu([], [])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            avg_bleu(["a"], ["a", "b"])

    def test_empty_candidate_contributes_zero(self):
        assert avg_bleu(["", "same text"], ["ref text", "same text"]) == pytest.approx(0.5)


class TestCorpusBleu:
    def test_identical_corpora_hit_100(self):
        pairs = ["the cat sat on the mat today", "box is scatola right now"]
        assert corpus_bleu(pairs, pairs) == pytest.approx(100.0)

    def test_disjoint_is_tiny(self):
        candidates = ["a b c d e"] * 25
        references = ["x y z w v"] * 25
        value = corpus_bleu(candidates, references)
        assert 0.0 <= value < 1.0

    def test_matches_oracle_on_random_corpus(self):
        rng = random.Random(7)
        pairs = [
            (
                [rng.choice("abcdefgh") for _ in range(rng.randint(0, 15))],
                [rng.choice("abcdefgh") for _ in range(rng.randint(1, 15))],
            )
            for _ in range(40)
        ]
        got = corpus_bleu([c for c, _ in pairs], [r for _, r in pairs])
        assert got == pytest.approx(oracles.corpus_bleu(pairs), abs=1e-9)


class TestTokenF1:
    def test_two_thirds_case(self):
        assert token_f1("a b c", "b c d") == pytest.approx(2 / 3)

    def test_identical(self):
        assert token_f1("x y z", "x y z") == 1.0

    def test_empty_side(self):
        assert token_f1("", "x") == 0.0
        assert token_f1("x", "") == 0.0

    @given(_tokens, _tokens)
    def test_matches_oracle(self, cand, ref):
        assert token_f1(cand, ref) == pytest.approx(oracles.token_f1(cand, ref), abs=1e-9)


class TestRougeL:
    def test_six_sevenths_case(self):
        assert rouge_l("a b c d", "a c d") == pytest.approx(6 / 7)

    def test_identical(self):
        assert rouge_l("a b c", "a b c") == 1.0

    def test_disjoint(self):
        assert rouge_l("a b", "c d") == 0.0

    @given(_tokens, _tokens)
    def test_matches_oracle(self, cand, ref):
        assert rouge_l(cand, ref) == pytest.approx(oracles.rouge_l(cand, ref), abs=1e-9)

    # Up to 100 tokens a side: past one 64-bit word of the bit-vector LCS,
    # and within the recursion depth of the memoized oracle.
    @given(
        st.lists(st.sampled_from("abcde"), max_size=100),
        st.lists(st.sampled_from("abcde"), max_size=100),
    )
    def test_lcs_length_matches_oracle(self, a, b):
        assert _lcs_length(a, b) == oracles.lcs(a, b)

    @given(st.integers(0, 8), st.integers(0, 50))
    def test_symmetry_at_equal_lengths(self, length, seed):
        rng = random.Random(seed)
        a = [rng.choice("abcd") for _ in range(length)]
        b = [rng.choice("abcd") for _ in range(length)]
        assert rouge_l(a, b) == pytest.approx(rouge_l(b, a), abs=1e-12)


class TestDistinctN:
    def test_hand_counted(self):
        assert distinct_n(["a a b"], 1) == pytest.approx(2 / 3)

    def test_all_unique(self):
        assert distinct_n(["a b", "c d"], 1) == 1.0

    def test_empty_corpus(self):
        assert distinct_n([], 1) == 0.0

    @given(st.lists(_tokens, max_size=6), st.integers(1, 3))
    def test_matches_oracle(self, candidates, n):
        assert distinct_n(candidates, n) == pytest.approx(
            oracles.distinct_n(candidates, n), abs=1e-9
        )


class TestArgumentGuards:
    def test_ngram_order_below_one(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            modified_ngram_precision(["a"], ["a"], 0)
        with pytest.raises(ValueError, match="n must be >= 1"):
            distinct_n(["a b"], 0)

    @pytest.mark.parametrize("n", [0, 5])
    def test_sentence_bleu_order_outside_one_to_four(self, n):
        with pytest.raises(ValueError, match=r"n must be in 1\.\.4"):
            sentence_bleu_n("a b", ["a b"], n)

    def test_sentence_bleu_needs_a_reference(self):
        with pytest.raises(LengthMismatch, match="need at least one reference"):
            sentence_bleu_n("a b", [], 1)


# 0-40 tokens over 3-5 symbols, so n-grams repeat within and across lists.
_repeating = st.integers(3, 5).flatmap(
    lambda k: st.lists(st.sampled_from("abcde"[:k]), max_size=40)
)
_pairs = st.lists(st.tuples(_repeating, _repeating), min_size=1, max_size=4)


def _hex(values):
    return [value.hex() for value in values]


class TestSharedGramKernelsMatchPerGramCopies:
    """Each kernel against its per-gram form in `oracles`, to the last bit."""

    @given(_repeating, _repeating, st.integers(1, 4))
    def test_precision(self, cand, ref, n):
        assert modified_ngram_precision(cand, ref, n) == oracles.per_gram_precision(cand, ref, n)

    @given(
        _repeating,
        st.lists(_repeating, min_size=1, max_size=3),
        st.integers(1, 4),
        st.booleans(),
    )
    def test_bleu_1_to_n(self, cand, refs, n, smoothing):
        assert _hex(_bleu_1_to_n(cand, refs, n, smoothing)) == _hex(
            oracles.per_gram_bleu_1_to_n(cand, refs, n, smoothing)
        )

    @given(_pairs)
    def test_per_sample_avg_bleu(self, pairs):
        candidates, references = zip(*pairs)
        assert _hex(per_sample_avg_bleu(candidates, references)) == _hex(
            oracles.per_gram_avg_bleu_values(candidates, references)
        )

    @given(_pairs)
    def test_corpus_bleu(self, pairs):
        candidates, references = zip(*pairs)
        assert (
            corpus_bleu(candidates, references).hex()
            == oracles.per_gram_corpus_bleu(candidates, references).hex()
        )

    @given(st.lists(_repeating, max_size=6), st.integers(1, 4))
    def test_distinct_n(self, candidates, n):
        assert distinct_n(candidates, n).hex() == oracles.per_gram_distinct_n(candidates, n).hex()


def _strategy_record(sample_id: str, names: list[str]) -> RunRecord:
    steps = tuple(StrategyPlanStep(name, f"frag for {name}") for name in names)
    return RunRecord(
        sample_id=sample_id,
        method="tpe",
        kind=SchemaKind.CIMA,
        parsed_plan=steps,
        response="r",
    )


class TestStrategyDistribution:
    def test_simple_counts(self):
        records = [
            _strategy_record("1", ["Hint"]),
            _strategy_record("2", ["Hint"]),
            _strategy_record("3", ["Question"]),
        ]
        assert strategy_distribution(records) == {
            "Hint": pytest.approx(2 / 3),
            "Question": pytest.approx(1 / 3),
        }

    def test_empty(self):
        assert strategy_distribution([]) == {}

    def test_multiplicity_label(self):
        records = [_strategy_record("1", ["Hint", "Question", "Hint"])]
        assert list(strategy_distribution(records)) == ["Hint Question Hint"]

    def test_invented_labels_kept_and_sum_to_one(self):
        records = [
            _strategy_record("1", ["Hint Confirmation"]),
            _strategy_record("2", ["Correction"]),
            _strategy_record("3", ["Correction"]),
        ]
        histogram = strategy_distribution(records)
        assert "Hint Confirmation" in histogram
        assert sum(histogram.values()) == pytest.approx(1.0, abs=1e-12)


def _retrieval_record(sample_id: str, source: str, texts: list[str]) -> RunRecord:
    store = EvidenceStore()
    store.bind(
        "So1",
        Evidence(
            "So1",
            source,
            "q",
            tuple((f"d{i}", t, float(len(texts) - i)) for i, t in enumerate(texts)),
        ),
    )
    return RunRecord(
        sample_id=sample_id,
        method="tpe",
        kind=SchemaKind.FOCUS,
        evidence=store,
        response="r",
    )


class TestRetrievalAccuracy:
    def test_single_gold_persona_hit(self):
        records = [_retrieval_record("s1", "PERSONA", ["the gold persona"])]
        counts = retrieval_accuracy(records, {"s1": ["the gold persona"]}, {})
        assert counts == (1, 0)

    def test_document_hits_counted_separately(self):
        records = [
            _retrieval_record("s1", "DOCUMENT", ["gold doc", "noise"]),
            _retrieval_record("s2", "DOCUMENT", ["noise"]),
        ]
        counts = retrieval_accuracy(records, {}, {"s1": ["gold doc"], "s2": ["gold doc"]})
        assert counts == (0, 1)

    def test_monotone_in_k(self):
        corpus = Corpus(
            "document",
            tuple(
                (f"d{i}", text)
                for i, text in enumerate(
                    ["alpha beta", "gamma delta", "alpha delta", "beta gamma"]
                )
            ),
        )
        retriever = Bm25Retriever(corpus)
        gold = {"s": ["gamma delta", "beta gamma"]}
        counts = []
        for k in range(1, 5):
            passages = retriever.retrieve("gamma beta", k)
            record = _retrieval_record("s", "DOCUMENT", [t for _, t, _ in passages])
            counts.append(retrieval_accuracy([record], {}, gold)[1])
        assert counts == sorted(counts)


def _scored_record(sample_id: str, response: str, cost="0.001") -> RunRecord:
    return RunRecord(
        sample_id=sample_id,
        method="tpe",
        kind=SchemaKind.FOCUS,
        response=response,
        usages=(CallUsage("gpt-3.5-turbo", "replay", 10, 10),),
        cost_usd=Decimal(cost),
    )


class TestScoreRun:
    def test_identity_maxes_panel(self):
        records = [_scored_record("1", "the cat sat"), _scored_record("2", "hello there")]
        references = [("1", "the cat sat"), ("2", "hello there")]
        report = score_run(records, references, EvalConfig(kind=SchemaKind.FOCUS))
        assert report.aggregates["Avg.B"] == pytest.approx(100.0)
        assert report.aggregates["F1"] == pytest.approx(100.0)
        assert report.aggregates["Rouge.L"] == pytest.approx(100.0)
        assert report.total_cost == Decimal("0.002")

    def test_aggregate_is_mean_of_per_sample(self):
        records = [_scored_record("1", "a b c"), _scored_record("2", "x")]
        references = [("1", "a b d"), ("2", "x y z")]
        report = score_run(records, references, EvalConfig(kind=SchemaKind.FOCUS))
        for name, values in report.per_sample.items():
            assert report.aggregates[name] == pytest.approx(
                100.0 * sum(values) / len(values)
            )

    def test_misaligned_ids_rejected(self):
        records = [_scored_record("1", "a")]
        with pytest.raises(LengthMismatch):
            score_run(records, [("2", "a")], EvalConfig(kind=SchemaKind.FOCUS))

    def test_length_mismatch(self):
        records = [_scored_record("1", "a")]
        with pytest.raises(LengthMismatch):
            score_run(records, [], EvalConfig(kind=SchemaKind.FOCUS))

    def test_cima_panel_names(self):
        records = [
            RunRecord(
                sample_id="c1",
                method="tpe",
                kind=SchemaKind.CIMA,
                response="box is scatola",
            )
        ]
        report = score_run(records, [("c1", "box is scatola")], EvalConfig(kind=SchemaKind.CIMA))
        assert list(report.aggregates) == ["sBLEU", "F1"]
        assert report.aggregates["sBLEU"] == pytest.approx(100.0)

    def test_table_has_all_columns(self):
        records = [_scored_record("1", "a b c")]
        report = score_run(records, [("1", "a b c")], EvalConfig(kind=SchemaKind.FOCUS))
        table = report.to_table()
        for column in ("Avg.B", "F1", "Rouge.L", "Cost"):
            assert column in table

    def test_fixture_run_with_perturbed_responses_pins_to_oracle(self):
        # non-identity pin: fixed imperfect responses, aggregates verified
        # against the independent oracle over the shared tokenizer
        from conductor.retrieval import tokenize

        responses = [
            "The range is located in Nunavut and reaches great heights.",
            "It is called Newton, a suburb of Auckland in New Zealand.",
            "The Arctic Cordillera is known as a terrestrial ecozone.",
        ]
        references = [
            ("1", "The range is mostly located in Nunavut but extends southeast."),
            ("2", "It's called Newton and it is a small suburb of Auckland City."),
            ("3", "As you are interested in ecozone, it is a terrestrial ecozone."),
        ]
        records = [
            _scored_record(ref_id, response)
            for (ref_id, _), response in zip(references, responses)
        ]
        report = score_run(records, references, EvalConfig(kind=SchemaKind.FOCUS))
        pairs = [
            (tokenize(c), tokenize(r)) for c, (_, r) in zip(responses, references)
        ]
        want_avg_bleu = 100.0 * oracles.avg_bleu(pairs)
        want_f1 = 100.0 * sum(oracles.token_f1(c, r) for c, r in pairs) / len(pairs)
        want_rouge = 100.0 * sum(oracles.rouge_l(c, r) for c, r in pairs) / len(pairs)
        assert report.aggregates["Avg.B"] == pytest.approx(want_avg_bleu, abs=1e-9)
        assert report.aggregates["F1"] == pytest.approx(want_f1, abs=1e-9)
        assert report.aggregates["Rouge.L"] == pytest.approx(want_rouge, abs=1e-9)
        assert 0.0 < report.aggregates["Avg.B"] < 100.0


def _fixture_batch(kind: SchemaKind) -> tuple[list[RunRecord], list[tuple[str, str]]]:
    if kind is SchemaKind.PSYQA:
        texts = [d.response_text for d in select_demonstrations(kind, "tpe")]
        records = [
            RunRecord(sample_id=f"p{i}", method="tpe", kind=kind, response=text)
            for i, text in enumerate(texts)
        ]
        return records, [(r.sample_id, text) for r, text in zip(records, texts[::-1])]
    samples = load_dataset(str(FIXTURES / f"{kind.value}_samples.jsonl"), kind)
    backend = ReplayBackend.load(str(FIXTURES / "replay.jsonl"))
    records = run_batch(samples, MethodConfig(method=Method.TPE, dataset_kind=kind), backend)
    return records, references_from_samples(samples)


@pytest.mark.parametrize("kind", list(SchemaKind))
def test_score_run_tokenizes_each_record_once(kind, monkeypatch):
    records, references = _fixture_batch(kind)
    texts = []
    tokenize = evalmetrics.tokenize

    def counting(text):
        texts.append(text)
        return tokenize(text)

    monkeypatch.setattr(evalmetrics, "tokenize", counting)
    report = score_run(records, references, EvalConfig(kind=kind))
    monkeypatch.undo()
    assert len(texts) == 2 * len(records)

    candidates = [record.response for record in records]
    golds = [text for _, text in references]
    per_sample = {
        "Avg.B": per_sample_avg_bleu(candidates, golds),
        "F1": list(map(token_f1, candidates, golds)),
        "Rouge.L": list(map(rouge_l, candidates, golds)),
    }
    aggregates = {
        "sBLEU": corpus_bleu(candidates, golds),
        "D-1": 100.0 * distinct_n(candidates, 1),
    }
    for name, values in report.per_sample.items():
        assert [v.hex() for v in values] == [v.hex() for v in per_sample[name]], name
        aggregates[name] = 100.0 * sum(per_sample[name]) / len(values)
    assert {k: v.hex() for k, v in report.aggregates.items()} == {
        k: aggregates[k].hex() for k in report.aggregates
    }
