from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, strategies as st

import oracles
from conductor.errors import EmptyCorpus, EmptyQuery, UnknownDoc
from conductor.retrieval import (
    Bm25Retriever,
    Corpus,
    build_index,
    enrich_query,
    retrieve_topk,
    score,
    tokenize,
)


class TestTokenize:
    def test_punctuation_stripped(self):
        assert tokenize("The Arctic Cordillera!") == ["the", "arctic", "cordillera"]

    def test_already_clean(self):
        assert tokenize("e dentro la") == ["e", "dentro", "la"]

    def test_cjk_per_codepoint(self):
        assert tokenize("我很难过today") == ["我", "很", "难", "过", "today"]

    def test_empty_tokens_dropped(self):
        assert tokenize("  ,,  ") == []

    def test_contractions_split(self):
        assert tokenize("don't") == ["don", "t"]

    @pytest.mark.parametrize(
        "text, terms",
        [
            ("İ", ["i"]),  # lowercases to "i" plus a combining dot, which splits
            ("a_b", ["a", "b"]),
            ("a１２b", ["a１２b"]),
            ("xꀀy", ["xꀀy"]),
            ("x㏿y", ["x", "y"]),
            ("x䷀y", ["x", "y"]),
            ("x\uf8ffy", ["x", "y"]),
            # each _CJK_RANGES endpoint, including unassigned U+FAFF
            *((f"x{chr(c)}y", ["x", chr(c), "y"])
              for c in (0x4E00, 0x9FFF, 0x3400, 0x4DBF, 0xF900, 0xFAFF)),
        ],
    )
    def test_edge_cases(self, text, terms):
        assert tokenize(text) == terms

    def test_matches_per_character_oracle_on_every_bmp_codepoint(self):
        for code in range(0x10000):
            if 0xD800 <= code <= 0xDFFF:
                continue
            text = f"a{chr(code)}b"
            assert tokenize(text) == oracles.per_char_tokenize(text), hex(code)


def _corpus(*texts: str) -> Corpus:
    return Corpus("test", tuple((f"doc-{i:02d}", t) for i, t in enumerate(texts)))


class TestBuildIndex:
    def test_counts_by_hand(self):
        index = build_index(_corpus("a", "b", "a"))
        assert index.doc_freq["a"] == 2
        assert index.doc_freq["b"] == 1
        assert index.avgdl == 1.0

    def test_single_doc_avgdl(self):
        index = build_index(_corpus("three word doc"))
        assert index.avgdl == 3.0

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpus):
            Corpus("test", ())

    def test_parameter_bounds(self):
        with pytest.raises(ValueError):
            build_index(_corpus("a"), k1=-0.1)
        with pytest.raises(ValueError):
            build_index(_corpus("a"), b=1.5)


class TestScore:
    def test_absent_term_scores_zero(self):
        index = build_index(_corpus("cat sat", "dog ran"))
        assert score(index, ["zebra"], "doc-00") == 0.0

    def test_worked_two_doc_example(self):
        index = build_index(_corpus("cat sat", "dog ran"), k1=1.5, b=0.75)
        expected = math.log(2.0)  # idf=ln((2-1+0.5)/(1+0.5)+1), tf ratio = 1.0
        assert score(index, ["cat"], "doc-00") == pytest.approx(expected, abs=1e-9)
        assert score(index, ["cat"], "doc-01") == 0.0

    def test_duplicate_docs_equal_scores(self):
        index = build_index(_corpus("same text here", "same text here"))
        assert score(index, ["same", "text"], "doc-00") == score(
            index, ["same", "text"], "doc-01"
        )

    def test_unknown_doc(self):
        index = build_index(_corpus("a"))
        with pytest.raises(UnknownDoc):
            score(index, ["a"], "doc-99")


class TestRetrieveTopk:
    def test_k1_on_worked_example(self):
        index = build_index(_corpus("cat sat", "dog ran"))
        results = retrieve_topk(index, "cat", 1)
        assert len(results) == 1
        assert results[0][0] == "doc-00"
        assert results[0][2] == pytest.approx(math.log(2.0), abs=1e-9)

    def test_k_larger_than_corpus(self):
        index = build_index(_corpus("a", "b"))
        assert len(retrieve_topk(index, "a", 10)) == 2

    def test_zero_scores_tie_break_by_id(self):
        index = build_index(_corpus("x", "y", "z"))
        ids = [doc_id for doc_id, _, _ in retrieve_topk(index, "absent", 3)]
        assert ids == ["doc-00", "doc-01", "doc-02"]

    def test_k_must_be_positive(self):
        index = build_index(_corpus("a"))
        with pytest.raises(ValueError):
            retrieve_topk(index, "a", 0)

    def test_length_independence_when_b_zero(self):
        # Duplicating a doc disjoint from the query shifts avgdl (and N) but
        # with b=0 the remaining docs keep their relative order exactly.
        base = [
            "cat sat on the mat",
            "dog ran far and then ran again and again",
            "bird flew away over the quiet harbour before dawn broke",
        ]
        index_a = build_index(_corpus(*base), b=0.0)
        order_a = [d for d, _, _ in retrieve_topk(index_a, "cat dog ran", 3)]
        index_b = build_index(_corpus(*base, base[2]), b=0.0)
        order_b = [
            d for d, _, _ in retrieve_topk(index_b, "cat dog ran", 4) if d != "doc-03"
        ]
        assert order_a == order_b


class TestOracleAgreement:
    def test_random_corpora_exact_ranking(self):
        rng = random.Random(1234)
        vocab = ["cat", "dog", "sun", "sea", "run", "sit", "red", "sky", "map", "ice"]
        for _ in range(200):
            n_docs = rng.randint(1, 20)
            texts = [
                " ".join(rng.choices(vocab, k=rng.randint(1, 8))) for _ in range(n_docs)
            ]
            corpus = _corpus(*texts)
            index = build_index(corpus)
            query_terms = rng.choices(vocab, k=rng.randint(1, 4))
            k = rng.randint(1, 5)
            results = retrieve_topk(index, " ".join(query_terms), k)
            assert all(value >= 0.0 for _, _, value in results)
            got = [doc_id for doc_id, _, _ in results]
            oracle_docs = [(doc_id, tokenize(text)) for doc_id, text in corpus.docs]
            assert got == oracles.bm25_rank(oracle_docs, query_terms, k)


class TestEnrichQuery:
    def test_identity_without_status(self):
        assert enrich_query("USER: hello") == "USER: hello"

    def test_appends_status(self):
        assert enrich_query("C", "S") == "C\nS"

    def test_empty_context_rejected(self):
        with pytest.raises(EmptyQuery):
            enrich_query("", "S")

    def test_blank_status_ignored(self):
        assert enrich_query("C", "   ") == "C"

    def test_gold_persona_ranks_first_with_status(self):
        # when the status quotes the gold persona verbatim, it must rank top-1
        personas = [
            "I like living in a city. I don't hope to ever visit New Zealand.",
            "I enjoy hiking in the mountains every summer.",
            "I have two cats at home.",
            "I prefer tea over coffee in the morning.",
            "I studied history at university.",
        ]
        retriever = Bm25Retriever(_corpus(*personas))
        query = enrich_query("USER: what was that place again?", personas[0])
        top = retriever.retrieve(query, 1)
        assert top[0][1] == personas[0]


@given(st.text(max_size=200))
def test_tokenize_yields_lowercase_nonempty(text):
    for term in tokenize(text):
        assert term
        assert term == term.lower()
