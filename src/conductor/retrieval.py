"""BM25 indexing and top-k retrieval over per-sample candidate pools.

Candidate pools are tiny (five persona and ten document candidates per
sample), so indices are built on the fly per sample and scoring is exact:
no heaps, no persistence.

The tokenizer is shared with the metrics module: lowercase, split on
whitespace and punctuation, and every CJK codepoint becomes its own term so
Chinese text scores sensibly.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from conductor.errors import EmptyCorpus, EmptyQuery, UnknownDoc

DEFAULT_K1 = 1.5
DEFAULT_B = 0.75

_CJK_RANGES = (
    (0x4E00, 0x9FFF),   # CJK Unified Ideographs
    (0x3400, 0x4DBF),   # Extension A
    (0xF900, 0xFAFF),   # Compatibility Ideographs
)


def _is_cjk(ch: str) -> bool:
    code = ord(ch)
    return any(lo <= code <= hi for lo, hi in _CJK_RANGES)


def tokenize(text: str) -> list[str]:
    """Lowercased terms: alphanumeric runs, with CJK codepoints split out."""
    terms: list[str] = []
    buf: list[str] = []
    for ch in text.lower():
        if _is_cjk(ch):
            if buf:
                terms.append("".join(buf))
                buf = []
            terms.append(ch)
        elif ch.isalnum():
            buf.append(ch)
        else:
            if buf:
                terms.append("".join(buf))
                buf = []
    if buf:
        terms.append("".join(buf))
    return terms


@dataclass(frozen=True)
class Corpus:
    source_name: str
    docs: tuple[tuple[str, str], ...]  # (doc_id, text)

    def __post_init__(self) -> None:
        if not self.docs:
            raise EmptyCorpus(f"source {self.source_name!r} has no documents")
        ids = [doc_id for doc_id, _ in self.docs]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate doc ids in source {self.source_name!r}")


@dataclass
class Bm25Index:
    """Okapi BM25 statistics for one corpus.

    idf uses the +1-inside-log variant, ln((N - df + 0.5)/(df + 0.5) + 1),
    which keeps every score non-negative.
    """

    corpus: Corpus
    k1: float = DEFAULT_K1
    b: float = DEFAULT_B
    doc_freq: Counter = field(init=False)
    term_counts: dict[str, Counter] = field(init=False)
    doc_len: dict[str, int] = field(init=False)
    avgdl: float = field(init=False)

    def __post_init__(self) -> None:
        if self.k1 < 0:
            raise ValueError("k1 must be >= 0")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError("b must be in [0, 1]")
        self.doc_freq = Counter()
        self.term_counts = {}
        self.doc_len = {}
        for doc_id, text in self.corpus.docs:
            terms = tokenize(text)
            counts = Counter(terms)
            self.term_counts[doc_id] = counts
            self.doc_len[doc_id] = len(terms)
            self.doc_freq.update(counts.keys())
        self.avgdl = sum(self.doc_len.values()) / len(self.doc_len)

    @property
    def n_docs(self) -> int:
        return len(self.doc_len)


def build_index(corpus: Corpus, k1: float = DEFAULT_K1, b: float = DEFAULT_B) -> Bm25Index:
    return Bm25Index(corpus=corpus, k1=k1, b=b)


def score(index: Bm25Index, query_terms: list[str], doc_id: str) -> float:
    """Sum over query terms of idf * tf*(k1+1) / (tf + k1*(1 - b + b*len/avgdl))."""
    if doc_id not in index.term_counts:
        raise UnknownDoc(doc_id)
    counts = index.term_counts[doc_id]
    length = index.doc_len[doc_id]
    n = index.n_docs
    total = 0.0
    for term in query_terms:
        tf = counts.get(term, 0)
        if tf == 0:
            continue
        df = index.doc_freq[term]
        idf = math.log((n - df + 0.5) / (df + 0.5) + 1.0)
        denom = tf + index.k1 * (1.0 - index.b + index.b * length / index.avgdl)
        total += idf * (tf * (index.k1 + 1.0)) / denom
    return total


def retrieve_topk(index: Bm25Index, query: str, k: int) -> list[tuple[str, str, float]]:
    """Top-k (doc_id, text, score) by score descending, ties by ascending id."""
    if k < 1:
        raise ValueError("k must be >= 1")
    query_terms = tokenize(query)
    ranked = sorted(
        (
            (doc_id, text, score(index, query_terms, doc_id))
            for doc_id, text in index.corpus.docs
        ),
        key=lambda item: (-item[2], item[0]),
    )
    return ranked[:k]


def enrich_query(dialogue_text: str, internal_status: str | None = None) -> str:
    """Append the Thinker's internal status to the dialogue-context query."""
    if not dialogue_text.strip():
        raise EmptyQuery("dialogue context query is empty")
    if internal_status is None or not internal_status.strip():
        return dialogue_text
    return f"{dialogue_text}\n{internal_status}"


class Bm25Retriever:
    """(query, k) -> ranked passages over one corpus."""

    def __init__(self, corpus: Corpus):
        self.index = build_index(corpus)

    def retrieve(self, query: str, k: int) -> list[tuple[str, str, float]]:
        return retrieve_topk(self.index, query, k)
