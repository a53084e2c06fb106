"""Independent brute-force oracles for the metric and retrieval tests.

These are written in the most naive transparent style on purpose: list
slicing and .count() instead of Counters, memoized recursion instead of a
DP table, per-document rescans for document frequencies. They must not
share code with the implementations they check. The per-gram kernels,
the plan readers and the per-character tokenizer at the end are the
exception: copies of an earlier implementation, kept so that a rewrite can
be held to identical results (bit-identical floats; the same plans, or the
same errors at the same lines; the same terms).
"""

from __future__ import annotations

import math
import re
from collections import Counter
from functools import lru_cache

from conductor.errors import DanglingReference, ParseError
from conductor.plangrammar import (
    SourcePlanProgram,
    SourcePlanStep,
    StrategyPlanStep,
    _parse_query,
)


def ngram_list(tokens, n):
    return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def clipped_precision(cand, ref, n):
    cand_grams = ngram_list(cand, n)
    ref_grams = ngram_list(ref, n)
    matched = 0
    for gram in set(cand_grams):
        matched += min(cand_grams.count(gram), ref_grams.count(gram))
    return matched, len(cand_grams)


def sentence_bleu(cand, ref, n, smoothing=True):
    if len(cand) == 0:
        raise ValueError("empty candidate")
    product = 1.0
    for order in range(1, n + 1):
        matched, total = clipped_precision(cand, ref, order)
        if matched > 0:
            precision = matched / total
        elif smoothing:
            precision = (matched + 1) / (total + 1)
        else:
            return 0.0
        product *= precision
    bp = min(1.0, math.exp(1.0 - len(ref) / len(cand)))
    return bp * product ** (1.0 / n)


def avg_bleu(pairs):
    values = []
    for cand, ref in pairs:
        if len(cand) == 0:
            values.append(0.0)
            continue
        values.append(sum(sentence_bleu(cand, ref, n) for n in range(1, 5)) / 4.0)
    return sum(values) / len(values)


def corpus_bleu(pairs):
    matched = [0, 0, 0, 0]
    totals = [0, 0, 0, 0]
    cand_len = 0
    ref_len = 0
    for cand, ref in pairs:
        cand_len += len(cand)
        ref_len += len(ref)
        for order in range(1, 5):
            m, t = clipped_precision(cand, ref, order)
            matched[order - 1] += m
            totals[order - 1] += t
    smooth = 1.0
    product = 1.0
    orders_used = 0
    for order in range(4):
        if totals[order] == 0:
            break
        if matched[order] > 0:
            precision = matched[order] / totals[order]
        else:
            smooth *= 2.0
            precision = 1.0 / (smooth * totals[order])
        product *= precision
        orders_used += 1
    if orders_used == 0 or cand_len == 0:
        return 0.0
    bp = min(1.0, math.exp(1.0 - ref_len / cand_len))
    return 100.0 * bp * product ** (1.0 / orders_used)


def token_f1(cand, ref):
    if not cand or not ref:
        return 0.0
    pool = list(ref)
    matched = 0
    for token in cand:
        if token in pool:
            pool.remove(token)
            matched += 1
    if matched == 0:
        return 0.0
    precision = matched / len(cand)
    recall = matched / len(ref)
    return 2 * precision * recall / (precision + recall)


def lcs(a, b):
    a, b = tuple(a), tuple(b)

    @lru_cache(maxsize=None)
    def go(i, j):
        if i == len(a) or j == len(b):
            return 0
        if a[i] == b[j]:
            return 1 + go(i + 1, j + 1)
        return max(go(i + 1, j), go(i, j + 1))

    result = go(0, 0)
    go.cache_clear()
    return result


def rouge_l(cand, ref):
    if not cand or not ref:
        return 0.0
    common = lcs(cand, ref)
    if common == 0:
        return 0.0
    precision = common / len(cand)
    recall = common / len(ref)
    return 2 * precision * recall / (precision + recall)


def distinct_n(candidates, n):
    all_grams = []
    for cand in candidates:
        all_grams.extend(ngram_list(cand, n))
    if not all_grams:
        return 0.0
    return len(set(all_grams)) / len(all_grams)


def bm25_scores(docs, query_terms, k1=1.5, b=0.75):
    """docs: list of (doc_id, token list). Returns doc_id -> score."""
    n = len(docs)
    avgdl = sum(len(tokens) for _, tokens in docs) / n
    scores = {}
    for doc_id, tokens in docs:
        total = 0.0
        for term in query_terms:
            tf = tokens.count(term)
            if tf == 0:
                continue
            df = sum(1 for _, other in docs if term in other)
            idf = math.log((n - df + 0.5) / (df + 0.5) + 1.0)
            total += idf * (tf * (k1 + 1.0)) / (
                tf + k1 * (1.0 - b + b * len(tokens) / avgdl)
            )
        scores[doc_id] = total
    return scores


def bm25_rank(docs, query_terms, k, k1=1.5, b=0.75):
    scores = bm25_scores(docs, query_terms, k1=k1, b=b)
    ranked = sorted(scores, key=lambda doc_id: (-scores[doc_id], doc_id))
    return ranked[:k]


# ---------------------------------------------------------------------------
# Per-gram BLEU and distinct-n kernels, as `conductor.evalmetrics` computed
# them before clipping visited only shared n-grams: every candidate n-gram is
# looked up in the reference Counter (a missing one reads 0), the reference
# counts are always a fresh Counter union, and distinct-n slices one tuple
# per n-gram. The faster kernels must give float.hex-equal results.


def _counter_ngrams(tokens, n):
    return Counter(zip(*(tokens[i:] for i in range(n))))


def _per_gram_clipped(cand, ref_counts, n):
    total = max(0, len(cand) - n + 1)
    if total == 0:
        return 0, 0
    cand_counts = _counter_ngrams(cand, n)
    clipped = sum(min(count, ref_counts[gram]) for gram, count in cand_counts.items())
    return clipped, total


def per_gram_precision(cand, ref, n):
    return _per_gram_clipped(cand, _counter_ngrams(ref, n), n)


def _brevity_penalty(ref_len, cand_len):
    if cand_len == 0:
        return 0.0
    return min(1.0, math.exp(1.0 - ref_len / cand_len))


def per_gram_bleu_1_to_n(cand, refs, n, smoothing):
    ref_len = min((abs(len(r) - len(cand)), len(r)) for r in refs)[1]
    bp = _brevity_penalty(ref_len, len(cand))
    values = []
    log_sum = 0.0
    for order in range(1, n + 1):
        ref_counts = Counter()
        for ref in refs:
            ref_counts |= _counter_ngrams(ref, order)
        clipped, total = _per_gram_clipped(cand, ref_counts, order)
        if clipped > 0:
            precision = clipped / total
        elif smoothing:
            precision = (clipped + 1) / (total + 1)
        else:
            return values + [0.0] * (n - len(values))
        log_sum += math.log(precision)
        values.append(bp * math.exp(log_sum / order))
    return values


def per_gram_avg_bleu_values(candidates, references):
    return [
        sum(per_gram_bleu_1_to_n(cand, [ref], 4, True)) / 4.0 if cand else 0.0
        for cand, ref in zip(candidates, references)
    ]


def per_gram_corpus_bleu(candidates, references):
    clipped_totals = [0] * 4
    totals = [0] * 4
    cand_len_sum = 0
    ref_len_sum = 0
    for cand, ref in zip(candidates, references):
        cand_len_sum += len(cand)
        ref_len_sum += len(ref)
        for order in range(1, 5):
            clipped, total = per_gram_precision(cand, ref, order)
            clipped_totals[order - 1] += clipped
            totals[order - 1] += total
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
    bp = _brevity_penalty(ref_len_sum, cand_len_sum)
    return 100.0 * bp * math.exp(log_sum / effective_orders)


def per_gram_distinct_n(candidates, n):
    seen = set()
    total = 0
    for tokens in candidates:
        for i in range(len(tokens) - n + 1):
            seen.add(tuple(tokens[i : i + n]))
            total += 1
    if total == 0:
        return 0.0
    return len(seen) / total


# ---------------------------------------------------------------------------
# Plan readers: the source- and strategy-plan parsers as they were when each
# hand-wrote its own Plan-line pairing. A shared pairing reader must give the
# same plan, or the same exception type and message, on any text.


def pairwise_source_plan(text, sigil="#So"):
    if not sigil.startswith("#") or len(sigil) < 2:
        raise ValueError("sigil must be a '#'-prefixed name like '#So' or '#E'")
    assign_re = re.compile(
        r"^\s*" + re.escape(sigil) + r"(\d+)\s*=\s*([A-Za-z_][A-Za-z0-9_]*)\s*\[(.*)\]\s*$"
    )
    plan_re = re.compile(r"^\s*Plan:\s*(.*)$")

    steps = []
    defined = []
    last_index = 0
    pending_desc = None
    pending_line = 0

    for line_no, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        plan_match = plan_re.match(line)
        assign_match = assign_re.match(line)
        if plan_match:
            if pending_desc is not None:
                raise ParseError(line_no, "Plan line without a following assignment")
            pending_desc = plan_match.group(1).strip()
            pending_line = line_no
            continue
        if assign_match:
            index = int(assign_match.group(1))
            if index <= last_index:
                raise ParseError(
                    line_no,
                    f"variable index {index} does not increase (last was {last_index})",
                )
            var_name = sigil[1:] + assign_match.group(1)
            query = _parse_query(assign_match.group(3), sigil)
            for ref in query.var_names():
                if ref not in defined:
                    raise DanglingReference(ref)
            steps.append(
                SourcePlanStep(
                    description=pending_desc or "",
                    source_name=assign_match.group(2),
                    output_var=var_name,
                    query=query,
                )
            )
            defined.append(var_name)
            last_index = index
            pending_desc = None
            continue
        continue

    if pending_desc is not None:
        raise ParseError(pending_line, "Plan line without a following assignment")
    if not steps:
        raise ParseError(1, "empty plan")
    return SourcePlanProgram(tuple(steps))


_ORACLE_PLAN_LINE = re.compile(r"^\s*Plan:\s*(.*?)\s*$")
_ORACLE_DO_LINE = re.compile(r"^\s*Do:\s*(.*?)\s*$")


def pairwise_strategy_plan(text):
    steps = []
    pending = None
    pending_line = 0
    for line_no, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        plan_match = _ORACLE_PLAN_LINE.match(line)
        do_match = _ORACLE_DO_LINE.match(line)
        if plan_match:
            if pending is not None:
                raise ParseError(line_no, "Plan line without a following Do line")
            pending = plan_match.group(1)
            pending_line = line_no
            if not pending:
                raise ParseError(line_no, "Plan line names no strategy")
        elif do_match:
            if pending is None:
                raise ParseError(line_no, "Do line without a preceding Plan line")
            fragment = do_match.group(1)
            if not fragment:
                raise ParseError(line_no, "Do line carries no fragment")
            steps.append(StrategyPlanStep(strategy_name=pending, fragment=fragment))
            pending = None
    if pending is not None:
        raise ParseError(pending_line, "Plan line without a following Do line")
    if not steps:
        raise ParseError(1, "no strategy steps found")
    return tuple(steps)


_PER_CHAR_CJK_RANGES = ((0x4E00, 0x9FFF), (0x3400, 0x4DBF), (0xF900, 0xFAFF))


def per_char_tokenize(text):
    terms = []
    buf = []
    for ch in text.lower():
        if any(lo <= ord(ch) <= hi for lo, hi in _PER_CHAR_CJK_RANGES):
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
