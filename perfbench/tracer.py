"""Per-layer spans recorded from outside the program.

Each layer is traced by replacing one public name in the module that looks
it up at call time (``conductor.pipelines.load_template``,
``conductor.evalmetrics.tokenize``, ...) with a wrapper that records a span.
A layer's self time is its span minus the time covered by its child spans,
kept per thread so the live workload's client threads do not mix. Spans are
kept in memory (up to a cap) and written out when the run ends; totals per
(phase, layer) are kept for every call.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable

from conductor.errors import ParseError

SPAN_CAP = 200_000

# (module, attribute, layer). Several names may feed one layer; the tokenizer
# is looked up separately by retrieval, evalmetrics and backend.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("conductor.retrieval", "tokenize", "retrieval.tokenize"),
    ("conductor.evalmetrics", "tokenize", "retrieval.tokenize"),
    ("conductor.backend", "tokenize", "retrieval.tokenize"),
    ("conductor.retrieval", "build_index", "retrieval.index_build"),
    ("conductor.retrieval", "retrieve_topk", "retrieval.topk"),
    ("conductor.pipelines", "parse_source_plan", "plangrammar.parse"),
    ("conductor.pipelines", "parse_strategy_plan", "plangrammar.parse"),
    ("conductor.pipelines", "parse_react_step", "plangrammar.parse"),
    ("conductor.pipelines", "parse_module_list", "plangrammar.parse"),
    ("conductor.core.PromptTemplate", "render", "core.render"),
    ("conductor.pipelines", "render_demo_slot", "core.render"),
    ("conductor.pipelines", "render_demonstration", "core.render"),
    ("conductor.pipelines", "load_template", "core.template_load"),
    ("conductor.pipelines", "select_demonstrations", "data.demo_select"),
    ("conductor.backend", "request_hash", "backend.request_hash"),
    ("conductor.evalmetrics", "per_sample_avg_bleu", "evalmetrics.avg_bleu"),
    ("conductor.evalmetrics", "token_f1", "evalmetrics.token_f1"),
    ("conductor.evalmetrics", "rouge_l", "evalmetrics.rouge_l"),
    ("conductor.evalmetrics", "corpus_bleu", "evalmetrics.corpus_bleu"),
    ("conductor.evalmetrics", "distinct_n", "evalmetrics.distinct_n"),
)


def _resolve(path: str) -> Any:
    """A module, or a class inside one ("conductor.core.PromptTemplate")."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class Tracer:
    """Span recorder; `phase` labels every span recorded while it is set."""

    def __init__(self) -> None:
        self.phase = "run"
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self.index_keys: set = set()
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: list[tuple[Any, str, Any]] = []

    # -- span bookkeeping -------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_run(self) -> str:
        return getattr(self._local, "run", "")

    def set_run(self, key: str) -> None:
        self._local.run = key

    def wrap(
        self,
        layer: str,
        fn: Callable,
        on_call: Callable[..., None] | None = None,
    ) -> Callable:
        """`fn` with a span named `layer` around every call."""
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1][1] if stack else 0
            stack.append([0.0, span_id])
            start = perf_counter()
            try:
                if on_call is not None:
                    on_call(*args, **kwargs)
                return fn(*args, **kwargs)
            except ParseError:
                with tracer._lock:
                    tracer.counters[(tracer.phase, layer + ".failed")] += 1
                raise
            finally:
                end = perf_counter()
                child, _ = stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                tracer.record(layer, span_id, parent, start, end, duration - child)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def record(
        self, layer: str, span_id: int, parent: int, start: float, end: float, self_s: float
    ) -> None:
        key = (self.phase, layer)
        with self._lock:
            self.calls[key] += 1
            self.total_s[key] += end - start
            self.self_s[key] += self_s
            if len(self.spans) < SPAN_CAP:
                self.spans.append(
                    (span_id, parent, self.phase, layer, start, end, self.current_run())
                )

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[(self.phase, name)] += amount

    # -- installing wrappers ----------------------------------------------

    def patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        if not hasattr(owner, attr):
            raise LookupError(f"cannot trace {owner.__name__}.{attr}: no such name")
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every name in TARGETS; a missing name raises LookupError."""
        for path, attr, layer in TARGETS:
            owner = _resolve(path)
            original = getattr(owner, attr)
            on_call = None
            if layer == "retrieval.tokenize":
                on_call = self._count_chars
            elif layer == "retrieval.index_build":
                on_call = self._note_index
            self.patch(owner, attr, self.wrap(layer, original, on_call))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _count_chars(self, text: str, *args: Any, **kwargs: Any) -> None:
        self.count("retrieval.tokenize.chars", len(text))

    def _note_index(self, corpus: Any, *args: Any, **kwargs: Any) -> None:
        with self._lock:
            self.index_keys.add((self.phase, self.current_run(), corpus.source_name))

    # -- reading results --------------------------------------------------

    def layer(self, phase: str, layer: str) -> tuple[int, float, float]:
        """(calls, total ms, self ms) of one layer in one phase."""
        key = (phase, layer)
        return self.calls[key], self.total_s[key] * 1e3, self.self_s[key] * 1e3

    def distinct_indexes(self, phase: str) -> int:
        return sum(1 for key in self.index_keys if key[0] == phase)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, phase, layer, start, end, run in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "phase": phase,
                            "name": layer,
                            "start": start,
                            "end": end,
                            "sample": run,
                        }
                    )
                    + "\n"
                )
