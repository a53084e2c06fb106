"""Completion backends, token accounting, and money-cost computation.

Two backends share one interface:

* LiveBackend posts to any OpenAI-compatible ``{base_url}/chat/completions``
  endpoint with bearer auth from the CONDUCTOR_API_KEY environment variable,
  retrying transient failures (including a 200 reply whose body is
  malformed) with exponential backoff (never on plain 4xx).
* ReplayBackend answers from a fixture file keyed by a cryptographic hash of
  the canonicalized request and fails loudly on a miss, which makes whole
  pipeline runs deterministic and catches any template drift immediately.

Costs use a single blended per-1k-token USD rate per model. Each call's cost
is quantized to six decimal places (half-even) before summing, so cost is
exactly additive over any split of the usage list. Every cost product and
sum is exact, however large the rate.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
import unicodedata
from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal
from typing import Any, Callable, Iterable

from conductor.core import CallUsage, check_counts
from conductor.data import _check, _load_lines
from conductor.errors import (
    AuthMissing,
    BackendUnavailable,
    ConfigError,
    RateLimited,
    ReplayMiss,
    UnpricedModel,
)
from conductor.retrieval import tokenize

API_KEY_ENV = "CONDUCTOR_API_KEY"
TIMEOUT_S = 120.0
ATTEMPTS = 3
TEMPERATURE = 0.0
TOP_P = 0.1

_CENT_MICRO = Decimal("0.000001")
# Wide enough that no cost product or sum is rounded or overflows.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)


@dataclass(frozen=True)
class CompletionRequest:
    messages: tuple[tuple[str, str], ...]  # ordered (role, content)
    model_id: str
    stop: tuple[str, ...] | None = None

    @classmethod
    def from_prompt(
        cls, prompt: str, model_id: str, stop: tuple[str, ...] | None = None
    ) -> "CompletionRequest":
        return cls(messages=(("user", prompt),), model_id=model_id, stop=stop)

    @property
    def prompt_text(self) -> str:
        """The messages' contents, one per line."""
        return "\n".join(content for _, content in self.messages)


def request_hash(request: CompletionRequest) -> str:
    """Stable fixture key: sha256 over (model_id, messages) only.

    Stop sequences are deliberately excluded so fixtures survive stop
    tweaks that cannot change a recorded response.
    """
    canonical = json.dumps(
        {"model": request.model_id, "messages": [list(m) for m in request.messages]},
        ensure_ascii=False,
        sort_keys=True,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True, kw_only=True)
class Generation(CallUsage):
    """One completion's text and its call's usage, whose counts CallUsage
    checks."""

    text: str

    def usage(self) -> CallUsage:
        """The call's usage alone, as a record stores it."""
        return CallUsage(
            self.model_id, self.backend_tag, self.prompt_tokens,
            self.completion_tokens, self.latency_ms,
        )


def estimate_tokens(text: str) -> int:
    """Rough token estimate: word/CJK terms plus punctuation marks.

    Only used when a backend reports no usage; never overrides reported
    numbers.
    """
    punct = sum(1 for ch in text if unicodedata.category(ch).startswith("P"))
    return len(tokenize(text)) + punct


# ---------------------------------------------------------------------------
# Price table


@dataclass(frozen=True)
class PriceTable:
    """model_id -> USD per 1000 tokens, one blended rate per model."""

    rates: dict[str, Decimal]

    def __post_init__(self) -> None:
        for model_id, rate in self.rates.items():
            if not rate.is_finite() or rate <= 0:
                raise ValueError(f"rate for {model_id!r} must be positive and finite")

    def rate_for(self, model_id: str) -> Decimal:
        if model_id not in self.rates:
            raise UnpricedModel(model_id)
        return self.rates[model_id]

    @classmethod
    def from_mapping(cls, mapping: dict[str, str | float | Decimal]) -> "PriceTable":
        return cls({model: Decimal(str(rate)) for model, rate in mapping.items()})

    @classmethod
    def load(cls, path: str) -> "PriceTable":
        with open(path, encoding="utf-8") as handle:
            try:
                mapping = json.load(handle)
                if not isinstance(mapping, dict):
                    raise ValueError("price table must be a JSON object")
                return cls.from_mapping(mapping)
            except (json.JSONDecodeError, ArithmeticError, ValueError) as exc:
                raise ConfigError(f"invalid price table {path}: {exc}")


DEFAULT_PRICES = PriceTable.from_mapping(
    {
        "gpt-3.5-turbo": "0.002",
        "gpt-3.5-turbo-0613": "0.002",
        "gpt-4": "0.03",
        "gpt-4-0613": "0.03",
    }
)


def call_cost(usage: CallUsage, prices: PriceTable) -> Decimal:
    rate = prices.rate_for(usage.model_id)
    tokens = Decimal(usage.prompt_tokens + usage.completion_tokens)
    cost = _EXACT.multiply(tokens, rate).scaleb(-3, _EXACT)
    return cost.quantize(_CENT_MICRO, ROUND_HALF_EVEN, _EXACT)


def sum_costs(costs: Iterable[Decimal]) -> Decimal:
    """The exact sum of `costs`, with at least six decimal places."""
    total = Decimal("0.000000")
    for cost in costs:
        total = _EXACT.add(total, cost)
    return total


def compute_cost(usages: Iterable[CallUsage], prices: PriceTable) -> Decimal:
    """Sum of per-call costs, each quantized to 6 places half-even.

    Quantizing per call (not once at the end) is what makes cost exactly
    additive over any concatenation of usage lists.
    """
    return sum_costs(call_cost(usage, prices) for usage in usages)


# ---------------------------------------------------------------------------
# Backends


class Backend:
    def complete(self, request: CompletionRequest) -> Generation:
        raise NotImplementedError


class TokenBucket:
    """Request-rate gate: `rate` tokens/second, bursting up to max(1, rate).

    acquire() blocks (via the injected sleep) until a token is available.
    Thread-safe; the clock is injectable so tests can drive it.
    """

    def __init__(
        self,
        rate: float,
        clock: Callable[[], float] = time.monotonic,
        sleep_fn: Callable[[float], None] = time.sleep,
    ):
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate
        self.capacity = max(1.0, rate)
        self._tokens = self.capacity
        self._clock = clock
        self._sleep = sleep_fn
        self._updated = clock()
        self._lock = threading.Lock()

    def acquire(self) -> None:
        while True:
            with self._lock:
                now = self._clock()
                self._tokens = min(
                    self.capacity, self._tokens + (now - self._updated) * self.rate
                )
                self._updated = now
                if self._tokens >= 1.0:
                    self._tokens -= 1.0
                    return
                wait = (1.0 - self._tokens) / self.rate
            self._sleep(wait)


class LiveBackend(Backend):
    """OpenAI-compatible chat-completions client.

    Each `complete` is one post at a time from the calling thread, so the
    caller's thread count is the in-flight bound (`run_batch` runs at most
    `parallelism` at once). When `requests_per_second` is set, a token
    bucket gates each post. Transient failures (connection errors, 429,
    5xx, a malformed 200 body) retry with exponential backoff, ATTEMPTS
    posts in all; other 4xx fail immediately. `post_fn` and `sleep_fn` are
    injectable for tests.
    """

    def __init__(
        self,
        base_url: str,
        requests_per_second: float | None = None,
        post_fn: Callable[..., Any] | None = None,
        sleep_fn: Callable[[float], None] = time.sleep,
    ):
        self.base_url = base_url.rstrip("/")
        self._bucket = (
            TokenBucket(requests_per_second, sleep_fn=sleep_fn)
            if requests_per_second
            else None
        )
        self._sleep = sleep_fn
        if post_fn is None:
            import requests

            post_fn = requests.post
        self._post = post_fn

    def complete(self, request: CompletionRequest) -> Generation:
        api_key = os.environ.get(API_KEY_ENV, "").strip()
        if not api_key:
            raise AuthMissing(API_KEY_ENV)
        body: dict[str, Any] = {
            "model": request.model_id,
            "messages": [
                {"role": role, "content": content} for role, content in request.messages
            ],
            "temperature": TEMPERATURE,
            "top_p": TOP_P,
        }
        if request.stop:
            body["stop"] = list(request.stop)
        headers = {
            "Authorization": f"Bearer {api_key}",
            "Content-Type": "application/json",
        }
        url = f"{self.base_url}/chat/completions"

        last_status: int | None = None
        last_error = ""
        for attempt in range(ATTEMPTS):
            if attempt:
                self._sleep(2.0 ** (attempt - 1))
            started = time.monotonic()
            try:
                if self._bucket is not None:
                    self._bucket.acquire()
                response = self._post(url, json=body, headers=headers, timeout=TIMEOUT_S)
            except Exception as exc:  # connection-level failure: retry
                last_status, last_error = None, repr(exc)
                continue
            latency_ms = int((time.monotonic() - started) * 1000)
            status = response.status_code
            if status == 429 or status >= 500:
                last_status, last_error = status, f"HTTP {status}"
                continue
            if status >= 400:
                raise BackendUnavailable(f"HTTP {status}: {_body_head(response)}")
            generation = _reply_generation(response, request, latency_ms)
            if generation is None:  # a malformed 200 body is retried like a 5xx
                last_status, last_error = status, "malformed reply body"
                continue
            return generation
        if last_status == 429:
            raise RateLimited(f"still rate-limited after {ATTEMPTS} attempts")
        raise BackendUnavailable(f"gave up after {ATTEMPTS} attempts (last: {last_error})")


def _reply_generation(
    response: Any, request: CompletionRequest, latency_ms: int
) -> Generation | None:
    """The Generation a 200 reply carries, estimating only a token count the
    server leaves out. None for a body that is not JSON, lacks
    ``choices[0].message.content``, or carries non-string content or a token
    count that Generation rejects. An unpaired surrogate escape in the
    content (``"\\ud83d"``) becomes U+FFFD, so the record it ends up in can
    be written as UTF-8."""
    try:
        payload = response.json()
        text = payload["choices"][0]["message"]["content"]
        usage = payload.get("usage") or {}
        prompt_tokens = usage.get("prompt_tokens")
        completion_tokens = usage.get("completion_tokens")
        if not isinstance(text, str):
            return None
        text = text.encode("utf-16", "surrogatepass").decode("utf-16", "replace")
        if prompt_tokens is None:
            prompt_tokens = estimate_tokens(request.prompt_text)
        if completion_tokens is None:
            completion_tokens = estimate_tokens(text)
        return Generation(
            text=text,
            prompt_tokens=prompt_tokens,
            completion_tokens=completion_tokens,
            latency_ms=latency_ms,
            backend_tag="live",
            model_id=request.model_id,
        )
    except (ValueError, LookupError, TypeError, AttributeError):
        return None


def _body_head(response: Any) -> str:
    try:
        return str(response.text)[:200]
    except Exception:
        return "<unreadable body>"


def make_fixture_record(
    model_id: str,
    prompt: str,
    response: str,
    prompt_tokens: int | None = None,
    completion_tokens: int | None = None,
) -> dict[str, Any]:
    """One replay fixture line for a single-message prompt."""
    request = CompletionRequest.from_prompt(prompt, model_id)
    return {
        "hash": request_hash(request),
        "model": model_id,
        "prompt": prompt,
        "response": response,
        "prompt_tokens": prompt_tokens if prompt_tokens is not None else estimate_tokens(prompt),
        "completion_tokens": (
            completion_tokens if completion_tokens is not None else estimate_tokens(response)
        ),
    }


def _fixture_line(record: dict[str, Any]) -> dict[str, Any]:
    """`record`, once its fields make a valid replay fixture line."""
    _check(record.get("hash"), str, "hash")
    _check(record.get("response"), str, "response")
    check_counts(record.get("prompt_tokens"), record.get("completion_tokens"))
    return record


class ReplayBackend(Backend):
    """Deterministic completions from fixture lines, keyed by request hash.
    `load` checks every line of a fixture file; lines passed in directly are
    taken as `make_fixture_record` writes them."""

    def __init__(self, fixtures: Iterable[dict[str, Any]]):
        self._by_hash: dict[str, tuple[str, int, int]] = {
            f["hash"]: (f["response"], f["prompt_tokens"], f["completion_tokens"])
            for f in fixtures
        }

    @classmethod
    def load(cls, path: str) -> "ReplayBackend":
        """The fixture file at `path`; any invalid line fails the load with
        every invalid line listed."""
        return cls(_load_lines(path, _fixture_line))

    def complete(self, request: CompletionRequest) -> Generation:
        key = request_hash(request)
        entry = self._by_hash.get(key)
        if entry is None:
            raise ReplayMiss(key, request.prompt_text[:80])
        text, prompt_tokens, completion_tokens = entry
        return Generation(
            text=text,
            prompt_tokens=prompt_tokens,
            completion_tokens=completion_tokens,
            latency_ms=0,
            backend_tag="replay",
            model_id=request.model_id,
        )
