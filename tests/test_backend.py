from __future__ import annotations

import json
from decimal import Decimal

import pytest
from hypothesis import given, strategies as st

from conftest import FIXTURES
from conductor import backend as backend_module
from conductor.backend import (
    API_KEY_ENV,
    CompletionRequest,
    DEFAULT_PRICES,
    Generation,
    LiveBackend,
    PriceTable,
    ReplayBackend,
    call_cost,
    compute_cost,
    estimate_tokens,
    make_fixture_record,
    request_hash,
)
from conductor.core import CallUsage, SchemaKind
from conductor.data import export_records, load_dataset, load_records
from conductor.errors import (
    AuthMissing,
    BackendUnavailable,
    RateLimited,
    ReplayMiss,
    UnpricedModel,
)
from conductor.pipelines import Method, MethodConfig, run_batch


class TestCompletionRequest:
    def test_hash_ignores_sampling_params(self):
        a = CompletionRequest.from_prompt("p", "m")
        b = CompletionRequest.from_prompt("p", "m", stop=("x",))
        assert request_hash(a) == request_hash(b)

    def test_hash_distinguishes_model_and_prompt(self):
        a = CompletionRequest.from_prompt("p", "m1")
        assert request_hash(a) != request_hash(CompletionRequest.from_prompt("p", "m2"))
        assert request_hash(a) != request_hash(CompletionRequest.from_prompt("q", "m1"))


class TestEstimateTokens:
    def test_plain_words(self):
        assert estimate_tokens("a b c") == 3

    def test_empty(self):
        assert estimate_tokens("") == 0

    def test_punctuation_counted(self):
        assert estimate_tokens("Hello, world!") == 4


class TestReplayBackend:
    def _backend(self):
        record = make_fixture_record("m", "prompt text", "Plan: Hint\nDo: hello")
        return ReplayBackend([record])

    def test_replay_hit_is_exact(self):
        backend = self._backend()
        generation = backend.complete(CompletionRequest.from_prompt("prompt text", "m"))
        assert generation.text == "Plan: Hint\nDo: hello"
        assert generation.latency_ms == 0
        assert generation.backend_tag == "replay"

    def test_replay_miss_is_loud(self):
        backend = self._backend()
        with pytest.raises(ReplayMiss):
            backend.complete(CompletionRequest.from_prompt("unknown", "m"))

    def test_replay_miss_keeps_the_first_80_prompt_chars(self):
        prompt = "".join(chr(ord("a") + i % 26) for i in range(100))
        with pytest.raises(ReplayMiss) as exc_info:
            self._backend().complete(CompletionRequest.from_prompt(prompt, "m"))
        assert exc_info.value.prompt_head == prompt[:80]

    def test_two_calls_identical(self):
        backend = self._backend()
        request = CompletionRequest.from_prompt("prompt text", "m")
        assert backend.complete(request) == backend.complete(request)

    def test_load_roundtrip(self, tmp_path):
        record = make_fixture_record("m", "p", "r")
        path = tmp_path / "fixtures.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        backend = ReplayBackend.load(str(path))
        assert backend.complete(CompletionRequest.from_prompt("p", "m")).text == "r"


class _FakeResponse:
    def __init__(self, status_code: int, payload: dict | None = None):
        self.status_code = status_code
        self._payload = payload or {}
        self.text = json.dumps(self._payload)

    def json(self):
        return self._payload


class _NotJsonResponse:
    status_code = 200
    text = "<html>upstream hiccup</html>"

    def json(self):
        return json.loads(self.text)


def _ok_payload(text="hello"):
    return {
        "choices": [{"message": {"content": text}}],
        "usage": {"prompt_tokens": 7, "completion_tokens": 3},
    }


class TestLiveBackend:
    def _backend(self, post_fn):
        return LiveBackend(
            "https://example.test/v1",
            post_fn=post_fn,
            sleep_fn=lambda _: None,
        )

    def test_auth_missing(self, monkeypatch):
        monkeypatch.delenv(API_KEY_ENV, raising=False)
        backend = self._backend(lambda *a, **k: _FakeResponse(200, _ok_payload()))
        with pytest.raises(AuthMissing):
            backend.complete(CompletionRequest.from_prompt("p", "m"))

    def test_wire_body_carries_prompt_and_sampling(self, monkeypatch):
        monkeypatch.setenv(API_KEY_ENV, "sk-test")
        seen = {}

        def post(url, json=None, headers=None, timeout=None):
            seen.update(url=url, body=json, headers=headers)
            return _FakeResponse(200, _ok_payload())

        backend = self._backend(post)
        prompt = "assembled prompt, byte for byte"
        generation = backend.complete(CompletionRequest.from_prompt(prompt, "gpt-3.5-turbo"))
        assert seen["url"] == "https://example.test/v1/chat/completions"
        assert seen["body"]["model"] == "gpt-3.5-turbo"
        assert seen["body"]["temperature"] == 0.0
        assert seen["body"]["top_p"] == 0.1
        assert seen["body"]["messages"] == [{"role": "user", "content": prompt}]
        assert seen["headers"]["Authorization"] == "Bearer sk-test"
        assert generation.text == "hello"
        assert generation.prompt_tokens == 7

    @pytest.mark.parametrize("stop", [("Dialogue:",), None])
    def test_wire_body_is_pinned(self, monkeypatch, stop):
        monkeypatch.setenv(API_KEY_ENV, "sk-test")
        bodies = []

        def post(url, json=None, headers=None, timeout=None):
            bodies.append(json)
            return _FakeResponse(200, _ok_payload())

        self._backend(post).complete(CompletionRequest.from_prompt("p", "m", stop=stop))
        expected = {
            "model": "m",
            "messages": [{"role": "user", "content": "p"}],
            "temperature": 0.0,
            "top_p": 0.1,
        }
        if stop:
            expected["stop"] = ["Dialogue:"]
        assert bodies == [expected]
        assert "max_tokens" not in bodies[0]

    def test_retries_then_success(self, monkeypatch):
        monkeypatch.setenv(API_KEY_ENV, "sk-test")
        responses = [_FakeResponse(500), _FakeResponse(200, _ok_payload())]

        def post(*args, **kwargs):
            return responses.pop(0)

        backend = self._backend(post)
        assert backend.complete(CompletionRequest.from_prompt("p", "m")).text == "hello"

    def test_connection_error_retried_then_success(self, monkeypatch):
        monkeypatch.setenv(API_KEY_ENV, "sk-test")
        posts, sleeps = [], []

        def post(*args, **kwargs):
            posts.append(1)
            if len(posts) == 1:
                raise ConnectionError("connection reset")
            return _FakeResponse(200, _ok_payload())

        backend = LiveBackend("https://example.test/v1", post_fn=post, sleep_fn=sleeps.append)
        generation = backend.complete(CompletionRequest.from_prompt("p", "m"))
        assert (generation.text, generation.prompt_tokens) == ("hello", 7)
        assert (len(posts), sleeps) == (2, [1.0])

    def test_rate_limited_after_retries(self, monkeypatch):
        monkeypatch.setenv(API_KEY_ENV, "sk-test")
        calls = []

        def post(*args, **kwargs):
            calls.append(1)
            return _FakeResponse(429)

        with pytest.raises(RateLimited):
            self._backend(post).complete(CompletionRequest.from_prompt("p", "m"))
        assert len(calls) == 3

    def test_client_error_never_retries(self, monkeypatch):
        monkeypatch.setenv(API_KEY_ENV, "sk-test")
        calls = []

        def post(*args, **kwargs):
            calls.append(1)
            return _FakeResponse(400, {"error": "bad request"})

        backend = self._backend(post)
        with pytest.raises(BackendUnavailable):
            backend.complete(CompletionRequest.from_prompt("p", "m"))
        assert len(calls) == 1

    def test_client_error_message_ends_with_the_first_200_body_chars(self, monkeypatch):
        monkeypatch.setenv(API_KEY_ENV, "sk-test")
        response = _FakeResponse(404)
        response.text = "".join(chr(ord("a") + i % 26) for i in range(300))
        backend = self._backend(lambda *a, **k: response)
        with pytest.raises(BackendUnavailable) as exc_info:
            backend.complete(CompletionRequest.from_prompt("p", "m"))
        assert str(exc_info.value) == f"HTTP 404: {response.text[:200]}"

    def test_reported_usage_is_never_estimated(self, monkeypatch):
        monkeypatch.setenv(API_KEY_ENV, "sk-test")

        def no_estimate(text):
            raise AssertionError("estimate_tokens called for a reported count")

        monkeypatch.setattr(backend_module, "estimate_tokens", no_estimate)
        backend = self._backend(lambda *a, **k: _FakeResponse(200, _ok_payload()))
        generation = backend.complete(CompletionRequest.from_prompt("p", "m"))
        assert (generation.prompt_tokens, generation.completion_tokens) == (7, 3)

    def test_malformed_body_retried_then_success(self, monkeypatch):
        monkeypatch.setenv(API_KEY_ENV, "sk-test")
        responses = [_NotJsonResponse(), _FakeResponse(200, _ok_payload())]
        backend = self._backend(lambda *a, **k: responses.pop(0))
        assert backend.complete(CompletionRequest.from_prompt("p", "m")).text == "hello"

    @pytest.mark.parametrize(
        "reply",
        [
            _NotJsonResponse(),
            _FakeResponse(200, {"choices": []}),
            _FakeResponse(200, {"choices": [{"message": {}}]}),
            _FakeResponse(200, {"choices": [{"message": {"content": None}}]}),
            _FakeResponse(200, {"choices": [{"message": {"content": 5}}]}),
            _FakeResponse(200, {**_ok_payload(), "usage": {"prompt_tokens": "7"}}),
            _FakeResponse(200, {**_ok_payload(), "usage": {"completion_tokens": True}}),
            _FakeResponse(200, {**_ok_payload(), "usage": {"prompt_tokens": -1}}),
        ],
        ids=["not_json", "no_choices", "no_content", "null_content", "int_content",
             "string_usage", "bool_usage", "negative_usage"],
    )
    def test_malformed_body_fails_each_sample_not_the_batch(self, monkeypatch, reply):
        monkeypatch.setenv(API_KEY_ENV, "sk-test")
        calls = []

        def post(*args, **kwargs):
            calls.append(1)
            return reply

        samples = load_dataset(str(FIXTURES / "cima_samples.jsonl"), SchemaKind.CIMA)
        config = MethodConfig(method=Method.COT, dataset_kind=SchemaKind.CIMA)
        records = run_batch(samples, config, self._backend(post), parallelism=2)
        assert [r.sample_id for r in records] == [s.id for s in samples]
        assert [r.error.kind for r in records] == ["BackendUnavailable"] * len(samples)
        assert len(calls) == 3 * len(samples)

    def test_unpaired_surrogate_reply_still_exports(self, monkeypatch, tmp_path):
        monkeypatch.setenv(API_KEY_ENV, "sk-test")
        body = '{"choices": [{"message": {"content": "ok \\ud83d \\ud83d\\ude00"}}]}'

        class _RawResponse(_NotJsonResponse):
            text = body

        samples = load_dataset(str(FIXTURES / "cima_samples.jsonl"), SchemaKind.CIMA)
        config = MethodConfig(method=Method.COT, dataset_kind=SchemaKind.CIMA)
        backend = self._backend(lambda *a, **k: _RawResponse())
        records = run_batch(samples, config, backend, parallelism=2)
        assert [r.sample_id for r in records] == [s.id for s in samples]
        assert {r.response for r in records} == {"ok � \U0001f600"}
        path = tmp_path / "records.jsonl"
        export_records(records, str(path))
        assert load_records(str(path)) == records

    def test_usage_estimated_when_absent(self, monkeypatch):
        monkeypatch.setenv(API_KEY_ENV, "sk-test")
        payload = {"choices": [{"message": {"content": "a b c"}}]}
        backend = self._backend(lambda *a, **k: _FakeResponse(200, payload))
        generation = backend.complete(CompletionRequest.from_prompt("x y", "m"))
        assert generation.completion_tokens == estimate_tokens("a b c")


def _usage(prompt_tokens, completion_tokens, model="gpt-3.5-turbo"):
    return CallUsage(
        model_id=model,
        backend_tag="test",
        prompt_tokens=prompt_tokens,
        completion_tokens=completion_tokens,
    )


@pytest.mark.parametrize("cls", [CallUsage, Generation])
@pytest.mark.parametrize("field", ["prompt_tokens", "completion_tokens", "latency_ms"])
@pytest.mark.parametrize("value", [True, 2.5, -3, "1", None])
def test_call_counts_are_non_negative_ints(cls, field, value):
    counts = {"prompt_tokens": 1, "completion_tokens": 1, "latency_ms": 0, field: value}
    text = {"text": "t"} if cls is Generation else {}
    with pytest.raises(ValueError, match=f"^{field} must be a non-negative int, got "):
        cls(model_id="m", backend_tag="b", **counts, **text)


class TestTokenBucket:
    def test_burst_then_blocks_at_rate(self):
        from conductor.backend import TokenBucket

        now = [0.0]
        waits = []

        def clock():
            return now[0]

        def sleep(seconds):
            waits.append(seconds)
            now[0] += seconds

        bucket = TokenBucket(rate=2.0, clock=clock, sleep_fn=sleep)
        bucket.acquire()
        bucket.acquire()  # burst capacity spent
        bucket.acquire()  # must wait ~0.5s for the next token
        assert waits and waits[0] == pytest.approx(0.5)

    def test_rate_must_be_positive(self):
        from conductor.backend import TokenBucket

        with pytest.raises(ValueError):
            TokenBucket(rate=0.0)

    def test_live_backend_consults_bucket(self, monkeypatch):
        from conductor.backend import TokenBucket

        monkeypatch.setenv(API_KEY_ENV, "sk-test")
        backend = LiveBackend(
            "https://example.test/v1",
            requests_per_second=1.0,
            post_fn=lambda *a, **k: _FakeResponse(200, _ok_payload()),
            sleep_fn=lambda s: None,
        )
        now = [0.0]
        waits = []

        def advance(seconds):
            waits.append(seconds)
            now[0] += seconds

        backend._bucket = TokenBucket(rate=1.0, clock=lambda: now[0], sleep_fn=advance)
        request = CompletionRequest.from_prompt("p", "m")
        backend.complete(request)
        backend.complete(request)  # second call exceeds the 1 rps budget
        assert waits and waits[0] == pytest.approx(1.0)


class TestCost:
    def test_blended_1000_tokens(self):
        cost = compute_cost([_usage(700, 300)], DEFAULT_PRICES)
        assert cost == Decimal("0.002000")
        assert str(cost) == "0.002000"

    def test_empty_usage_list(self):
        assert compute_cost([], DEFAULT_PRICES) == Decimal("0")

    def test_two_gpt4_calls(self):
        cost = compute_cost([_usage(300, 200, "gpt-4"), _usage(400, 100, "gpt-4")], DEFAULT_PRICES)
        assert cost == Decimal("0.03")

    def test_unpriced_model(self):
        with pytest.raises(UnpricedModel):
            compute_cost([_usage(1, 1, "mystery")], DEFAULT_PRICES)

    def test_rates_must_be_positive(self):
        with pytest.raises(ValueError):
            PriceTable.from_mapping({"m": "0"})

    @given(
        st.lists(
            st.tuples(st.integers(0, 5000), st.integers(0, 5000)),
            min_size=0,
            max_size=12,
        ),
        st.integers(0, 12),
    )
    def test_additivity_over_any_split(self, usages, cut):
        usages = [_usage(p, c) for p, c in usages]
        cut = min(cut, len(usages))
        total = compute_cost(usages, DEFAULT_PRICES)
        assert total == compute_cost(usages[:cut], DEFAULT_PRICES) + compute_cost(
            usages[cut:], DEFAULT_PRICES
        )

    def test_generation_usage_view(self):
        generation = Generation(
            text="t",
            prompt_tokens=10,
            completion_tokens=2,
            latency_ms=5,
            backend_tag="live",
            model_id="gpt-4",
        )
        usage = generation.usage()
        assert usage.model_id == "gpt-4"
        assert call_cost(usage, DEFAULT_PRICES) == Decimal("0.000360")
