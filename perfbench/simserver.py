"""In-process stand-in for an OpenAI-compatible chat-completions server.

`SimServer.post` has the signature of ``requests.post`` and is handed to
``LiveBackend(post_fn=...)``: no socket is opened. Each call answers a fixed
latency after it arrives, from the recorded fixtures by request hash, so the
records a live run produces can be checked against the generation pass.
The server hashes the request itself, inside that latency, so neither a
traced run nor the clients' critical path sees its work. It counts
concurrent calls and retries (a request hash posted again).
"""

from __future__ import annotations

import hashlib
import json as jsonlib
import threading
import time
from typing import Any


def fixture_key(body: dict) -> str:
    """The fixture key of a chat-completions body: sha256 over the model and
    messages, as `conductor.backend.request_hash` computes it."""
    canonical = jsonlib.dumps(
        {"model": body["model"], "messages": [[m["role"], m["content"]] for m in body["messages"]]},
        ensure_ascii=False,
        sort_keys=True,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class SimResponse:
    def __init__(self, status_code: int, payload: dict[str, Any]):
        self.status_code = status_code
        self._payload = payload
        self.text = str(payload)

    def json(self) -> dict[str, Any]:
        return self._payload


class SimServer:
    def __init__(self, fixtures: dict[str, dict], latency_s: float):
        self.fixtures = fixtures
        self.latency_s = latency_s
        self.posts = 0
        self.retries = 0
        self.in_flight = 0
        self.in_flight_max = 0
        self._seen: set[str] = set()
        self._lock = threading.Lock()

    def post(self, url: str, json: dict, headers: dict, timeout: float) -> SimResponse:
        deadline = time.perf_counter() + self.latency_s
        with self._lock:
            self.posts += 1
            self.in_flight += 1
            self.in_flight_max = max(self.in_flight_max, self.in_flight)
        try:
            key = fixture_key(json)
            with self._lock:
                if key in self._seen:
                    self.retries += 1
                self._seen.add(key)
            time.sleep(max(0.0, deadline - time.perf_counter()))
            fixture = self.fixtures.get(key)
            if fixture is None:
                return SimResponse(404, {"error": f"no fixture for {key}"})
            return SimResponse(
                200,
                {
                    "choices": [
                        {"message": {"role": "assistant", "content": fixture["response"]}}
                    ],
                    "usage": {
                        "prompt_tokens": fixture["prompt_tokens"],
                        "completion_tokens": fixture["completion_tokens"],
                    },
                },
            )
        finally:
            with self._lock:
                self.in_flight -= 1
