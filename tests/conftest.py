from __future__ import annotations

import sys
from collections import deque
from pathlib import Path

from hypothesis import HealthCheck, settings

from conductor.backend import Backend, Generation, estimate_tokens

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

FIXTURES = Path(__file__).parent.parent / "src" / "conductor" / "fixtures"
GOLDEN = Path(__file__).parent / "golden"
FUZZ_CORPUS = Path(__file__).parent / "fuzz_corpus"


class QueueBackend(Backend):
    """Feeds scripted generations in call order and records every request."""

    def __init__(self, *responses: str):
        self.queue = deque(responses)
        self.requests = []

    def complete(self, request) -> Generation:
        self.requests.append(request)
        text = self.queue.popleft()
        return Generation(
            text=text,
            prompt_tokens=estimate_tokens(request.prompt_text),
            completion_tokens=estimate_tokens(text),
            latency_ms=0,
            backend_tag="queue",
            model_id=request.model_id,
        )
