"""Host-speed calibration for CPU-bound timings.

On a shared virtual machine the speed of the same Python code drifts by tens
of percent within minutes. A fixed kernel that uses no conductor code (a
per-character scan, small-object churn, dict counting and a JSON round trip,
the kinds of work the pipelines do) is timed between the measured steps; its
mean duration, against its duration on the reference host, gives the host's
speed while the work ran. CPU-bound results are reported at the reference
speed: rates are multiplied and times divided by `slowdown(durations)`. No
change to the program moves the kernel, so program changes still show in full.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from time import perf_counter

# Mean kernel duration on the reference host (2 vCPU Xeon VM, Python 3.11.7).
REFERENCE_S = 0.0060

_rng = random.Random(0)
_TEXT = " ".join(f"w{_rng.randrange(3000)}x" for _ in range(6000))


def kernel() -> float:
    """Run the fixed kernel once; return its duration in seconds."""
    start = perf_counter()
    terms: list[str] = []
    buf: list[str] = []
    for ch in _TEXT.lower():
        if ch.isalnum():
            buf.append(ch)
        elif buf:
            terms.append("".join(buf))
            buf = []
    counts = Counter(terms)
    pairs = Counter(zip(terms, terms[1:]))
    json.loads(json.dumps({"terms": terms[:3000], "n": len(counts) + len(pairs)}))
    return perf_counter() - start


def slowdown(durations: list[float]) -> float:
    """How much slower than the reference host the host ran (above 1: slower)."""
    return sum(durations) / len(durations) / REFERENCE_S
