"""Output checks: records against the generation pass, and pinned digests.

A replay run must write records byte-identical to the generation pass. A
live run differs only in each usage's backend tag and measured latency,
which are set to the replay values before comparing. Token and USD totals
are compared exactly as well.
"""

from __future__ import annotations

import hashlib
import json
from decimal import Decimal
from pathlib import Path

PINNED = Path(__file__).resolve().parent / "pinned.json"


def normalise(line: str) -> str:
    """A live record line with its timing-dependent fields set as replay sets them."""
    obj = json.loads(line)
    for usage in obj["usages"]:
        usage["backend"] = "replay"
        usage["latency_ms"] = 0
    return json.dumps(obj, ensure_ascii=False)


def mismatches(got: list[str], want: list[str], live: bool = False) -> list[int]:
    """Indices of records that differ from the reference, or are missing."""
    bad = []
    for i in range(max(len(got), len(want))):
        if i >= len(got) or i >= len(want):
            bad.append(i)
            continue
        line = normalise(got[i]) if live else got[i].rstrip("\n")
        reference = normalise(want[i]) if live else want[i].rstrip("\n")
        if line != reference:
            bad.append(i)
    return bad


def totals(lines: list[str]) -> tuple[int, int, Decimal]:
    """(prompt tokens, completion tokens, USD) summed over record lines."""
    prompt = completion = 0
    cost = Decimal("0")
    for line in lines:
        obj = json.loads(line)
        for usage in obj["usages"]:
            prompt += usage["prompt_tokens"]
            completion += usage["completion_tokens"]
        cost += Decimal(obj["cost_usd"])
    return prompt, completion, cost


def digest(parts: list[str]) -> str:
    sha = hashlib.sha256()
    for part in parts:
        sha.update(part.encode("utf-8"))
    return sha.hexdigest()


def pinned(workload: str) -> dict[str, str]:
    with PINNED.open(encoding="utf-8") as handle:
        return json.load(handle).get(workload, {})
