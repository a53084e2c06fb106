from __future__ import annotations

import importlib.util
from pathlib import Path

from conftest import FIXTURES

SCRIPT = Path(__file__).parent.parent / "scripts" / "generate_fixtures.py"


def test_generator_reproduces_shipped_fixtures(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("generate_fixtures", SCRIPT)
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    monkeypatch.setattr(generator, "OUT", tmp_path)
    generator.main()
    for name in ("focus_samples.jsonl", "cima_samples.jsonl", "chat_sample.json", "replay.jsonl"):
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes(), name
