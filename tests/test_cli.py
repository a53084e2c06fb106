from __future__ import annotations

import hashlib
import io
import json
import threading
from pathlib import Path

import pytest

from conftest import FIXTURES, GOLDEN, QueueBackend
from conductor.backend import API_KEY_ENV, LiveBackend
from conductor.cli import main
from conductor.data import load_records

REPLAY = str(FIXTURES / "replay.jsonl")
FOCUS = str(FIXTURES / "focus_samples.jsonl")
CIMA = str(FIXTURES / "cima_samples.jsonl")


def _run(tmp_path, method="tpe", kind="focus", dataset=FOCUS, name="out.jsonl"):
    out = tmp_path / name
    code = main(
        [
            "run",
            "--method", method,
            "--kind", kind,
            "--dataset", dataset,
            "--backend", f"replay:{REPLAY}",
            "--out", str(out),
        ]
    )
    return code, out


class TestRun:
    def test_replay_run_writes_records_and_exits_zero(self, tmp_path, capsys):
        code, out = _run(tmp_path)
        assert code == 0
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        assert len(lines) == 3
        printed = capsys.readouterr().out
        assert "samples=3 failures=0" in printed
        assert "Cost (USD)" in printed

    def test_deterministic_file_hash(self, tmp_path):
        _, first = _run(tmp_path, name="a.jsonl")
        _, second = _run(tmp_path, name="b.jsonl")
        digest = lambda p: hashlib.sha256(p.read_bytes()).hexdigest()
        assert digest(first) == digest(second)

    def test_unknown_method_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc_info:
            main(["run", "--method", "mystery", "--kind", "focus",
                  "--dataset", FOCUS, "--backend", f"replay:{REPLAY}",
                  "--out", str(tmp_path / "x.jsonl")])
        assert exc_info.value.code == 2

    def test_unknown_flag_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc_info:
            main(["run", "--definitely-not-a-flag"])
        assert exc_info.value.code == 2

    def test_replay_forbids_live_flags(self, tmp_path):
        code = main(
            ["run", "--method", "tpe", "--kind", "focus", "--dataset", FOCUS,
             "--backend", f"replay:{REPLAY}", "--base-url", "https://x.test",
             "--out", str(tmp_path / "x.jsonl")]
        )
        assert code == 2

    def test_fixture_shorthand(self, tmp_path):
        code, out = _run(tmp_path, dataset="fixture:focus")
        assert code == 0
        assert out.exists()

    def test_demo_override_beyond_bank_is_config_error(self, tmp_path):
        code = main(
            ["run", "--method", "tpe", "--kind", "focus", "--dataset", FOCUS,
             "--backend", f"replay:{REPLAY}", "--demos", "9",
             "--out", str(tmp_path / "x.jsonl")]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "method,kind,extra",
        [
            ("cuecot", "focus", []),
            ("rewoo", "cima", []),
            ("rewoo", "psyqa", []),
            ("tpe", "focus", ["--k", "0"]),
            ("react", "focus", ["--react-max-steps", "0"]),
        ],
    )
    def test_invalid_configuration_exits_two_up_front(
        self, tmp_path, capsys, method, kind, extra
    ):
        out = tmp_path / "x.jsonl"
        dataset = FOCUS if kind == "focus" else CIMA
        code = main(
            ["run", "--method", method, "--kind", kind, "--dataset", dataset,
             "--backend", f"replay:{REPLAY}", "--out", str(out), *extra]
        )
        assert code == 2
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "dataset,backend,message",
        [
            ("fixture:psyqa", [f"replay:{REPLAY}"], "unknown fixture dataset 'psyqa'"),
            (CIMA, ["live"], "live backend requires --base-url"),
            (CIMA, ["foo"], "unknown backend 'foo' (use live or replay:<path>)"),
        ],
        ids=["unknown-fixture", "live-without-base-url", "unknown-backend"],
    )
    def test_bad_selector_is_config_error(self, tmp_path, capsys, dataset, backend, message):
        out = tmp_path / "x.jsonl"
        code = main(
            ["run", "--method", "cot", "--kind", "cima", "--dataset", dataset,
             "--backend", *backend, "--out", str(out)]
        )
        assert code == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_repeated_sample_id_exits_two_before_any_call(self, tmp_path, capsys):
        lines = Path(CIMA).read_text(encoding="utf-8").splitlines()
        dataset = tmp_path / "dup.jsonl"
        dataset.write_text(f"{lines[0]}\n{lines[0]}\n", encoding="utf-8")
        sample_id = json.loads(lines[0])["id"]
        out = tmp_path / "x.jsonl"
        code = main(
            ["run", "--method", "cot", "--kind", "cima", "--dataset", str(dataset),
             "--backend", f"replay:{REPLAY}", "--out", str(out)]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {dataset}: 1 invalid line(s): line 2: duplicate id {sample_id!r}\n"
        )
        assert not out.exists()
        code = main(["schema-check", "--path", str(dataset), "--what", "dataset", "--kind", "cima"])
        assert code == 1
        assert capsys.readouterr().out == f"INVALID line 2: duplicate id {sample_id!r}\n"

    def test_unpriced_model_exits_two_before_any_call(self, tmp_path, capsys):
        out = tmp_path / "x.jsonl"
        code = main(
            ["run", "--method", "cot", "--kind", "cima", "--dataset", CIMA,
             "--backend", "replay:fixture", "--model", "no-such-model", "--out", str(out)]
        )
        assert code == 2
        assert "no price for model 'no-such-model'" in capsys.readouterr().err
        assert not out.exists()

    def test_demo_override_within_bank_runs(self, tmp_path):
        # fewer demos change the prompts, so the canned completions miss;
        # the run must still complete with recorded failures, not crash
        out = tmp_path / "d1.jsonl"
        code = main(
            ["run", "--method", "cot", "--kind", "cima", "--dataset", CIMA,
             "--backend", f"replay:{REPLAY}", "--demos", "1", "--out", str(out)]
        )
        assert code == 1
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert all(r["error"]["kind"] == "ReplayMiss" for r in records)

    def test_failures_exit_one(self, tmp_path):
        empty = tmp_path / "empty_replay.jsonl"
        empty.write_text("", encoding="utf-8")
        out = tmp_path / "out.jsonl"
        code = main(
            ["run", "--method", "tpe", "--kind", "focus", "--dataset", FOCUS,
             "--backend", f"replay:{empty}", "--out", str(out)]
        )
        assert code == 1
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert all(r["error"]["kind"] == "ReplayMiss" for r in records)

    def test_help_lists_every_flag(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["run", "--help"])
        assert exc_info.value.code == 0
        text = capsys.readouterr().out
        for flag in (
            "--method", "--kind", "--dataset", "--backend", "--base-url",
            "--model", "--k", "--demos", "--prices", "--react-max-steps",
            "--no-thought-in-planner", "--no-thought-in-executor",
            "--tool-examples", "--no-tool-descriptions", "--no-query-enrichment",
            "--out", "--parallelism",
        ):
            assert flag in text


class TestEval:
    def test_identity_run_maxes_similarity_metrics(self, tmp_path, capsys):
        _, out = _run(tmp_path)
        report_path = tmp_path / "report.json"
        code = main(
            ["eval", "--records", str(out), "--references", FOCUS,
             "--kind", "focus", "--out", str(report_path)]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "100.00" in printed
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["aggregates"]["Avg.B"] == pytest.approx(100.0)
        assert report["aggregates"]["F1"] == pytest.approx(100.0)
        assert report["aggregates"]["Rouge.L"] == pytest.approx(100.0)
        assert report["retrieval_counts"] == [2, 3]

    def test_strategy_distribution_printed(self, tmp_path, capsys):
        _, out = _run(tmp_path, method="tpe", kind="cima", dataset=CIMA)
        code = main(["eval", "--records", str(out), "--references", CIMA, "--kind", "cima"])
        assert code == 0
        printed = capsys.readouterr().out.split("\nStrategy distribution\n")[1]
        assert printed.splitlines()[:3] == [
            "   33.3%  Hint Question", "   33.3%  Hint", "   33.3%  Question"
        ]

    def test_missing_reference_id_exits_two(self, tmp_path):
        _, out = _run(tmp_path)
        records = out.read_text(encoding="utf-8").splitlines()
        hacked = tmp_path / "hacked.jsonl"
        obj = json.loads(records[0])
        obj["sample_id"] = "unknown-id"
        hacked.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        code = main(["eval", "--records", str(hacked), "--references", FOCUS, "--kind", "focus"])
        assert code == 2

    def test_unwritable_out_exits_two_before_scoring(self, tmp_path, capsys):
        _, out = _run(tmp_path)
        capsys.readouterr()
        missing = tmp_path / "missing-dir" / "report.json"
        code = main(
            ["eval", "--records", str(out), "--references", FOCUS,
             "--kind", "focus", "--out", str(missing)]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: [Errno 2] No such file or directory")
        assert not missing.parent.exists()

    @pytest.mark.parametrize("earlier", [None, "earlier report\n"], ids=["new", "existing"])
    @pytest.mark.parametrize(
        "case,message",
        [
            ("unknown-sample-id", "error: no reference for sample id 'nope'\n"),
            ("empty-records", "error: empty corpus\n"),
        ],
        ids=["unknown-sample-id", "empty-records"],
    )
    def test_failed_eval_leaves_out_as_it_was(self, tmp_path, capsys, case, message, earlier):
        _, out = _run(tmp_path)
        records = tmp_path / "records.jsonl"
        if case == "empty-records":
            records.write_text("", encoding="utf-8")
        else:
            obj = json.loads(out.read_text(encoding="utf-8").splitlines()[0])
            records.write_text(json.dumps({**obj, "sample_id": "nope"}) + "\n", encoding="utf-8")
        report = tmp_path / "report.json"
        if earlier is not None:
            report.write_text(earlier, encoding="utf-8")
        capsys.readouterr()
        code = main(
            ["eval", "--records", str(records), "--references", FOCUS,
             "--kind", "focus", "--out", str(report)]
        )
        assert code == 2
        assert capsys.readouterr().err == message
        if earlier is None:
            assert not report.exists()
        else:
            assert report.read_text(encoding="utf-8") == earlier


class TestAnalyze:
    def test_strategy_histogram(self, tmp_path, capsys):
        _, out = _run(tmp_path, method="tpe", kind="cima", dataset=CIMA)
        code = main(["analyze", "--records", str(out), "--analysis", "strategies"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "Hint Question" in printed
        assert "33.3%" in printed

    def test_no_strategy_plans_in_focus_records(self, tmp_path, capsys):
        _, out = _run(tmp_path)
        capsys.readouterr()
        assert main(["analyze", "--records", str(out), "--analysis", "strategies"]) == 0
        assert capsys.readouterr().out == "no parsed strategy plans in records\n"

    def test_no_strategy_plans_in_module_list_records(self, tmp_path, capsys):
        _, out = _run(tmp_path, method="chameleon")
        capsys.readouterr()
        assert all(isinstance(r.parsed_plan, tuple) for r in load_records(str(out)))
        assert main(["analyze", "--records", str(out), "--analysis", "strategies"]) == 0
        assert capsys.readouterr().out == "no parsed strategy plans in records\n"

    def test_strategy_fragments_are_not_retrieval_hits(self, tmp_path, capsys):
        _, out = _run(tmp_path, kind="cima", dataset=CIMA)
        capsys.readouterr()
        assert all(len(r.evidence) for r in load_records(str(out)))
        code = main(
            ["analyze", "--records", str(out), "--analysis", "retrieval",
             "--dataset", CIMA, "--kind", "cima"]
        )
        assert code == 0
        assert capsys.readouterr().out == "correct personas=0 correct documents=0\n"

    def test_cost_table_groups_by_method(self, tmp_path, capsys):
        _, tpe_out = _run(tmp_path, name="tpe.jsonl")
        _, cot_out = _run(tmp_path, method="cot", name="cot.jsonl")
        code = main(
            ["analyze", "--records", str(tpe_out), str(cot_out), "--analysis", "cost"]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "tpe" in printed and "cot" in printed and "focus" in printed

    def test_retrieval_counts(self, tmp_path, capsys):
        _, out = _run(tmp_path)
        code = main(
            ["analyze", "--records", str(out), "--analysis", "retrieval",
             "--dataset", FOCUS, "--kind", "focus"]
        )
        assert code == 0
        assert "correct personas=2 correct documents=3" in capsys.readouterr().out

    def test_retrieval_requires_dataset_and_kind(self, tmp_path):
        _, out = _run(tmp_path)
        assert main(["analyze", "--records", str(out), "--analysis", "retrieval"]) == 2
        assert main(
            ["analyze", "--records", str(out), "--analysis", "retrieval",
             "--dataset", FOCUS]
        ) == 2


class TestSchemaCheck:
    def test_valid_dataset(self, capsys):
        assert main(["schema-check", "--path", FOCUS, "--what", "dataset", "--kind", "focus"]) == 0
        assert "OK 3 records" in capsys.readouterr().out

    def test_invalid_dataset_lists_violations(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "x"}\n', encoding="utf-8")
        code = main(["schema-check", "--path", str(bad), "--what", "dataset", "--kind", "cima"])
        assert code == 1
        assert "INVALID" in capsys.readouterr().out

    def test_records_check(self, tmp_path):
        _, out = _run(tmp_path)
        assert main(["schema-check", "--path", str(out), "--what", "records"]) == 0

    @pytest.mark.parametrize(
        "what, kind", [("records", ["--kind", "focus"]), ("dataset", [])], ids=["records", "dataset"]
    )
    def test_kind_only_with_dataset(self, tmp_path, capsys, what, kind):
        _, out = _run(tmp_path)
        capsys.readouterr()
        assert main(["schema-check", "--path", str(out), "--what", what, *kind]) == 2
        assert capsys.readouterr().err.startswith("config error: --kind")

    def test_garbage_records_reported_not_crashed(self, tmp_path, capsys):
        bad = tmp_path / "bad_records.jsonl"
        bad.write_text(
            '[1, 2, 3]\n{"sample_id": "x", "method": "tpe", "kind": "focus", '
            '"response": "r", "cost_usd": "not-a-number"}\n',
            encoding="utf-8",
        )
        code = main(["schema-check", "--path", str(bad), "--what", "records"])
        assert code == 1
        assert "INVALID" in capsys.readouterr().out

    def test_non_utf8_line_is_reported_not_crashed(self, tmp_path, capsys):
        _, out = _run(tmp_path)
        capsys.readouterr()
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(out.read_bytes().splitlines(keepends=True)[0] + b"\xff\xfe{}\n")
        code = main(["schema-check", "--path", str(bad), "--what", "records"])
        assert code == 1
        assert capsys.readouterr().out.startswith("INVALID line 2: 'utf-8' codec can't decode")

    def test_directory_path_exits_two(self, tmp_path, capsys):
        code = main(["schema-check", "--path", str(tmp_path), "--what", "records"])
        assert code == 2
        assert str(tmp_path) in capsys.readouterr().err

    def test_non_utf8_replay_file_names_the_line(self, tmp_path, capsys):
        broken = tmp_path / "broken_replay.jsonl"
        first = Path(REPLAY).read_bytes().splitlines(keepends=True)[0]
        broken.write_bytes(first + b"\xff\xfe{}\n")
        code = main(
            ["run", "--method", "tpe", "--kind", "focus", "--dataset", FOCUS,
             "--backend", f"replay:{broken}", "--out", str(tmp_path / "o.jsonl")]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"error: {broken}: 1 invalid line(s): line 2: 'utf-8' codec can't decode"
        )

    def test_malformed_replay_file_lists_every_bad_line(self, tmp_path, capsys):
        broken = tmp_path / "broken_replay.jsonl"
        first = Path(REPLAY).read_bytes().splitlines(keepends=True)[0]
        broken.write_bytes(b'{"model": "m"}\n' + first + b"[]\n")
        code = main(
            ["run", "--method", "tpe", "--kind", "focus", "--dataset", FOCUS,
             "--backend", f"replay:{broken}", "--out", str(tmp_path / "o.jsonl")]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {broken}: 2 invalid line(s): line 1: hash must be str, got None; "
            "line 3: record must be dict, got []\n"
        )

    @pytest.mark.parametrize("field", ["prompt_tokens", "completion_tokens"])
    @pytest.mark.parametrize("value", [None, "12", 1.5, -1])
    def test_replay_fixture_token_count_checked_at_load(
        self, tmp_path, capsys, field, value
    ):
        fixtures = [json.loads(line) for line in open(REPLAY, encoding="utf-8")]
        for fixture in fixtures:
            if value is None:
                del fixture[field]
            else:
                fixture[field] = value
        broken = tmp_path / "broken_replay.jsonl"
        broken.write_text("".join(json.dumps(f) + "\n" for f in fixtures), encoding="utf-8")
        out = tmp_path / "o.jsonl"
        code = main(
            ["run", "--method", "tpe", "--kind", "cima", "--dataset", CIMA,
             "--backend", f"replay:{broken}", "--out", str(out)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {broken}: {len(fixtures)} invalid line(s): ")
        assert f"line 1: {field} must be a non-negative int, got {value!r}" in err
        assert not out.exists()

    def test_malformed_price_table_is_config_error(self, tmp_path):
        prices = tmp_path / "prices.json"
        prices.write_text('{"gpt-3.5-turbo": "zero point zero"}', encoding="utf-8")
        code = main(
            ["run", "--method", "tpe", "--kind", "focus", "--dataset", FOCUS,
             "--backend", f"replay:{REPLAY}", "--prices", str(prices),
             "--out", str(tmp_path / "o.jsonl")]
        )
        assert code == 2

    def test_custom_price_table_scales_cost(self, tmp_path, capsys):
        prices = tmp_path / "prices.json"
        prices.write_text('{"gpt-3.5-turbo": "1.0"}', encoding="utf-8")
        out = tmp_path / "o.jsonl"
        code = main(
            ["run", "--method", "cot", "--kind", "cima", "--dataset", CIMA,
             "--backend", f"replay:{REPLAY}", "--prices", str(prices),
             "--out", str(out)]
        )
        assert code == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        from decimal import Decimal

        # 1.0 USD/1k is 500x the default 0.002 rate
        default_run = tmp_path / "d.jsonl"
        main(["run", "--method", "cot", "--kind", "cima", "--dataset", CIMA,
              "--backend", f"replay:{REPLAY}", "--out", str(default_run)])
        defaults = [json.loads(line) for line in default_run.read_text().splitlines()]
        for custom, default in zip(records, defaults):
            assert Decimal(custom["cost_usd"]) == Decimal(default["cost_usd"]) * 500


    def test_huge_price_costs_exactly(self, tmp_path, capsys):
        prices = tmp_path / "prices.json"
        prices.write_text('{"gpt-3.5-turbo": "1e30"}', encoding="utf-8")
        out = tmp_path / "o.jsonl"
        code = main(
            ["run", "--method", "cot", "--kind", "cima", "--dataset", CIMA,
             "--backend", "replay:fixture", "--prices", str(prices), "--out", str(out)]
        )
        assert code == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        total = 0
        for record in records:
            tokens = sum(u["prompt_tokens"] + u["completion_tokens"] for u in record["usages"])
            assert record["cost_usd"] == f"{tokens * 10**27}.000000"
            total += tokens * 10**27
        assert f" {total}.000000\n" in capsys.readouterr().out
        assert main(["analyze", "--records", str(out), "--analysis", "cost"]) == 0
        assert capsys.readouterr().out.endswith(f"cot         cima      {total}.000000\n")
        report = tmp_path / "report.json"
        main(["eval", "--records", str(out), "--references", CIMA, "--kind", "cima",
              "--out", str(report)])
        assert json.loads(report.read_text())["total_cost_usd"] == f"{total}.000000"


def _set_score(obj, value):
    obj["evidence"][0]["passages"][0][2] = value


# One change each to a valid tpe/focus record line.
MALFORMED_RECORDS = {
    "missing_sample_id": lambda obj: obj.pop("sample_id"),
    "negative_prompt_tokens": lambda obj: obj["usages"][0].update(prompt_tokens=-3),
    "negative_latency_ms": lambda obj: obj["usages"][0].update(latency_ms=-5),
    "unknown_kind": lambda obj: obj.update(kind="nope"),
    "empty_response_without_error": lambda obj: obj.update(response=""),
    "cost_not_decimal": lambda obj: obj.update(cost_usd="abc"),
    "passage_score_not_number": lambda obj: _set_score(obj, "x"),
    "response_not_string": lambda obj: obj.update(response=5),
    "module_names_not_list": lambda obj: obj.update(
        parsed_plan={"format": "modules", "names": "abc"}
    ),
}


def _valid_lines(tmp_path, capsys) -> list[str]:
    _, out = _run(tmp_path, name="valid.jsonl")
    capsys.readouterr()
    return out.read_text(encoding="utf-8").splitlines()


def _malformed(line: str, case: str) -> str:
    if case == "truncated_line":
        return line[: len(line) // 2]
    obj = json.loads(line)
    MALFORMED_RECORDS[case](obj)
    return json.dumps(obj, ensure_ascii=False)


class TestMalformedRecords:
    CASES = [*MALFORMED_RECORDS, "truncated_line"]

    @pytest.fixture(params=CASES)
    def bad_file(self, request, tmp_path, capsys):
        line = _malformed(_valid_lines(tmp_path, capsys)[0], request.param)
        path = tmp_path / "bad.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        return str(path)

    def test_eval_exits_two_naming_the_line(self, bad_file, capsys):
        code = main(["eval", "--records", bad_file, "--references", FOCUS, "--kind", "focus"])
        assert code == 2
        assert "line 1:" in capsys.readouterr().err

    def test_analyze_exits_two_naming_the_line(self, bad_file, capsys):
        assert main(["analyze", "--records", bad_file, "--analysis", "cost"]) == 2
        assert "line 1:" in capsys.readouterr().err

    def test_schema_check_reports_the_line(self, bad_file, capsys):
        code = main(["schema-check", "--path", bad_file, "--what", "records"])
        assert code == 1
        assert capsys.readouterr().out.startswith("INVALID line 1: ")

    def test_every_bad_line_listed(self, tmp_path, capsys):
        first, second, _ = _valid_lines(tmp_path, capsys)
        lines = [
            _malformed(first, "cost_not_decimal"),
            second,
            _malformed(first, "truncated_line"),
        ]
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["schema-check", "--path", str(bad), "--what", "records"])
        assert code == 1
        printed = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in printed] == ["INVALID line 1", "INVALID line 3"]
        assert main(["eval", "--records", str(bad), "--references", FOCUS, "--kind", "focus"]) == 2
        err = capsys.readouterr().err
        assert "line 1:" in err and "line 3:" in err
        valid = tmp_path / "valid.jsonl"
        assert main(["analyze", "--records", str(valid), str(bad), "--analysis", "cost"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: 2 invalid line(s): line 1:")


class TestChat:
    def test_transcript_matches_golden(self, monkeypatch, capsys):
        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO("I know this place, but I don't remember the name of this place.\n"),
        )
        code = main(
            ["chat", "--method", "tpe", "--kind", "focus",
             "--backend", f"replay:{REPLAY}",
             "--sample", str(FIXTURES / "chat_sample.json")]
        )
        assert code == 0
        assert capsys.readouterr().out == (GOLDEN / "chat_transcript.txt").read_text(
            encoding="utf-8"
        )

    def test_empty_input_exits_cleanly(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        code = main(
            ["chat", "--method", "cot", "--kind", "cima",
             "--backend", f"replay:{REPLAY}"]
        )
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_blank_line_makes_no_call(self, monkeypatch, capsys):
        backend = QueueBackend("Think of grass.")
        monkeypatch.setattr("conductor.cli._build_backend", lambda args: backend)
        monkeypatch.setattr("sys.stdin", io.StringIO("  \n\nwhat is green?\n\n"))
        code = main(["chat", "--method", "cot", "--kind", "cima", "--backend", "replay:unused"])
        assert code == 0
        assert capsys.readouterr().out.endswith("[response] Think of grass.\n")
        assert len(backend.requests) == 1

    def test_focus_without_sample_is_config_error(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("hello\n"))
        code = main(["chat", "--method", "tpe", "--kind", "focus", "--backend", f"replay:{REPLAY}"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: chat on a multi-source dataset requires --sample\n"

    def test_strategy_fragments_printed_as_evidence(self, monkeypatch, capsys):
        backend = QueueBackend(
            "The student has the word but not the colour.",
            " Hint\nDo: Verde is the colour of grass.\nPlan: Question\nDo: What colour is it?",
        )
        monkeypatch.setattr("conductor.cli._build_backend", lambda args: backend)
        monkeypatch.setattr("sys.stdin", io.StringIO("what is the word for green?\n"))
        code = main(["chat", "--method", "tpe", "--kind", "cima", "--backend", "replay:unused"])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == [
            "[thought] The student has the word but not the colour.",
            "[plan] Plan: Hint",
            "Do: Verde is the colour of grass.",
            "Plan: Question",
            "Do: What colour is it?",
            "[evidence St1] Verde is the colour of grass.",
            "[evidence St2] What colour is it?",
            "[response] Verde is the colour of grass. What colour is it?",
        ]
        assert len(backend.requests) == 2

    def test_unpriced_model_exits_two(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("hello\n"))
        code = main(
            ["chat", "--method", "cot", "--kind", "cima",
             "--backend", f"replay:{REPLAY}", "--model", "no-such-model"]
        )
        assert code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("content", ["", "{not json\n", '{"id": "f2"}\n'])
    def test_bad_sample_file_exits_two(self, monkeypatch, tmp_path, capsys, content):
        sample = tmp_path / "sample.json"
        sample.write_text(content, encoding="utf-8")
        monkeypatch.setattr("sys.stdin", io.StringIO("hello\n"))
        code = main(
            ["chat", "--method", "tpe", "--kind", "focus",
             "--backend", f"replay:{REPLAY}", "--sample", str(sample)]
        )
        assert code == 2
        assert capsys.readouterr().out == ""

    def test_malformed_plan_shows_error_banner(self, monkeypatch, tmp_path, capsys):
        fixture = tmp_path / "broken.jsonl"
        from conductor.backend import make_fixture_record
        from conductor.core import load_template, render_demo_slot, render_demonstration
        from conductor.data import select_demonstrations
        from conductor.core import SchemaKind as SK
        from conductor.profiles import profile_for

        # canned thinker + deliberately unparsable plan for a 1-turn dialogue
        profile = profile_for(SK.CIMA)
        dialogue = "Student: ciao?"
        demos = select_demonstrations(SK.CIMA, "tpe")
        thinker_prompt = load_template("tpe_thinker").render(
            persona=profile.personas["thinker"],
            demos=render_demo_slot(render_demonstration(d, "thinker") for d in demos),
            extras="",
            dialogue=dialogue,
        )
        records = [make_fixture_record("gpt-3.5-turbo", thinker_prompt, "a thought")]
        from conductor.core import render_extras, render_toolset

        plan_prompt = load_template("tpe_plannerexec_cima").render(
            persona=profile.personas["planner_executor"],
            toolset=render_toolset(profile.strategy_toolset),
            demos=render_demo_slot(render_demonstration(d, "planner") for d in demos),
            extras=render_extras([("Thought", "a thought")]),
            dialogue=dialogue,
        )
        records.append(make_fixture_record("gpt-3.5-turbo", plan_prompt, "???"))
        fixture.write_text(
            "\n".join(json.dumps(r, ensure_ascii=False) for r in records) + "\n",
            encoding="utf-8",
        )
        monkeypatch.setattr("sys.stdin", io.StringIO("ciao?\n"))
        code = main(
            ["chat", "--method", "tpe", "--kind", "cima", "--backend", f"replay:{fixture}"]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "[error ParseError]" in printed
        assert "[response] ???" in printed


class _Reply:
    status_code = 200

    def json(self):
        return {"choices": [{"message": {"content": "fine"}}]}


class _CountingServer:
    """A `post_fn` that counts the calls in flight. The first `meet` calls
    wait for each other at a barrier, so they all meet only if that many
    calls can be in flight at once."""

    def __init__(self, meet: int):
        self.meet = meet
        self.barrier = threading.Barrier(meet, timeout=10) if meet else None
        self.lock = threading.Lock()
        self.posts = self.in_flight = self.peak = 0

    def post(self, url, json=None, headers=None, timeout=None):
        with self.lock:
            self.posts += 1
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
            meets = self.posts <= self.meet
        try:
            if meets:
                self.barrier.wait()
            return _Reply()
        finally:
            with self.lock:
                self.in_flight -= 1


class TestLiveInFlight:
    LIVE = ["--kind", "cima", "--backend", "live", "--base-url", "http://localhost:1"]

    @pytest.fixture
    def serve(self, monkeypatch):
        def install(meet=0):
            server = _CountingServer(meet)
            monkeypatch.setenv(API_KEY_ENV, "sk-test")
            monkeypatch.setattr(
                "conductor.cli.LiveBackend",
                lambda base_url: LiveBackend(
                    base_url, post_fn=server.post, sleep_fn=lambda _: None
                ),
            )
            return server

        return install

    def test_run_has_parallelism_calls_in_flight(self, serve, tmp_path):
        server = serve(meet=16)
        lines = Path(CIMA).read_text(encoding="utf-8").splitlines()
        dataset = tmp_path / "samples.jsonl"
        dataset.write_text(
            "".join(
                json.dumps({**json.loads(lines[i % len(lines)]), "id": f"s{i}"}) + "\n"
                for i in range(20)
            ),
            encoding="utf-8",
        )
        out = tmp_path / "o.jsonl"
        code = main(["run", "--method", "cot", *self.LIVE, "--dataset", str(dataset),
                     "--out", str(out), "--parallelism", "16"])
        assert code == 0
        assert not server.barrier.broken
        assert server.posts == 20
        assert server.peak == 16
        assert len(out.read_text(encoding="utf-8").splitlines()) == 20

    def test_chat_has_one_call_in_flight(self, serve, monkeypatch):
        server = serve()
        monkeypatch.setattr("sys.stdin", io.StringIO("hello\nare you there?\n"))
        main(["chat", "--method", "tpe", *self.LIVE])
        assert server.posts > 2
        assert server.peak == 1

    def test_unwritable_out_fails_before_any_call(self, serve, tmp_path, capsys):
        server = serve()
        out = tmp_path / "missing-dir" / "o.jsonl"
        code = main(["run", "--method", "cot", *self.LIVE, "--dataset", CIMA, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: {str(out)!r}\n"
        )
        assert server.posts == 0

    @pytest.mark.parametrize("parallelism", ["0", "-5"])
    def test_parallelism_below_one_fails_before_any_call(
        self, serve, tmp_path, capsys, parallelism
    ):
        server = serve()
        out = tmp_path / "o.jsonl"
        code = main(["run", "--method", "cot", *self.LIVE, "--dataset", CIMA,
                     "--out", str(out), "--parallelism", parallelism])
        assert code == 2
        assert capsys.readouterr().err == "config error: --parallelism must be at least 1\n"
        assert server.posts == 0
        assert not out.exists()

    @pytest.mark.parametrize("rate", ['"Infinity"', "Infinity"])
    def test_infinite_price_fails_before_any_call(self, serve, tmp_path, capsys, rate):
        server = serve()
        prices = tmp_path / "prices.json"
        prices.write_text(f'{{"gpt-3.5-turbo": {rate}}}', encoding="utf-8")
        out = tmp_path / "o.jsonl"
        code = main(["run", "--method", "cot", *self.LIVE, "--dataset", CIMA,
                     "--prices", str(prices), "--out", str(out)])
        assert code == 2
        assert "config error:" in capsys.readouterr().err
        assert server.posts == 0
        assert not out.exists()

    @pytest.mark.parametrize(
        "table", ['["gpt-3.5-turbo"]', '"gpt-3.5-turbo"', "0.002"],
        ids=["array", "string", "number"],
    )
    def test_price_table_not_an_object_fails_before_any_call(
        self, serve, tmp_path, capsys, table
    ):
        server = serve()
        prices = tmp_path / "prices.json"
        prices.write_text(table, encoding="utf-8")
        out = tmp_path / "o.jsonl"
        code = main(["run", "--method", "cot", *self.LIVE, "--dataset", CIMA,
                     "--prices", str(prices), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: invalid price table {prices}: price table must be a JSON object\n"
        )
        assert server.posts == 0
        assert not out.exists()
