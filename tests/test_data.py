from __future__ import annotations

import json
from decimal import Decimal

import pytest

from conftest import FIXTURES
from conductor import data as data_module
from conductor.core import (
    CallUsage,
    ErrorInfo,
    Evidence,
    EvidenceStore,
    RunRecord,
    SchemaKind,
    Thought,
)
from conductor.data import (
    export_records,
    load_dataset,
    load_records,
    record_from_obj,
    record_to_obj,
    sample_from_obj,
    select_demonstrations,
)
from conductor.errors import ConfigError, DatasetValidationError, MissingDemoBank
from conductor.plangrammar import StrategyPlanStep, parse_source_plan


def _cima_obj(sample_id="c1", strategies=("Hint",)):
    return {
        "id": sample_id,
        "dialogue": [
            {"speaker": "Teacher", "text": "Green is verde."},
            {"speaker": "Student", "text": "what is the word for green?"},
        ],
        "gold_response": "la pianta e dentro la scatola verdeverde",
        "gold_strategies": list(strategies),
    }


def _focus_obj(sample_id="f1", n_personas=5, n_documents=10):
    return {
        "id": sample_id,
        "dialogue": [{"speaker": "USER", "text": "Hi there"}],
        "gold_response": "hello",
        "persona_candidates": [f"persona {i}" for i in range(n_personas)],
        "document_candidates": [f"document {i}" for i in range(n_documents)],
        "gold_persona_indices": [0],
        "gold_document_index": 0,
    }


class TestSampleValidation:
    def test_minimal_cima_line(self):
        sample = sample_from_obj(_cima_obj(), SchemaKind.CIMA)
        assert sample.id == "c1"
        assert sample.gold_strategies == ("Hint",)

    def test_focus_needs_exactly_five_personas(self):
        with pytest.raises(
            (ValueError, TypeError), match="persona_candidates must have exactly 5 entries, got 4"
        ):
            sample_from_obj(_focus_obj(n_personas=4), SchemaKind.FOCUS)

    def test_focus_needs_exactly_ten_documents(self):
        with pytest.raises(
            (ValueError, TypeError), match="document_candidates must have exactly 10 entries, got 9"
        ):
            sample_from_obj(_focus_obj(n_documents=9), SchemaKind.FOCUS)

    def test_unknown_gold_strategy(self):
        with pytest.raises((ValueError, TypeError), match="unknown gold strategy 'Nudge'"):
            sample_from_obj(_cima_obj(strategies=("Nudge",)), SchemaKind.CIMA)

    def test_others_label_allowed(self):
        sample = sample_from_obj(_cima_obj(strategies=("Others",)), SchemaKind.CIMA)
        assert sample.gold_strategies == ("Others",)

    def test_dialogue_must_end_user_side(self):
        obj = _cima_obj()
        obj["dialogue"] = obj["dialogue"][:1]  # ends on Teacher
        with pytest.raises(
            (ValueError, TypeError), match="dialogue must end with the 'Student' side speaking"
        ):
            sample_from_obj(obj, SchemaKind.CIMA)

    def test_gold_indices_range_checked(self):
        obj = _focus_obj()
        obj["gold_document_index"] = 10
        with pytest.raises((ValueError, TypeError), match="gold_document_index out of range: 10"):
            sample_from_obj(obj, SchemaKind.FOCUS)

    def test_non_string_fields_rejected_not_crashed(self):
        obj = _cima_obj()
        obj["dialogue"][0]["text"] = 42
        with pytest.raises((ValueError, TypeError), match=r"dialogue\[0\] text must be str, got 42"):
            sample_from_obj(obj, SchemaKind.CIMA)
        obj = _focus_obj()
        obj["persona_candidates"][0] = None
        with pytest.raises(
            (ValueError, TypeError), match="persona_candidates entry must be str, got None"
        ):
            sample_from_obj(obj, SchemaKind.FOCUS)
        obj = _focus_obj()
        obj["gold_persona_indices"] = ["zero"]
        with pytest.raises(
            (ValueError, TypeError), match="gold_persona_indices out of range: 'zero'"
        ):
            sample_from_obj(obj, SchemaKind.FOCUS)
        obj = _cima_obj()
        obj["gold_strategies"] = [None]
        with pytest.raises((ValueError, TypeError), match="unknown gold strategy None"):
            sample_from_obj(obj, SchemaKind.CIMA)

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("gold_document_index", True, "gold_document_index out of range: True"),
            ("gold_persona_indices", [False, True], "persona_indices out of range: False"),
            ("gold_persona_indices", 3, "gold_persona_indices must be list, got 3"),
            ("gold_persona_indices", "01", "gold_persona_indices must be list, got '01'"),
            ("gold_document_index", 2.0, "gold_document_index out of range: 2.0"),
        ],
    )
    def test_gold_indices_are_json_integers(self, key, value, message):
        lines = (FIXTURES / "focus_samples.jsonl").read_text(encoding="utf-8")
        obj = json.loads(lines.splitlines()[0])
        assert sample_from_obj(obj, SchemaKind.FOCUS).gold_document_index is not None
        obj[key] = value
        with pytest.raises((ValueError, TypeError), match=message):
            sample_from_obj(obj, SchemaKind.FOCUS)

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("id", "", "id must be non-empty"),
            ("dialogue", ["hello"], r"dialogue\[0\] must be dict, got 'hello'"),
            (
                "dialogue",
                [{"speaker": "Student", "text": "  "}],
                "utterance text must be non-empty",
            ),
            ("gold_strategies", [], "gold_strategies must be non-empty"),
        ],
        ids=["empty-id", "turn-not-object", "blank-text", "no-gold-strategy"],
    )
    def test_cima_line_rejected(self, field, value, message):
        obj = _cima_obj()
        obj[field] = value
        with pytest.raises((ValueError, TypeError), match=message):
            sample_from_obj(obj, SchemaKind.CIMA)


class TestLoadDataset:
    def test_order_preserved(self, tmp_path):
        path = tmp_path / "data.jsonl"
        with path.open("w", encoding="utf-8") as handle:
            for i in range(200):
                handle.write(json.dumps(_cima_obj(sample_id=f"c{i}")) + "\n")
        samples = load_dataset(str(path), SchemaKind.CIMA)
        assert len(samples) == 200
        assert [s.id for s in samples] == [f"c{i}" for i in range(200)]

    def test_every_invalid_line_reported(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        lines = [
            json.dumps(_cima_obj()),
            "not json at all",
            json.dumps({"id": "x"}),
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DatasetValidationError) as exc_info:
            load_dataset(str(path), SchemaKind.CIMA)
        assert len(exc_info.value.violations) == 2
        assert {v.line_no for v in exc_info.value.violations} == {2, 3}

    def test_repeated_id_is_listed(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        lines = [_cima_obj("c1"), _cima_obj("c2"), _cima_obj("c1", strategies=("Question",))]
        path.write_text("".join(json.dumps(obj) + "\n" for obj in lines), encoding="utf-8")
        with pytest.raises(DatasetValidationError) as exc_info:
            load_dataset(str(path), SchemaKind.CIMA)
        assert str(exc_info.value) == f"{path}: 1 invalid line(s): line 3: duplicate id 'c1'"


class TestDemonstrations:
    def test_focus_tpe_bank_matches_committed_plans(self):
        demos = select_demonstrations(SchemaKind.FOCUS, "tpe")
        assert len(demos) == 3
        assert "Search for personal memories about" in demos[1].plan_text
        # every committed plan parses under the shared grammar
        for demo in demos:
            program = parse_source_plan(demo.plan_text, "#So")
            assert program.steps

    def test_cima_tpe_transitions(self):
        demos = select_demonstrations(SchemaKind.CIMA, "tpe")
        sequences = []
        for demo in demos:
            names = [
                line[len("Plan: ") :]
                for line in demo.plan_text.split("\n")
                if line.startswith("Plan: ")
            ]
            sequences.append(names)
        assert sequences == [["Hint", "Question"], ["Hint"], ["Question"]]

    def test_psyqa_first_demo_has_the_long_transition(self):
        demos = select_demonstrations(SchemaKind.PSYQA, "tpe")
        assert len(demos) == 2
        names = [
            line[len("Plan: ") :]
            for line in demos[0].plan_text.split("\n")
            if line.startswith("Plan: ")
        ]
        assert names == [
            "Approval and Reassurance",
            "Interpretation",
            "Direct Guidance",
            "Interpretation",
            "Direct Guidance",
        ]

    def test_zero_shot_override(self):
        assert select_demonstrations(SchemaKind.PSYQA, "cot", count=0) == []

    def test_count_out_of_range(self):
        with pytest.raises(ConfigError):
            select_demonstrations(SchemaKind.CIMA, "tpe", count=7)

    def test_missing_bank(self):
        with pytest.raises(MissingDemoBank):
            select_demonstrations(SchemaKind.FOCUS, "cuecot")

    def test_bad_bank_line_is_listed(self, tmp_path, monkeypatch):
        (tmp_path / "demobanks").mkdir()
        bank = tmp_path / "demobanks" / "cima_tpe.jsonl"
        bank.write_text(
            '{"dialogue": "d", "response": "r"}\n{"thought": "t"}\n{"dialogue": "d"}\n',
            encoding="utf-8",
        )
        monkeypatch.setattr(data_module.resources, "files", lambda package: tmp_path)
        with pytest.raises(DatasetValidationError) as exc_info:
            select_demonstrations(SchemaKind.CIMA, "tpe")
        assert str(exc_info.value) == (
            f"{bank}: 2 invalid line(s): line 2: dialogue must be str, got None; "
            "line 3: demonstration needs thought, plan, or response"
        )

    def test_selection_is_constant(self):
        first = select_demonstrations(SchemaKind.CIMA, "react")
        second = select_demonstrations(SchemaKind.CIMA, "react")
        assert first == second


def _full_record(sample_id="s1", with_error=False) -> RunRecord:
    store = EvidenceStore()
    store.bind(
        "So1",
        Evidence("So1", "PERSONA", "query text", (("persona-00", "我很难过 today", 1.5),)),
    )
    store.bind("St1", "一个片段 fragment")
    plan = parse_source_plan("Plan: a\n#So1 = PERSONA[context]", "#So")
    return RunRecord(
        sample_id=sample_id,
        method="tpe",
        kind=SchemaKind.PSYQA,
        thought=Thought("内部状态 the status"),
        raw_plan_text="Plan: a\n#So1 = PERSONA[context]",
        parsed_plan=plan,
        evidence=store,
        response="回应 response text" if not with_error else "",
        usages=(CallUsage("gpt-3.5-turbo", "replay", 120, 30, 0),),
        cost_usd=Decimal("0.000300"),
        error=ErrorInfo("PlanParseFailure", "boom") if with_error else None,
    )


class TestRecordRoundTrip:
    def test_load_export_identity(self, tmp_path):
        records = [_full_record("s1"), _full_record("s2", with_error=True)]
        path = tmp_path / "records.jsonl"
        export_records(records, str(path))
        loaded = load_records(str(path))
        assert loaded == records

    def test_cjk_survives_byte_exact(self, tmp_path):
        path = tmp_path / "records.jsonl"
        export_records([_full_record()], str(path))
        raw = path.read_text(encoding="utf-8")
        assert "我很难过" in raw  # not escaped to \\u sequences
        export_records(load_records(str(path)), str(path) + ".again")
        assert raw == (tmp_path / "records.jsonl.again").read_text(encoding="utf-8")

    def test_strategy_plan_round_trip(self, tmp_path):
        record = RunRecord(
            sample_id="c1",
            method="tpe",
            kind=SchemaKind.CIMA,
            parsed_plan=(StrategyPlanStep("Hint", "box is scatola."),),
            response="box is scatola.",
        )
        path = tmp_path / "r.jsonl"
        export_records([record], str(path))
        assert load_records(str(path))[0].parsed_plan == record.parsed_plan

    def test_empty_list_gives_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        export_records([], str(path))
        assert path.read_text(encoding="utf-8") == ""
        assert load_records(str(path)) == []


class TestRecordLayout:
    def test_missing_optional_keys_take_defaults(self):
        record = record_from_obj(
            {"sample_id": "s", "method": "cot", "kind": "cima", "response": "r",
             "usages": [{"model": "m", "backend": "replay",
                         "prompt_tokens": 1, "completion_tokens": 2}]}
        )
        assert record == RunRecord(
            sample_id="s", method="cot", kind=SchemaKind.CIMA, response="r",
            usages=(CallUsage("m", "replay", 1, 2),),
        )

    def test_null_takes_a_none_default_only(self):
        obj = record_to_obj(_full_record())
        obj.update(thought=None, parsed_plan=None, error=None)
        record = record_from_obj(obj)
        assert (record.thought, record.parsed_plan, record.error) == (None, None, None)
        obj["raw_plan_text"] = None
        with pytest.raises(TypeError, match="raw_plan_text must be str"):
            record_from_obj(obj)

    @pytest.mark.parametrize(
        "change,message",
        [
            (lambda o: o.pop("method"), "missing RunRecord field 'method'"),
            (lambda o: o["usages"][0].pop("backend"), "missing CallUsage field 'backend'"),
            (lambda o: o["usages"][0].update(prompt_tokens=True), "prompt_tokens must be int"),
            (lambda o: o["evidence"][1].update(fragment=3), "fragment must be str"),
            (lambda o: o["parsed_plan"]["steps"][0]["query"][0].update(kind="web"),
             "unknown query segment kind 'web'"),
            (lambda o: o["parsed_plan"].update(format="tree"), "unknown plan format 'tree'"),
            (lambda o: o.update(cost_usd="NaN"), "cost_usd must be a finite decimal"),
            (lambda o: o.update(thought=""), "thought text must be non-empty"),
        ],
    )
    def test_invalid_value_named(self, change, message):
        obj = record_to_obj(_full_record())
        change(obj)
        with pytest.raises((TypeError, ValueError), match=message):
            record_from_obj(obj)

    def test_load_lists_every_invalid_line(self, tmp_path):
        good = json.dumps(record_to_obj(_full_record()), ensure_ascii=False)
        path = tmp_path / "records.jsonl"
        path.write_text(
            "\n".join([good, "[1, 2]", good, '{"sample_id": "s"}', "{"]) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(DatasetValidationError) as exc_info:
            load_records(str(path))
        assert [v.line_no for v in exc_info.value.violations] == [2, 4, 5]
        assert "record must be dict" in exc_info.value.violations[0].reason
