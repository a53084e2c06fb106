from __future__ import annotations

from dataclasses import replace

import pytest

from conftest import FIXTURES, QueueBackend
from conductor import retrieval
from conductor.backend import Backend, ReplayBackend
from conductor.core import Dialogue, ErrorInfo, SchemaKind, Utterance, render_toolset
from conductor.data import Sample, export_records, load_dataset, load_records
from conductor.errors import ConfigError, EmptyPlan, UnknownTool, UnpricedModel
from conductor.pipelines import (
    Method,
    MethodConfig,
    _Run,
    combine_middle,
    run_batch,
    run_method,
    with_cue,
)
from conductor.profiles import FOCUS_SOURCES
from conductor.retrieval import Bm25Retriever


def _replay() -> ReplayBackend:
    return ReplayBackend.load(str(FIXTURES / "replay.jsonl"))


def _focus_samples():
    return load_dataset(str(FIXTURES / "focus_samples.jsonl"), SchemaKind.FOCUS)


def _cima_samples():
    return load_dataset(str(FIXTURES / "cima_samples.jsonl"), SchemaKind.CIMA)


class TestCombineMiddle:
    def test_gold_cima_fragments(self):
        assert combine_middle(
            ["box is scatola.", "Do you remember how to say the plant?"]
        ) == "box is scatola. Do you remember how to say the plant?"

    def test_identity(self):
        assert combine_middle(["hello"]) == "hello"

    def test_empty_rejected(self):
        with pytest.raises(EmptyPlan):
            combine_middle([])


class TestWithCue:
    def test_prepends_cue(self):
        assert with_cue("Plan:", " Search.\n#So1 = PERSONA[context]") == (
            "Plan: Search.\n#So1 = PERSONA[context]"
        )

    def test_keeps_existing_cue(self):
        assert with_cue("Plan:", "Plan: Search.") == "Plan: Search."

    def test_leaves_bare_assignment_alone(self):
        assert with_cue("Plan:", "#So1 = PERSONA[context]") == "#So1 = PERSONA[context]"


def _toy_sample() -> Sample:
    return Sample(
        id="toy",
        dialogue=Dialogue(
            id="toy",
            utterances=(Utterance("USER", "I know this place, but I don't remember."),),
            schema_kind=SchemaKind.FOCUS,
        ),
        gold_response="",
        persona_candidates=(
            "I like living in a city. I don't hope to ever visit New Zealand.",
            "I enjoy hiking in the mountains.",
        ),
        document_candidates=(
            "Newton is a small suburb of Auckland City, New Zealand.",
            "The Sahara is the largest hot desert.",
        ),
    )


def _toy_run() -> _Run:
    config = MethodConfig(method=Method.TPE, dataset_kind=SchemaKind.FOCUS)
    return _Run(_toy_sample(), config, QueueBackend())


@pytest.fixture
def consulted(monkeypatch):
    """(source, query) of every retrieval, in call order."""
    calls = []
    original = Bm25Retriever.retrieve

    def tap(self, query, k):
        calls.append((self.index.corpus.source_name, query))
        return original(self, query, k)

    monkeypatch.setattr(Bm25Retriever, "retrieve", tap)
    return calls


class TestRetrieve:
    def test_source_without_candidates_is_unknown(self):
        run = _toy_run()
        run.sample = replace(run.sample, persona_candidates=())
        with pytest.raises(UnknownTool):
            run.retrieve("So1", "PERSONA", "ctx")

    def test_each_index_built_once_per_run(self, monkeypatch):
        built = []
        original = retrieval.build_index

        def counting(corpus, *args, **kwargs):
            built.append(corpus.source_name)
            return original(corpus, *args, **kwargs)

        monkeypatch.setattr(retrieval, "build_index", counting)
        run = _toy_run()
        for variable, label in (("K1", "persona"), ("K2", "KNOWLEDGE"), ("K3", "Persona")):
            run.retrieve(variable, label, "city")
        assert built == ["persona", "document"]


class TestExecuteSourcePlan:
    """A TPE plan run end to end: each step retrieves through the profile's
    aliases and binds its variable in plan order."""

    def _run(self, plan, k=1):
        backend = QueueBackend("", plan, "resp")
        config = MethodConfig(method=Method.TPE, dataset_kind=SchemaKind.FOCUS, k_retrieved=k)
        return run_method(_toy_sample(), config, backend)

    def test_single_literal_step(self):
        record = self._run("Plan: a\n#So1 = DOCUMENT[Newton suburb]")
        assert record.evidence.variables() == ("So1",)
        evidence = record.evidence.get("So1")
        assert evidence.resolved_query == "Newton suburb"
        assert [doc_id for doc_id, _, _ in evidence.passages] == ["document-00"]

    def test_dependency_feeds_second_query(self):
        record = self._run("Plan: a\n#So1 = PERSONA[context]\nPlan: b\n#So2 = DOCUMENT[#So1]")
        assert record.error is None
        first, second = record.evidence.get("So1"), record.evidence.get("So2")
        assert first.resolved_query == "USER: I know this place, but I don't remember."
        assert second.resolved_query == first.text()
        assert second.passages[0][0] == "document-00"

    def test_knowledge_alias_resolves_to_document(self):
        record = self._run("Plan: a\n#So1 = KNOWLEDGE[Newton]")
        evidence = record.evidence.get("So1")
        assert evidence.passages[0][0] == "document-00"
        assert evidence.source_name == "KNOWLEDGE"

    def test_unknown_source(self):
        record = self._run("Plan: a\n#So1 = PERSONA[context]\nPlan: b\n#So2 = WEB[context]")
        assert record.error.kind == "UnknownTool"
        assert len(record.evidence) == 0

    def test_only_the_named_source_is_consulted(self, consulted):
        self._run("Plan: a\n#So1 = PERSONA[context]\nPlan: b\n#So2 = KNOWLEDGE[#So1]")
        assert [source for source, _ in consulted] == ["persona", "document"]

    def test_binds_one_variable_per_step_in_order(self):
        record = self._run(
            "Plan: a\n#So1 = PERSONA[context]\nPlan: b\n#So2 = DOCUMENT[context]\n"
            "Plan: c\n#So3 = PERSONA[#So2]",
            k=2,
        )
        assert record.evidence.variables() == ("So1", "So2", "So3")
        assert [record.evidence.get(v).source_name for v in ("So1", "So2", "So3")] == [
            "PERSONA",
            "DOCUMENT",
            "PERSONA",
        ]


class TestReactObservation:
    def _run(self, *steps):
        config = MethodConfig(method=Method.REACT, dataset_kind=SchemaKind.FOCUS)
        return run_method(_toy_sample(), config, QueueBackend(*steps))

    def test_tool_call_retrieves(self):
        record = self._run(
            "Thought: look\nAction: Knowledge[New Zealand]",
            "Thought: done\nAction: Finish[ok]",
        )
        evidence = record.evidence.get("Obs1")
        assert "Newton" in evidence.text()
        assert evidence.source_name == "Knowledge"
        assert evidence.resolved_query == "New Zealand"

    def test_context_argument_uses_dialogue(self, consulted):
        # "context" and an empty argument both query with the dialogue
        record = self._run(
            "Thought: a\nAction: Persona[context]",
            "Thought: b\nAction: Persona[ ]",
            "Thought: done\nAction: Finish[ok]",
        )
        dialogue = "USER: I know this place, but I don't remember."
        assert consulted == [("persona", dialogue), ("persona", dialogue)]
        assert "city" in record.evidence.text_of("Obs1")

    def test_unknown_tool(self):
        record = self._run("Thought: look\nAction: Web[x]")
        assert record.error.kind == "UnknownTool"
        assert len(record.evidence) == 0


class TestTpeFocusFlow:
    def test_exemplar_trace(self):
        samples = _focus_samples()
        config = MethodConfig(method=Method.TPE, dataset_kind=SchemaKind.FOCUS)
        record = run_method(samples[1], config, _replay())
        assert record.error is None
        assert record.sample_id == "f2"
        assert record.evidence.variables() == ("So1", "So2")
        steps = record.parsed_plan.steps
        assert [(s.source_name, s.output_var) for s in steps] == [
            ("PERSONA", "So1"),
            ("DOCUMENT", "So2"),
        ]
        assert record.response.startswith("It's called Newton")
        assert len(record.usages) == 3
        assert record.cost_usd > 0

    def test_executor_prompt_carries_both_evidence_texts(self):
        samples = _focus_samples()
        config = MethodConfig(method=Method.TPE, dataset_kind=SchemaKind.FOCUS)
        backend = _replay()
        requests = []
        original = backend.complete

        def tap(request):
            requests.append(request)
            return original(request)

        backend.complete = tap
        record = run_method(samples[1], config, backend)
        assert record.error is None
        executor_prompt = requests[-1].prompt_text
        first = record.evidence.text_of("So1")
        second = record.evidence.text_of("So2")
        assert first in executor_prompt and second in executor_prompt
        assert executor_prompt.index(first) < executor_prompt.index(second)


class TestTpeStrategyFlow:
    def test_response_is_exact_fragment_concatenation(self):
        samples = _cima_samples()
        config = MethodConfig(method=Method.TPE, dataset_kind=SchemaKind.CIMA)
        record = run_method(samples[0], config, _replay())
        assert record.error is None
        fragments = [step.fragment for step in record.parsed_plan]
        assert record.response == combine_middle(fragments)
        assert record.response == "box is scatola. Do you remember how to say the plant?"
        assert record.evidence.variables() == ("St1", "St2")

    def test_repeated_strategy_kept(self):
        backend = QueueBackend(
            "the thought",
            "Hint\nDo: one\nPlan: Question\nDo: two\nPlan: Hint\nDo: three",
        )
        config = MethodConfig(method=Method.TPE, dataset_kind=SchemaKind.CIMA)
        record = run_method(_cima_samples()[0], config, backend)
        assert [s.strategy_name for s in record.parsed_plan] == ["Hint", "Question", "Hint"]
        assert record.response == "one two three"


class TestFallbacks:
    def test_plan_parse_failure_keeps_raw_text(self):
        backend = QueueBackend("the thought", "no plan structure whatsoever")
        config = MethodConfig(method=Method.TPE, dataset_kind=SchemaKind.FOCUS)
        record = run_method(_focus_samples()[0], config, backend)
        assert record.error is not None
        assert record.error.kind == "ParseError"
        assert record.response == "no plan structure whatsoever"

    def test_unknown_tool_in_plan_falls_back(self):
        backend = QueueBackend("the thought", "Search.\n#So1 = WEB[context]")
        config = MethodConfig(method=Method.TPE, dataset_kind=SchemaKind.FOCUS)
        record = run_method(_focus_samples()[0], config, backend)
        assert record.error.kind == "UnknownTool"
        assert record.response == "Search.\n#So1 = WEB[context]"

    def test_backend_failure_captured_not_raised(self):
        backend = ReplayBackend([])  # every request misses
        config = MethodConfig(method=Method.COT, dataset_kind=SchemaKind.CIMA)
        record = run_method(_cima_samples()[0], config, backend)
        assert record.error.kind == "ReplayMiss"
        assert record.response == ""


class TestSlotNamesInText:
    """A "{name}" inside dialogue or model text is text, not a template slot."""

    def test_user_turn_naming_a_later_slot(self):
        sample = replace(
            _toy_sample(),
            dialogue=Dialogue(
                id="toy",
                utterances=(Utterance("USER", "what does {scratchpad} mean?"),),
                schema_kind=SchemaKind.FOCUS,
            ),
        )
        step = "Thought: look it up\nAction: Knowledge[Newton]"
        backend = QueueBackend(step, "Thought: done\nAction: Finish[A suburb.]")
        config = MethodConfig(method=Method.REACT, dataset_kind=SchemaKind.FOCUS)
        record = run_method(sample, config, backend)
        assert record.response == "A suburb."
        second = backend.requests[1].prompt_text
        assert "USER: what does {scratchpad} mean?" in second
        assert second.count("Action: Knowledge[Newton]") == 1

    def test_thought_naming_the_dialogue_slot(self):
        backend = QueueBackend("what does {dialogue} refer to?", "no plan")
        config = MethodConfig(method=Method.TPE, dataset_kind=SchemaKind.FOCUS)
        run_method(_toy_sample(), config, backend)
        planner_prompt = backend.requests[1].prompt_text
        assert "Thought: what does {dialogue} refer to?" in planner_prompt
        assert planner_prompt.count("I know this place, but I don't remember.") == 1


class TestReactFlow:
    def test_finish_sets_response(self):
        config = MethodConfig(method=Method.REACT, dataset_kind=SchemaKind.FOCUS)
        record = run_method(_focus_samples()[1], config, _replay())
        assert record.error is None
        assert record.response.startswith("It's called Newton")
        assert record.evidence.variables() == ("Obs1", "Obs2")

    def test_exhaustion_flags_record(self):
        loop_step = "Thought: still looking\nAction: Knowledge[The Arctic Cordillera]"
        backend = QueueBackend(*([loop_step] * 3))
        config = MethodConfig(
            method=Method.REACT, dataset_kind=SchemaKind.FOCUS, react_max_steps=3
        )
        record = run_method(_focus_samples()[0], config, backend)
        assert record.error.kind == "FallbackExhausted"
        assert record.response == loop_step
        assert len(backend.requests) == 3

    def test_exhaustion_after_observation_keeps_each_step_once(self):
        step = "Thought: look.\nAction: PERSONA[context]"
        config = MethodConfig(
            method=Method.REACT, dataset_kind=SchemaKind.FOCUS, react_max_steps=1
        )
        record = run_method(_focus_samples()[0], config, QueueBackend(step))
        assert record.error.kind == "FallbackExhausted"
        assert record.response == step
        observation = record.evidence.text_of("Obs1")
        assert record.raw_plan_text.count(step) == 1
        assert record.raw_plan_text == f"{step}\nObservation: {observation}"

    def test_exhaustion_after_fragment_keeps_each_step_once(self):
        step = "Thought: give a hint.\nAction: Hint"
        config = MethodConfig(
            method=Method.REACT, dataset_kind=SchemaKind.CIMA, react_max_steps=2
        )
        backend = QueueBackend(step, " box is scatola.")
        record = run_method(_cima_samples()[0], config, backend)
        assert record.error.kind == "FallbackExhausted"
        assert record.response == step
        assert record.raw_plan_text == f"{step}\nObservation: box is scatola."
        assert [s.strategy_name for s in record.parsed_plan] == ["Hint"]

    def test_call_budget_never_exceeded(self):
        # strategy dataset: every action costs a fragment call too
        step = "Thought: hint again\nAction: Hint"
        backend = QueueBackend(*([step, "a fragment"] * 10))
        config = MethodConfig(
            method=Method.REACT, dataset_kind=SchemaKind.CIMA, react_max_steps=5
        )
        record = run_method(_cima_samples()[0], config, backend)
        assert len(backend.requests) <= config.react_max_steps + 2
        assert record.error.kind == "FallbackExhausted"

    def test_strategy_loop_composes_via_final_call(self):
        config = MethodConfig(method=Method.REACT, dataset_kind=SchemaKind.CIMA)
        record = run_method(_cima_samples()[0], config, _replay())
        assert record.error is None
        assert record.response == "box is scatola. Do you remember how to say the plant?"
        assert [s.strategy_name for s in record.parsed_plan] == ["Hint", "Question"]


class TestOtherBaselines:
    def test_cot_focus_fixed_retrieval_order(self):
        config = MethodConfig(method=Method.COT, dataset_kind=SchemaKind.FOCUS)
        record = run_method(_focus_samples()[1], config, _replay())
        assert record.error is None
        assert record.evidence.variables() == ("K1", "K2")
        assert record.evidence.get("K1").source_name == "persona"
        assert len(record.usages) == 1

    def test_rewoo_two_calls(self):
        config = MethodConfig(method=Method.REWOO, dataset_kind=SchemaKind.FOCUS)
        record = run_method(_focus_samples()[1], config, _replay())
        assert record.error is None
        assert record.evidence.variables() == ("E1", "E2")
        assert len(record.usages) == 2

    def test_chameleon_focus_runs_planned_modules(self):
        config = MethodConfig(method=Method.CHAMELEON, dataset_kind=SchemaKind.FOCUS)
        record = run_method(_focus_samples()[2], config, _replay())
        assert record.error is None
        assert record.parsed_plan == (
            "Knowledge_Retrieval", "Persona_Retrieval", "Answer_Generator",
        )
        assert record.evidence.get("K1").source_name == "document"
        assert record.evidence.get("K2").source_name == "persona"

    def test_chameleon_cima_concatenates_module_outputs(self):
        config = MethodConfig(method=Method.CHAMELEON, dataset_kind=SchemaKind.CIMA)
        record = run_method(_cima_samples()[0], config, _replay())
        assert record.error is None
        assert record.response == "box is scatola. Do you remember how to say the plant?"
        assert len(record.usages) == 3  # planner + two strategy modules

    def test_chameleon_default_source_order_when_plan_has_no_retrieval(self):
        backend = QueueBackend(' ["Answer_Generator"]', "the answer")
        config = MethodConfig(method=Method.CHAMELEON, dataset_kind=SchemaKind.FOCUS)
        record = run_method(_focus_samples()[0], config, backend)
        assert record.error is None
        assert [record.evidence.get(v).source_name for v in record.evidence.variables()] == [
            "persona",
            "document",
        ]

    def test_cuecot_two_calls_and_status(self):
        config = MethodConfig(method=Method.CUECOT, dataset_kind=SchemaKind.CIMA)
        record = run_method(_cima_samples()[0], config, _replay())
        assert record.error is None
        assert record.thought is not None
        assert len(record.usages) == 2


class TestAblations:
    def test_tool_examples_flag_touches_only_toolset_block(self):
        responses = ("the thought", "Search.\n#So1 = PERSONA[context]", "resp")
        sample = _focus_samples()[0]
        prompts = {}
        for flag in (False, True):
            backend = QueueBackend(*responses)
            config = MethodConfig(
                method=Method.TPE,
                dataset_kind=SchemaKind.FOCUS,
                include_tool_examples=flag,
            )
            run_method(sample, config, backend)
            prompts[flag] = backend.requests[1].prompt_text
        lines_off = render_toolset(FOCUS_SOURCES, include_examples=False)
        lines_on = render_toolset(FOCUS_SOURCES, include_examples=True)
        assert prompts[False] != prompts[True]
        assert prompts[False].replace(lines_off, lines_on) == prompts[True]

    def test_thought_flags_drop_sections(self):
        responses = ("the thought", "Search.\n#So1 = PERSONA[context]", "resp")
        sample = _focus_samples()[0]
        backend = QueueBackend(*responses)
        config = MethodConfig(
            method=Method.TPE,
            dataset_kind=SchemaKind.FOCUS,
            include_thought_in_planner=False,
            include_thought_in_executor=False,
        )
        run_method(sample, config, backend)
        planner_prompt = backend.requests[1].prompt_text
        executor_prompt = backend.requests[2].prompt_text
        assert "Thought:" not in planner_prompt
        assert "Thought:" not in executor_prompt

    def test_zero_shot_demo_override(self):
        backend = QueueBackend("the answer")
        config = MethodConfig(
            method=Method.COT, dataset_kind=SchemaKind.CIMA, demo_count=0
        )
        record = run_method(_cima_samples()[0], config, backend)
        assert record.error is None
        assert "Here are some examples" not in backend.requests[0].prompt_text
        assert backend.requests[0].prompt_text.count("Dialogue:") == 1


class TestPsyqaFlows:
    """The counseling dataset reuses the strategy pipelines end to end."""

    def _sample(self):
        from conductor.data import sample_from_obj

        return sample_from_obj(
            {
                "id": "p1",
                "dialogue": [{"speaker": "Seeker", "text": "最近我总是失眠，压力很大。"}],
                "gold_response": "你的感受是完全可以理解的。",
                "gold_strategies": ["Approval and Reassurance", "Direct Guidance"],
            },
            SchemaKind.PSYQA,
        )

    def test_tpe_strategy_plan(self):
        backend = QueueBackend(
            "the seeker is stressed and sleepless",
            "Approval and Reassurance\nDo: 你的感受是完全可以理解的。\n"
            "Plan: Direct Guidance\nDo: 建议你睡前放下手机。",
        )
        config = MethodConfig(method=Method.TPE, dataset_kind=SchemaKind.PSYQA)
        record = run_method(self._sample(), config, backend)
        assert record.error is None
        assert record.response == "你的感受是完全可以理解的。 建议你睡前放下手机。"
        assert [s.strategy_name for s in record.parsed_plan] == [
            "Approval and Reassurance",
            "Direct Guidance",
        ]

    def test_cot_cuecot_react_chameleon_run(self):
        sample = self._sample()
        flows = {
            Method.COT: QueueBackend("回应"),
            Method.CUECOT: QueueBackend("状态", "回应"),
            Method.REACT: QueueBackend(
                "Thought: reassure first\nAction: Approval and Reassurance",
                "你的感受是完全可以理解的。",
                "Thought: compose\nAction: Response",
                "你的感受是完全可以理解的。",
            ),
            Method.CHAMELEON: QueueBackend(
                "['Approval and Reassurance', 'Direct Guidance']",
                "你的感受是完全可以理解的。",
                "建议你睡前放下手机。",
            ),
        }
        for method, backend in flows.items():
            config = MethodConfig(method=method, dataset_kind=SchemaKind.PSYQA)
            record = run_method(sample, config, backend)
            assert record.error is None, (method, record.error)
            assert record.response
            assert not backend.queue


class TestKSweep:
    def test_retrieval_hits_non_decreasing_in_k(self):
        from conductor.evalmetrics import retrieval_accuracy

        sample = _focus_samples()[1]
        responses = (
            "the thought about memories",
            "Search.\n#So1 = PERSONA[context]\nPlan: more\n#So2 = DOCUMENT[#So1]",
            "resp",
        )
        golds_p = {sample.id: sample.gold_persona_texts()}
        golds_d = {sample.id: sample.gold_document_texts()}
        hits = []
        for k in (1, 4):
            config = MethodConfig(
                method=Method.TPE, dataset_kind=SchemaKind.FOCUS, k_retrieved=k
            )
            record = run_method(sample, config, QueueBackend(*responses))
            assert record.error is None
            persona_hits, document_hits = retrieval_accuracy([record], golds_p, golds_d)
            hits.append((persona_hits, document_hits))
        assert hits[1][0] >= hits[0][0]
        assert hits[1][1] >= hits[0][1]


class TestMethodConfig:
    def test_k_must_be_positive(self):
        with pytest.raises(ConfigError):
            MethodConfig(method=Method.TPE, dataset_kind=SchemaKind.FOCUS, k_retrieved=0)

    def test_react_steps_must_be_positive(self):
        with pytest.raises(ConfigError):
            MethodConfig(
                method=Method.REACT, dataset_kind=SchemaKind.CIMA, react_max_steps=0
            )

    @pytest.mark.parametrize(
        "method,kind,supported",
        [
            (Method.CUECOT, SchemaKind.FOCUS, "cima, psyqa"),
            (Method.REWOO, SchemaKind.CIMA, "focus"),
            (Method.REWOO, SchemaKind.PSYQA, "focus"),
        ],
    )
    def test_unsupported_pair_names_the_supported_kinds(self, method, kind, supported):
        with pytest.raises(ConfigError, match=f"supported kinds: {supported}"):
            MethodConfig(method=method, dataset_kind=kind)

    @pytest.mark.parametrize("count", [9, -1])
    def test_demo_count_beyond_the_bank_fails_up_front(self, count):
        with pytest.raises(ConfigError, match="out of range"):
            MethodConfig(method=Method.TPE, dataset_kind=SchemaKind.FOCUS, demo_count=count)

class _FaultyBackend(Backend):
    """Replays the fixtures and keeps every prompt, but raises a non-conductor
    error for the prompt `fault`."""

    def __init__(self, fault: str | None = None):
        self.inner = _replay()
        self.fault = fault
        self.prompts = []

    def complete(self, request):
        self.prompts.append(request.prompt_text)
        if request.prompt_text == self.fault:
            raise RuntimeError("injected fault")
        return self.inner.complete(request)


class TestBatch:
    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_unexpected_exception_becomes_one_record(self, parallelism, tmp_path):
        samples = _focus_samples()
        config = MethodConfig(method=Method.TPE, dataset_kind=SchemaKind.FOCUS)
        probe = _FaultyBackend()
        run_method(samples[1], config, probe)
        clean = run_batch(samples, config, _replay())
        faulty = _FaultyBackend(fault=probe.prompts[0])
        records = run_batch(samples, config, faulty, parallelism=parallelism)
        assert [r.sample_id for r in records] == ["f1", "f2", "f3"]
        assert records[1].error == ErrorInfo("InternalError", "RuntimeError: injected fault")
        assert records[0] == clean[0] and records[2] == clean[2]
        path = tmp_path / "records.jsonl"
        export_records(records, str(path))
        assert load_records(str(path)) == records

    @pytest.mark.parametrize("parallelism", [0, -5])
    def test_parallelism_below_one_fails_before_any_call(self, parallelism):
        backend = _FaultyBackend()
        config = MethodConfig(method=Method.TPE, dataset_kind=SchemaKind.FOCUS)
        with pytest.raises(ConfigError, match="parallelism must be >= 1"):
            run_batch(_focus_samples(), config, backend, parallelism=parallelism)
        assert backend.prompts == []

    def test_parallel_equals_serial(self):
        samples = _focus_samples()
        config = MethodConfig(method=Method.TPE, dataset_kind=SchemaKind.FOCUS)
        serial = run_batch(samples, config, _replay(), parallelism=1)
        parallel = run_batch(samples, config, _replay(), parallelism=3)
        assert serial == parallel
        assert [r.sample_id for r in parallel] == ["f1", "f2", "f3"]

    def test_corpora_built_per_sample(self):
        sample = _focus_samples()[0]
        config = MethodConfig(method=Method.COT, dataset_kind=SchemaKind.FOCUS, k_retrieved=20)
        run = _Run(sample, config, QueueBackend())
        personas = run.retrieve("K1", "persona", run.context_text)
        documents = run.retrieve("K2", "document", run.context_text)
        assert sorted(doc_id for doc_id, _, _ in personas.passages) == [
            f"persona-{i:02d}" for i in range(5)
        ]
        assert sorted(doc_id for doc_id, _, _ in documents.passages) == [
            f"document-{i:02d}" for i in range(10)
        ]

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_unpriced_model_fails_before_any_call(self, parallelism):
        backend = QueueBackend("a reply that must never be asked for")
        config = MethodConfig(
            method=Method.COT, dataset_kind=SchemaKind.CIMA, model_id="no-such-model"
        )
        with pytest.raises(UnpricedModel, match="no-such-model"):
            run_batch(_cima_samples(), config, backend, parallelism=parallelism)
        assert backend.requests == []
