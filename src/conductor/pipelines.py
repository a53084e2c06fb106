"""Execution of the multi-persona pipeline and its five baselines.

`FLOWS` holds one flow per supported (method, dataset shape) pair; each
maps a sample to a RunRecord through a fixed call pattern:

* tpe (multi-source): thinker -> planner -> execute plan -> executor.
* tpe (multi-strategy): thinker -> one merged planner/executor call whose
  parsed fragments concatenate into the response (no rewriting).
* cot: fixed-order retrieval (multi-source only), then a single call.
* cuecot (multi-strategy only): status inference call, then a response
  call conditioned on it.
* react: interleaved thought/action/observation loop with a hard call budget.
* rewoo (multi-source only): one planner call, execute all steps, one
  solver call.
* chameleon: one module-sequence call, then per-module execution; strategy
  modules run independently (deliberately: that independence is the
  baseline's known weakness and is preserved, not fixed).

Every retrieval, whichever flow asks for it, goes through `_Run.retrieve`.
A pair missing from `FLOWS` is a ConfigError when the MethodConfig is built.

Failures never abort a batch: parse and execution errors are captured in
the record's error descriptor, and plan-shaped methods fall back to
treating the raw generation as the response so corpus metrics stay
computable.
"""

from __future__ import annotations

import logging
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

from conductor.backend import (
    Backend,
    CompletionRequest,
    DEFAULT_PRICES,
    Generation,
    PriceTable,
    compute_cost,
)
from conductor.core import (
    ErrorInfo,
    Evidence,
    EvidenceStore,
    RunRecord,
    SchemaKind,
    Thought,
    ToolSet,
    load_template,
    render_demo_slot,
    render_demonstration,
    render_dialogue,
    render_extras,
    render_toolset,
)
from conductor.data import Sample, select_demonstrations
from conductor.errors import (
    ConductorError,
    ConfigError,
    EmptyPlan,
    ParseError,
    UnknownTool,
)
from conductor.plangrammar import (
    Finish,
    ReActStep,
    StrategyPlanStep,
    ToolCall,
    parse_module_list,
    parse_react_step,
    parse_source_plan,
    parse_strategy_plan,
    substitute_vars,
)
from conductor.profiles import DatasetProfile, profile_for
from conductor.retrieval import Bm25Retriever, Corpus, enrich_query

_log = logging.getLogger(__name__)

FEWSHOT_STOP = ("Dialogue:",)
REACT_STOP = ("Observation:", "Dialogue:")
FRAGMENT_STOP = ("Thought:", "Action:", "Dialogue:")

TPE_SIGIL = "#So"
REWOO_SIGIL = "#E"


class Method(Enum):
    TPE = "tpe"
    COT = "cot"
    REACT = "react"
    REWOO = "rewoo"
    CHAMELEON = "chameleon"
    CUECOT = "cuecot"


@dataclass(frozen=True)
class MethodConfig:
    method: Method
    dataset_kind: SchemaKind
    model_id: str = "gpt-3.5-turbo"
    demo_count: int | None = None  # None = the full committed bank
    k_retrieved: int = 1
    include_thought_in_planner: bool = True
    include_thought_in_executor: bool = True
    include_tool_examples: bool = False
    include_tool_descriptions: bool = True
    enrich_query_with_status: bool = True
    react_max_steps: int = 8

    def __post_init__(self) -> None:
        if self.k_retrieved < 1:
            raise ConfigError("k_retrieved must be >= 1")
        if self.react_max_steps < 1:
            raise ConfigError("react_max_steps must be >= 1")
        supported = [
            kind
            for kind in SchemaKind
            if (self.method, profile_for(kind).is_multi_source) in FLOWS
        ]
        if self.dataset_kind not in supported:
            raise ConfigError(
                f"{self.method.value} does not run on {self.dataset_kind.value} "
                f"(supported kinds: {', '.join(kind.value for kind in supported)})"
            )


def combine_middle(fragments: Sequence[str]) -> str:
    """Concatenate strategy fragments, in order, with single spaces."""
    if not fragments:
        raise EmptyPlan("no fragments to combine")
    return " ".join(fragments)


_BARE_ASSIGNMENT = re.compile(r"^\s*#\w+\s*=")


def with_cue(cue: str, generation: str) -> str:
    """Re-prefix the prompt's trailing cue label onto a generation so the
    parser sees the same labeled text the committed grammar describes."""
    text = generation.strip()
    if text.startswith(cue):
        return text
    first_line = text.split("\n")[0] if text else ""
    if _BARE_ASSIGNMENT.match(first_line):
        return text
    return f"{cue} {text}" if text else cue


# ---------------------------------------------------------------------------
# Runner


class _Run:
    """Per-sample execution state: backend calls, evidence, trace fields."""

    def __init__(self, sample: Sample, config: MethodConfig, backend: Backend):
        self.sample = sample
        self.config = config
        self.backend = backend
        self.profile: DatasetProfile = profile_for(config.dataset_kind)
        self.context_text = render_dialogue(sample.dialogue)
        self.retrievers: dict[str, Bm25Retriever] = {}
        self.generations: list[Generation] = []
        self.thought: Thought | None = None
        self.raw_plan_text = ""
        self.parsed_plan = None
        self.store = EvidenceStore()
        self.response = ""
        self.error: ErrorInfo | None = None

    def complete(self, prompt: str, stop: tuple[str, ...] = FEWSHOT_STOP) -> str:
        request = CompletionRequest.from_prompt(prompt, self.config.model_id, stop=stop)
        generation = self.backend.complete(request)
        self.generations.append(generation)
        return generation.text

    def demo_slot(self, method: str, view: str, include_thought: bool = True) -> str:
        demos = select_demonstrations(
            self.config.dataset_kind, method, count=self.config.demo_count
        )
        return render_demo_slot(
            render_demonstration(demo, view, include_thought=include_thought)
            for demo in demos
        )

    def toolset_lines(self, toolset: ToolSet) -> str:
        return render_toolset(
            toolset,
            include_examples=self.config.include_tool_examples,
            include_descriptions=self.config.include_tool_descriptions,
        )

    def enriched_context(self) -> str:
        status = None
        if self.config.enrich_query_with_status and self.thought is not None:
            status = self.thought.text
        return enrich_query(self.context_text, status)

    def retrieve(self, variable: str, label: str, query: str) -> Evidence:
        """Bind the top-k passages for `query` to `variable`.

        `label` names the source as the plan (or module list, or action)
        wrote it; the profile's aliases resolve it, and it is kept verbatim
        on the evidence. Each source's index is built at most once per run,
        from the sample's candidates.
        """
        source = self.profile.resolve_source(label)
        retriever = self.retrievers.get(source)
        if retriever is None:
            texts = {
                "persona": self.sample.persona_candidates,
                "document": self.sample.document_candidates,
            }[source]
            if not texts:
                raise UnknownTool(label)
            docs = tuple((f"{source}-{i:02d}", text) for i, text in enumerate(texts))
            retriever = self.retrievers[source] = Bm25Retriever(Corpus(source, docs))
        passages = retriever.retrieve(query, self.config.k_retrieved)
        evidence = Evidence(
            variable=variable,
            source_name=label,
            resolved_query=query,
            passages=tuple(passages),
        )
        self.store.bind(variable, evidence)
        return evidence

    def fail(self, exc: ConductorError, fallback_response: str = "") -> None:
        self.error = ErrorInfo(kind=type(exc).__name__, detail=str(exc))
        if fallback_response and not self.response:
            self.response = fallback_response

    def flag(self, kind: str, detail: str) -> None:
        self.error = ErrorInfo(kind=kind, detail=detail)


def run_method(
    sample: Sample,
    config: MethodConfig,
    backend: Backend,
    prices: PriceTable = DEFAULT_PRICES,
) -> RunRecord:
    """Execute one sample through the configured pipeline.

    Backend and plan failures are captured in the record's error field, and
    any other exception as an "InternalError" whose traceback is logged; a
    batch never aborts on a single sample.
    """
    run = _Run(sample, config, backend)
    try:
        FLOWS[config.method, run.profile.is_multi_source](run)
    except ConductorError as exc:
        run.fail(exc)
    except Exception as exc:  # a defect must not lose the batch's other records
        _log.exception("sample %s failed", sample.id)
        run.flag("InternalError", f"{type(exc).__name__}: {exc}")
    if run.error is None and not run.response:
        run.flag("EmptyResponse", "pipeline produced an empty response")
    usages = tuple(g.usage() for g in run.generations)
    return RunRecord(
        sample_id=sample.id,
        method=config.method.value,
        kind=config.dataset_kind,
        thought=run.thought,
        raw_plan_text=run.raw_plan_text,
        parsed_plan=run.parsed_plan,
        evidence=run.store,
        response=run.response,
        usages=usages,
        cost_usd=compute_cost(usages, prices),
        error=run.error,
    )


def run_batch(
    samples: Sequence[Sample],
    config: MethodConfig,
    backend: Backend,
    prices: PriceTable = DEFAULT_PRICES,
    parallelism: int = 1,
) -> list[RunRecord]:
    """Run all samples, optionally in parallel; output keeps input order."""

    def one(sample: Sample) -> RunRecord:
        return run_method(sample, config, backend, prices)

    if parallelism <= 1:
        return [one(sample) for sample in samples]
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        return list(pool.map(one, samples))


# ---------------------------------------------------------------------------
# Method flows


def _think(run: _Run) -> str:
    prompt = load_template("tpe_thinker").render(
        persona=run.profile.personas["thinker"],
        demos=run.demo_slot("tpe", "thinker"),
        extras="",
        dialogue=run.context_text,
    )
    text = run.complete(prompt).strip()
    run.thought = Thought(text) if text else None
    return text


def _planner_extras(run: _Run, thought: str) -> str:
    if run.config.include_thought_in_planner and thought:
        return render_extras([("Thought", thought)])
    return ""


def _knowledge_text(store: EvidenceStore) -> str:
    return " ".join(store.text_of(variable) for variable in store.variables())


def _execute_source_plan(run: _Run, raw: str, sigil: str, context_text: str) -> bool:
    """Parse a planner's source plan and retrieve its steps in order, each
    query resolved against the earlier bindings and `context_text`. On any
    failure the evidence is left empty and the raw generation becomes the
    response; returns whether the plan ran to the end."""
    run.raw_plan_text = with_cue("Plan:", raw)
    try:
        program = parse_source_plan(run.raw_plan_text, sigil)
        run.parsed_plan = program
        for step in program.steps:
            query = substitute_vars(step.query, run.store, context_text)
            run.retrieve(step.output_var, step.source_name, query)
    except ConductorError as exc:
        run.store = EvidenceStore()
        run.fail(exc, fallback_response=raw.strip())
        return False
    return True


def _run_tpe_sources(run: _Run) -> None:
    thought = _think(run)
    planner_prompt = load_template("tpe_planner_focus").render(
        persona=run.profile.personas["planner"],
        toolset=run.toolset_lines(run.profile.source_toolset),
        demos=run.demo_slot(
            "tpe", "planner", include_thought=run.config.include_thought_in_planner
        ),
        extras=_planner_extras(run, thought),
        dialogue=run.context_text,
    )
    raw = run.complete(planner_prompt)
    if not _execute_source_plan(run, raw, TPE_SIGIL, run.enriched_context()):
        return
    executor_extras = [("Source Knowledge", _knowledge_text(run.store))]
    if run.config.include_thought_in_executor and thought:
        executor_extras.append(("Thought", thought))
    executor_prompt = load_template("response").render(
        persona=run.profile.personas["executor"],
        demos="",
        extras=render_extras(executor_extras),
        dialogue=run.context_text,
    )
    run.response = run.complete(executor_prompt).strip()


def _run_tpe_strategies(run: _Run) -> None:
    thought = _think(run)
    prompt = load_template(f"tpe_plannerexec_{run.config.dataset_kind.value}").render(
        persona=run.profile.personas["planner_executor"],
        toolset=run.toolset_lines(run.profile.strategy_toolset),
        demos=run.demo_slot(
            "tpe", "planner", include_thought=run.config.include_thought_in_planner
        ),
        extras=_planner_extras(run, thought),
        dialogue=run.context_text,
    )
    raw = run.complete(prompt)
    run.raw_plan_text = with_cue("Plan:", raw)
    try:
        steps = parse_strategy_plan(run.raw_plan_text)
    except ParseError as exc:
        run.fail(exc, fallback_response=raw.strip())
        return
    run.parsed_plan = steps
    for i, step in enumerate(steps, start=1):
        run.store.bind(f"St{i}", step.fragment)
    run.response = combine_middle([step.fragment for step in steps])


def _run_cot(run: _Run) -> None:
    extras = []
    if run.profile.is_multi_source:
        # Fixed source order, dialogue context as the query for both calls.
        for i, source in enumerate(("persona", "document"), start=1):
            run.retrieve(f"K{i}", source, run.context_text)
        extras.append(("Source Knowledge", _knowledge_text(run.store)))
    prompt = load_template("response").render(
        persona=run.profile.personas["cot"],
        demos=run.demo_slot("cot", "response"),
        extras=render_extras(extras),
        dialogue=run.context_text,
    )
    run.response = run.complete(prompt).strip()


def _run_cuecot(run: _Run) -> None:
    status_prompt = load_template("cuecot_status").render(
        persona=run.profile.personas["thinker"],
        demos=run.demo_slot("cuecot", "status"),
        extras="",
        dialogue=run.context_text,
    )
    status = run.complete(status_prompt).strip()
    if status:
        run.thought = Thought(status)
    response_prompt = load_template("cuecot_response").render(
        persona=run.profile.personas["cot"],
        demos=run.demo_slot("cuecot", "status_response"),
        extras=render_extras([("Status", status)] if status else []),
        dialogue=run.context_text,
    )
    run.response = run.complete(response_prompt).strip()


def _run_rewoo(run: _Run) -> None:
    planner_prompt = load_template("rewoo_planner_focus").render(
        demos=run.demo_slot("rewoo", "rewoo"),
        dialogue=run.context_text,
    )
    raw = run.complete(planner_prompt)
    if not _execute_source_plan(run, raw, REWOO_SIGIL, run.context_text):
        return
    solver_prompt = load_template("rewoo_solver_focus").render(
        persona=run.profile.personas["executor"],
        extras=render_extras([("Source Knowledge", _knowledge_text(run.store))]),
        dialogue=run.context_text,
    )
    run.response = run.complete(solver_prompt).strip()


def _plan_modules(
    run: _Run, toolset: ToolSet, cue: str, view: str
) -> tuple[str, ...] | None:
    """Chameleon's module-sequence call; None (record failed) when the
    generation holds no module list."""
    planner_prompt = load_template(f"chameleon_planner_{view}").render(
        persona=run.profile.personas["chameleon"],
        toolset=run.toolset_lines(toolset),
        demos=run.demo_slot("chameleon", view),
        dialogue=run.context_text,
    )
    raw = run.complete(planner_prompt)
    run.raw_plan_text = with_cue(cue, raw)
    try:
        return parse_module_list(run.raw_plan_text)
    except ParseError as exc:
        run.fail(exc, fallback_response=raw.strip())
        return None


def _run_chameleon_sources(run: _Run) -> None:
    names = _plan_modules(run, run.profile.module_toolset, "Modules:", "modules")
    if names is None:
        return
    run.parsed_plan = names
    retrieval_order: list[str] = []
    for name in names:
        try:
            retrieval_order.append(run.profile.resolve_source(name))
        except UnknownTool:
            continue  # Answer_Generator and unplanned module names are skipped
    for i, source in enumerate(retrieval_order or ("persona", "document"), start=1):
        run.retrieve(f"K{i}", source, run.context_text)
    answer_prompt = load_template("response").render(
        persona=run.profile.personas["executor"],
        demos=run.demo_slot("cot", "response"),
        extras=render_extras([("Source Knowledge", _knowledge_text(run.store))]),
        dialogue=run.context_text,
    )
    run.response = run.complete(answer_prompt).strip()


def _run_chameleon_strategies(run: _Run) -> None:
    names = _plan_modules(
        run, run.profile.strategy_toolset, "Strategies:", "strategies"
    )
    if names is None:
        return
    template = load_template("chameleon_strategy")
    steps: list[StrategyPlanStep] = []
    for i, name in enumerate(
        (n for n in names if n != "Answer_Generator"), start=1
    ):
        tool = run.profile.strategy_toolset.get(name)
        demo_blocks = (
            [f"Dialogue: {inp}\n{name}: {out}" for inp, out in tool.examples]
            if tool is not None
            else []
        )
        prompt = template.render(
            demos=render_demo_slot(demo_blocks),
            dialogue=run.context_text,
            strategy=name,
        )
        fragment = run.complete(prompt).strip()
        if not fragment:
            continue
        steps.append(StrategyPlanStep(strategy_name=name, fragment=fragment))
        run.store.bind(f"St{i}", fragment)
    if not steps:
        run.flag("EmptyPlan", "no strategy module produced a fragment")
        return
    run.parsed_plan = tuple(steps)
    run.response = combine_middle([step.fragment for step in steps])


def _run_react(run: _Run) -> None:
    template = load_template(f"react_{run.config.dataset_kind.value}")
    demos = run.demo_slot("react", "react")
    scratchpad = ""
    calls_used = 0
    last_text = ""
    obs_count = 0
    strategy_steps: list[StrategyPlanStep] = []

    def render_prompt() -> str:
        return template.render(demos=demos, dialogue=run.context_text, scratchpad=scratchpad)

    while calls_used < run.config.react_max_steps:
        generation = run.complete(render_prompt(), stop=REACT_STOP)
        calls_used += 1
        last_text = generation.strip()
        try:
            step: ReActStep = parse_react_step(generation)
        except ParseError as exc:
            run.raw_plan_text = scratchpad + last_text
            run.fail(exc, fallback_response=last_text)
            return
        if isinstance(step.action, Finish):
            scratchpad += last_text + "\n"
            run.raw_plan_text = scratchpad.rstrip("\n")
            if strategy_steps:
                run.parsed_plan = tuple(strategy_steps)
            run.response = step.action.response.strip()
            return
        if isinstance(step.action, ToolCall):
            # "context" (or nothing) as the argument queries with the dialogue.
            query = step.action.argument.strip()
            if query in ("context", ""):
                query = run.context_text
            try:
                evidence = run.retrieve(f"Obs{obs_count + 1}", step.action.name, query)
            except UnknownTool as exc:
                run.raw_plan_text = scratchpad + last_text
                run.fail(exc, fallback_response=last_text)
                return
            obs_count += 1
            scratchpad += f"{last_text}\nObservation: {evidence.text()}\n"
            continue
        # Strategy call: either compose the final response or ask the model
        # for the strategy's fragment as the next observation.
        if step.action.name == "Response":
            scratchpad += f"{last_text}\nResponse:"
            run.raw_plan_text = scratchpad[: -len("\nResponse:")]
            if strategy_steps:
                run.parsed_plan = tuple(strategy_steps)
            run.response = run.complete(render_prompt(), stop=FEWSHOT_STOP).strip()
            return
        if calls_used >= run.config.react_max_steps:
            break
        scratchpad += f"{last_text}\nObservation:"
        fragment = run.complete(render_prompt(), stop=FRAGMENT_STOP).strip()
        calls_used += 1
        scratchpad += f" {fragment}\n"
        obs_count += 1
        run.store.bind(f"St{obs_count}", fragment)
        if fragment:
            strategy_steps.append(
                StrategyPlanStep(strategy_name=step.action.name, fragment=fragment)
            )

    run.raw_plan_text = (scratchpad + last_text).rstrip("\n")
    if strategy_steps:
        run.parsed_plan = tuple(strategy_steps)
    run.response = last_text
    run.flag(
        "FallbackExhausted",
        f"no Finish after {run.config.react_max_steps} calls; "
        "last generation used as the response",
    )


# The supported pairs: (method, dataset is multi-source) -> flow.
FLOWS: dict[tuple[Method, bool], Callable[[_Run], None]] = {
    (Method.TPE, True): _run_tpe_sources,
    (Method.TPE, False): _run_tpe_strategies,
    (Method.COT, True): _run_cot,
    (Method.COT, False): _run_cot,
    (Method.REACT, True): _run_react,
    (Method.REACT, False): _run_react,
    (Method.REWOO, True): _run_rewoo,
    (Method.CHAMELEON, True): _run_chameleon_sources,
    (Method.CHAMELEON, False): _run_chameleon_strategies,
    (Method.CUECOT, False): _run_cuecot,
}
