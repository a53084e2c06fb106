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

Every prompt is rendered by `_Run.prompt` and every retrieval, whichever
flow asks for it, goes through `_Run.retrieve`. A pair missing from `FLOWS`
is a ConfigError when the MethodConfig is built, and a model missing from
the price table is an UnpricedModel before the first backend call.

Failures never abort a batch, and every plan fails one way: a source plan,
strategy plan or module list that does not parse or names an unknown tool
fails the record with its evidence dropped and the raw generation as the
response, so corpus metrics stay computable (`_parse_plan`). A react step
that does so fails the same way but keeps the observations made before it.
Other errors, such as a backend failure, are recorded with no fallback
response.
"""

from __future__ import annotations

import logging
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Iterable, Sequence

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
    PromptTemplate,
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
    SourcePlanProgram,
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
        if self.demo_count is not None:
            # fail up front on a count the (kind, method) bank cannot satisfy
            select_demonstrations(self.dataset_kind, self.method.value, count=self.demo_count)


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

    def prompt(
        self,
        template: PromptTemplate,
        persona: str | None = None,
        demos: str = "",
        extras: Iterable[tuple[str, str]] = (),
        **slots: str,
    ) -> str:
        """`template` rendered for this sample: the named profile persona,
        the demo slot, the labeled extra lines and the dialogue, plus any
        template-specific `slots`. Values a template has no slot for are
        ignored."""
        if persona is not None:
            slots["persona"] = self.profile.personas[persona]
        return template.render(
            demos=demos,
            extras=render_extras(extras),
            dialogue=self.context_text,
            **slots,
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
        self.response = self.response or fallback_response

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
    batch never aborts on a single sample. A model the price table lacks
    raises UnpricedModel before any backend call is made.
    """
    prices.rate_for(config.model_id)
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


def _think(run: _Run, template: str, method: str, view: str) -> str:
    """The thinker (or status) call; a non-blank output becomes the thought."""
    prompt = run.prompt(load_template(template), "thinker", run.demo_slot(method, view))
    text = run.complete(prompt).strip()
    run.thought = Thought(text) if text else None
    return text


def _think_and_plan(
    run: _Run, template: str, persona: str, toolset: ToolSet
) -> tuple[str, str]:
    """tpe's thinker call, then its planner call: (thought, raw plan)."""
    thought = _think(run, "tpe_thinker", "tpe", "thinker")
    include = run.config.include_thought_in_planner
    prompt = run.prompt(
        load_template(template),
        persona,
        run.demo_slot("tpe", "planner", include_thought=include),
        [("Thought", thought)] if include and thought else (),
        toolset=run.toolset_lines(toolset),
    )
    return thought, run.complete(prompt)


def _parse_plan(run: _Run, cue: str, raw: str, parse: Callable[[str], Any]) -> Any:
    """`parse` of a plan generation, re-prefixed with its prompt's `cue`
    and kept as the record's raw plan; None once the record has failed.

    This is the one plan failure policy: on any ConductorError (parsing, or
    executing inside `parse`) the evidence is dropped, the error is
    recorded and the raw generation becomes the response."""
    run.raw_plan_text = with_cue(cue, raw)
    try:
        return parse(run.raw_plan_text)
    except ConductorError as exc:
        run.store = EvidenceStore()
        run.fail(exc, fallback_response=raw.strip())
        return None


def _run_source_plan(run: _Run, raw: str, sigil: str, context_text: str) -> bool:
    """Parse a source plan and retrieve its steps in order, each query
    resolved against the earlier bindings and `context_text`; returns
    whether the plan ran to the end."""

    def execute(text: str) -> SourcePlanProgram:
        run.parsed_plan = program = parse_source_plan(text, sigil)
        for step in program.steps:
            query = substitute_vars(step.query, run.store, context_text)
            run.retrieve(step.output_var, step.source_name, query)
        return program

    return _parse_plan(run, "Plan:", raw, execute) is not None


def _retrieve_context(run: _Run, sources: Sequence[str]) -> None:
    """Retrieve each source in order with the dialogue as the query."""
    for i, source in enumerate(sources, start=1):
        run.retrieve(f"K{i}", source, run.context_text)


def _answer(
    run: _Run,
    template: str,
    persona: str,
    demos: str = "",
    extras: Sequence[tuple[str, str]] = (),
) -> None:
    """The response call; on a multi-source kind the bound evidence leads
    the extras as "Source Knowledge"."""
    if run.profile.is_multi_source:
        knowledge = " ".join(map(run.store.text_of, run.store.variables()))
        extras = [("Source Knowledge", knowledge), *extras]
    prompt = run.prompt(load_template(template), persona, demos, extras)
    run.response = run.complete(prompt).strip()


def _run_tpe_sources(run: _Run) -> None:
    thought, raw = _think_and_plan(
        run, "tpe_planner_focus", "planner", run.profile.source_toolset
    )
    if _run_source_plan(run, raw, TPE_SIGIL, run.enriched_context()):
        include = run.config.include_thought_in_executor and thought
        extras = [("Thought", thought)] if include else ()
        _answer(run, "response", "executor", extras=extras)


def _run_tpe_strategies(run: _Run) -> None:
    _, raw = _think_and_plan(
        run,
        f"tpe_plannerexec_{run.config.dataset_kind.value}",
        "planner_executor",
        run.profile.strategy_toolset,
    )
    steps = _parse_plan(run, "Plan:", raw, parse_strategy_plan)
    if steps is None:
        return
    run.parsed_plan = steps
    for i, step in enumerate(steps, start=1):
        run.store.bind(f"St{i}", step.fragment)
    run.response = combine_middle([step.fragment for step in steps])


def _run_cot(run: _Run) -> None:
    if run.profile.is_multi_source:
        _retrieve_context(run, ("persona", "document"))
    _answer(run, "response", "cot", run.demo_slot("cot", "response"))


def _run_cuecot(run: _Run) -> None:
    status = _think(run, "cuecot_status", "cuecot", "status")
    _answer(
        run,
        "cuecot_response",
        "cot",
        run.demo_slot("cuecot", "status_response"),
        [("Status", status)] if status else (),
    )


def _run_rewoo(run: _Run) -> None:
    prompt = run.prompt(
        load_template("rewoo_planner_focus"), demos=run.demo_slot("rewoo", "rewoo")
    )
    if _run_source_plan(run, run.complete(prompt), REWOO_SIGIL, run.context_text):
        _answer(run, "rewoo_solver_focus", "executor")


def _plan_modules(run: _Run, toolset: ToolSet, view: str) -> tuple[str, ...] | None:
    """Chameleon's module-sequence call: the planned names, or None once
    the record has failed."""
    prompt = run.prompt(
        load_template(f"chameleon_planner_{view}"),
        "chameleon",
        run.demo_slot("chameleon", view),
        toolset=run.toolset_lines(toolset),
    )
    return _parse_plan(run, f"{view.title()}:", run.complete(prompt), parse_module_list)


def _run_chameleon_sources(run: _Run) -> None:
    names = _plan_modules(run, run.profile.module_toolset, "modules")
    if names is None:
        return
    run.parsed_plan = names
    retrieval_order: list[str] = []
    for name in names:
        try:
            retrieval_order.append(run.profile.resolve_source(name))
        except UnknownTool:
            continue  # Answer_Generator and unplanned module names are skipped
    _retrieve_context(run, retrieval_order or ("persona", "document"))
    _answer(run, "response", "executor", run.demo_slot("cot", "response"))


def _run_chameleon_strategies(run: _Run) -> None:
    names = _plan_modules(run, run.profile.strategy_toolset, "strategies")
    if names is None:
        return
    template = load_template("chameleon_strategy")
    steps: list[StrategyPlanStep] = []
    for i, name in enumerate(
        (n for n in names if n != "Answer_Generator"), start=1
    ):
        tool = run.profile.strategy_toolset.get(name)
        demos = render_demo_slot(
            f"Dialogue: {inp}\n{name}: {out}"
            for inp, out in (tool.examples if tool is not None else ())
        )
        fragment = run.complete(run.prompt(template, demos=demos, strategy=name)).strip()
        if not fragment:
            continue
        steps.append(StrategyPlanStep(strategy_name=name, fragment=fragment))
        run.store.bind(f"St{i}", fragment)
    if not steps:
        raise EmptyPlan("no strategy module produced a fragment")
    run.parsed_plan = tuple(steps)
    run.response = combine_middle([step.fragment for step in steps])


def _run_react(run: _Run) -> None:
    template = load_template(f"react_{run.config.dataset_kind.value}")
    demos = run.demo_slot("react", "react")
    budget = run.config.react_max_steps
    scratchpad = ""  # the transcript: every generation is added as it returns
    strategy_steps: list[StrategyPlanStep] = []

    def ask(stop: tuple[str, ...]) -> str:
        prompt = run.prompt(template, demos=demos, scratchpad=scratchpad)
        return run.complete(prompt, stop)

    def finish(response: str = "") -> None:
        run.raw_plan_text = scratchpad.rstrip("\n")
        if strategy_steps:
            run.parsed_plan = tuple(strategy_steps)
        run.response = response

    while len(run.generations) < budget:
        generation = ask(REACT_STOP)
        step = generation.strip()
        scratchpad += step
        try:
            action = parse_react_step(generation).action
            if isinstance(action, ToolCall):
                # "context" (or nothing) as the argument queries with the dialogue.
                query = action.argument.strip()
                if query in ("context", ""):
                    query = run.context_text
                evidence = run.retrieve(f"Obs{len(run.store) + 1}", action.name, query)
        except (ParseError, UnknownTool) as exc:
            run.raw_plan_text = scratchpad
            run.fail(exc, fallback_response=step)
            return
        if isinstance(action, Finish):
            finish(action.response.strip())
            return
        if isinstance(action, ToolCall):
            scratchpad += f"\nObservation: {evidence.text()}\n"
            continue
        # Strategy call: either compose the final response or ask the model
        # for the strategy's fragment as the next observation.
        if action.name == "Response":
            finish()
            scratchpad += "\nResponse:"
            run.response = ask(FEWSHOT_STOP).strip()
            return
        if len(run.generations) >= budget:
            break
        scratchpad += "\nObservation:"
        fragment = ask(FRAGMENT_STOP).strip()
        scratchpad += f" {fragment}\n"
        run.store.bind(f"St{len(run.store) + 1}", fragment)
        if fragment:
            strategy_steps.append(
                StrategyPlanStep(strategy_name=action.name, fragment=fragment)
            )

    finish(step)
    run.flag(
        "FallbackExhausted",
        f"no Finish after {budget} calls; last generation used as the response",
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
