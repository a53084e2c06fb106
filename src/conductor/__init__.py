"""Dialogue planning over conceptual tools.

A framework for multi-persona dialogue response generation: prompt assembly
from committed templates, parsing of planner output into executable plans
over knowledge sources and response strategies, BM25 grounding, five
baseline pipelines, and a metric/cost evaluation suite.
"""

from conductor.backend import (
    CompletionRequest,
    DEFAULT_PRICES,
    Generation,
    LiveBackend,
    PriceTable,
    ReplayBackend,
    compute_cost,
    estimate_tokens,
)
from conductor.core import (
    CallUsage,
    ConceptualTool,
    Demonstration,
    Dialogue,
    Evidence,
    EvidenceStore,
    RunRecord,
    SchemaKind,
    Thought,
    ToolSet,
    Utterance,
    render_dialogue,
    render_toolset,
)
from conductor.data import Sample, export_records, load_dataset, load_records
from conductor.evalmetrics import (
    EvalConfig,
    MetricReport,
    avg_bleu,
    corpus_bleu,
    distinct_n,
    rouge_l,
    score_run,
    sentence_bleu_n,
    strategy_distribution,
    token_f1,
)
from conductor.pipelines import (
    Method,
    MethodConfig,
    combine_middle,
    run_batch,
    run_method,
)
from conductor.plangrammar import (
    parse_module_list,
    parse_react_step,
    parse_source_plan,
    parse_strategy_plan,
    substitute_vars,
)
from conductor.retrieval import (
    Bm25Retriever,
    Corpus,
    build_index,
    enrich_query,
    retrieve_topk,
    tokenize,
)

__version__ = "0.1.0"
