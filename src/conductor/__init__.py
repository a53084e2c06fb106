"""Dialogue planning over conceptual tools.

A framework for multi-persona dialogue response generation: prompt assembly
from committed templates, parsing of planner output into executable plans
over knowledge sources and response strategies, BM25 grounding, five
baseline pipelines, and a metric/cost evaluation suite. The package root
holds the batch API; every other name is imported from its module.
"""

from conductor.backend import LiveBackend, ReplayBackend
from conductor.data import export_records, load_dataset, load_records
from conductor.evalmetrics import EvalConfig, score_run
from conductor.pipelines import MethodConfig, run_batch
