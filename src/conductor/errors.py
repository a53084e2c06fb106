"""Exception types shared across the package.

Every error raised by conductor code derives from ConductorError so callers
can catch the whole family; pipelines convert them into per-record error
descriptors instead of aborting a batch.
"""

from __future__ import annotations


class ConductorError(Exception):
    """Base class for all package-specific errors."""


class MissingSection(ConductorError):
    """A prompt template requires a slot that was not supplied."""

    def __init__(self, slot: str):
        super().__init__(f"template requires slot {{{slot}}} but no value was given")


class ParseError(ConductorError):
    """Raw model output could not be parsed into a plan structure.

    `position` is the 1-based line number the parser was looking at.
    """

    def __init__(self, position: int, reason: str):
        super().__init__(f"line {position}: {reason}")
        self.position = position
        self.reason = reason


class DanglingReference(ConductorError):
    """A plan variable is referenced before (or without) being defined."""

    def __init__(self, name: str):
        super().__init__(f"reference to undefined or later variable #{name}")
        self.name = name


class UnboundVariable(ConductorError):
    """A query references a variable with no binding in the evidence store."""

    def __init__(self, name: str):
        super().__init__(f"variable {name} is not bound")


class UnknownTool(ConductorError):
    """A plan names a source that the active toolset does not contain."""

    def __init__(self, name: str):
        super().__init__(f"unknown tool {name!r}")


class EmptyPlan(ConductorError):
    """An operation that needs at least one plan step received none."""


class EmptyCorpus(ConductorError):
    """Index construction or retrieval was attempted over zero documents."""


class UnknownDoc(ConductorError):
    def __init__(self, doc_id: str):
        super().__init__(f"doc id {doc_id!r} not in index")


class EmptyQuery(ConductorError):
    """Query enrichment received an empty dialogue context."""


class EmptyCandidate(ConductorError):
    """BLEU was asked to score a candidate with no tokens."""


class LengthMismatch(ConductorError):
    """Candidate and reference collections do not align."""


class BackendError(ConductorError):
    """Base for completion-backend failures."""


class BackendUnavailable(BackendError):
    """The live backend failed after exhausting its retry budget."""


class RateLimited(BackendError):
    """The live backend kept answering 429 through every retry."""


class AuthMissing(BackendError):
    def __init__(self, env_var: str):
        super().__init__(f"no API key: environment variable {env_var} is unset")


class ReplayMiss(BackendError):
    """The replay backend has no fixture for this request hash."""

    def __init__(self, request_hash: str, prompt_head: str):
        super().__init__(
            f"no replay fixture for hash {request_hash[:16]}... "
            f"(prompt starts: {prompt_head!r})"
        )
        self.prompt_head = prompt_head


class UnpricedModel(ConductorError):
    def __init__(self, model_id: str):
        super().__init__(f"no price for model {model_id!r}")


class SchemaViolation(ConductorError):
    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class DatasetValidationError(ConductorError):
    """Raised after a full pass over an invalid file, carrying every violation."""

    def __init__(self, path: str, violations: list[SchemaViolation]):
        lines = "; ".join(str(v) for v in violations)
        super().__init__(f"{path}: {len(violations)} invalid line(s): {lines}")
        self.violations = violations


class MissingDemoBank(ConductorError):
    def __init__(self, kind: str, method: str):
        super().__init__(f"no demonstration bank for kind={kind} method={method}")


class ConfigError(ConductorError):
    """Mutually inconsistent or incomplete run configuration."""
