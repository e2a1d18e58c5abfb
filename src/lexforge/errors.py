"""Exception types shared across the pipeline.

Class names mirror the error contracts of the public operations. Every
module raises these instead of bare ValueError so the command-line driver
can map failures onto exit codes uniformly.
"""

from __future__ import annotations


class LexforgeError(Exception):
    """Base class for all pipeline errors."""


class MissingField(LexforgeError):
    """A required field is absent from a raw corpus record."""

    def __init__(self, field: str, case_id: str | None = None):
        self.field = field
        self.case_id = case_id
        where = f" in record {case_id!r}" if case_id else ""
        super().__init__(f"missing required field {field!r}{where}")


class MalformedRecord(LexforgeError):
    """A raw record cannot be decoded into a case document."""


class ExtractionFailed(LexforgeError):
    """No charge, statute article, or prison term could be pulled from a case."""

    def __init__(self, case_id: str, detail: str):
        self.case_id = case_id
        self.detail = detail
        super().__init__(f"extraction failed for {case_id!r}: {detail}")


class GenerationFailed(LexforgeError):
    """The text-generation client failed after the configured retries."""


class QueryTooLong(LexforgeError):
    """Generated query exceeded the length budget and could not be shortened."""


class NoMatch(LexforgeError):
    """No distinct case with the same main-article set exists."""


class MissingElements(LexforgeError):
    """A query's source case has no extracted elements."""


class ZeroVector(LexforgeError):
    """Cosine similarity is undefined for a zero-norm vector."""


class FeaturelessText(LexforgeError):
    """A training text has no character n-gram, so it embeds to zero."""

    def __init__(self, pair: int, field: str):
        self.pair = pair
        self.field = field
        super().__init__(f"pair {pair}: {field} has no character n-gram to embed")


class DegenerateRow(LexforgeError):
    """A similarity row has no unmasked entries (the diagonal was masked)."""


class NonFiniteLoss(LexforgeError):
    """Training aborted because the loss became NaN or infinite."""


class UnknownDoc(LexforgeError):
    """Document id is not present in the index."""


class EmptyCorpus(LexforgeError):
    """Search was invoked over an empty candidate pool."""


class QueryMismatch(LexforgeError):
    """Run contains query ids with no relevance judgments."""

    def __init__(self, query_ids):
        self.query_ids = sorted(query_ids)
        super().__init__(f"run has queries without judgments: {self.query_ids}")


class InsufficientData(LexforgeError, ValueError):
    """An input holds too few records for the stage; the message names the count."""


class UsageError(LexforgeError):
    """Bad command-line invocation."""


class BadCheckpoint(LexforgeError):
    """Checkpoint file is corrupt or has an unsupported version."""


class BadIndex(LexforgeError):
    """BM25 index file is not one, is corrupt or has an unsupported version."""
