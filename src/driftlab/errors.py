"""Shared exception types.

Each exception carries a stable ``code`` string so CLI reports and tests
can match on it without parsing messages.
"""

from __future__ import annotations


class EngineError(Exception):
    """Base class; ``code`` is a stable machine-readable tag."""

    code = "ENGINE_ERROR"

    def __init__(self, message: str = "", **detail):
        super().__init__(message or self.code)
        self.detail = detail


class NotAdapted(EngineError):
    code = "NOT_ADAPTED"


class NotPredictable(EngineError):
    code = "NOT_PREDICTABLE"


class NotAStoppingTime(EngineError):
    code = "NOT_A_STOPPING_TIME"


class NotAMartingale(EngineError):
    code = "NOT_A_MARTINGALE"


class DimensionMismatch(EngineError):
    code = "DIMENSION_MISMATCH"


class Unsolvable(EngineError):
    code = "UNSOLVABLE"


class SupportConditionFailed(EngineError):
    code = "SUPPORT_CONDITION_FAILED"


class ConnectorInvalid(EngineError):
    code = "CONNECTOR_INVALID"


class DataInvariantViolated(EngineError):
    code = "DATA_INVARIANT_VIOLATED"


class RationalTooLong(EngineError):
    code = "RATIONAL_TOO_LONG"


class JacodDegenerate(EngineError):
    code = "JACOD_DEGENERATE"


class NotARandomTime(EngineError):
    code = "NOT_A_RANDOM_TIME"


class AzemaDegenerate(EngineError):
    code = "AZEMA_DEGENERATE"


class SchemaError(EngineError):
    code = "SCHEMA_ERROR"


class InvalidDocument(SchemaError):
    """A document that parses but breaks a structural invariant, listed in detail["errors"]."""


class InternalInvariant(EngineError):
    """A guarantee the engine prints failed its own recheck: a bug, not bad input."""

    code = "INTERNAL_INVARIANT"
