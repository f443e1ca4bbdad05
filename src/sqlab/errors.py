"""Semantic error hierarchy; every error carries a stable short code."""


class LabError(Exception):
    """Base error. `code` is the stable machine-readable identifier."""

    code = "error"

    def __init__(self, message=""):
        super().__init__(message or self.code)


class UsageError(LabError):
    code = "usage"


class DomainMismatchError(LabError):
    code = "domain-mismatch"


class InvalidToleranceError(LabError):
    code = "invalid-tolerance"


class QueryRangeError(UsageError):
    code = "query-out-of-range"


class QueryBudgetError(LabError):
    code = "query-budget-exceeded"


class PoolInsufficientError(LabError):
    code = "pool-insufficient"


class NormRangeError(LabError):
    code = "norm-out-of-range"


class ThetaExceedsEpsError(LabError):
    code = "theta-exceeds-eps"


class InvariantBreachError(LabError):
    """A quantitative guarantee that should hold was observed violated."""

    code = "invariant-breach"
