"""Semantic error hierarchy: the class names the kind of failure, the
message says what failed."""


class LabError(Exception):
    """Base error."""


class UsageError(LabError):
    pass


class DomainMismatchError(LabError):
    pass


class InvalidToleranceError(LabError):
    pass


class QueryRangeError(UsageError):
    pass


class QueryBudgetError(LabError):
    pass


class ThetaExceedsEpsError(LabError):
    pass


class InvariantBreachError(LabError):
    """A quantitative guarantee that should hold was observed violated."""
