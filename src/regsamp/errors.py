"""Exception types shared across the package."""


class RegsampError(Exception):
    """Base class for all package errors."""


class InvalidInputError(RegsampError):
    """An argument violates a documented precondition (non-finite, wrong sign, ...)."""


class DimensionMismatchError(RegsampError):
    """Vector dimensions do not agree."""


class DegenerateInstanceError(RegsampError):
    """The instance cannot support the requested operation (e.g. B = 0)."""


class ConfigurationError(RegsampError):
    """Inconsistent or incomplete configuration (missing D, convention mismatch, ...)."""


class ApplicabilityError(RegsampError):
    """A sample-size rule was requested outside its hypotheses."""


class OptimizerFailureError(RegsampError):
    """The objective minimizer diverged or returned an out-of-bracket value."""


class ConstructionError(RegsampError):
    """A hard-instance construction failed its own verification."""


class DataError(RegsampError):
    """A data file is malformed."""


class NonFiniteQueryError(DataError):
    """f(x), f0(x) or its sampled estimate is not finite at a query.  Carries its row."""

    def __init__(self, message, row: int):
        super().__init__(message)
        self.row = row


class BudgetExceededError(RegsampError):
    """A search exceeded its sample budget.  Carries partial results."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial if partial is not None else {}
