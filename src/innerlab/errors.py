"""Exception hierarchy shared by all innerlab modules.

The CLI maps these onto process exit codes: precondition violations
exit 2, exhausted budgets exit 3, numerical failures exit 4.
"""


class InnerlabError(Exception):
    """Base class for all innerlab errors."""


class PreconditionError(InnerlabError, ValueError):
    """An argument violates a documented precondition or invariant."""


class DomainError(PreconditionError):
    """A point lies outside the domain required by the operation."""


class BudgetError(InnerlabError, RuntimeError):
    """A configured resource budget (nodes, samples, depth) was exhausted.

    Carries whatever partial progress is useful for diagnosis.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class NumericalError(InnerlabError, ArithmeticError):
    """An iterative numerical procedure failed to converge."""

    def __init__(self, message, context=None):
        super().__init__(message)
        self.context = context
