"""Exception hierarchy shared across the package."""


class FreewalkError(Exception):
    """Base class for all library errors."""


class GroupSpecError(FreewalkError):
    """A factor or free-product specification violates its invariants."""


class BudgetError(FreewalkError):
    """An enumeration or computation exceeded its declared resource budget."""

    def __init__(self, message, consumed=None, budget=None):
        super().__init__(message)
        self.consumed = consumed
        self.budget = budget


class ConfigError(FreewalkError):
    """A configuration file failed to parse or validate."""


class DegenerateInputError(FreewalkError):
    """Input sequence carries no usable information (e.g. all-zero p_n)."""


class DivergenceError(FreewalkError):
    """A series evaluation was requested outside its radius of convergence."""


class NonConvergenceError(FreewalkError):
    """Partial sums failed their decay / Cauchy test; diagnostics attached."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics
