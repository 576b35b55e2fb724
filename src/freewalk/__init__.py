"""Random walks on free products: exact convolution, Green functions,
first-return kernels, thermodynamic pressure, and asymptotic audits."""

from .errors import (
    BudgetError,
    ConfigError,
    DegenerateInputError,
    DivergenceError,
    FreewalkError,
    GroupSpecError,
    NonConvergenceError,
)
from .groups import FiniteFactor, FreeProduct, LatticeFactor, cyclic_factor
from .walks import StepMeasure, uniform_on_generators

__all__ = [
    "BudgetError",
    "ConfigError",
    "DegenerateInputError",
    "DivergenceError",
    "FreewalkError",
    "GroupSpecError",
    "NonConvergenceError",
    "FiniteFactor",
    "FreeProduct",
    "LatticeFactor",
    "cyclic_factor",
    "StepMeasure",
    "uniform_on_generators",
]

__version__ = "0.1.0"
