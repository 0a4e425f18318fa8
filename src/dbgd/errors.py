"""Exception types shared across the package."""

from __future__ import annotations

from typing import Optional

__all__ = [
    "ConfigurationError", "DbgdError", "DivergenceError", "EvaluationError",
    "InfeasibleSubproblemError", "LowerOptimumError",
]


class DbgdError(Exception):
    """Base class for package-specific errors."""


class ConfigurationError(DbgdError):
    """A config file, solver setup, or rule/problem pairing is invalid."""


class DivergenceError(DbgdError):
    """A solver run produced a non-finite quantity.

    ``cell`` is the index, among the configs of a batch run, of the run
    that diverged (``None`` when not known).
    """

    def __init__(self, iteration: int, what: str, cell: Optional[int] = None):
        self.iteration = iteration
        self.what = what
        self.cell = cell
        super().__init__(f"non-finite {what} at iteration {iteration}")


class LowerOptimumError(DbgdError):
    """The lower objective took a value below the declared optimum ``g*``."""

    def __init__(self, value: float, g_star: float):
        self.value = float(value)
        self.g_star = g_star
        super().__init__(
            f"g(x) = {self.value} fell below the declared optimum g* = {g_star}"
        )


class EvaluationError(DbgdError):
    """An objective or gradient evaluation returned a non-finite value."""


class InfeasibleSubproblemError(DbgdError):
    """The direction subproblem has an empty feasible set."""
