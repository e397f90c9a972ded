"""Exception hierarchy shared across the package."""

from __future__ import annotations


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ParameterError(ValueError):
    """Protocol parameters or observed rates are invalid or inadmissible."""


class DecompositionError(ParameterError):
    """The intensity pair admits no valid convex decomposition."""


class ConvergenceError(RuntimeError):
    """The sc/s1 solver used up max_iter evaluations; carries the next iterate (sc, s1)."""

    def __init__(self, message: str, sc: float | None = None, s1: float | None = None):
        super().__init__(message)
        self.sc = sc
        self.s1 = s1


class ConfigError(ValueError):
    """A run configuration file or flag set is malformed."""
