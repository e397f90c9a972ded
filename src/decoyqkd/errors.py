"""Exception hierarchy shared across the package, and its [0, 1] input check."""

from __future__ import annotations

import math


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ParameterError(ValueError):
    """Protocol parameters or observed rates are invalid or inadmissible."""


class ConvergenceError(RuntimeError):
    """The sc/s1 solver used up max_iter evaluations; carries the next iterate (sc, s1)."""

    def __init__(self, message: str, sc: float | None = None, s1: float | None = None):
        super().__init__(message)
        self.sc = sc
        self.s1 = s1


class ConfigError(ValueError):
    """A run configuration file or flag set is malformed."""


def check_probability(name: str, value: float) -> None:
    """Raise ParameterError unless value is a finite number in [0, 1]."""
    if not (math.isfinite(value) and 0.0 <= value <= 1.0):
        raise ParameterError(f"{name} must lie in [0, 1], got {value}")
