"""Key rate per sifted bit from a tagged fraction and an error rate.

Tagged counts are written off entirely; the untagged remainder pays error
correction on the observed error rate and privacy amplification on the
error rate renormalized to the untagged sub-population.
"""

from __future__ import annotations

import math

from .errors import DomainError, ParameterError, _frozen, _shown, check_probability


@_frozen
class KeyRateInput:
    """delta: tagged fraction in [0, 1]; qber: detected flip rate in [0, 0.5]."""

    delta: float
    qber: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.delta <= 1.0:
            check_probability("delta", self.delta)
        if not 0.0 <= self.qber <= 0.5:
            raise ParameterError(f"qber must lie in [0, 0.5], got {_shown(self.qber)}")


def binary_entropy(x: float) -> float:
    """H(x) = -x log2 x - (1-x) log2 (1-x), with H(0) = H(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"entropy argument must lie in [0, 1], got {_shown(x)}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def gllp_rate(inp: KeyRateInput) -> float:
    """max(0, 1 - delta - H(qber) - (1-delta) H(qber/(1-delta))).

    Zero as well when no key is distillable at all: every count tagged, or
    the renormalized error rate beyond 1/2.
    """
    if inp.delta >= 1.0:
        return 0.0
    scaled_error = inp.qber / (1.0 - inp.delta)
    if scaled_error > 0.5:
        return 0.0
    raw = (
        1.0
        - inp.delta
        - binary_entropy(inp.qber)
        - (1.0 - inp.delta) * binary_entropy(scaled_error)
    )
    if raw < 0.0:
        return 0.0
    return raw
