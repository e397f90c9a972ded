"""Finite-statistics verification of the multi-photon bound.

For a finite pulse budget the observed sub-population rates fluctuate.
Violation probability exp(-delta^2 n0 / (4 s)) yields, at a target
exponent E, a relative fluctuation r = 2 sqrt(E / (s n0)) on a rate s
estimated from n0 pulses.  The finite bound re-solves the two-class
constraint system with each rate shifted to its worst-case edge.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .bounds import (
    DEFAULT_MAX_ITER,
    METHOD_WANG_FINITE,
    BoundReport,
    ObservedRates,
    _require_multi_weight,
    _require_weak_rate,
    _solve_sc,
    wang_asymptotic_bound,
)
from .errors import DomainError, ParameterError
from .photon_stats import ProtocolParams, decompose


@dataclass(frozen=True)
class PulseBudget:
    """Number of pulses emitted in each intensity class."""

    n_mu: int
    n_mu_prime: int
    n_vacuum: int = 0

    def __post_init__(self) -> None:
        for name in ("n_mu", "n_mu_prime", "n_vacuum"):
            value = getattr(self, name)
            try:
                as_int = operator.index(value)
            except TypeError:
                raise ParameterError(f"{name} must be an integer, got {value!r}") from None
            try:
                float(as_int)
            except OverflowError:
                raise ParameterError(f"{name} is too large to convert to a float") from None
            object.__setattr__(self, name, as_int)
        if self.n_mu < 1 or self.n_mu_prime < 1:
            raise ParameterError("signal-class pulse counts must be at least 1")
        if self.n_vacuum < 0:
            raise ParameterError(f"n_vacuum must be non-negative, got {self.n_vacuum}")


@dataclass(frozen=True)
class FluctuationSettings:
    """Statistical treatment of rate fluctuations.

    confidence_exponent: exponent E; every worst-case shift is violated
        with probability at most e^{-E}.  The vacuum rate has no shift:
        the observed s0 counts as exact.
    min_over_classes: size each photon-number sub-population by the
        smaller of the two signal classes instead of the weak class alone.
    """

    confidence_exponent: float = 25.0
    min_over_classes: bool = False

    def __post_init__(self) -> None:
        if not (math.isfinite(self.confidence_exponent) and self.confidence_exponent > 0):
            raise ParameterError(
                f"confidence_exponent must be positive, got {self.confidence_exponent}"
            )


def relative_fluctuation(s: float, n0: float, settings: FluctuationSettings) -> float:
    """Relative half-width 2 sqrt(E / (s n0)) at violation probability e^{-E}."""
    if s <= 0 or n0 <= 0:
        raise DomainError(f"need positive rate and sub-population, got s={s}, n0={n0}")
    return 2.0 * math.sqrt(settings.confidence_exponent / (s * n0))


def _vacuous_report(rates: ObservedRates, c: float) -> BoundReport:
    return BoundReport(
        delta_upper=1.0,
        s1_lower=0.0,
        sc_upper=rates.s_mu / c,
        method=METHOD_WANG_FINITE,
        clamped=True,
        vacuous=True,
    )


def finite_bound(
    rates: ObservedRates,
    params: ProtocolParams,
    budget: PulseBudget,
    settings: FluctuationSettings = FluctuationSettings(),
    max_iter: int = DEFAULT_MAX_ITER,
) -> BoundReport:
    """Worst-case multi-photon fraction consistent with a finite budget.

    Solves the coupled system: the weak class ties s1 to sc exactly, the
    strong class constrains sc with each sub-population rate shifted
    adversarially by its relative fluctuation (singles down-weighted
    against the multi-photon term, the multi-photon rate itself
    under-observed; s0 exact).  Each shift only widens the consistent
    yields, so the shared solver searches above the asymptotic solution
    and the bound is never below it; max_iter caps its constraint
    evaluations.  Any fluctuation reaching 1 makes the bound vacuous.
    """
    _require_weak_rate(rates)
    if max_iter < 1:
        raise ParameterError(f"max_iter must be at least 1, got {max_iter}")
    mu, mu_prime = params.mu, params.mu_prime
    coeffs = decompose(params)
    c = coeffs.c
    _require_multi_weight(c, mu)
    p1_mu = mu * math.exp(-mu)

    n_singles = budget.n_mu * p1_mu
    n_multi = budget.n_mu * c
    if settings.min_over_classes:
        n_singles = min(n_singles, budget.n_mu_prime * mu_prime * math.exp(-mu_prime))
        n_multi = min(n_multi, budget.n_mu_prime * c * coeffs.multi_ratio)
    # r_x = k_x / sqrt(s_x) for a sub-population rate s_x.
    k1 = relative_fluctuation(1.0, n_singles, settings)
    kc = relative_fluctuation(1.0, n_multi, settings)

    seed = wang_asymptotic_bound(rates, params)
    # A k that overflows to inf is a fluctuation far beyond 1.
    if seed.vacuous or math.isinf(k1) or math.isinf(kc):
        return _vacuous_report(rates, c)
    sc, _ = _solve_sc(rates, params, k1, kc, seed.sc_upper, max_iter)
    s1 = (rates.s_mu - math.exp(-mu) * rates.s0 - c * sc) / p1_mu
    delta_raw = c * sc / rates.s_mu
    # r1 = k1 / sqrt(s1) reaching 1 leaves no certified single-photon rate.
    if s1 <= k1 * k1 or delta_raw >= 1.0:
        return _vacuous_report(rates, c)
    return BoundReport(
        delta_upper=delta_raw,
        s1_lower=max(s1 - k1 * math.sqrt(s1), 0.0),
        sc_upper=sc,
        method=METHOD_WANG_FINITE,
        clamped=False,
        vacuous=False,
    )
