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

from .bounds import (
    DEFAULT_MAX_ITER,
    METHOD_WANG_FINITE,
    BoundReport,
    ObservedRates,
    _constraints,
    _raw_delta,
    _require_weak_rate,
    _s1,
    _solve_sc,
    # Not called here; a benchmark hook (tests/test_public_api.py BENCHMARK_HOOKS).
    wang_asymptotic_bound,  # noqa: F401
)
from .errors import _FLOAT_MAX, ParameterError, _frozen, _shown
from .photon_stats import ProtocolParams, decompose


@_frozen
class PulseBudget:
    """Number of pulses emitted in each intensity class."""

    n_mu: int
    n_mu_prime: int
    n_vacuum: int = 0

    def __post_init__(self) -> None:
        counts = self.__dict__
        for name in ("n_mu", "n_mu_prime", "n_vacuum"):
            value = counts[name]
            try:
                as_int = operator.index(value)
            except TypeError:
                raise ParameterError(f"{name} must be an integer, got {value!r}") from None
            try:
                float(as_int)
            except OverflowError:
                raise ParameterError(f"{name} is too large to convert to a float") from None
            counts[name] = as_int
        if self.n_mu < 1 or self.n_mu_prime < 1:
            raise ParameterError("signal-class pulse counts must be at least 1")
        if self.n_vacuum < 0:
            raise ParameterError(f"n_vacuum must be non-negative, got {self.n_vacuum}")


@_frozen
class FluctuationSettings:
    """Statistical treatment of rate fluctuations.

    confidence_exponent: exponent E; every worst-case shift is violated
        with probability at most e^{-E}.  The weak-class rate and the
        vacuum rate have no shift: the observed S_mu and s0 count as exact.
    """

    confidence_exponent: float = 25.0

    def __post_init__(self) -> None:
        if not 0 < self.confidence_exponent <= _FLOAT_MAX:
            raise ParameterError(
                f"confidence_exponent must be positive, got {_shown(self.confidence_exponent)}"
            )


def _vacuous_report(rates: ObservedRates, c: float) -> BoundReport:
    return BoundReport(1.0, 0.0, rates.s_mu / c, METHOD_WANG_FINITE, True, True)


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
    yields, so the shared solver searches above the asymptotic solution;
    its sc is floored at the asymptotic sc, so sc is never below it in
    floating point either, and delta_upper is never negative.  max_iter
    caps the solver's constraint evaluations.  Any fluctuation reaching 1
    makes the bound vacuous.

    Each sub-population (single photons, multi-photons) is compared across
    both signal classes, so its fluctuation is sized by the class holding
    fewer of its pulses.  By admissibility that is the weak class unless the
    strong class has fewer pulses.
    """
    _require_weak_rate(rates)
    if max_iter < 1:
        raise ParameterError(f"max_iter must be at least 1, got {max_iter}")
    coeffs = decompose(params)
    c = coeffs.c

    # validate_pair holds p1_mu' > p1_mu on the very floats decompose
    # returns, and its separation floor keeps multi_ratio well above 1: with
    # n_mu' >= n_mu both comparisons keep the weak-class size bit for bit.
    n_singles, strong_size = budget.n_mu * coeffs.p1_mu, budget.n_mu_prime * coeffs.p1_mu_prime
    n_singles = strong_size if strong_size < n_singles else n_singles
    n_multi, strong_size = budget.n_mu * c, budget.n_mu_prime * c * coeffs.multi_ratio
    n_multi = strong_size if strong_size < n_multi else n_multi
    # r_x = 2 sqrt(E / (s_x n_x)) = k_x / sqrt(s_x) for a sub-population rate s_x.
    k1 = 2.0 * math.sqrt(settings.confidence_exponent / n_singles)
    kc = 2.0 * math.sqrt(settings.confidence_exponent / n_multi)

    # The asymptotic bound, clamped to [0, 1], seeds the solver.
    delta = _raw_delta(rates, params, coeffs)
    delta = 0.0 if 0.0 > delta else 1.0 if 1.0 < delta else delta
    # A k that overflows to inf is a fluctuation far beyond 1.
    if delta >= 1.0 or k1 > _FLOAT_MAX or kc > _FLOAT_MAX:
        return _vacuous_report(rates, c)
    system = _constraints(rates, coeffs, k1, kc)
    seed = delta * rates.s_mu / c
    # The solver may land a rounding step below its seed; floor it there.
    sc = _solve_sc(system, seed, max_iter)
    sc = seed if seed > sc else sc
    s1 = _s1(system, sc)
    delta_raw = c * sc / rates.s_mu
    # r1 = k1 / sqrt(s1) reaching 1 leaves no certified single-photon rate.
    if s1 <= k1 * k1 or delta_raw >= 1.0:
        return _vacuous_report(rates, c)
    s1_lower = s1 - k1 * math.sqrt(s1)
    s1_lower = 0.0 if 0.0 > s1_lower else s1_lower
    return BoundReport(delta_raw, s1_lower, sc, METHOD_WANG_FINITE, False, False)
