"""Asymptotic upper bounds on the multi-photon fraction of the weak class.

All bounds consume per-pulse counting rates of the two signal classes plus
the vacuum class and return the largest fraction of weak-class counts that
could originate from multi-photon pulses, assuming the channel treats a
given photon number identically regardless of which class emitted it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError, ParameterError, check_probability
from .photon_stats import ProtocolParams, decompose

METHOD_HWANG = "hwang_crude"
METHOD_WANG_ASYMPTOTIC = "wang_asymptotic"
METHOD_WANG_FINITE = "wang_finite"

# The sc/s1 solver stops once its relative step in sc is at most TOL.
TOL = 1e-10
# Constraint evaluations after which the solver gives up with ConvergenceError.
DEFAULT_MAX_ITER = 10_000


@dataclass(frozen=True)
class ObservedRates:
    """Per-pulse counting rates for the vacuum, weak, and strong classes.

    Zero rates are constructible (degenerate channels produce them); the
    bound functions reject the combinations they cannot handle.
    """

    s0: float
    s_mu: float
    s_mu_prime: float

    def __post_init__(self) -> None:
        check_probability("s0", self.s0)
        check_probability("s_mu", self.s_mu)
        check_probability("s_mu_prime", self.s_mu_prime)


@dataclass(frozen=True)
class BoundReport:
    """Result of a multi-photon bound evaluation.

    delta_upper is the certified upper bound on the tagged fraction of the
    weak class; sc_upper and s1_lower are the per-pulse rate bounds it was
    derived from.  ``clamped`` records that a raw value fell outside [0, 1];
    ``vacuous`` that the bound carries no information (delta_upper == 1).
    """

    delta_upper: float
    s1_lower: float
    sc_upper: float
    method: str
    clamped: bool = False
    vacuous: bool = False


def _require_weak_rate(rates: ObservedRates) -> None:
    if rates.s_mu <= 0.0:
        raise ParameterError("weak-class rate s_mu must be positive to bound a fraction of it")


def _require_multi_weight(c: float, mu: float) -> None:
    # Below mu ~ 2.1e-154, c ~ mu^2 / 2 is subnormal or 0, and sc = delta S_mu / c
    # can overflow.
    if c < sys.float_info.min:
        raise DomainError(f"multi-photon weight c of mu={mu} underflows to {c:g}")


def hwang_bound(rates: ObservedRates, params: ProtocolParams) -> BoundReport:
    """Crude bound: every strong-class count is charged to multi-photon pulses.

    delta <= mu^2 e^{-mu} S_mu' / (mu'^2 e^{-mu'} S_mu), clamped to 1.
    Raises DomainError when the multi-photon weight c of mu is subnormal or 0.
    """
    _require_weak_rate(rates)
    coeffs = decompose(params)
    _require_multi_weight(coeffs.c, params.mu)
    raw = rates.s_mu_prime / (coeffs.multi_ratio * rates.s_mu)
    delta = min(raw, 1.0)
    return BoundReport(
        delta_upper=delta,
        s1_lower=0.0,
        sc_upper=delta * rates.s_mu / coeffs.c,
        method=METHOD_HWANG,
        clamped=raw > 1.0,
        vacuous=delta >= 1.0,
    )


def hwang_optimized(mu: float) -> float:
    """Best-case crude bound mu * e^{1 - mu} at the optimal strong intensity 1."""
    if not 0.0 < mu < 1.0:
        raise DomainError(f"optimized crude bound requires mu in (0, 1), got {mu}")
    return mu * math.exp(1.0 - mu)


def _solve_sc(
    rates: ObservedRates,
    params: ProtocolParams,
    k1: float,
    kc: float,
    sc_lo: float,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[float, float]:
    """Solve F(sc) = sc for (sc, s1) with sc on [sc_lo, fluctuation floor].

    F is one pass through both constraints.  The weak class fixes
    s1 = y^2 at sc; the strong class then allows the larger root of
    c sc (1 - kc/sqrt(sc)) = room, its singles term down-weighted to
    (1 - k1/y) y^2 and its vacuum term taken as observed.  Neither k
    lowers F below its k = 0 form, so, up to rounding, no exit falls below
    an asymptotic sc_lo.  Newton steps in y fall back to bisection when
    they leave the bracket between y at sc_lo and the floor y = k1, where
    r1 = 1, and stop once the relative step in sc is at most TOL.  Returns
    sc_lo when F(sc_lo) <= sc_lo, and F at the floor (s1 below it) if no
    root is left.  Raises ConvergenceError when a root needs more than
    max_iter evaluations of F.
    """
    mu, mu_prime = params.mu, params.mu_prime
    coeffs = decompose(params)
    c = coeffs.c
    a = 1.0 / coeffs.multi_ratio
    p1_mu = mu * math.exp(-mu)
    p1_mu_prime = mu_prime * math.exp(-mu_prime)
    weak = rates.s_mu - math.exp(-mu) * rates.s0
    strong = rates.s_mu_prime - math.exp(-mu_prime) * rates.s0
    evals = 0

    def excess(y: float, sc: float) -> tuple[float, float, float]:
        """F(sc) - sc at s1 = y^2, its derivative in y, and F(sc)."""
        nonlocal evals
        if evals == max_iter:
            raise ConvergenceError(f"no sc/s1 root within {max_iter} evaluations", sc=sc, s1=y * y)
        evals += 1
        room = max(a * (strong - p1_mu_prime * (y - k1) * y), 0.0)
        disc = math.sqrt(kc * kc + 4.0 * room / c)
        slope = (1.0 + kc / disc) * a * p1_mu_prime * (2.0 * y - k1) / c if room else 0.0
        f = 0.25 * (kc + disc) ** 2
        return f - sc, 2.0 * p1_mu * y / c - slope, f

    s1_lo = (weak - c * sc_lo) / p1_mu
    g_floor, _, f_floor = excess(k1, (weak - p1_mu * k1 * k1) / c)
    if s1_lo <= k1 * k1:
        return f_floor, (weak - c * f_floor) / p1_mu
    y = hi = math.sqrt(s1_lo)
    g, dg, _ = excess(y, sc_lo)
    if g <= 0.0:
        return sc_lo, s1_lo
    if g_floor >= 0.0:
        return f_floor, (weak - c * f_floor) / p1_mu
    lo, sc = k1, sc_lo
    while True:
        y_next = y - g / dg if dg > 0.0 else 0.5 * (lo + hi)
        if y_next != y and not lo < y_next < hi:
            y_next = 0.5 * (lo + hi)
        sc_next = (weak - p1_mu * y_next * y_next) / c
        # Also stop once no float is left strictly inside the bracket.
        if abs(sc_next - sc) <= TOL * sc_next or not lo < y_next < hi:
            return sc_next, y_next * y_next
        y, sc = y_next, sc_next
        g, dg, _ = excess(y, sc)
        if g > 0.0:
            hi = y
        else:
            lo = y


def wang_asymptotic_bound(rates: ObservedRates, params: ProtocolParams) -> BoundReport:
    """Closed-form solution of the sc/s1 constraint system.

    delta <= mu/(mu'-mu) * (mu e^{-mu} S_mu' / (mu' e^{-mu'} S_mu) - 1)
             + mu e^{-mu} s0 / (mu' S_mu)

    Raises DomainError when mu' e^{-mu'} S_mu underflows to 0 or the
    multi-photon weight c of mu is subnormal or 0, since the bound divides
    by both.
    """
    _require_weak_rate(rates)
    mu, mu_prime = params.mu, params.mu_prime
    coeffs = decompose(params)
    p1_s_mu = mu_prime * math.exp(-mu_prime) * rates.s_mu
    if p1_s_mu == 0.0:
        raise DomainError(
            f"mu' e^{{-mu'}} S_mu underflows to 0 (mu_prime={mu_prime}, s_mu={rates.s_mu})"
        )
    _require_multi_weight(coeffs.c, mu)
    ratio = (mu * math.exp(-mu) * rates.s_mu_prime) / p1_s_mu
    raw = (mu / (mu_prime - mu)) * (ratio - 1.0) + (
        mu * math.exp(-mu) * rates.s0
    ) / (mu_prime * rates.s_mu)
    delta = min(max(raw, 0.0), 1.0)
    sc_upper = delta * rates.s_mu / coeffs.c
    s1_lower = max(
        (rates.s_mu - math.exp(-mu) * rates.s0 - coeffs.c * sc_upper)
        / (mu * math.exp(-mu)),
        0.0,
    )
    return BoundReport(
        delta_upper=delta,
        s1_lower=s1_lower,
        sc_upper=sc_upper,
        method=METHOD_WANG_ASYMPTOTIC,
        clamped=raw != delta,
        vacuous=delta >= 1.0,
    )


def delta_prime_bound(delta: float, rates: ObservedRates, params: ProtocolParams) -> float:
    """Transfer a weak-class tagged bound to the strong class.

    delta' <= 1 - (1 - delta - e^{-mu} s0 / S_mu) e^{mu - mu'}
                - e^{-mu'} s0 / S_mu'
    clamped to [0, 1].  A zero strong-class rate forfeits its dark-count
    credit term rather than dividing by zero; dropping a non-negative
    credit can only loosen the bound.
    """
    if not 0.0 <= delta <= 1.0:
        raise DomainError(f"delta must lie in [0, 1], got {delta}")
    _require_weak_rate(rates)
    mu, mu_prime = params.mu, params.mu_prime
    untagged_weak = 1.0 - delta - math.exp(-mu) * rates.s0 / rates.s_mu
    dark_credit = (
        math.exp(-mu_prime) * rates.s0 / rates.s_mu_prime
        if rates.s_mu_prime > 0.0
        else 0.0
    )
    raw = 1.0 - untagged_weak * math.exp(mu - mu_prime) - dark_credit
    return min(max(raw, 0.0), 1.0)
