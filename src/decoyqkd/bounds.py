"""Asymptotic upper bounds on the multi-photon fraction of the weak class.

All bounds consume per-pulse counting rates of the two signal classes plus
the vacuum class and return the largest fraction of weak-class counts that
could originate from multi-photon pulses, assuming the channel treats a
given photon number identically regardless of which class emitted it.
"""

from __future__ import annotations

import math

from .errors import ConvergenceError, DomainError, ParameterError, _frozen, check_probability
from .photon_stats import DecompositionCoefficients, ProtocolParams, decompose

METHOD_HWANG = "hwang_crude"
METHOD_WANG_ASYMPTOTIC = "wang_asymptotic"
METHOD_WANG_FINITE = "wang_finite"

# The sc/s1 solver stops once its relative step in sc is at most TOL.
TOL = 1e-10
# Constraint evaluations after which the solver gives up with ConvergenceError.
DEFAULT_MAX_ITER = 10_000


@_frozen
class ObservedRates:
    """Per-pulse counting rates for the vacuum, weak, and strong classes.

    Zero rates are constructible (degenerate channels produce them); the
    bound functions reject the combinations they cannot handle.
    """

    s0: float
    s_mu: float
    s_mu_prime: float

    def __post_init__(self) -> None:
        # Fails for NaN and both infinities too; only then is the message formed.
        if not 0.0 <= self.s0 <= 1.0:
            check_probability("s0", self.s0)
        if not 0.0 <= self.s_mu <= 1.0:
            check_probability("s_mu", self.s_mu)
        if not 0.0 <= self.s_mu_prime <= 1.0:
            check_probability("s_mu_prime", self.s_mu_prime)


@_frozen
class BoundReport:
    """Result of a multi-photon bound evaluation.

    delta_upper is the certified upper bound on the tagged fraction of the
    weak class; sc_upper and s1_lower are the per-pulse rate bounds it was
    derived from.  ``clamped`` records that a raw value fell outside [0, 1];
    ``vacuous`` that the bound carries no information (delta_upper == 1).
    The sweep's lanes (batch.py) use this record with one array per field;
    compare those field by field, as == and hash do not work on arrays.
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


def hwang_bound(rates: ObservedRates, params: ProtocolParams) -> BoundReport:
    """Crude bound: every strong-class count is charged to multi-photon pulses.

    delta <= mu^2 e^{-mu} S_mu' / (mu'^2 e^{-mu'} S_mu), clamped to 1.
    """
    _require_weak_rate(rates)
    coeffs = decompose(params)
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


def _constraints(
    rates: ObservedRates, coeffs: DecompositionCoefficients, k1: float = 0.0, kc: float = 0.0
) -> tuple:
    """The sc/s1 constraint system that every bound solves, formed in this one place.

    Returns (weak, strong, c, a, p1_mu, p1_mu', k1, kc): weak = S_mu - e^{-mu} s0
    and strong = S_mu' - e^{-mu'} s0, s0 taken as exact; a = 1 / multi_ratio; k1
    and kc size the fluctuations, 0 asymptotically.  It is arithmetic on named
    fields alone, so batch.Rates on batch.Pairs gives the same record in lanes.
    """
    weak = rates.s_mu - coeffs.p0_mu * rates.s0
    strong = rates.s_mu_prime - coeffs.p0_mu_prime * rates.s0
    a = 1.0 / coeffs.multi_ratio
    return weak, strong, coeffs.c, a, coeffs.p1_mu, coeffs.p1_mu_prime, k1, kc


def _closed_form(rates: ObservedRates, coeffs: DecompositionCoefficients, pair) -> float:
    """wang_asymptotic_bound's closed form, unclamped; pair holds mu and mu_prime.

    Arithmetic on named fields alone, like _constraints, so it runs on floats
    or on lanes.  It divides by mu' e^{-mu'} S_mu, which each engine first
    checks is not 0.
    """
    mu, mu_prime, p1_mu = pair.mu, pair.mu_prime, coeffs.p1_mu
    ratio = (p1_mu * rates.s_mu_prime) / (coeffs.p1_mu_prime * rates.s_mu)
    return (mu / (mu_prime - mu)) * (ratio - 1.0) + (p1_mu * rates.s0) / (mu_prime * rates.s_mu)


def _s1(system: tuple, sc: float) -> float:
    """The single-photon rate that the weak class of a _constraints record leaves beside sc."""
    weak, _, c, _, p1_mu, _, _, _ = system
    return (weak - c * sc) / p1_mu


def _solve_sc(system: tuple, sc_lo: float, max_iter: int = DEFAULT_MAX_ITER) -> float:
    """Solve F(sc) = sc for sc on [sc_lo, fluctuation floor] in a _constraints record.

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
    weak, strong, c, a, p1_mu, p1_mu_prime, k1, kc = system
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
        root = kc + disc
        f = 0.25 * (root * root)
        return f - sc, 2.0 * p1_mu * y / c - slope, f

    s1_lo = _s1(system, sc_lo)
    g_floor, _, f_floor = excess(k1, (weak - p1_mu * k1 * k1) / c)
    if s1_lo <= k1 * k1:
        return f_floor
    y = hi = math.sqrt(s1_lo)
    g, dg, _ = excess(y, sc_lo)
    if g <= 0.0:
        return sc_lo
    if g_floor >= 0.0:
        return f_floor
    lo, sc = k1, sc_lo
    while True:
        y_next = y - g / dg if dg > 0.0 else 0.5 * (lo + hi)
        if y_next != y and not lo < y_next < hi:
            y_next = 0.5 * (lo + hi)
        sc_next = (weak - p1_mu * y_next * y_next) / c
        # Also stop once no float is left strictly inside the bracket.
        if abs(sc_next - sc) <= TOL * sc_next or not lo < y_next < hi:
            return sc_next
        y, sc = y_next, sc_next
        g, dg, _ = excess(y, sc)
        if g > 0.0:
            hi = y
        else:
            lo = y


def _raw_delta(
    rates: ObservedRates, params: ProtocolParams, coeffs: DecompositionCoefficients
) -> float:
    """_closed_form on floats; raises DomainError where mu' e^{-mu'} S_mu underflows to 0."""
    if coeffs.p1_mu_prime * rates.s_mu == 0.0:
        raise DomainError(
            f"mu' e^{{-mu'}} S_mu underflows to 0 (mu_prime={params.mu_prime}, s_mu={rates.s_mu})"
        )
    return _closed_form(rates, coeffs, params)


def wang_asymptotic_bound(rates: ObservedRates, params: ProtocolParams) -> BoundReport:
    """Closed-form solution of the sc/s1 constraint system.

    delta <= mu/(mu'-mu) * (mu e^{-mu} S_mu' / (mu' e^{-mu'} S_mu) - 1)
             + mu e^{-mu} s0 / (mu' S_mu)

    Raises DomainError when mu' e^{-mu'} S_mu underflows to 0, since the
    bound divides by it.
    """
    _require_weak_rate(rates)
    coeffs = decompose(params)
    raw = _raw_delta(rates, params, coeffs)
    delta = min(max(raw, 0.0), 1.0)
    sc_upper = delta * rates.s_mu / coeffs.c
    return BoundReport(
        delta_upper=delta,
        s1_lower=max(_s1(_constraints(rates, coeffs), sc_upper), 0.0),
        sc_upper=sc_upper,
        method=METHOD_WANG_ASYMPTOTIC,
        clamped=raw != delta,
        vacuous=delta >= 1.0,
    )


def delta_prime_bound(delta: float, rates: ObservedRates, params: ProtocolParams) -> float:
    """Transfer a weak-class tagged bound to the strong class.

    delta' <= 1 - min(f, 1) (1 - delta - e^{-mu} s0 / S_mu) e^{mu - mu'}
                - e^{-mu'} s0 / S_mu'
    clamped to [0, 1], with f = (mu'/mu) (S_mu / S_mu'), or 1 where S_mu' is
    0.  Both classes share one single-photon yield, so the strong class's
    single-photon share is f e^{mu - mu'} times the weak class's.  The
    paper's form takes f = 1, which is sound only where f >= 1, as on every
    NoEve channel; min(f, 1) keeps the bound sound for every adversary and
    leaves it unchanged there.  The dark-count credit e^{-mu'} s0 / S_mu' is
    forfeited where S_mu' is 0 or below its own vacuum part e^{-mu'} s0,
    which no channel yields; dropping a non-negative credit can only loosen
    the bound, and the credit taken is at most 1.  Raises DomainError when
    the weak-class credit overflows to inf, which the clamp would turn into
    NaN or 1.
    """
    if not 0.0 <= delta <= 1.0:
        raise DomainError(f"delta must lie in [0, 1], got {delta}")
    _require_weak_rate(rates)
    coeffs = decompose(params)
    weak_credit = coeffs.p0_mu * rates.s0 / rates.s_mu
    if math.isinf(weak_credit):
        raise DomainError(f"e^{{-mu}} s0 / S_mu overflows to inf ({rates})")
    vacuum_part = coeffs.p0_mu_prime * rates.s0
    strong = rates.s_mu_prime > 0.0
    credited = strong and rates.s_mu_prime >= vacuum_part
    dark_credit = vacuum_part / rates.s_mu_prime if credited else 0.0
    f = (params.mu_prime / params.mu) * (rates.s_mu / rates.s_mu_prime) if strong else 1.0
    raw = 1.0 - min(f, 1.0) * (1.0 - delta - weak_credit) * coeffs.exp_gap - dark_credit
    return min(max(raw, 0.0), 1.0)
