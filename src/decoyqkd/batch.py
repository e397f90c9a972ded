"""Lane-parallel versions of the layers a sweep runs for every row.

A lane is one row of a sweep: one admissible (mu, mu') pair on one NoEve
channel.  Each function takes numpy arrays with one entry per lane and
returns, lane by lane, exactly what the scalar function of the same name
returns: the same bits and flags, and for the finite solver the same steps
and evaluation count.  The scalar functions stay the reference
that single bounds, simulation, Table 1 and the tests use; ``decoyqkd
sweep`` runs on this module.

Bit identity rests on one rule.  numpy's + - * / and sqrt are correctly
rounded, so the scalar code's operations in the scalar code's order give
the same bits.  numpy's vectorized exp, expm1, log2 and power are not: they
differ from the C library's in the last place on a few percent of inputs.
Every such call therefore goes through ``math`` on Python floats, once per
pair or once per lane, and so does every ``x ** 2``, which Python computes
with the C library's pow rather than as x * x.  Clamps use np.where, since
Python's max(x, 0.0) keeps x = -0.0 where np.maximum returns 0.0.

Errors come from the scalar functions alone.  A layer raises the private
``_Replay`` when some lane meets a condition on which its scalar function
raises; ``sweep`` then runs the grid row by row through the scalar
functions, which raise exactly the error a row-by-row run raises.  The
layers take arguments that the scalar path's constructors validate
(NoEve's eta and s0, KeyRateInput's qber) as valid; ``sweep`` checks them
before it runs the lanes.
"""

from __future__ import annotations

import math
import sys
from itertools import repeat
from typing import Callable, NamedTuple, NoReturn, Sequence

import numpy as np

from . import bounds, channel, finite_stats, key_rate
from .bounds import DEFAULT_MAX_ITER, TOL
from .channel import NoEve
from .errors import ParameterError
from .finite_stats import FluctuationSettings, PulseBudget
from .key_rate import KeyRateInput, binary_entropy
from .photon_stats import ProtocolParams, _multi_ratio, multi_photon_weight

_quiet = np.errstate(divide="ignore", over="ignore", invalid="ignore")


def _libm(fn: Callable[..., float], *args: np.ndarray | repeat) -> np.ndarray:
    """fn applied with the C library, element by element, as the scalar code does."""
    lists = [a.tolist() if isinstance(a, np.ndarray) else a for a in args]
    return np.fromiter(map(fn, *lists), float, count=args[0].size)


def _floor0(x: np.ndarray) -> np.ndarray:
    """max(x, 0.0)."""
    return np.where(0.0 > x, 0.0, x)


def _clamp01(x: np.ndarray) -> np.ndarray:
    """min(max(x, 0.0), 1.0)."""
    x = _floor0(x)
    return np.where(1.0 < x, 1.0, x)


class _Replay(Exception):
    """A lane met a condition on which its scalar function raises."""


class Pairs(NamedTuple):
    """Intensity pairs, one per lane, with the Poisson terms every layer shares.

    Pairs must be admissible (``validate_pair``); decompose's remainder
    check then holds, so it is not repeated here.  Raises _Replay where
    decompose's ratio overflows.
    """

    mu: np.ndarray
    mu_prime: np.ndarray
    exp_mu: np.ndarray  # e^{-mu}
    exp_mu_prime: np.ndarray  # e^{-mu'}
    exp_gap: np.ndarray  # e^{mu - mu'}
    c: np.ndarray  # decompose(...).c
    multi_ratio: np.ndarray  # decompose(...).multi_ratio

    @classmethod
    def of(cls, mu: Sequence[float], mu_prime: Sequence[float]) -> Pairs:
        mu, mu_prime = np.asarray(mu, float), np.asarray(mu_prime, float)
        multi_ratio = _libm(_multi_ratio, mu, mu_prime)
        if (multi_ratio == np.inf).any():
            raise _Replay
        return cls(
            mu=mu,
            mu_prime=mu_prime,
            exp_mu=_libm(math.exp, -mu),
            exp_mu_prime=_libm(math.exp, -mu_prime),
            exp_gap=_libm(math.exp, mu - mu_prime),
            c=_libm(multi_photon_weight, mu),
            multi_ratio=multi_ratio,
        )

    def repeat(self, count: int) -> Pairs:
        """Each pair ``count`` times in a row, as a sweep lays out its channels."""
        return Pairs._make(np.repeat(a, count) for a in self)


class Rates(NamedTuple):
    """Per-lane counting rates, as ObservedRates holds them for one lane."""

    s0: np.ndarray
    s_mu: np.ndarray
    s_mu_prime: np.ndarray


class Bounds(NamedTuple):
    """Per-lane BoundReport fields."""

    delta_upper: np.ndarray
    s1_lower: np.ndarray
    sc_upper: np.ndarray
    clamped: np.ndarray
    vacuous: np.ndarray


class Rows(NamedTuple):
    """The computed columns of a sweep; key_rate is None without a qber."""

    delta_upper: np.ndarray
    delta_prime_upper: np.ndarray
    s1_lower: np.ndarray
    key_rate: np.ndarray | None
    clamped: np.ndarray
    vacuous: np.ndarray


def _class_rate(
    eta: np.ndarray, s0: np.ndarray | float, intensity: np.ndarray | float
) -> np.ndarray:
    """NoEve.class_rate."""
    return s0 - (1.0 - s0) * _libm(math.expm1, -eta * intensity)


def expected_rates(eta: np.ndarray, s0: np.ndarray | float, pairs: Pairs) -> Rates:
    """channel.expected_rates of NoEve(eta, s0); eta and s0 must be valid for NoEve."""
    return Rates(
        s0=_class_rate(eta, s0, 0.0),
        s_mu=_class_rate(eta, s0, pairs.mu),
        s_mu_prime=_class_rate(eta, s0, pairs.mu_prime),
    )


@_quiet
def wang_asymptotic_bound(rates: Rates, pairs: Pairs) -> Bounds:
    """bounds.wang_asymptotic_bound.

    Raises _Replay where s_mu = 0, where mu' e^{-mu'} S_mu has underflowed
    to 0, or where c is subnormal or 0: there the scalar bound (and
    finite_bound) raises.
    """
    if (
        (pairs.mu_prime * pairs.exp_mu_prime * rates.s_mu == 0.0)
        | (pairs.c < sys.float_info.min)
    ).any():
        raise _Replay
    mu, mu_prime = pairs.mu, pairs.mu_prime
    p1_mu = mu * pairs.exp_mu
    ratio = (p1_mu * rates.s_mu_prime) / (mu_prime * pairs.exp_mu_prime * rates.s_mu)
    raw = (mu / (mu_prime - mu)) * (ratio - 1.0) + (p1_mu * rates.s0) / (mu_prime * rates.s_mu)
    delta = _clamp01(raw)
    sc_upper = delta * rates.s_mu / pairs.c
    s1_lower = _floor0((rates.s_mu - pairs.exp_mu * rates.s0 - pairs.c * sc_upper) / p1_mu)
    return Bounds(delta, s1_lower, sc_upper, raw != delta, delta >= 1.0)


def _excess(lanes: np.ndarray, y: np.ndarray, sc: np.ndarray):
    """The scalar solver's excess(y, sc) on the lanes' constants."""
    _, strong, c, a, p1_mu, p1_mu_prime, k1, kc = lanes
    room = _floor0(a * (strong - p1_mu_prime * (y - k1) * y))
    disc = np.sqrt(kc * kc + 4.0 * room / c)
    slope = np.where(room != 0.0, (1.0 + kc / disc) * a * p1_mu_prime * (2.0 * y - k1) / c, 0.0)
    f = 0.25 * _libm(math.pow, kc + disc, repeat(2.0))
    return f - sc, 2.0 * p1_mu * y / c - slope, f


def _solve_sc(lanes: np.ndarray, sc_lo: np.ndarray, max_iter: int) -> np.ndarray:
    """sc of bounds._solve_sc on every lane, stepping all unfinished lanes together.

    ``lanes`` stacks weak, strong, c, a, p1_mu, p1_mu', k1 and kc.  Every
    lane evaluates the excess exactly as often as the scalar solver does, so
    _Replay is raised once a lane needs more than max_iter evaluations, as
    the scalar solver then raises ConvergenceError.
    """
    evals = 0

    def excess(lanes: np.ndarray, y: np.ndarray, sc: np.ndarray):
        nonlocal evals
        if evals == max_iter and y.size:
            raise _Replay
        evals += 1
        return _excess(lanes, y, sc)

    weak, _, c, _, p1_mu, _, k1, _ = lanes
    g_floor, _, sc_out = excess(lanes, k1, (weak - p1_mu * k1 * k1) / c)
    s1_lo = (weak - c * sc_lo) / p1_mu
    # Lanes with s1_lo <= k1^2 keep the floor value.
    idx = np.flatnonzero(~(s1_lo <= k1 * k1))
    lanes, sc, g_floor = lanes[:, idx], sc_lo[idx], g_floor[idx]
    y = np.sqrt(s1_lo[idx])
    g, dg, _ = excess(lanes, y, sc)
    below = g <= 0.0
    sc_out[idx[below]] = sc[below]
    # Of the rest, those with g_floor >= 0 keep the floor value too.
    keep = ~below & ~(g_floor >= 0.0)
    idx, lanes, y, sc, g, dg = (v[..., keep] for v in (idx, lanes, y, sc, g, dg))
    weak, _, c, _, p1_mu, _, lo, _ = lanes
    hi = y
    while idx.size:
        y_next = np.where(dg > 0.0, y - g / dg, 0.5 * (lo + hi))
        y_next = np.where((y_next != y) & ~((lo < y_next) & (y_next < hi)), 0.5 * (lo + hi), y_next)
        sc_next = (weak - p1_mu * y_next * y_next) / c
        # Also stop once no float is left strictly inside the bracket.
        stop = (abs(sc_next - sc) <= TOL * sc_next) | ~((lo < y_next) & (y_next < hi))
        sc_out[idx[stop]] = sc_next[stop]
        keep = ~stop
        idx, lanes, y, sc, lo, hi = (v[..., keep] for v in (idx, lanes, y_next, sc_next, lo, hi))
        weak, _, c, _, p1_mu, _, _, _ = lanes
        g, dg, _ = excess(lanes, y, sc)
        up = g > 0.0
        hi, lo = np.where(up, y, hi), np.where(up, lo, y)
    return sc_out


@_quiet
def finite_bound(
    rates: Rates,
    pairs: Pairs,
    budget: PulseBudget,
    settings: FluctuationSettings,
    max_iter: int = DEFAULT_MAX_ITER,
) -> Bounds:
    """finite_stats.finite_bound; raises _Replay where that raises."""
    seed = wang_asymptotic_bound(rates, pairs)
    mu_prime, c = pairs.mu_prime, pairs.c
    p1_mu = pairs.mu * pairs.exp_mu
    n_singles = float(budget.n_mu) * p1_mu
    n_multi = float(budget.n_mu) * c
    if settings.min_over_classes:
        other = float(budget.n_mu_prime) * mu_prime * pairs.exp_mu_prime
        n_singles = np.where(other < n_singles, other, n_singles)
        other = float(budget.n_mu_prime) * c * pairs.multi_ratio
        n_multi = np.where(other < n_multi, other, n_multi)
    # relative_fluctuation(1.0, n, settings); r_x = k_x / sqrt(s_x).
    k1 = 2.0 * np.sqrt(settings.confidence_exponent / n_singles)
    kc = 2.0 * np.sqrt(settings.confidence_exponent / n_multi)

    weak = rates.s_mu - pairs.exp_mu * rates.s0
    strong = rates.s_mu_prime - pairs.exp_mu_prime * rates.s0
    # A k that overflows to inf is a fluctuation far beyond 1.
    blown = np.isinf(k1) | np.isinf(kc)
    live = np.flatnonzero(~(seed.vacuous | blown))
    sc = seed.sc_upper.copy()
    constants = np.stack(
        (weak, strong, c, 1.0 / pairs.multi_ratio, p1_mu, mu_prime * pairs.exp_mu_prime, k1, kc)
    )
    sc[live] = _solve_sc(constants[:, live], seed.sc_upper[live], max_iter)
    s1 = (rates.s_mu - pairs.exp_mu * rates.s0 - c * sc) / p1_mu
    delta_raw = c * sc / rates.s_mu
    vacuous = seed.vacuous | blown | (s1 <= k1 * k1) | (delta_raw >= 1.0)
    return Bounds(
        delta_upper=np.where(vacuous, 1.0, delta_raw),
        s1_lower=np.where(vacuous, 0.0, _floor0(s1 - k1 * np.sqrt(s1))),
        sc_upper=np.where(vacuous, rates.s_mu / c, sc),
        clamped=vacuous,
        vacuous=vacuous,
    )


@_quiet
def delta_prime_bound(delta: np.ndarray, rates: Rates, pairs: Pairs) -> np.ndarray:
    """bounds.delta_prime_bound of a bound's delta (in [0, 1], with s_mu > 0)."""
    untagged_weak = 1.0 - delta - pairs.exp_mu * rates.s0 / rates.s_mu
    dark_credit = np.where(
        rates.s_mu_prime > 0.0, pairs.exp_mu_prime * rates.s0 / rates.s_mu_prime, 0.0
    )
    return _clamp01(1.0 - untagged_weak * pairs.exp_gap - dark_credit)


@_quiet
def gllp_rate(delta: np.ndarray, qber: float) -> np.ndarray:
    """key_rate.gllp_rate; delta and qber must be valid for KeyRateInput."""
    untagged = 1.0 - delta
    scaled_error = qber / untagged
    distillable = ~(delta >= 1.0) & ~(scaled_error > 0.5)
    entropy = np.zeros_like(delta)
    entropy[distillable] = _libm(binary_entropy, scaled_error[distillable])
    raw = untagged - binary_entropy(qber) - untagged * entropy
    return np.where(distillable & ~(raw < 0.0), raw, 0.0)


def sweep(
    pairs: Sequence[tuple[float, float]],
    etas: Sequence[float],
    s0: float,
    n_pulses: int | None,
    settings: FluctuationSettings,
    qber: float | None,
) -> Rows:
    """Every (pair, eta) row of ``decoyqkd sweep``, pair-major, eta fastest.

    Rows use the finite bound with n_pulses in each signal class, or the
    asymptotic bound without them; pairs must be admissible.  Raises the
    error that a row-by-row run of the scalar functions raises.
    """
    if not (pairs and etas):
        # A row-by-row run of an empty grid builds, checks and raises nothing.
        empty, flags = np.zeros(0), np.zeros(0, bool)
        return Rows(empty, empty, empty, None if qber is None else empty, flags, flags)
    try:
        # What each row's constructors and solver check.
        for eta in etas:
            NoEve(eta=eta, s0=s0)
        if qber is not None:
            KeyRateInput(delta=0.0, qber=qber)
        grid = Pairs.of([mu for mu, _ in pairs], [mu_prime for _, mu_prime in pairs])
        grid = grid.repeat(len(etas))
        rates = expected_rates(np.tile(np.asarray(etas, float), len(pairs)), s0, grid)
        if n_pulses is None:
            report = wang_asymptotic_bound(rates, grid)
        else:
            budget = PulseBudget(n_mu=n_pulses, n_mu_prime=n_pulses)
            report = finite_bound(rates, grid, budget, settings)
        return Rows(
            delta_upper=report.delta_upper,
            delta_prime_upper=delta_prime_bound(report.delta_upper, rates, grid),
            s1_lower=report.s1_lower,
            key_rate=None if qber is None else gllp_rate(report.delta_upper, qber),
            clamped=report.clamped,
            vacuous=report.vacuous,
        )
    except (_Replay, ParameterError):
        pass
    # Outside the except block, so the scalar error carries no _Replay context.
    _replay(pairs, etas, s0, n_pulses, settings, qber)


def _replay(
    pairs: Sequence[tuple[float, float]],
    etas: Sequence[float],
    s0: float,
    n_pulses: int | None,
    settings: FluctuationSettings,
    qber: float | None,
) -> NoReturn:
    """Run the sweep row by row through the scalar functions, which raise its error."""
    for mu, mu_prime in pairs:
        params = ProtocolParams(mu, mu_prime)
        for eta in etas:
            rates = channel.expected_rates(NoEve(eta=eta, s0=s0), params)
            if n_pulses is None:
                report = bounds.wang_asymptotic_bound(rates, params)
            else:
                budget = PulseBudget(n_mu=n_pulses, n_mu_prime=n_pulses)
                report = finite_stats.finite_bound(rates, params, budget, settings)
            bounds.delta_prime_bound(report.delta_upper, rates, params)
            if qber is not None:
                key_rate.gllp_rate(KeyRateInput(delta=report.delta_upper, qber=qber))
    raise RuntimeError("the sweep lanes flagged an error that no scalar function raises")
