"""Lane-parallel versions of the layers a sweep runs for every row.

A lane is one row of a sweep: one admissible (mu, mu') pair on one NoEve
channel, with n pulses in each signal class.  Admissibility then makes the
weak class the smaller sub-population in both fluctuation terms, so the
finite bound's smaller-class sizing is the weak class's n p1 and n c on
every lane.  Each function takes numpy arrays with one entry per lane and
returns, lane by lane, exactly what the scalar function of the same name
returns: the same bits and flags, and for the finite solver the same
steps and evaluation count.  The scalar functions stay the reference that
single bounds, simulation, Table 1 and the tests use; ``decoyqkd sweep``
runs on this module.

Bit identity rests on one rule.  numpy's + - * / and sqrt are correctly
rounded, so the scalar code's operations in the scalar code's order give
the same bits.  numpy's vectorized exp, expm1, log2 and power are not: they
differ from the C library's in the last place on a few percent of inputs.
Every such call therefore goes through ``math`` on Python floats, and so
does every ``x ** 2``, which Python computes with the C library's pow
rather than as x * x.  Each call runs once per value it depends on: a
sweep forms e^{-x} and x e^{-x} once per grid intensity (``Weights``), c
once per mu and S_mu once per (eta, mu), and only e^{mu-mu'}, the
multi-photon ratio and S_mu' per pair or lane.  The vacuum rate needs no
call at all, since expm1 returns the signed zero -eta * 0.0 unchanged.
The binary entropy of the key rate is -x log2 x - (1-x) log2(1-x) in
numpy on the lanes with 0 < x < 1, each log2 through ``math``, and 0 on
the others, which is the scalar function's arithmetic in its order.  Clamps use np.where, since
Python's max(x, 0.0) keeps x = -0.0 where np.maximum returns 0.0.  The
constraint system is not copied: both engines form it with
bounds._constraints and take every s1 from it with bounds._s1, on floats
or on lanes.

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
from itertools import repeat
from typing import Callable, Iterable, NamedTuple, NoReturn, Sequence

import numpy as np

from . import bounds, channel, finite_stats, key_rate
from .bounds import DEFAULT_MAX_ITER, TOL
from .channel import NoEve
from .errors import ParameterError
from .finite_stats import FluctuationSettings, PulseBudget
from .key_rate import KeyRateInput, binary_entropy
from .photon_stats import MIN_INTENSITY, ProtocolParams, _multi_ratio, multi_photon_weight

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


class Weights(NamedTuple):
    """Per grid intensity x: x, e^{-x} and x e^{-x}, each formed once.

    Every field is nan where validate_pair refuses x whatever its partner
    (x not finite, or below MIN_INTENSITY), so no comparison admits it.
    """

    x: np.ndarray
    p0: np.ndarray
    p1: np.ndarray

    @classmethod
    def of(cls, values: Sequence[float]) -> Weights:
        x = np.array([v if MIN_INTENSITY <= v < math.inf else math.nan for v in values], float)
        p0 = _libm(math.exp, -x)
        return cls(x, p0, x * p0)


class Pairs(NamedTuple):
    """Per lane, an intensity pair and the bits of its DecompositionCoefficients fields."""

    mu: np.ndarray
    mu_prime: np.ndarray
    p0_mu: np.ndarray
    p1_mu: np.ndarray
    p0_mu_prime: np.ndarray
    p1_mu_prime: np.ndarray
    exp_gap: np.ndarray
    c: np.ndarray
    multi_ratio: np.ndarray

    @classmethod
    def of(cls, mu: Weights, mu_prime: Weights, i: np.ndarray, j: np.ndarray) -> Pairs:
        """The pairs (mu.x[i], mu_prime.x[j]), which must be admissible (``validate_pair``).

        Only e^{mu-mu'} and the multi-photon ratio are formed per pair, and c
        once per mu value.  Never raises, as ``decompose`` never does.
        """
        c = np.full_like(mu.x, math.nan)
        valid = ~np.isnan(mu.x)
        c[valid] = _libm(multi_photon_weight, mu.x[valid])
        x, x_prime = mu.x[i], mu_prime.x[j]
        exp_gap = _libm(math.exp, x - x_prime)
        multi_ratio = _libm(_multi_ratio, x, x_prime, exp_gap)
        return cls(
            x, x_prime, mu.p0[i], mu.p1[i], mu_prime.p0[j], mu_prime.p1[j], exp_gap, c[i],
            multi_ratio,
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


def _vacuum_rate(eta: np.ndarray, s0: np.ndarray | float) -> np.ndarray:
    """NoEve.class_rate(0.0): expm1 returns its argument, the signed zero -eta * 0.0."""
    return s0 - (1.0 - s0) * (-eta * 0.0)


@_quiet
def wang_asymptotic_bound(rates: Rates, pairs: Pairs) -> Bounds:
    """bounds.wang_asymptotic_bound.

    Raises _Replay where s_mu = 0 or where mu' e^{-mu'} S_mu has underflowed
    to 0: there the scalar bound (and finite_bound) raises.
    """
    p1_s_mu = pairs.p1_mu_prime * rates.s_mu
    if (p1_s_mu == 0.0).any():
        raise _Replay
    mu, mu_prime, p1_mu = pairs.mu, pairs.mu_prime, pairs.p1_mu
    ratio = (p1_mu * rates.s_mu_prime) / p1_s_mu
    raw = (mu / (mu_prime - mu)) * (ratio - 1.0) + (p1_mu * rates.s0) / (mu_prime * rates.s_mu)
    delta = _clamp01(raw)
    sc_upper = delta * rates.s_mu / pairs.c
    s1_lower = _floor0(bounds._s1(bounds._constraints(rates, pairs), sc_upper))
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

    ``lanes`` stacks a bounds._constraints record of lanes.  Every lane
    evaluates the excess exactly as often as the scalar solver does, and no
    evaluation runs on zero lanes, so _Replay is raised once a lane needs
    more than max_iter evaluations, as the scalar solver then raises
    ConvergenceError.
    """
    evals = 0

    def excess(lanes: np.ndarray, y: np.ndarray, sc: np.ndarray):
        nonlocal evals
        if evals == max_iter:
            raise _Replay
        evals += 1
        return _excess(lanes, y, sc)

    if not sc_lo.size:
        return sc_lo
    weak, _, c, _, p1_mu, _, k1, _ = lanes
    g_floor, _, sc_out = excess(lanes, k1, (weak - p1_mu * k1 * k1) / c)
    s1_lo = bounds._s1(lanes, sc_lo)
    # Lanes with s1_lo <= k1^2 keep the floor value.
    idx = np.flatnonzero(~(s1_lo <= k1 * k1))
    if not idx.size:
        return sc_out
    lanes, sc, g_floor = lanes[:, idx], sc_lo[idx], g_floor[idx]
    y = np.sqrt(s1_lo[idx])
    g, dg, _ = excess(lanes, y, sc)
    below = g <= 0.0
    sc_out[idx[below]] = sc[below]
    # Of the rest, those with g_floor >= 0 keep the floor value too.
    keep = np.flatnonzero(~below & ~(g_floor >= 0.0))
    idx, lanes, y, sc, g, dg = (v[..., keep] for v in (idx, lanes, y, sc, g, dg))
    weak, _, c, _, p1_mu, _, lo, _ = lanes
    hi = y
    while idx.size:
        y_next = np.where(dg > 0.0, y - g / dg, 0.5 * (lo + hi))
        y_next = np.where((y_next != y) & ~((lo < y_next) & (y_next < hi)), 0.5 * (lo + hi), y_next)
        sc_next = (weak - p1_mu * y_next * y_next) / c
        # Also stop once no float is left strictly inside the bracket.
        stop = (abs(sc_next - sc) <= TOL * sc_next) | ~((lo < y_next) & (y_next < hi))
        y, sc = y_next, sc_next
        if stop.any():
            sc_out[idx[stop]] = sc[stop]
            keep = np.flatnonzero(~stop)
            if not keep.size:
                break
            idx, lanes, y, sc, lo, hi = (v[..., keep] for v in (idx, lanes, y, sc, lo, hi))
            weak, _, c, _, p1_mu, _, _, _ = lanes
        g, dg, _ = excess(lanes, y, sc)
        up = g > 0.0
        hi, lo = np.where(up, y, hi), np.where(up, lo, y)
    return sc_out


@_quiet
def finite_bound(
    rates: Rates,
    pairs: Pairs,
    n_pulses: int,
    confidence_exponent: float,
    max_iter: int = DEFAULT_MAX_ITER,
) -> Bounds:
    """finite_stats.finite_bound with n_pulses in each class; raises _Replay where that raises.

    n_pulses must be valid for PulseBudget, confidence_exponent for FluctuationSettings.
    """
    seed = wang_asymptotic_bound(rates, pairs)
    c, p1_mu = pairs.c, pairs.p1_mu
    # finite_stats.finite_bound's k_x = 2 sqrt(E / n_x); r_x = k_x / sqrt(s_x).
    k1 = 2.0 * np.sqrt(confidence_exponent / (float(n_pulses) * p1_mu))
    kc = 2.0 * np.sqrt(confidence_exponent / (float(n_pulses) * c))
    system = bounds._constraints(rates, pairs, k1, kc)
    # A k that overflows to inf is a fluctuation far beyond 1.
    blown = np.isinf(k1) | np.isinf(kc)
    live = np.flatnonzero(~(seed.vacuous | blown))
    sc = seed.sc_upper.copy()
    sc[live] = _solve_sc(np.stack(system)[:, live], seed.sc_upper[live], max_iter)
    s1 = bounds._s1(system, sc)
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
    untagged_weak = 1.0 - delta - pairs.p0_mu * rates.s0 / rates.s_mu
    vacuum_part = pairs.p0_mu_prime * rates.s0
    credited = (rates.s_mu_prime > 0.0) & (rates.s_mu_prime >= vacuum_part)
    dark_credit = np.where(credited, vacuum_part / rates.s_mu_prime, 0.0)
    return _clamp01(1.0 - untagged_weak * pairs.exp_gap - dark_credit)


def _binary_entropy(x: np.ndarray) -> np.ndarray:
    """key_rate.binary_entropy on the lanes with 0 < x < 1; 0 on the others."""
    inner = np.flatnonzero((0.0 < x) & (x < 1.0))
    y = x[inner]
    entropy = np.zeros_like(x)
    entropy[inner] = -y * _libm(math.log2, y) - (1.0 - y) * _libm(math.log2, 1.0 - y)
    return entropy


@_quiet
def gllp_rate(delta: np.ndarray, qber: float) -> np.ndarray:
    """key_rate.gllp_rate; delta and qber must be valid for KeyRateInput."""
    untagged = 1.0 - delta
    scaled_error = qber / untagged
    distillable = ~(delta >= 1.0) & ~(scaled_error > 0.5)
    raw = untagged - binary_entropy(qber) - untagged * _binary_entropy(scaled_error)
    return np.where(distillable & ~(raw < 0.0), raw, 0.0)


def sweep(
    mu: Weights,
    mu_prime: Weights,
    pairs: tuple[np.ndarray, np.ndarray],
    etas: Sequence[float],
    s0: float,
    n_pulses: int | None,
    settings: FluctuationSettings,
    qber: float | None,
) -> Rows:
    """Every (pair, eta) row of ``decoyqkd sweep``, pair-major, eta fastest.

    Pair k is (mu.x[i[k]], mu_prime.x[j[k]]) for (i, j) = pairs.  Rows use
    the finite bound with n_pulses in each signal class, or the asymptotic
    bound without them.  pairs and etas must be non-empty, and pairs
    admissible.  Raises the error that a row-by-row run of the scalar
    functions raises.
    """
    i, j = pairs
    grid = Pairs.of(mu, mu_prime, i, j)
    try:
        # What each row's constructors and solver check.
        for eta in etas:
            NoEve(eta=eta, s0=s0)
        if n_pulses is not None:
            PulseBudget(n_mu=n_pulses, n_mu_prime=n_pulses)
        if qber is not None:
            KeyRateInput(delta=0.0, qber=qber)
        eta = np.asarray(etas, float)
        lanes = grid.repeat(eta.size)
        eta_lanes = np.tile(eta, i.size)
        # S_mu once per (mu value, eta), then per lane.
        s_mu = _class_rate(np.tile(eta, mu.x.size), s0, np.repeat(mu.x, eta.size))
        rates = Rates(
            s0=_vacuum_rate(eta_lanes, s0),
            s_mu=s_mu.reshape(-1, eta.size)[i].ravel(),
            s_mu_prime=_class_rate(eta_lanes, s0, lanes.mu_prime),
        )
        if n_pulses is None:
            report = wang_asymptotic_bound(rates, lanes)
        else:
            report = finite_bound(rates, lanes, n_pulses, settings.confidence_exponent)
        return Rows(
            delta_upper=report.delta_upper,
            delta_prime_upper=delta_prime_bound(report.delta_upper, rates, lanes),
            s1_lower=report.s1_lower,
            key_rate=None if qber is None else gllp_rate(report.delta_upper, qber),
            clamped=report.clamped,
            vacuous=report.vacuous,
        )
    except (_Replay, ParameterError):
        pass
    # Outside the except block, so the scalar error carries no _Replay context.
    _replay(zip(grid.mu.tolist(), grid.mu_prime.tolist()), etas, s0, n_pulses, settings, qber)


def _replay(
    pairs: Iterable[tuple[float, float]],
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
