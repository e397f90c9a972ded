"""Lane-parallel versions of the layers a sweep runs for every row.

A lane is one row of a sweep: one admissible (mu, mu') pair on one NoEve
channel, with n pulses in each signal class.  Admissibility then makes the
weak class the smaller sub-population in both fluctuation terms, so the
finite bound's smaller-class sizing is the weak class's n p1 and n c on
every lane.  Each function takes numpy arrays with one entry per lane and
returns, lane by lane, exactly what the scalar function of the same name
returns: the same bits and flags, the bounds in the same BoundReport with
one array per field, and for the finite solver the same steps and
evaluation count (it is the scalar solver's text on lanes: F at the floor
formed directly, one pass per later evaluation, each return a _settle of
the live lanes that take it).  The scalar functions stay the reference
that single bounds, simulation, Table 1 and the tests use;
``decoyqkd sweep`` runs on this module.

Bit identity rests on one rule.  numpy's + - * / and sqrt are correctly
rounded, so the scalar code's operations in the scalar code's order give
the same bits.  numpy's vectorized exp, expm1 and log2 are not: they
differ from the C library's in the last place on a few percent of inputs.
Every such call therefore goes through ``math`` on Python floats.  Neither
engine squares with ``x ** 2``, which Python computes with the C library's
pow: both write x * x, correctly rounded in each.  Each call runs once per
value it depends on: a sweep forms e^{-x} and x e^{-x} once per grid
intensity (``Weights``), c once per mu and S_mu once per (eta, mu), and
only e^{mu-mu'} and S_mu' per pair or lane.  The vacuum rate needs no call
at all, since expm1 returns the signed zero -eta * 0.0 unchanged.  The
binary entropy of the key rate is -x log2 x - (1-x) log2(1-x) in numpy on
the lanes with 0 < x < 1, each log2 through ``math``, and 0 on the others,
which is the scalar function's arithmetic in its order.  Both engines
write a clamp as the one comparison that Python's max(x, 0.0) makes,
0.0 if 0.0 > x else x, the scalar engine inline and this one through
np.where; it keeps x = -0.0, where np.maximum returns 0.0.  The
constraint system is not copied: both engines form it with
bounds._constraints, take every s1 from it with bounds._s1 and the
closed form from bounds._closed_form, on floats or on lanes.

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
from typing import Callable, Iterable, NamedTuple, NoReturn, Sequence

import numpy as np

from . import bounds, channel, finite_stats, key_rate
from .bounds import DEFAULT_MAX_ITER, METHOD_WANG_ASYMPTOTIC, METHOD_WANG_FINITE, TOL, BoundReport
from .channel import NoEve
from .errors import ParameterError
from .finite_stats import FluctuationSettings, PulseBudget
from .key_rate import KeyRateInput, binary_entropy
from .photon_stats import MIN_INTENSITY, ProtocolParams, _multi_ratio, multi_photon_weight

_quiet = np.errstate(divide="ignore", over="ignore", invalid="ignore")


def _libm(fn: Callable[..., float], *args: np.ndarray) -> np.ndarray:
    """fn applied with the C library, element by element, as the scalar code does."""
    return np.fromiter(map(fn, *(a.tolist() for a in args)), float, count=args[0].size)


def _floor0(x: np.ndarray) -> np.ndarray:
    """max(x, 0.0): the scalar engine's inline 0.0 if 0.0 > x else x, on lanes."""
    return np.where(0.0 > x, 0.0, x)


def _clamp01(x: np.ndarray) -> np.ndarray:
    """min(max(x, 0.0), 1.0): the scalar engine's 0.0 if 0.0 > x else 1.0 if 1.0 < x else x."""
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
        return cls(
            x, x_prime, mu.p0[i], mu.p1[i], mu_prime.p0[j], mu_prime.p1[j], exp_gap, c[i],
            _multi_ratio(x, x_prime, exp_gap),
        )

    def repeat(self, count: int) -> Pairs:
        """Each pair ``count`` times in a row, as a sweep lays out its channels."""
        return Pairs._make(np.repeat(a, count) for a in self)


class Rates(NamedTuple):
    """Per-lane counting rates, as ObservedRates holds them for one lane."""

    s0: np.ndarray
    s_mu: np.ndarray
    s_mu_prime: np.ndarray


def _class_rate(
    eta: np.ndarray, s0: np.ndarray | float, intensity: np.ndarray | float
) -> np.ndarray:
    """NoEve.class_rate."""
    return s0 - (1.0 - s0) * _libm(math.expm1, -eta * intensity)


def _vacuum_rate(eta: np.ndarray, s0: np.ndarray | float) -> np.ndarray:
    """NoEve.class_rate(0.0): expm1 returns its argument, the signed zero -eta * 0.0."""
    return s0 - (1.0 - s0) * (-eta * 0.0)


def _raw_delta(rates: Rates, pairs: Pairs) -> np.ndarray:
    """The scalar bounds' divisor test and _closed_form; raises _Replay where they raise."""
    if (pairs.p1_mu_prime * rates.s_mu == 0.0).any():
        raise _Replay
    return bounds._closed_form(rates, pairs, pairs)


@_quiet
def wang_asymptotic_bound(rates: Rates, pairs: Pairs) -> BoundReport:
    """bounds.wang_asymptotic_bound; raises _Replay where that raises."""
    raw = _raw_delta(rates, pairs)
    delta = _clamp01(raw)
    sc_upper = delta * rates.s_mu / pairs.c
    s1 = _floor0(bounds._s1(bounds._constraints(rates, pairs), sc_upper))
    return BoundReport(delta, s1, sc_upper, METHOD_WANG_ASYMPTOTIC, raw != delta, delta >= 1.0)


def _settle(out: np.ndarray, live: np.ndarray, cond: np.ndarray, value: np.ndarray):
    """A scalar ``if cond: return value`` on lanes: live lanes with cond take value and leave."""
    taken = live & cond
    return np.where(taken, value, out), live & ~taken


def _solve_sc(system: tuple, sc_lo: np.ndarray, live: np.ndarray, max_iter: int) -> np.ndarray:
    """bounds._solve_sc on each live lane of a bounds._constraints record of lanes.

    The scalar solver's text in its order, on lanes: F at the floor formed
    directly, one loop pass per later evaluation, and each of its returns a
    _settle of the live lanes that take it.  Each pass covers all lanes, the
    others computing throwaway values, and runs only while a lane is live;
    so evals ends at the slowest lane's scalar evaluation count, and a pass
    that a lane would make past max_iter (at least 1) raises _Replay, where
    the scalar solver raises ConvergenceError.  Other lanes keep sc_lo.
    """
    weak, strong, c, a, p1_mu, p1_mu_prime, k1, kc = system
    # At y = k1 the singles term p1_mu' (y - k1) y is exactly 0 (k1 is finite).
    room = _floor0(a * strong)
    root = kc + np.sqrt(kc * kc + 4.0 * room / c)
    f_floor = 0.25 * (root * root)
    s1_lo = (weak - c * sc_lo) / p1_mu
    out, live = _settle(sc_lo, live, s1_lo <= k1 * k1, f_floor)
    y = hi = np.sqrt(s1_lo)
    lo, sc = k1, sc_lo
    evals = 1
    while live.any():
        if evals >= max_iter:
            raise _Replay
        evals += 1
        room = _floor0(a * (strong - p1_mu_prime * (y - k1) * y))
        disc = np.sqrt(kc * kc + 4.0 * room / c)
        root = kc + disc
        g = 0.25 * (root * root) - sc
        if evals == 2:
            # The pass at sc_lo, where the bracket is [k1, y] already.
            out, live = _settle(out, live, g <= 0.0, sc_lo)
            out, live = _settle(out, live, f_floor - (weak - p1_mu * k1 * k1) / c >= 0.0, f_floor)
        else:
            up = g > 0.0
            hi, lo = np.where(up, y, hi), np.where(up, lo, y)
        slope = (1.0 + kc / disc) * a * p1_mu_prime * (2.0 * y - k1) / c
        dg = 2.0 * p1_mu * y / c - np.where(room != 0.0, slope, 0.0)
        y_next = np.where(dg > 0.0, y - g / dg, 0.5 * (lo + hi))
        y_next = np.where((y_next != y) & ~((lo < y_next) & (y_next < hi)), 0.5 * (lo + hi), y_next)
        sc_next = (weak - p1_mu * y_next * y_next) / c
        # Also stop once no float is left strictly inside the bracket.
        stop = (abs(sc_next - sc) <= TOL * sc_next) | ~((lo < y_next) & (y_next < hi))
        out, live = _settle(out, live, stop, sc_next)
        y, sc = y_next, sc_next
    return out


@_quiet
def finite_bound(
    rates: Rates,
    pairs: Pairs,
    n_pulses: int,
    confidence_exponent: float,
    max_iter: int = DEFAULT_MAX_ITER,
) -> BoundReport:
    """finite_stats.finite_bound with n_pulses in each class; raises _Replay where that raises.

    n_pulses must be valid for PulseBudget, confidence_exponent for FluctuationSettings.
    """
    # The asymptotic bound, clamped to [0, 1], seeds the solver.
    delta = _clamp01(_raw_delta(rates, pairs))
    c, p1_mu = pairs.c, pairs.p1_mu
    # finite_stats.finite_bound's k_x = 2 sqrt(E / n_x); r_x = k_x / sqrt(s_x).
    k1 = 2.0 * np.sqrt(confidence_exponent / (float(n_pulses) * p1_mu))
    kc = 2.0 * np.sqrt(confidence_exponent / (float(n_pulses) * c))
    system = bounds._constraints(rates, pairs, k1, kc)
    # A vacuous seed, or a k that overflows to inf (a fluctuation far beyond 1).
    blown = (delta >= 1.0) | np.isinf(k1) | np.isinf(kc)
    seed = delta * rates.s_mu / c
    sc = _solve_sc(system, seed, ~blown, max_iter)
    # seed if seed > sc else sc, as the scalar function floors the solved sc.
    sc = np.where(seed > sc, seed, sc)
    s1 = bounds._s1(system, sc)
    delta_raw = c * sc / rates.s_mu
    vacuous = blown | (s1 <= k1 * k1) | (delta_raw >= 1.0)
    return BoundReport(
        delta_upper=np.where(vacuous, 1.0, delta_raw),
        s1_lower=np.where(vacuous, 0.0, _floor0(s1 - k1 * np.sqrt(s1))),
        sc_upper=np.where(vacuous, rates.s_mu / c, sc),
        method=METHOD_WANG_FINITE,
        clamped=vacuous,
        vacuous=vacuous,
    )


@_quiet
def delta_prime_bound(delta: np.ndarray, rates: Rates, pairs: Pairs) -> np.ndarray:
    """bounds.delta_prime_bound of a bound's delta (in [0, 1], with s_mu > 0)."""
    untagged_weak = 1.0 - delta - pairs.p0_mu * rates.s0 / rates.s_mu
    vacuum_part = pairs.p0_mu_prime * rates.s0
    strong = rates.s_mu_prime > 0.0
    credited = strong & (rates.s_mu_prime >= vacuum_part)
    dark_credit = np.where(credited, vacuum_part / rates.s_mu_prime, 0.0)
    f = np.where(strong, (pairs.mu_prime / pairs.mu) * (rates.s_mu / rates.s_mu_prime), 1.0)
    f = np.where(1.0 < f, 1.0, f)
    return _clamp01(1.0 - f * untagged_weak * pairs.exp_gap - dark_credit)


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
) -> tuple[BoundReport, np.ndarray, np.ndarray | None]:
    """Every (pair, eta) row of ``decoyqkd sweep``, pair-major, eta fastest.

    Pair k is (mu.x[i[k]], mu_prime.x[j[k]]) for (i, j) = pairs.  Rows use
    the finite bound with n_pulses in each signal class, or the asymptotic
    bound without them.  Returns the rows' report, their delta' and their
    key rate, None without a qber.  pairs and etas must be non-empty, and
    pairs admissible.  Raises the error that a row-by-row run of the scalar
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
        delta_prime = delta_prime_bound(report.delta_upper, rates, lanes)
        return report, delta_prime, None if qber is None else gllp_rate(report.delta_upper, qber)
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
