"""The lane-parallel sweep layers equal the scalar functions bit for bit.

Every comparison is exact: floats are compared by their hex form, so even
the sign of a zero must match, and errors must match in type and message.
Where the scalar solver runs out of evaluations, the layers raise _Replay.
"""

import itertools
import math
import random
import sys
from dataclasses import astuple, fields

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from decoyqkd import (
    BoundReport,
    ConvergenceError,
    DecompositionCoefficients,
    DomainError,
    FluctuationSettings,
    KeyRateInput,
    NoEve,
    ObservedRates,
    ParameterError,
    ProtocolParams,
    PulseBudget,
    YieldTable,
    batch,
    decompose,
    delta_prime_bound,
    expected_rates,
    finite_bound,
    gllp_rate,
    hwang_bound,
    validate_pair,
    wang_asymptotic_bound,
)
from decoyqkd.bounds import DEFAULT_MAX_ITER, _closed_form, _constraints, _solve_sc
from decoyqkd.cli import parse_grid
from decoyqkd.photon_stats import MIN_INTENSITY, MIN_SEPARATION

DEFAULTS = FluctuationSettings()


def exact(value):
    return value.hex() if isinstance(value, float) else value


def outcome(compute):
    """Rows as exact tuples, or the error raised: type and message."""
    try:
        rows = compute()
    except (ValueError, ArithmeticError, ConvergenceError) as exc:
        return (type(exc), str(exc))
    return [tuple(map(exact, row)) for row in rows]


def scalar_row(report, rates, params, qber):
    """A scalar report's fields, method included, then its delta' and key rate."""
    delta = report.delta_upper
    key = None if qber is None else gllp_rate(KeyRateInput(delta, qber))
    return (*astuple(report), delta_prime_bound(delta, rates, params), key)


def lane_reports(report):
    """A lane report's lanes, each its own scalar BoundReport."""
    assert isinstance(report, BoundReport)
    columns = [getattr(report, field.name) for field in fields(report)]
    columns = [c.tolist() if isinstance(c, np.ndarray) else itertools.repeat(c) for c in columns]
    return [BoundReport(*lane) for lane in zip(*columns)]


def lane_rows(report, delta_prime, key_rate):
    """scalar_row of each lane."""
    key = itertools.repeat(None) if key_rate is None else key_rate.tolist()
    return [
        (*astuple(lane), prime, k)
        for lane, prime, k in zip(lane_reports(report), delta_prime.tolist(), key)
    ]


def scalar_lanes(lanes, n, fluct, qber, max_iter):
    rows = []
    for mu, mu_prime, eta, s0 in lanes:
        params = ProtocolParams(mu, mu_prime)
        rates = expected_rates(NoEve(eta=eta, s0=s0), params)
        if n is None:
            report = wang_asymptotic_bound(rates, params)
        else:
            report = finite_bound(rates, params, PulseBudget(n, n), fluct, max_iter)
        rows.append(scalar_row(report, rates, params, qber))
    return rows


def lane_pairs(mu, mu_prime):
    """batch.Pairs with one lane per (mu, mu_prime), each value its own grid value."""
    index = np.arange(len(mu))
    return batch.Pairs.of(batch.Weights.of(mu), batch.Weights.of(mu_prime), index, index)


def sweep_arguments(pairs):
    """batch.sweep's weights and pair indices for a list of pairs."""
    mu, mu_prime = zip(*pairs)
    index = np.arange(len(pairs))
    return batch.Weights.of(mu), batch.Weights.of(mu_prime), (index, index)


def batch_lanes(lanes, n, fluct, qber, max_iter):
    mu, mu_prime, _, _ = zip(*lanes)
    pairs = lane_pairs(mu, mu_prime)
    # Each lane's scalar rates, stacked; batch.sweep's own rate assembly is
    # checked against scalar_sweep.
    observed = [
        expected_rates(NoEve(eta=eta, s0=s0), ProtocolParams(m, mp)) for m, mp, eta, s0 in lanes
    ]
    rates = batch.Rates._make(
        np.array([getattr(r, name) for r in observed], float) for name in batch.Rates._fields
    )
    if n is None:
        report = batch.wang_asymptotic_bound(rates, pairs)
    else:
        # The scalar rows size each fluctuation by the smaller class; with n
        # pulses in each class the lanes' weak-class sizes must equal it.
        report = batch.finite_bound(rates, pairs, n, fluct.confidence_exponent, max_iter)
    delta = report.delta_upper
    key = None if qber is None else batch.gllp_rate(delta, qber)
    return lane_rows(report, batch.delta_prime_bound(delta, rates, pairs), key)


def assert_lanes_match(lanes, n=None, fluct=DEFAULTS, qber=None, max_iter=DEFAULT_MAX_ITER):
    """Each lane's report, method included, delta' and key rate are the scalar ones.

    Or the layers raise _Replay where the scalar solver runs out of evaluations.
    """
    args = (lanes, n, fluct, qber, max_iter)
    expected = outcome(lambda: scalar_lanes(*args))
    try:
        rows = outcome(lambda: batch_lanes(*args))
    except batch._Replay:
        assert expected[0] is ConvergenceError
    else:
        assert rows == expected
    return expected


def scalar_sweep(pairs, etas, s0, n, fluct, qber):
    """The scalar sweep loop: every row builds its channel and budget in turn."""
    rows = []
    for mu, mu_prime in pairs:
        params = ProtocolParams(mu, mu_prime)
        for eta in etas:
            rates = expected_rates(NoEve(eta=eta, s0=s0), params)
            if n is None:
                report = wang_asymptotic_bound(rates, params)
            else:
                budget = PulseBudget(n_mu=n, n_mu_prime=n)
                report = finite_bound(rates, params, budget, fluct)
            rows.append(scalar_row(report, rates, params, qber))
    return rows


def batch_sweep(pairs, *args):
    return lane_rows(*batch.sweep(*sweep_arguments(pairs), *args))


def assert_sweep_matches(pairs, etas, s0=1e-6, n=None, fluct=DEFAULTS, qber=None):
    args = (pairs, etas, s0, n, fluct, qber)
    expected = outcome(lambda: scalar_sweep(*args))
    assert outcome(lambda: batch_sweep(*args)) == expected
    return expected


def grid_lanes(pairs, etas, s0=1e-6):
    """The lanes of a sweep grid, pair-major, eta fastest."""
    return [(mu, mu_prime, eta, s0) for mu, mu_prime in pairs for eta in etas]


transmittances = st.one_of(st.just(0.0), st.floats(-5.0, 0.0).map(lambda e: 10.0**e))
dark_rates = st.one_of(st.just(0.0), st.just(1e-6), st.floats(0.0, 1e-3))


@st.composite
def lanes(draw):
    count = draw(st.integers(1, 12))
    result = []
    for _ in range(count):
        mu = draw(st.floats(0.02, 0.7))
        gap = draw(
            st.one_of(
                st.floats(-6.0, -2.0).map(lambda e: 10.0**e),  # near-diagonal
                st.floats(0.01, 3.0),
            )
        )
        mu_prime = mu * (1.0 + gap)
        if not validate_pair(mu, mu_prime):
            continue
        eta = draw(transmittances)
        s0 = draw(dark_rates)
        if eta == 0.0 and s0 == 0.0:
            s0 = 1e-6  # s_mu = 0 is covered by the error tests
        result.append((mu, mu_prime, eta, s0))
    return result or [(0.3, 0.45, 1e-3, 1e-6)]


budgets = st.one_of(st.none(), st.floats(5.0, 20.0).map(lambda e: int(10.0**e)))
fluctuations = st.builds(FluctuationSettings, confidence_exponent=st.floats(1.0, 50.0))
qbers = st.one_of(st.none(), st.just(0.0), st.floats(0.0, 0.5))


@hyp_settings(max_examples=40)
@given(lanes(), budgets, fluctuations, qbers)
def test_layers_equal_scalar_functions(drawn, n, fluct, qber):
    assert_lanes_match(drawn, n, fluct, qber)


@hyp_settings(max_examples=40)
@given(
    lanes(), st.lists(transmittances, min_size=1, max_size=4), dark_rates,
    budgets, fluctuations, qbers,
)
def test_sweep_equals_scalar_sweep(drawn, etas, s0, n, fluct, qber):
    # batch.sweep assembles its own rates (S_mu per (eta, mu) value, S_mu' and
    # s0 per lane), so this covers that assembly under random s0; a zero eta
    # with s0 = 0 must raise the scalar error.
    pairs = [(mu, mu_prime) for mu, mu_prime, _, _ in drawn]
    assert_sweep_matches(pairs, etas, s0, n, fluct, qber)


def random_lane(rng):
    """One lane from the classes lanes() draws: near-diagonal or wide pairs, dead eta."""
    while True:
        mu = rng.uniform(0.02, 0.7)
        if rng.random() < 0.5:
            gap = 10.0 ** rng.uniform(-6.0, -2.0)
        else:
            gap = rng.uniform(0.01, 3.0)
        if validate_pair(mu, mu * (1.0 + gap)):
            break
    eta = 0.0 if rng.random() < 0.1 else 10.0 ** rng.uniform(-5.0, 0.0)
    s0 = rng.choice((0.0, 1e-6, rng.uniform(0.0, 1e-3)))
    if eta == 0.0 and s0 == 0.0:
        s0 = 1e-6  # s_mu = 0 is covered by the error tests
    return mu, mu * (1.0 + gap), eta, s0


def test_layers_equal_scalar_on_random_lanes():
    # The depth behind the hypothesis test above: 300 lanes a call, and each
    # fluctuation setting meets every qber class over the budgets.
    rng = random.Random(20050712)
    qbers = itertools.cycle((None, 0.0, 0.015, 0.3))
    for n in (None, 10**5, 10**8, 8 * 10**10, 10**14, 10**20, int(10.0 ** rng.uniform(5, 20))):
        for fluct in (
            DEFAULTS,
            FluctuationSettings(5.0),
            FluctuationSettings(rng.uniform(1.0, 50.0)),
        ):
            drawn = [random_lane(rng) for _ in range(300)]
            assert isinstance(assert_lanes_match(drawn, n, fluct, next(qbers)), list)


def test_pairs_carry_the_decomposition_bit_for_bit():
    # Every admissible Baseline pair, and pairs at the separation floor.
    pairs = [
        (mu, mu_prime)
        for mu in parse_grid("0.05:0.5:0.005", "mu")
        for mu_prime in parse_grid("0.1:1.0:0.005", "mu_prime")
        if validate_pair(mu, mu_prime)
    ]
    rng = random.Random(18)
    for _ in range(500):
        mu = 10.0 ** rng.uniform(-6.0, math.log10(0.9))
        pairs.append((mu, mu * (1.0 + MIN_SEPARATION)))
    names = [field.name for field in fields(DecompositionCoefficients)]
    assert batch.Pairs._fields == ("mu", "mu_prime", *names)
    lanes = lane_pairs(*zip(*pairs))
    columns = [getattr(lanes, name).tolist() for name in names]
    for (mu, mu_prime), *row in zip(pairs, *columns):
        coeffs = decompose(ProtocolParams(mu, mu_prime))
        assert list(map(exact, row)) == [exact(getattr(coeffs, n)) for n in names], (mu, mu_prime)


def largest_admissible_mu_prime(mu):
    """The largest float mu' with validate_pair(mu, mu'), for mu below 1 / (1 + 1e-6)."""
    lo, hi = 1.0, 800.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if validate_pair(mu, mid) else (lo, mid)
    return lo


def test_every_pair_above_the_intensity_floor_decomposes():
    # mu log-uniform down to MIN_INTENSITY, each with its separation floor, a
    # log-uniform mu' and its largest admissible mu', which reaches 351.25.
    rng = random.Random(19)
    mus = [MIN_INTENSITY] + [10.0 ** rng.uniform(-150.0, -1e-6) for _ in range(1999)]
    pairs = []
    for mu in mus:
        top = largest_admissible_mu_prime(mu)
        floor = mu * (1.0 + MIN_SEPARATION)
        middle = math.exp(rng.uniform(math.log(floor), math.log(top)))
        pairs += [(mu, floor), (mu, middle), (mu, top)]
    assert pairs[2] == (1e-150, 351.2492600631708)
    names = [field.name for field in fields(DecompositionCoefficients)]
    lanes = lane_pairs(*zip(*pairs))
    columns = [getattr(lanes, name).tolist() for name in names]
    channel = NoEve(eta=1e-3, s0=1e-6)
    budget = PulseBudget(10**10, 10**10)
    for (mu, mu_prime), *row in zip(pairs, *columns):
        params = ProtocolParams(mu, mu_prime)
        coeffs = [getattr(decompose(params), name) for name in names]
        assert all(math.isfinite(v) and v >= sys.float_info.min for v in coeffs), (mu, mu_prime)
        assert list(map(exact, row)) == list(map(exact, coeffs)), (mu, mu_prime)
        rates = expected_rates(channel, params)
        hwang_bound(rates, params)
        report = wang_asymptotic_bound(rates, params)
        finite_bound(rates, params, budget)
        delta_prime_bound(report.delta_upper, rates, params)
    check = validate_pair(1e-151, 0.45)
    assert (check.valid, check.reason) == (False, "mu must be at least 1e-150, got 1e-151")


def test_baseline_grid_slice_with_vacuous_rows():
    mu_primes = np.arange(0.1, 1.0001, 0.05).round(12).tolist()
    pairs = [(mu, mp) for mu in (0.05, 0.3, 0.5) for mp in mu_primes if validate_pair(mu, mp)]
    etas = [1e-4, 1e-3, 1e-2]
    flag_sets = [
        {},
        {"n": 8 * 10**10, "qber": 0.015},
        {"n": 10**6, "qber": 0.2},
        {"n": 8 * 10**10, "fluct": FluctuationSettings(20.0)},
        {"n": 1000},
    ]
    seen = set()
    for flags in flag_sets:
        rows = assert_sweep_matches(pairs, etas, **flags)
        seen |= {(row[4], row[5]) for row in rows}
    assert seen == {(False, False), (True, True)}


def test_floor_exit_with_s1_near_k1_squared_is_vacuous():
    # test_finite_stats' floor exit with s1 = 0.61 k1^2, beside two lanes
    # that stay informative.
    rows = assert_sweep_matches([(0.29, 0.472)], [9.7e-5, 1e-3, 1e-2], s0=7.6e-5, n=33_000_000)
    assert [row[5] for row in rows] == [True, False, False]


def test_overflowed_fluctuation_lanes_are_vacuous():
    drawn = grid_lanes([(0.3, 0.45), (0.1, 0.2)], [1e-4, 1e-3, 1e-2])
    fluct = FluctuationSettings(confidence_exponent=1e308)
    for n in (1, 10**6):
        rows = assert_lanes_match(drawn, n, fluct)
        assert all(row[5] for row in rows)


def test_near_diagonal_pairs():
    drawn = [(0.3, 0.3 * (1.0 + gap), 1e-3, 1e-6) for gap in (1e-6, 1e-5, 1e-4, 1e-3)]
    for n in (None, 10**8, 10**20):
        assert isinstance(assert_lanes_match(drawn, n, qber=0.01), list)


def test_seed_exit_lanes():
    # test_finite_stats' budgets at which F(seed) - seed rounds to <= 0.
    for lane, exponent in (((0.3, 0.3001, 1e-3, 1e-6), 38), ((0.25, 0.41, 1e-4, 1e-6), 40)):
        assert isinstance(assert_lanes_match([lane], 10**exponent), list)


def clamped_seed_cases():
    """(source, params, rates) whose closed-form raw delta is below 0, exactly 0 or at least 1.

    A single-photon yield table with y1 = 1 and s0 = 0, or direct rates
    S_mu = mu e^{-mu} and S_mu' = mu' e^{-mu'}, makes the ratio exactly 1;
    other single-photon tables miss it by rounding, either way.
    """
    cases = []
    for mu, mu_prime in ((0.3, 0.45), (0.1, 0.5), (0.5, 0.9)):
        params = ProtocolParams(mu, mu_prime)
        coeffs = decompose(params)
        direct = (
            ObservedRates(0.0, 1e-3, 1e-3),
            ObservedRates(1e-6, 1e-3, 1.1e-3),
            ObservedRates(0.0, coeffs.p1_mu, coeffs.p1_mu_prime),
            ObservedRates(1e-6, 1e-6, 1e-3),
        )
        cases += [("direct", params, rates) for rates in direct]
        for s0 in (0.0, 1e-6):
            for yields in ((1.0, 0.0), (0.7, 0.0), (0.3, 0.0, 0.0), (0.0, 0.0, 1.0)):
                rates = expected_rates(YieldTable(s0, yields), params)
                cases.append(("yields", params, rates))
    return cases


def finite_outcome(params, rates, n, max_iter):
    """finite_bound's report fields as exact values, or its error's type and message."""
    return outcome(
        lambda: [astuple(finite_bound(rates, params, PulseBudget(n, n), DEFAULTS, max_iter))]
    )


def batch_finite_outcome(cases, n, max_iter):
    """batch.finite_bound on the cases' lanes, as finite_outcome rows, or _Replay."""
    mu, mu_prime = zip(*((params.mu, params.mu_prime) for params, _ in cases))
    rates = batch.Rates._make(
        np.array([getattr(r, name) for _, r in cases], float) for name in batch.Rates._fields
    )
    try:
        report = batch.finite_bound(rates, lane_pairs(mu, mu_prime), n, 25.0, max_iter)
    except batch._Replay:
        return batch._Replay
    return [tuple(map(exact, astuple(lane))) for lane in lane_reports(report)]


@pytest.mark.parametrize("n", [10**6, 10**10, 10**14])
def test_finite_seed_is_the_clamped_closed_form_in_both_engines(n):
    cases = clamped_seed_cases()
    raw = {
        source: [_closed_form(r, decompose(p), p) for s, p, r in cases if s == source]
        for source in ("direct", "yields")
    }
    for values in raw.values():
        assert min(values) < 0.0 and 0.0 in values and max(values) >= 1.0
    # Errors too: s_mu = 0, and mu' e^{-mu'} S_mu underflowing to 0.
    errors = [
        (ProtocolParams(0.3, 0.45), ObservedRates(0.0, 0.0, 1e-3)),
        (ProtocolParams(1e-150, 2e-150), ObservedRates(0.0, 1e-180, 1e-180)),
    ]
    lanes = [(params, rates) for _, params, rates in cases]
    for max_iter in (1, 2, DEFAULT_MAX_ITER):
        expected = [finite_outcome(p, r, n, max_iter) for p, r in lanes + errors]
        # Lane by lane, every scalar error is a _Replay of its lane.
        for lane, scalar in zip(lanes + errors, expected):
            rows = batch_finite_outcome([lane], n, max_iter)
            assert rows is batch._Replay if isinstance(scalar, tuple) else rows == scalar
        if all(isinstance(row, list) for row in expected[:len(lanes)]):
            assert batch_finite_outcome(lanes, n, max_iter) == [
                row for rows in expected[:len(lanes)] for row in rows
            ]
    # The solver starts at the asymptotic sc_upper: 0 where raw delta is below 0.
    for params, rates in lanes:
        coeffs = decompose(params)
        seed = wang_asymptotic_bound(rates, params)
        report = finite_bound(rates, params, PulseBudget(n, n))
        assert (seed.sc_upper == 0.0) == (seed.delta_upper == 0.0)
        if seed.vacuous or report.vacuous:
            continue
        k1 = 2.0 * math.sqrt(25.0 / (n * coeffs.p1_mu))
        kc = 2.0 * math.sqrt(25.0 / (n * coeffs.c))
        system = _constraints(rates, coeffs, k1, kc)
        assert exact(report.sc_upper) == exact(_solve_sc(system, seed.sc_upper))


def test_finite_sc_is_floored_at_the_seed_in_both_engines():
    # The solver landed a rounding step below the clamped seed sc = 0 here,
    # and both engines returned delta_upper -1.19e-16.
    params = ProtocolParams(0.019184350094736843, 0.9480957022500398)
    rates = ObservedRates(6.2428761270174016e-09, 0.11631410064078987, 6.616781629119358e-05)
    n, exponent = 10**18, 4.654601437947795
    scalar = finite_bound(rates, params, PulseBudget(n, n), FluctuationSettings(exponent))
    assert scalar.delta_upper == 0.0 and scalar.sc_upper == 0.0 and not scalar.vacuous
    # So delta' takes it, and equals the asymptotic bound's delta'.
    asymptotic = wang_asymptotic_bound(rates, params).delta_upper
    assert delta_prime_bound(scalar.delta_upper, rates, params) == delta_prime_bound(
        asymptotic, rates, params
    )
    lanes = batch.finite_bound(
        batch.Rates._make(np.array([v]) for v in astuple(rates)),
        lane_pairs([params.mu], [params.mu_prime]), n, exponent,
    )
    assert [tuple(map(exact, astuple(lane))) for lane in lane_reports(lanes)] == [
        tuple(map(exact, astuple(scalar)))
    ]


def test_key_rate_at_the_entropy_edges():
    # Lanes whose renormalized error x = qber / (1 - delta) is 0, exactly
    # 1/2 or subnormal, beside random deltas and deltas that leave no key.
    # numpy's own log2 differs from the C library's on a few inputs in 10^4,
    # so one qber runs on many lanes.
    rng = random.Random(20040507)
    deltas = [rng.random() for _ in range(30)] + [0.0, 0.5, 1.0 - 2.0**-52, 1.0]
    cases = [(0.0, deltas), (-0.0, deltas), (0.5, deltas), (5e-324, deltas)]
    cases.append((rng.uniform(1e-320, 2.0**-1022), deltas))
    cases.append((0.015, [rng.random() for _ in range(5000)]))
    for _ in range(10):
        # A dyadic qber makes 1 - 2 qber, and x = 1/2 on its lane, exact.
        qber = rng.randrange(1, 257) / 1024
        assert qber / (1.0 - (1.0 - 2.0 * qber)) == 0.5
        cases.append((qber, [1.0 - 2.0 * qber, *deltas]))
    for qber, lanes in cases:
        expected = [gllp_rate(KeyRateInput(delta, qber)).hex() for delta in lanes]
        assert [key.hex() for key in batch.gllp_rate(np.array(lanes), qber).tolist()] == expected


def test_delta_prime_forfeits_the_dark_credit_as_scalar():
    # Direct rates with S_mu' below, at and above e^{-mu'} s0, and S_mu' = 0,
    # which no NoEve channel yields.
    rng = random.Random(22)
    params = ProtocolParams(0.3, 0.45)
    vacuum_part = decompose(params).p0_mu_prime * 1e-3
    strong = [0.0, 5e-324, 1e-320, 1e-5, math.nextafter(vacuum_part, 0.0), vacuum_part, 1e-3]
    strong += [rng.uniform(0.0, 2e-3) for _ in range(200)]
    rates = [(1e-3, s_mu, s_mu_prime) for s_mu in (1e-4, 1e-2) for s_mu_prime in strong]
    deltas = [rng.choice((0.0, 0.2, 1.0, rng.random())) for _ in rates]
    expected = [
        delta_prime_bound(delta, ObservedRates(*lane), params).hex()
        for delta, lane in zip(deltas, rates)
    ]
    lanes = batch.Rates(*(np.array(column) for column in zip(*rates)))
    pairs = lane_pairs([0.3] * len(rates), [0.45] * len(rates))
    got = batch.delta_prime_bound(np.array(deltas), lanes, pairs).tolist()
    assert [value.hex() for value in got] == expected


def both_orders(pairs, etas, **flags):
    """assert_sweep_matches on the grid, then on its pairs and etas reversed."""
    return [
        assert_sweep_matches(pairs, etas, **flags),
        assert_sweep_matches(pairs[::-1], etas[::-1], **flags),
    ]


@pytest.mark.parametrize("max_iter", [1, 2, 3])
def test_convergence_error_at_max_iter(max_iter):
    drawn = grid_lanes([(0.3, mu_prime) for mu_prime in (0.35, 0.45, 0.6)], [1e-4, 1e-2])
    for order in (drawn, drawn[::-1]):
        expected = assert_lanes_match(order, n=8 * 10**10, max_iter=max_iter)
        assert expected[0] is ConvergenceError


@pytest.mark.parametrize("max_iter", range(1, 8))
def test_convergence_error_only_on_lanes_needing_more_evaluations(max_iter):
    # At N = 1e6 the scalar solver needs 1 and 2, 1 and 6, and 1 and 7
    # evaluations on these pairs at the two etas, so each max_iter below 7
    # stops a different subset of lanes.
    drawn = grid_lanes([(0.1, 0.105), (0.1, 0.3), (0.1, 0.2)], [1e-4, 1e-2])
    for order in (drawn, drawn[::-1]):
        expected = assert_lanes_match(order, n=10**6, max_iter=max_iter)
        assert isinstance(expected, list) == (max_iter == 7)
    for lane, needed in zip(drawn, (1, 2, 1, 6, 1, 7)):
        expected = assert_lanes_match([lane], n=10**6, max_iter=max_iter)
        assert isinstance(expected, list) == (max_iter >= needed)


def test_zero_weak_rate_rejected_in_lane_order():
    # With s0 = 0, eta = 0 leaves s_mu = 0 while eta = 1e-3 bounds fine.
    pairs, etas = [(0.3, 0.45)], [0.0, 1e-3]
    for n in (None, 10**10):
        for expected in both_orders(pairs, etas, s0=0.0, n=n):
            assert expected[0] is ParameterError


def test_sweep_errors_follow_row_order():
    pairs = [(0.3, 0.45), (0.3, 0.6)]
    cases = [
        {"etas": [1e-3, 2.0]},
        {"etas": [2.0, 1e-3], "n": 0},
        {"etas": [1e-3, 1e-2], "n": 0, "qber": 0.7},
        {"etas": [1e-3, 2.0], "qber": 0.7},
        {"etas": [1e-3, 2.0], "s0": 1.5},
        {"etas": [1e-3, 1e-2, 2.0], "n": 10**10},
        {"etas": [1e-3, 1e-2, 2.0], "n": 10**10, "qber": 0.7},
        {"etas": [1e-3, 0.0], "s0": 0.0, "n": 10**10},
        {"etas": [0.0, 1e-3], "s0": 0.0, "n": 10**10},
        {"etas": [1e-3, 0.0], "s0": 0.0, "qber": 0.1},
    ]
    for case in cases:
        etas = case.pop("etas")
        expected = assert_sweep_matches(pairs, etas, **case)
        assert not isinstance(expected, list), case


def test_underflow_errors_match_scalar():
    # Subnormal or tiny rates make the scalar bounds divide by zero, so they
    # raise DomainError instead.
    grids = [
        ([(0.3, 0.45), (0.5, 0.6)], [1e-3, 0.0], 5e-324),
        # At the intensity floor, mu' e^{-mu'} S_mu = 2e-150 * 1e-180 underflows to 0.
        ([(0.3, 0.45), (1e-150, 2e-150)], [1e-30], 0.0),
    ]
    for pairs, etas, s0 in grids:
        for n in (None, 10**10):
            for expected in both_orders(pairs, etas, s0=s0, n=n):
                assert not isinstance(expected, list)


def test_sweep_errors_carry_no_replay_context():
    for pairs, etas, s0 in (([(1e-150, 2e-150)], [1e-30], 0.0), ([(0.3, 0.45)], [1e-3, 2.0], 1e-6)):
        with pytest.raises((DomainError, ParameterError)) as raised:
            batch.sweep(*sweep_arguments(pairs), etas, s0, 10**10, DEFAULTS, None)
        assert raised.value.__context__ is None
