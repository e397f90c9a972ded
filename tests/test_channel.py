import itertools
import math
import random
import struct
import sys
import threading
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from decoyqkd import (
    DomainError,
    NoEve,
    ObservedRates,
    ParameterError,
    PnsAttack,
    ProtocolParams,
    PulseBudget,
    YieldTable,
    delta_prime_bound,
    expected_rates,
    finite_bound,
    multi_photon_fraction,
    sample_observation,
    true_delta,
)

from reference import poisson_pmf

PARAMS = ProtocolParams(0.3, 0.45)


def test_scenario_validation():
    with pytest.raises(ParameterError):
        NoEve(eta=1.5)
    with pytest.raises(ParameterError):
        NoEve(eta=0.1, s0=-0.1)
    with pytest.raises(ParameterError):
        PnsAttack(q=2.0)
    with pytest.raises(ParameterError):
        YieldTable(s0=0.0, yields=(0.5,))
    with pytest.raises(ParameterError):
        YieldTable(s0=0.0, yields=(0.5, 1.2))


def test_no_eve_expected_rate_oracle():
    rates = expected_rates(NoEve(eta=1e-3, s0=1e-6), ProtocolParams(0.25, 0.41))
    assert rates.s_mu == pytest.approx(2.5096850263525131e-4, rel=1e-12)
    assert rates.s0 == 1e-6


def test_no_eve_dead_channel():
    rates = expected_rates(NoEve(eta=0.0, s0=0.0), PARAMS)
    assert rates.s_mu == 0.0 and rates.s_mu_prime == 0.0 and rates.s0 == 0.0


def test_no_eve_strong_class_brighter():
    rates = expected_rates(NoEve(eta=1e-3, s0=1e-6), PARAMS)
    assert rates.s_mu_prime > rates.s_mu > rates.s0


def test_pns_rate_oracle():
    rates = expected_rates(PnsAttack(q=1.0, s0=0.0), PARAMS)
    assert rates.s_mu == pytest.approx(0.036936313113766774, rel=1e-12)
    assert rates.s_mu_prime == pytest.approx(0.07543918014842872, rel=1e-12)
    assert rates.s0 == 0.0


def test_yield_table_matches_poisson_sum():
    table = YieldTable(s0=1e-6, yields=(0.1, 0.2, 0.3, 0.4))
    rate = table.class_rate(0.3)
    brute = poisson_pmf(0, 0.3) * 1e-6 + sum(
        poisson_pmf(n, 0.3) * y for n, y in enumerate((0.1, 0.2, 0.3, 0.4), start=1)
    )
    assert rate == pytest.approx(brute, rel=1e-12)


def _two_pass_class_rate(s0, yields, intensity):
    """YieldTable.class_rate as two passes: the Poisson prefix, then its weighting."""
    probs = [math.exp(-intensity)]
    for n in range(len(yields)):
        probs.append(probs[-1] * intensity / (n + 1))
    if sum(probs) > 1.0 + 1e-12:
        raise DomainError("prefix sum exceeds 1")
    rate = probs[0] * s0
    for n, y in enumerate(yields, start=1):
        rate += probs[n] * y
    # A click probability, capped at 1 as YieldTable.class_rate caps it.
    return min(rate, 1.0)


def _bits_or_error(rate):
    try:
        return struct.pack("<d", rate())
    except DomainError:
        return "DomainError"


def _assert_class_rate_bit_identical(s0, yields, intensity):
    table = YieldTable(s0=s0, yields=tuple(yields))
    assert _bits_or_error(lambda: table.class_rate(intensity)) == _bits_or_error(
        lambda: _two_pass_class_rate(s0, yields, intensity)
    ), (s0, yields, intensity)


WEIGHTS = st.sampled_from([0.0, -0.0, 5e-324, 1.0]) | st.floats(min_value=0.0, max_value=1.0)
INTENSITIES = (
    st.sampled_from([0.0, -0.0, 745.0, 800.0])
    | st.floats(min_value=5e-324, max_value=2.225073858507201e-308)
    | st.floats(min_value=0.0, max_value=1.0)
    | st.floats(min_value=0.0, max_value=50.0)
)


@settings(max_examples=60)
@given(WEIGHTS, st.lists(WEIGHTS, min_size=2, max_size=60), INTENSITIES)
def test_yield_table_class_rate_bit_identical_to_two_pass(s0, yields, intensity):
    _assert_class_rate_bit_identical(s0, yields, intensity)


def test_yield_table_class_rate_bit_identical_on_random_tables():
    # The depth behind the hypothesis test above, from the same pools.
    rng = random.Random(1994)

    def weight():
        return rng.choice((0.0, -0.0, 5e-324, 1.0, rng.random()))

    intensities = (
        lambda: rng.choice((0.0, -0.0, 745.0, 800.0)),
        lambda: rng.uniform(5e-324, 2.225073858507201e-308),
        lambda: rng.uniform(0.0, 1.0),
        lambda: rng.uniform(0.0, 50.0),
    )
    for _ in range(2000):
        yields = [weight() for _ in range(rng.randint(2, 60))]
        _assert_class_rate_bit_identical(weight(), yields, rng.choice(intensities)())


def test_yield_table_prefix_sum_overflow_is_a_domain_error():
    # e^{-730} is subnormal, so the recurrence's weights sum past 1 + SUM_TOL.
    with pytest.raises(DomainError, match="prefix sum exceeds 1 for mu=730.0, n_max=2000"):
        YieldTable(0.0, (0.5,) * 2000).class_rate(730.0)
    _assert_class_rate_bit_identical(0.0, (0.5,) * 2000, 730.0)


@pytest.mark.parametrize(
    "scenario",
    [
        NoEve(eta=1e-3, s0=1e-6),
        NoEve(eta=0.3, s0=0.01),
        PnsAttack(q=0.4, s0=1e-5),
        YieldTable(s0=1e-6, yields=(0.1, 0.2, 0.3)),
    ],
    ids=["no_eve-lossy", "no_eve-bright", "pns", "yields"],
)
def test_class_rate_is_the_photon_yield_mixture(scenario):
    for intensity in (0.0, 0.3, 0.45, 1.0):
        mixture = sum(poisson_pmf(n, intensity) * scenario.photon_yield(n) for n in range(60))
        assert scenario.class_rate(intensity) == pytest.approx(mixture, rel=1e-9)


def test_all_ones_yield_table_rate_is_capped_at_1():
    # The Poisson sum rounds to 1.0000000000000002 here, which no sampler or
    # ObservedRates accepts.
    table = YieldTable(1.0, (1.0,) * 32)
    assert table.class_rate(1.1840552396430415) == 1.0
    assert expected_rates(table, ProtocolParams(0.6, 1.1840552396430415)).s_mu_prime == 1.0


SCENARIOS = st.one_of(
    st.builds(NoEve, WEIGHTS, WEIGHTS),
    st.builds(PnsAttack, WEIGHTS, WEIGHTS),
    st.builds(YieldTable, WEIGHTS, st.lists(WEIGHTS, min_size=2, max_size=60).map(tuple)),
)


@settings(max_examples=300)
@given(SCENARIOS, INTENSITIES)
@example(YieldTable(1.0, (1.0,) * 32), 1.1840552396430415)
def test_every_class_rate_is_a_probability(scenario, intensity):
    try:
        rate = scenario.class_rate(intensity)
    except DomainError:
        return  # a Poisson prefix sum past 1, as in the test above
    assert 0.0 <= rate <= 1.0, (scenario, intensity)


def test_yield_table_class_rate_signed_zeros():
    # Every sign pattern of an all-zero table at both zero intensities: the
    # sum's sign then hangs on each term's sign.
    for size in (2, 3, 4):
        for s0, *yields in itertools.product((0.0, -0.0), repeat=size + 1):
            for intensity in (0.0, -0.0):
                _assert_class_rate_bit_identical(s0, yields, intensity)
    _assert_class_rate_bit_identical(-0.0, [5e-324, -0.0], 0.0)


def test_yield_table_truncation_negligible():
    base = YieldTable(s0=1e-6, yields=tuple([0.5] * 20))
    extended = YieldTable(s0=1e-6, yields=tuple([0.5] * 20 + [1.0] * 20))
    for intensity in (0.2, 0.5, 1.0):
        assert abs(extended.class_rate(intensity) - base.class_rate(intensity)) < 1e-15


def test_true_delta_no_eve_matches_analytic_window():
    delta, _ = true_delta(NoEve(eta=1e-3, s0=0.0), ProtocolParams(0.2, 0.39))
    assert 0.181 <= delta <= 0.183


def test_true_delta_pns_all_counts_tagged():
    delta, delta_prime = true_delta(PnsAttack(q=1.0, s0=0.0), PARAMS)
    assert delta == 1.0
    assert delta_prime == 1.0


def test_true_delta_no_multi_photon_yield():
    table = YieldTable(s0=1e-6, yields=(0.3, 0.0, 0.0))
    delta, delta_prime = true_delta(table, PARAMS)
    assert delta == 0.0
    assert delta_prime == 0.0


def test_multi_photon_fraction_dead_class():
    assert multi_photon_fraction(NoEve(eta=0.0, s0=0.0), 0.3) == 0.0


@given(st.floats(min_value=0.05, max_value=1.0), st.floats(min_value=1e-5, max_value=0.1))
def test_multi_photon_fraction_in_unit_interval(intensity, eta):
    frac = multi_photon_fraction(NoEve(eta=eta, s0=1e-6), intensity)
    assert 0.0 <= frac <= 1.0


def _uncached(scenario, params, budget, seed):
    """Rates, true fractions and sampled clicks, each class rate evaluated afresh."""
    s0, s_mu, s_mu_prime = (scenario.class_rate(x) for x in (0.0, params.mu, params.mu_prime))
    rng = np.random.default_rng(seed)
    clicks = tuple(
        int(rng.binomial(n, rate))
        for n, rate in ((budget.n_mu, s_mu), (budget.n_mu_prime, s_mu_prime), (budget.n_vacuum, s0))
    )
    truth = (multi_photon_fraction(scenario, params.mu),
             multi_photon_fraction(scenario, params.mu_prime))
    return [x.hex() for x in (s0, s_mu, s_mu_prime, *truth)] + list(clicks)


def test_one_class_rate_evaluation_per_strategy(monkeypatch):
    budget = PulseBudget(10**6, 10**6, 10**6)
    tables = [YieldTable(1e-5, (0.2, 0.4, 0.6)), YieldTable(0.0, (0.9, 0.1, 0.3, 0.7))]
    # Two equal-valued but distinct params, and one other pair.
    params = [ProtocolParams(0.3, 0.45), ProtocolParams(0.3, 0.45), ProtocolParams(0.1, 0.5)]
    cases = [(t, p) for p in params for t in tables]
    expected = [_uncached(t, p, budget, 7) for t, p in cases]
    calls = []
    rate = YieldTable.class_rate
    monkeypatch.setattr(YieldTable, "class_rate", lambda self, x: calls.append(x) or rate(self, x))
    # One strategy reads S_0, S_mu and S_mu' once: 8 evaluations before.
    table, pair = cases[-1]
    rates, truth = expected_rates(table, pair), true_delta(table, pair)
    obs = sample_observation(table, pair, budget, 7)
    assert calls == [0.0, 0.1, 0.5]
    assert [x.hex() for x in (*astuple(rates), *truth)] == expected[-1][:5]
    assert [obs.clicks_mu, obs.clicks_mu_prime, obs.clicks_vacuum] == expected[-1][5:]
    # Interleaved, every call meets another pair, so each evaluates its own.
    calls.clear()
    got = [[] for _ in cases]
    for step in (lambda t, p: astuple(expected_rates(t, p)), true_delta):
        for values, (t, p) in zip(got, cases):
            values.extend(x.hex() for x in step(t, p))
    assert len(calls) == 2 * 3 * len(cases)
    assert got == [values[:5] for values in expected]
    for (t, p), values in zip(cases, expected):
        obs = sample_observation(t, p, budget, 7)
        assert [obs.clicks_mu, obs.clicks_mu_prime, obs.clicks_vacuum] == values[5:]
    assert len(calls) == 3 * 3 * len(cases)


def test_shared_class_rates_under_threads():
    # Threads replace the one kept entry under each other; a thread may only
    # miss it, never read another thread's pair.
    pairs = [
        (YieldTable(1e-6 * k, tuple(0.01 * ((k + n) % 100) for n in range(40))),
         ProtocolParams(0.1 + 0.05 * k, 0.6 + 0.05 * k))
        for k in range(6)
    ]
    expected = [_uncached(t, p, PulseBudget(1, 1), 0)[:5] for t, p in pairs]
    wrong = []

    def work(k):
        t, p = pairs[k]
        for _ in range(3000):
            got = [x.hex() for x in (*astuple(expected_rates(t, p)), *true_delta(t, p))]
            if got != expected[k]:
                wrong.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(pairs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def test_sample_observation_deterministic():
    budget = PulseBudget(10**6, 10**6, 10**5)
    scenario = NoEve(eta=1e-2, s0=1e-5)
    a = sample_observation(scenario, PARAMS, budget, seed=1234)
    b = sample_observation(scenario, PARAMS, budget, seed=1234)
    assert a == b
    c = sample_observation(scenario, PARAMS, budget, seed=1235)
    assert c != a


def test_sample_observation_keeps_default_rng_stream():
    # The sampler builds its PCG64 directly; its clicks must stay the weak,
    # strong and vacuum binomial draws of default_rng(seed), in that order.
    budget = PulseBudget(10**6, 3 * 10**5, 10**5)
    scenario = NoEve(eta=5e-2, s0=1e-3)
    s0, s_mu, s_mu_prime = astuple(expected_rates(scenario, PARAMS))
    family = random.Random(28)
    seeds = [0, 1, 2**32 - 1, 2**32, 2**63 - 1]
    seeds += [family.randrange(2 ** family.choice((8, 32, 64, 128))) for _ in range(200)]
    for seed in seeds:
        rng = np.random.default_rng(seed)
        expected = (
            int(rng.binomial(budget.n_mu, s_mu)),
            int(rng.binomial(budget.n_mu_prime, s_mu_prime)),
            int(rng.binomial(budget.n_vacuum, s0)),
        )
        obs = sample_observation(scenario, PARAMS, budget, seed)
        assert (obs.clicks_mu, obs.clicks_mu_prime, obs.clicks_vacuum) == expected, seed


def test_sample_observation_rejects_negative_seed():
    budget = PulseBudget(10**6, 10**6)
    with pytest.raises(ParameterError, match="seed must be a non-negative integer, got -1"):
        sample_observation(NoEve(eta=1e-2), PARAMS, budget, seed=-1)


def test_sample_observation_rejects_non_integer_seed():
    budget = PulseBudget(10**6, 10**6)
    for seed, shown in ((1.5, "1.5"), ("3", "'3'"), (None, "None")):
        with pytest.raises(ParameterError, match=f"seed must be a non-negative integer, got {shown}"):
            sample_observation(NoEve(eta=1e-2), PARAMS, budget, seed=seed)


def test_sample_observation_empty_vacuum_class():
    budget = PulseBudget(10**5, 10**5, 0)
    scenario = NoEve(eta=1e-2, s0=1e-3)
    obs = sample_observation(scenario, PARAMS, budget, seed=5)
    assert obs.clicks_vacuum == 0
    assert obs.rates.s0 == scenario.class_rate(0.0)


def test_sampled_finite_bound_without_vacuum_class_is_sound():
    # With no vacuum pulses, a reported s0 of 0 dropped the vacuum credit, and
    # 223 of these sampled finite bounds fell below the truth.  A small vacuum
    # class gave a noisy s0 that the bound took as exact: with 1, 10, 100 and
    # 1000 vacuum pulses, 223, 223, 217 and 166 fell below.
    rng = random.Random(20040615)
    below = []
    for seed in range(1000):
        mu = rng.uniform(0.1, 0.5)
        params = ProtocolParams(mu, rng.uniform(mu + 0.05, 1.0))
        s0 = 10.0 ** rng.uniform(-7.0, -3.0)
        if rng.random() < 0.5:
            scenario = NoEve(eta=10.0 ** rng.uniform(-4.0, -1.0), s0=s0)
        else:
            scenario = PnsAttack(q=10.0 ** rng.uniform(-4.0, -1.0), s0=s0)
        truth, _ = true_delta(scenario, params)
        for n_vacuum in (0, 1, 10, 100, 1000):
            budget = PulseBudget(10**10, 10**10, n_vacuum)
            obs = sample_observation(scenario, params, budget, seed)
            if finite_bound(obs.rates, params, budget).delta_upper < truth:
                below.append((seed, n_vacuum, scenario, params))
    assert below == []


def test_sampled_finite_delta_prime_is_sound():
    # Both classes share one single-photon yield, so the strong class's
    # single-photon share is f = (mu'/mu)(S_mu/S_mu') times what the paper's
    # transfer assumes, and yield tables can give f < 1.  Taking f = 1 put 17
    # of these sampled finite delta', all on yield tables, below the truth.
    rng = random.Random(20050101)
    below = []
    for seed in range(1000):
        mu = rng.uniform(0.05, 0.6)
        params = ProtocolParams(mu, rng.uniform(mu * 1.05, min(mu * 3.0, 1.0)))
        s0 = rng.choice((0.0, 10.0 ** rng.uniform(-7.0, -4.0)))
        kind = rng.random()
        if kind < 0.6:
            size = rng.randint(2, 12)
            scenario = YieldTable(s0=s0, yields=tuple(rng.random() for _ in range(size)))
        elif kind < 0.8:
            scenario = PnsAttack(q=10.0 ** rng.uniform(-4.0, -1.0), s0=s0)
        else:
            scenario = NoEve(eta=10.0 ** rng.uniform(-4.0, -1.0), s0=s0)
        n = int(10.0 ** rng.uniform(5.0, 10.0))
        budget = PulseBudget(n, n)
        _, truth_prime = true_delta(scenario, params)
        rates = sample_observation(scenario, params, budget, seed).rates
        if rates.s_mu == 0.0:
            continue  # no weak-class click, so no fraction to bound
        delta = finite_bound(rates, params, budget).delta_upper
        if delta_prime_bound(delta, rates, params) < truth_prime:
            below.append((seed, scenario, params))
    assert below == []


def test_sample_observation_concentrates():
    # 5 binomial standard deviations at N = 1e8
    budget = PulseBudget(10**8, 10**8, 10**8)
    scenario = NoEve(eta=1e-3, s0=1e-6)
    expected = expected_rates(scenario, PARAMS)
    obs = sample_observation(scenario, PARAMS, budget, seed=99)
    for got, want in (
        (obs.rates.s_mu, expected.s_mu),
        (obs.rates.s_mu_prime, expected.s_mu_prime),
    ):
        sd = math.sqrt(want * (1.0 - want) / 10**8)
        assert abs(got - want) < 5 * sd


def test_sample_counts_within_budget():
    budget = PulseBudget(50, 60, 70)
    obs = sample_observation(NoEve(eta=0.99, s0=0.99), PARAMS, budget, seed=0)
    assert 0 <= obs.clicks_mu <= 50
    assert 0 <= obs.clicks_mu_prime <= 60
    assert 0 <= obs.clicks_vacuum <= 70


def test_sampling_takes_up_to_int64_pulses_per_class():
    # numpy's exact binomial sampler takes any count up to 2**63 - 1; one
    # pulse more is a parameter error naming the class, not an OverflowError.
    scenario = NoEve(eta=1e-3, s0=1e-6)
    for name, clicks in (("n_mu", "clicks_mu"), ("n_mu_prime", "clicks_mu_prime"),
                         ("n_vacuum", "clicks_vacuum")):
        counts = {"n_mu": 10**6, "n_mu_prime": 10**6, "n_vacuum": 10**6}
        largest = PulseBudget(**{**counts, name: 2**63 - 1})
        assert 0 < getattr(sample_observation(scenario, PARAMS, largest, seed=7), clicks)
        with pytest.raises(ParameterError, match=rf"^{name} exceeds 2\*\*63 - 1"):
            sample_observation(scenario, PARAMS, PulseBudget(**{**counts, name: 2**63}), seed=7)


def test_expected_rates_feed_bound_types():
    rates = expected_rates(NoEve(eta=1e-3, s0=1e-6), PARAMS)
    assert isinstance(rates, ObservedRates)
