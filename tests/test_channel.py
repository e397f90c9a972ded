import itertools
import math
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

import decoyqkd.channel as channel_mod
from decoyqkd import (
    DomainError,
    NoEve,
    ObservedRates,
    ParameterError,
    PnsAttack,
    ProtocolParams,
    PulseBudget,
    YieldTable,
    expected_rates,
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
    return rate


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


def test_sample_observation_deterministic():
    budget = PulseBudget(10**6, 10**6, 10**5)
    scenario = NoEve(eta=1e-2, s0=1e-5)
    a = sample_observation(scenario, PARAMS, budget, seed=1234)
    b = sample_observation(scenario, PARAMS, budget, seed=1234)
    assert a == b
    c = sample_observation(scenario, PARAMS, budget, seed=1235)
    assert c != a


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
    obs = sample_observation(NoEve(eta=1e-2, s0=1e-3), PARAMS, budget, seed=5)
    assert obs.clicks_vacuum == 0
    assert obs.rates.s0 == 0.0


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


def test_large_budget_switches_to_normal_approximation(monkeypatch):
    # Force the switch at a tiny budget to exercise the approximate path.
    monkeypatch.setattr(channel_mod, "EXACT_BINOMIAL_LIMIT", 10)
    budget = PulseBudget(10**6, 10**6, 0)
    scenario = NoEve(eta=1e-2, s0=0.0)
    a = sample_observation(scenario, PARAMS, budget, seed=7)
    b = sample_observation(scenario, PARAMS, budget, seed=7)
    assert a == b
    assert 0 <= a.clicks_mu <= 10**6
    expected = expected_rates(scenario, PARAMS)
    sd = math.sqrt(expected.s_mu * (1.0 - expected.s_mu) / 10**6)
    assert abs(a.rates.s_mu - expected.s_mu) < 6 * sd


def test_expected_rates_feed_bound_types():
    rates = expected_rates(NoEve(eta=1e-3, s0=1e-6), PARAMS)
    assert isinstance(rates, ObservedRates)
