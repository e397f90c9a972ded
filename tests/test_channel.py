import itertools
import math
import random
import struct
import sys
import threading
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from decoyqkd import (
    DomainError,
    FluctuationSettings,
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
from decoyqkd import channel
from decoyqkd.channel import MAX_SAMPLED_PULSES
from decoyqkd.photon_stats import MIN_INTENSITY, MIN_SEPARATION, _poisson_mixtures, validate_pair

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


def _admitted_pair(mu, share):
    """(mu, mu'), mu' a share of the way from the separation floor to the
    dominance edge, or None if that pair is not admitted."""
    weak, low, high = mu * math.exp(-mu), 1.0, 800.0
    for _ in range(80):  # x e^{-x} falls past x = 1: bisect for where it meets weak
        mid = 0.5 * (low + high)
        low, high = (mid, high) if mid * math.exp(-mid) > weak else (low, mid)
    floor = mu * (1.0 + MIN_SEPARATION)
    mu_prime = floor + share * (low - floor)
    return (mu, mu_prime) if validate_pair(mu, mu_prime) else None


def _hex_or_error(rates):
    try:
        return [x.hex() for x in rates()]
    except DomainError as error:
        return str(error)


def _assert_one_pass_rates_bit_identical(s0, yields, pair):
    table, params = YieldTable(s0=s0, yields=tuple(yields)), ProtocolParams(*pair)
    assert _hex_or_error(lambda: astuple(expected_rates(table, params))) == _hex_or_error(
        lambda: [table.class_rate(x) for x in (0.0, params.mu, params.mu_prime)]
    ), (s0, yields, pair)


# Admitted weak intensities from the floor up, and shares from the
# separation floor (near the diagonal) to the edge (mu' up to 351.25).
WEAK = st.sampled_from([MIN_INTENSITY, 1e-75, 1e-3, 0.5]) | st.floats(MIN_INTENSITY, 1.0)
SHARES = st.sampled_from([0.0, 1e-12, 1e-6, 1.0]) | st.floats(0.0, 1.0)


@settings(max_examples=60)
@given(WEIGHTS, st.lists(WEIGHTS, min_size=2, max_size=60), WEAK, SHARES)
def test_expected_rates_of_a_yield_table_are_its_class_rates(s0, yields, mu, share):
    # S_mu and S_mu' come from one pass over the yields: class_rate's bits.
    pair = _admitted_pair(mu, share)
    assume(pair is not None)
    _assert_one_pass_rates_bit_identical(s0, yields, pair)


def test_expected_rates_of_a_yield_table_are_its_class_rates_on_random_tables():
    # The depth behind the hypothesis test above, from the same pools.
    rng = random.Random(2004)

    def weight():
        return rng.choice((0.0, -0.0, 5e-324, 1.0, rng.random()))

    weak = (
        lambda: MIN_INTENSITY,
        lambda: 10.0 ** rng.uniform(-150.0, 0.0),
        lambda: rng.uniform(MIN_INTENSITY, 1.0),
    )
    share = (lambda: 0.0, lambda: rng.uniform(0.0, 1e-6), rng.random, lambda: 1.0)
    checked = 0
    while checked < 2000:
        pair = _admitted_pair(rng.choice(weak)(), rng.choice(share)())
        if pair is None:
            continue
        yields = [weight() for _ in range(rng.randint(2, 60))]
        _assert_one_pass_rates_bit_identical(weight(), yields, pair)
        checked += 1
    # The dominance edge at the intensity floor.
    assert 351.0 < _admitted_pair(MIN_INTENSITY, 1.0)[1] < 351.3


def test_one_pass_mixtures_raise_class_rates_error():
    # Past the admitted range the prefix sum can exceed 1: the one pass
    # checks mu first, with class_rate's message.
    table = YieldTable(0.0, (0.5,) * 2000)
    with pytest.raises(DomainError, match="prefix sum exceeds 1 for mu=730.0, n_max=2000"):
        _poisson_mixtures(0.3, 730.0, table.s0, table.yields)
    for pair in ((0.3, 730.0), (730.0, 731.0), (731.0, 730.0), (0.3, 0.45)):
        assert _hex_or_error(lambda: _poisson_mixtures(*pair, table.s0, table.yields)) == (
            _hex_or_error(lambda: [table.class_rate(x) for x in pair])
        ), pair


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


def _jumped_clicks(budget, seed, s0, s_mu, s_mu_prime):
    """The weak, strong and vacuum draws of Generator(PCG64(0).jumped(seed))."""
    binomial = np.random.Generator(np.random.PCG64(0).jumped(seed)).binomial
    return (
        int(binomial(budget.n_mu, s_mu)),
        int(binomial(budget.n_mu_prime, s_mu_prime)),
        int(binomial(budget.n_vacuum, s0)),
    )


def _uncached(scenario, params, budget, seed):
    """Rates, true fractions and sampled clicks, each class rate evaluated afresh."""
    s0, s_mu, s_mu_prime = (scenario.class_rate(x) for x in (0.0, params.mu, params.mu_prime))
    clicks = _jumped_clicks(budget, seed, s0, s_mu, s_mu_prime)
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
    # Every intensity a class rate is evaluated at: S_0 through class_rate,
    # and S_mu with S_mu' through the one pass over the table's yields.
    calls, passes = [], []
    rate, mixtures = YieldTable.class_rate, channel._poisson_mixtures

    def both(mu, mu_prime, y0, yields):
        calls.extend((mu, mu_prime))
        passes.append((mu, mu_prime))
        return mixtures(mu, mu_prime, y0, yields)

    monkeypatch.setattr(YieldTable, "class_rate", lambda self, x: calls.append(x) or rate(self, x))
    monkeypatch.setattr(channel, "_poisson_mixtures", both)
    # One strategy reads S_0, S_mu and S_mu' once: 8 evaluations before.
    table, pair = cases[-1]
    rates, truth = expected_rates(table, pair), true_delta(table, pair)
    obs = sample_observation(table, pair, budget, 7)
    assert calls == [0.0, 0.1, 0.5]
    assert passes == [(0.1, 0.5)]
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
    assert len(passes) == 1 + 3 * len(cases)


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


def _clicks(obs):
    return obs.clicks_mu, obs.clicks_mu_prime, obs.clicks_vacuum


def test_sample_observation_draws_the_jumped_stream():
    # Seed s draws the weak, strong and vacuum binomials of
    # PCG64(0).jumped(s), in that order, for every s in [0, 2**128).  Each
    # count is the scalar draw itself, exactly an int with no int() around it,
    # for an empty vacuum class and for classes at the sampling cap too.
    budget = PulseBudget(10**6, 3 * 10**5, 10**5)
    scenario = NoEve(eta=5e-2, s0=1e-3)
    rates = astuple(expected_rates(scenario, PARAMS))
    family = random.Random(31)
    seeds = [0, 1, 2**32, 2**63 - 1, 2**64, 2**128 - 1]
    seeds += [family.randrange(2 ** family.choice((8, 32, 64, 128))) for _ in range(200)]
    cases = [(budget, seed) for seed in seeds]
    cases += [
        (PulseBudget(10**6, 3 * 10**5, 0), 5),
        (PulseBudget(MAX_SAMPLED_PULSES, MAX_SAMPLED_PULSES, MAX_SAMPLED_PULSES), 2**64 + 3),
    ]
    for budget, seed in cases:
        obs = sample_observation(scenario, PARAMS, budget, seed)
        assert _clicks(obs) == _jumped_clicks(budget, seed, *rates), seed
        assert [type(count) for count in _clicks(obs)] == [int, int, int], seed
    # Consecutive seeds start far apart: their weak-class counts scatter.
    weak = {sample_observation(scenario, PARAMS, budget, seed).clicks_mu for seed in range(50)}
    assert len(weak) > 40


BUDGET = PulseBudget(10**6, 3 * 10**5, 10**5)


@pytest.mark.parametrize(
    "scenario, params, budget",
    [
        (NoEve(eta=5e-2, s0=0.0), PARAMS, BUDGET),
        (NoEve(eta=5e-2, s0=1e-3), PARAMS, PulseBudget(10**6, 3 * 10**5, 0)),
        (YieldTable(0.0, (0.0, 0.0)), PARAMS, BUDGET),
        (YieldTable(-0.0, (-0.0, -0.0)), PARAMS, BUDGET),
        (PnsAttack(q=0.0, s0=1e-3), PARAMS, BUDGET),
        # P_3(1e-150) underflows: the weak class cannot click, the strong one can.
        (YieldTable(0.0, (0.0, 0.0, 0.5)), ProtocolParams(MIN_INTENSITY, 0.5), BUDGET),
    ],
    ids=["no-dark-counts", "no-vacuum-pulses", "dead-table", "signed-zero-table", "dark-only",
         "dead-weak-class"],
)
def test_sample_observation_skips_only_draws_that_cannot_click(scenario, params, budget):
    # An empty vacuum class or a dark rate of 0 draws nothing, and every
    # class gets what the three draws of PCG64(0).jumped(seed) give it, a
    # signal class at a rate of 0 too.
    rates = astuple(expected_rates(scenario, params))
    family = random.Random(36)
    seeds = [0, 1, 2**64, 2**128 - 2, 2**128 - 1]
    seeds += [2**128 - 1 - family.randrange(2**32) for _ in range(45)]
    seeds += [family.randrange(2 ** family.choice((8, 32, 64, 128))) for _ in range(150)]
    for seed in seeds:
        obs = sample_observation(scenario, params, budget, seed)
        assert _clicks(obs) == _jumped_clicks(budget, seed, *rates), seed
        assert [type(count) for count in _clicks(obs)] == [int, int, int], seed
    if params.mu == MIN_INTENSITY:  # the strong class draws after a weak draw at p = 0
        assert rates[1] == 0.0 < rates[2] and 0 < obs.clicks_mu_prime


def test_sample_observation_rejects_seed_past_the_period():
    # jumped(2**128) is PCG64(0) itself: seed 2**128 would repeat seed 0.
    budget = PulseBudget(10**6, 10**6)
    for seed, bits in ((2**128, 129), (2**200 + 5, 201)):
        message = f"^seed must be below 2\\*\\*128, got a {bits}-bit integer$"
        with pytest.raises(ParameterError, match=message):
            sample_observation(NoEve(eta=1e-2), PARAMS, budget, seed=seed)


def test_per_thread_generators_under_threads():
    # Each thread moves its own generator: interleaved calls on six threads
    # still draw each seed's own stream.
    budget = PulseBudget(10**7, 10**7, 10**5)
    cases = [(NoEve(eta=1e-2 * (k + 1), s0=1e-4), ProtocolParams(0.1 + 0.05 * k, 0.6 + 0.05 * k))
             for k in range(6)]
    seeds = [[k * 1000 + i for i in range(8)] for k in range(6)]
    expected = [
        [_jumped_clicks(budget, seed, *astuple(expected_rates(t, p))) for seed in seeds[k]]
        for k, (t, p) in enumerate(cases)
    ]
    wrong = []

    def work(k):
        t, p = cases[k]
        for _ in range(300):
            for seed, clicks in zip(seeds[k], expected[k]):
                if _clicks(sample_observation(t, p, budget, seed)) != clicks:
                    wrong.append((k, seed))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(cases))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def test_sample_observation_builds_no_generator_per_call(monkeypatch):
    # A thread builds its PCG64 once.  Every Python route to a seeded
    # generator is counted; numpy's own SeedSequence, inside PCG64(seed),
    # is not patchable, and the PCG64 count stands for it.
    built = []

    def counted(name):
        make = getattr(np.random, name)
        return lambda *args, **kwargs: built.append(name) or make(*args, **kwargs)

    for name in ("PCG64", "SeedSequence", "Generator", "default_rng"):
        monkeypatch.setattr(np.random, name, counted(name))
    budget = PulseBudget(10**6, 10**6, 10**3)
    scenario = NoEve(eta=1e-2, s0=1e-5)
    done = []

    def work():
        for seed in range(1000):
            sample_observation(scenario, PARAMS, budget, seed)
        done.append(True)

    # A fresh thread, so its first call builds its generator.
    thread = threading.Thread(target=work)
    thread.start()
    thread.join(timeout=60)
    assert done == [True]
    assert built.count("PCG64") <= 1 and built.count("SeedSequence") == 0
    assert built.count("Generator") <= 1 and "default_rng" not in built


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


def test_known_defect_dark_dominated_sampled_bound_falls_below_truth():
    """Pins a known defect of the paper's finite model (ROADMAP items 18 and 21).

    The model takes the weak class's rate as exact, but on this channel the
    weak class's clicks are about 80 parts vacuum to 1 part other, and their
    binomial noise alone moves S_mu - e^{-mu} s0 by about 8 %.  At the
    default E = 25 the sampled finite bound falls below the true tagged
    fraction in 1 305 of these 20 000 draws (6.5 %), where the claimed
    2e^{-E} allows 2e^{-25} * 20 000 = 5.6e-7.  A sound model turns this
    count into a gate: at most that allowance, so 0.  With no vacuum pulses
    each draw also skips the vacuum class's draw, and the count is the one
    the three-draw sampler gave.
    """
    table = YieldTable(1e-4, (1.1e-5, 5e-3, 5e-3))
    params, budget = ProtocolParams(0.02, 0.026), PulseBudget(10**10, 10**10)
    assert FluctuationSettings().confidence_exponent == 25.0
    truth, _ = true_delta(table, params)
    assert round(truth, 6) == 0.009945
    below = sum(
        finite_bound(sample_observation(table, params, budget, seed).rates, params, budget)
        .delta_upper < truth
        for seed in range(20000)
    )
    assert below == 1305


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
    # With more than one class over the limit, the first in draw order is named.
    for budget, name in ((PulseBudget(2**63, 2**64, 2**63), "n_mu"),
                         (PulseBudget(1, 2**64, 2**63), "n_mu_prime")):
        with pytest.raises(ParameterError, match=rf"^{name} exceeds 2\*\*63 - 1"):
            sample_observation(scenario, PARAMS, budget, seed=7)


def test_expected_rates_feed_bound_types():
    rates = expected_rates(NoEve(eta=1e-3, s0=1e-6), PARAMS)
    assert isinstance(rates, ObservedRates)
