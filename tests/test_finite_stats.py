import dataclasses
import math
import random

import pytest
from hypothesis import assume, example, given, strategies as st

from decoyqkd import (
    METHOD_WANG_FINITE,
    DomainError,
    FluctuationSettings,
    NoEve,
    ObservedRates,
    ParameterError,
    PnsAttack,
    ProtocolParams,
    PulseBudget,
    YieldTable,
    decompose,
    expected_rates,
    finite_bound,
    relative_fluctuation,
    sample_observation,
    validate_pair,
    wang_asymptotic_bound,
)
from decoyqkd.bounds import TOL, _solve_sc
from decoyqkd.table1 import loss_only_rates

PARAMS = ProtocolParams(0.3, 0.45)


def test_pulse_budget_validation():
    budget = PulseBudget(n_mu=10, n_mu_prime=20)
    assert budget.n_vacuum == 0
    with pytest.raises(ParameterError):
        PulseBudget(n_mu=0, n_mu_prime=10)
    with pytest.raises(ParameterError):
        PulseBudget(n_mu=10, n_mu_prime=0)
    with pytest.raises(ParameterError):
        PulseBudget(n_mu=10, n_mu_prime=10, n_vacuum=-1)
    with pytest.raises(ParameterError):
        PulseBudget(n_mu=10.5, n_mu_prime=10)


def test_pulse_budget_accepts_huge_counts():
    budget = PulseBudget(n_mu=10**30, n_mu_prime=10**30)
    assert budget.n_mu == 10**30


def test_fluctuation_settings_validation():
    FluctuationSettings()
    FluctuationSettings(confidence_exponent=100.0, min_over_classes=True)
    with pytest.raises(ParameterError):
        FluctuationSettings(confidence_exponent=0.0)
    # The vacuum rate counts as exact; there is no hand-set vacuum fluctuation.
    with pytest.raises(TypeError):
        FluctuationSettings(r0=0.1)


def confidence_bound(delta_abs: float, s: float, n0: float) -> float:
    """Probability that an observed rate deviates from s by more than delta_abs.

    Returns exp(-delta_abs^2 * n0 / (4 s)) for a sub-population of n0 pulses.
    """
    if delta_abs < 0:
        raise DomainError(f"deviation must be non-negative, got {delta_abs}")
    if s <= 0:
        raise DomainError(f"counting rate must be positive, got {s}")
    if n0 <= 0:
        raise DomainError(f"sub-population size must be positive, got {n0}")
    return math.exp(-(delta_abs * delta_abs) * n0 / (4.0 * s))


def test_confidence_bound_values():
    assert confidence_bound(0.0, 1e-4, 1e10) == 1.0
    # delta^2 n0 / s = 100 target from the exponent convention
    assert confidence_bound(1e-6, 1e-4, 1e10) == pytest.approx(math.exp(-25), rel=1e-12)
    assert confidence_bound(2e-6, 1e-4, 1e10) == pytest.approx(math.exp(-100), rel=1e-12)
    # relative_fluctuation is the half-width violated with probability e^{-E}.
    for exponent in (1.0, 25.0, 100.0):
        r = relative_fluctuation(1e-4, 1e10, FluctuationSettings(confidence_exponent=exponent))
        assert confidence_bound(r * 1e-4, 1e-4, 1e10) == pytest.approx(
            math.exp(-exponent), rel=1e-12
        )


def test_confidence_bound_domain():
    with pytest.raises(DomainError):
        confidence_bound(-1e-6, 1e-4, 1e10)
    with pytest.raises(DomainError):
        confidence_bound(1e-6, 0.0, 1e10)
    with pytest.raises(DomainError):
        confidence_bound(1e-6, 1e-4, 0.0)


def test_relative_fluctuation_values():
    settings = FluctuationSettings()
    assert relative_fluctuation(1e-4, 1e10, settings) == pytest.approx(0.01, rel=1e-12)
    assert relative_fluctuation(1.0, 100.0, settings) == pytest.approx(1.0, rel=1e-12)
    wide = FluctuationSettings(confidence_exponent=100.0)
    assert relative_fluctuation(1e-4, 1e10, wide) == pytest.approx(0.02, rel=1e-12)


def test_relative_fluctuation_domain():
    with pytest.raises(DomainError):
        relative_fluctuation(0.0, 1e10, FluctuationSettings())
    with pytest.raises(DomainError):
        relative_fluctuation(1e-4, 0.0, FluctuationSettings())


def test_finite_bound_oracle_cell():
    # 50-digit fixed point for the (0.25, 0.41) high-loss cell.
    params = ProtocolParams(0.25, 0.41)
    rates = loss_only_rates(0.25, 0.41, 1e-4)
    budget = PulseBudget(8 * 10**10, 8 * 10**10)
    report = finite_bound(rates, params, budget, FluctuationSettings())
    assert report.method == METHOD_WANG_FINITE
    assert report.delta_upper == pytest.approx(0.30914002447828191, abs=1e-8)
    assert not report.vacuous


def test_finite_bound_ignores_n_vacuum():
    # Documented in the README: the vacuum class size never reaches the
    # bound, so s0 counts as exact.
    rates = loss_only_rates(0.3, 0.45, 1e-3)
    n = 10**8
    for settings in (
        FluctuationSettings(),
        FluctuationSettings(confidence_exponent=40.0),
        FluctuationSettings(confidence_exponent=5.0, min_over_classes=True),
    ):
        reports = [
            finite_bound(rates, PARAMS, PulseBudget(n, 3 * n, n_vacuum), settings)
            for n_vacuum in (0, 1, n, 10**20)
        ]
        assert not reports[0].vacuous
        assert all(report == reports[0] for report in reports[1:])


def test_finite_bound_approaches_asymptotic():
    rates = loss_only_rates(0.3, 0.45, 1e-4)
    asym = wang_asymptotic_bound(rates, PARAMS)
    fin = finite_bound(rates, PARAMS, PulseBudget(10**30, 10**30), FluctuationSettings())
    assert fin.delta_upper >= asym.delta_upper
    assert fin.delta_upper - asym.delta_upper < 1e-3


def test_finite_bound_near_diagonal_approaches_asymptotic():
    params = ProtocolParams(0.3, 0.3001)
    rates = expected_rates(NoEve(eta=1e-3, s0=1e-6), params)
    asym = wang_asymptotic_bound(rates, params)
    fin = finite_bound(rates, params, PulseBudget(10**30, 10**30))
    assert 0.0 <= fin.delta_upper - asym.delta_upper < 1e-3


@pytest.mark.parametrize(
    "mu, mu_prime, eta, exponent", [(0.3, 0.3001, 1e-3, 38), (0.25, 0.41, 1e-4, 40)]
)
def test_finite_bound_returns_the_seed_when_fluctuations_round_away(mu, mu_prime, eta, exponent):
    # F(seed) - seed rounds to <= 0 at these budgets, and the solver returns
    # the asymptotic sc itself instead of searching a bracket with no root.
    params = ProtocolParams(mu, mu_prime)
    rates = expected_rates(NoEve(eta=eta, s0=1e-6), params)
    report = finite_bound(rates, params, PulseBudget(10**exponent, 10**exponent))
    assert not report.vacuous
    assert report.sc_upper == wang_asymptotic_bound(rates, params).sc_upper


def _ten_evaluation_cases():
    """Sweep-grid subsample, near-diagonal pairs, and the criterion-09 family."""
    for i in range(1, 10):
        for j in range(2, 21):
            mu, mu_prime = 0.05 * i, 0.05 * j
            if validate_pair(mu, mu_prime):
                params = ProtocolParams(mu, mu_prime)
                for eta in (1e-4, 1e-3, 1e-2):
                    rates = expected_rates(NoEve(eta=eta, s0=1e-6), params)
                    yield params, rates, 8 * 10**10
    for mu in (0.1, 0.2, 0.3, 0.4, 0.5):
        for gap in (1e-6, 1e-4, 1e-2):
            params = ProtocolParams(mu, mu * (1.0 + gap))
            rates = expected_rates(NoEve(eta=1e-3, s0=1e-6), params)
            for n in (10**8, 10**12, 10**16, 10**30):
                yield params, rates, n
    rng = random.Random(777)
    accepted = 0
    while accepted < 1000:
        mu = rng.uniform(0.05, 0.8)
        mu_prime = rng.uniform(mu + 0.01, 1.0)
        if not validate_pair(mu, mu_prime):
            continue
        s_mu = 10.0 ** rng.uniform(-7.0, -0.31)
        s_mu_prime = min(rng.uniform(0.2, 3.0) * s_mu, 1.0)
        rates = ObservedRates(rng.uniform(0.0, 0.01) * s_mu, s_mu, s_mu_prime)
        params = ProtocolParams(mu, mu_prime)
        closed = wang_asymptotic_bound(rates, params)
        if closed.clamped or closed.vacuous or closed.delta_upper <= 1e-6 or closed.s1_lower <= 0:
            continue
        accepted += 1
        for n in (10**8, 10**10, 10**12, 10**16, 10**30):
            yield params, rates, n


def test_finite_bound_returns_within_ten_evaluations():
    for params, rates, n in _ten_evaluation_cases():
        finite_bound(rates, params, PulseBudget(n, n), max_iter=10)


def test_finite_bound_max_iter_validation():
    rates = loss_only_rates(0.3, 0.45, 1e-4)
    for max_iter in (0, -1):
        with pytest.raises(ParameterError, match=f"max_iter must be at least 1, got {max_iter}"):
            finite_bound(rates, PARAMS, PulseBudget(10**10, 10**10), max_iter=max_iter)


PINNED_BRANCHES = {
    # Asymptotic bound clamped to 0; the finite root is the floor sc = kc^2.
    "asymptotic_clamped": (
        PARAMS,
        ObservedRates(s0=1e-6, s_mu=1e-4, s_mu_prime=1.2e-4),
        PulseBudget(10**10, 10**10),
        FluctuationSettings(),
        9.999999999999998e-05,
    ),
    "min_over_classes": (
        ProtocolParams(0.25, 0.41),
        loss_only_rates(0.25, 0.41, 1e-4),
        PulseBudget(8 * 10**10, 10**9),
        FluctuationSettings(min_over_classes=True),
        0.42143664240408746,
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_BRANCHES))
def test_finite_bound_pinned_branches(name):
    # Values frozen from the fixed-point iteration the shared solver replaced.
    params, rates, budget, settings, expected = PINNED_BRANCHES[name]
    report = finite_bound(rates, params, budget, settings)
    assert report.delta_upper == pytest.approx(expected, abs=1e-9)
    assert not report.vacuous
    asym = wang_asymptotic_bound(rates, params)
    if name == "asymptotic_clamped":
        assert asym.clamped and asym.delta_upper == 0.0


def test_finite_bound_monotone_in_budget():
    rates = loss_only_rates(0.3, 0.45, 1e-4)
    deltas = [
        finite_bound(rates, PARAMS, PulseBudget(n, n), FluctuationSettings()).delta_upper
        for n in (10**10, 10**11, 10**12, 10**14)
    ]
    assert all(a >= b - 1e-15 for a, b in zip(deltas, deltas[1:]))


def test_finite_bound_vacuous_when_budget_tiny():
    rates = loss_only_rates(0.3, 0.45, 1e-4)
    report = finite_bound(rates, PARAMS, PulseBudget(1000, 1000), FluctuationSettings())
    assert report.vacuous
    assert report.delta_upper == 1.0
    assert report.s1_lower == 0.0


def test_finite_bound_vacuous_when_asymptotic_vacuous():
    rates = ObservedRates(0.0, 0.036936313113766774, 0.07543918014842872)
    report = finite_bound(rates, PARAMS, PulseBudget(10**12, 10**12), FluctuationSettings())
    assert report.vacuous and report.delta_upper == 1.0


def test_finite_bound_vacuous_when_darks_swallow_weak_class():
    rates = ObservedRates(s0=2e-6, s_mu=1e-6, s_mu_prime=2e-6)
    report = finite_bound(rates, PARAMS, PulseBudget(10**12, 10**12), FluctuationSettings())
    assert report.vacuous


def test_finite_bound_vacuous_at_floor_exit_with_s1_near_k1_squared():
    # The solver leaves at the floor, and s1 ends between k1^2 / 2 and k1^2:
    # only the r1 = k1 / sqrt(s1) >= 1 test makes this report vacuous.
    params = ProtocolParams(0.29, 0.472)
    rates = expected_rates(NoEve(eta=9.7e-5, s0=7.6e-5), params)
    budget = PulseBudget(33_000_000, 33_000_000)
    report = finite_bound(rates, params, budget)
    assert report.vacuous and report.delta_upper == 1.0 and report.s1_lower == 0.0
    settings = FluctuationSettings()
    k1 = relative_fluctuation(1.0, budget.n_mu * 0.29 * math.exp(-0.29), settings)
    kc = relative_fluctuation(1.0, budget.n_mu * decompose(params).c, settings)
    seed = wang_asymptotic_bound(rates, params)
    _, s1 = _solve_sc(rates, params, k1, kc, seed.sc_upper)
    assert 0.6 * k1 * k1 < s1 < 0.62 * k1 * k1


def test_finite_bound_vacuous_when_fluctuation_overflows():
    # E / (n p1) overflows, so k1 = inf; the solver would compute inf - inf.
    rates = expected_rates(NoEve(1e-3, 1e-6), PARAMS)
    settings = FluctuationSettings(confidence_exponent=1e308)
    report = finite_bound(rates, PARAMS, PulseBudget(1, 1), settings)
    assert report.vacuous and report.clamped
    assert report.delta_upper == 1.0 and report.s1_lower == 0.0


def test_finite_bound_self_consistent_fixed_point():
    params = ProtocolParams(0.25, 0.41)
    rates = loss_only_rates(0.25, 0.41, 1e-4)
    budget = PulseBudget(8 * 10**10, 8 * 10**10)
    settings = FluctuationSettings()
    report = finite_bound(rates, params, budget, settings)
    # one more constraint pass from the returned iterates
    mu, mu_prime = params.mu, params.mu_prime
    c = 1.0 - math.exp(-mu) - mu * math.exp(-mu)
    multi_ratio = (mu_prime / mu) ** 2 * math.exp(mu - mu_prime)
    sc = report.sc_upper
    s1 = (rates.s_mu - math.exp(-mu) * rates.s0 - c * sc) / (mu * math.exp(-mu))
    r1 = relative_fluctuation(s1, budget.n_mu * mu * math.exp(-mu), settings)
    rc = relative_fluctuation(sc, budget.n_mu * c, settings)
    room = (
        rates.s_mu_prime
        - mu_prime * math.exp(-mu_prime) * (1.0 - r1) * s1
        - math.exp(-mu_prime) * rates.s0
    ) / multi_ratio
    sc_resolved = room / (c * (1.0 - rc))
    delta_resolved = c * sc_resolved / rates.s_mu
    assert abs(delta_resolved - report.delta_upper) < TOL


def test_min_over_classes_never_tightens():
    params = ProtocolParams(0.25, 0.41)
    rates = loss_only_rates(0.25, 0.41, 1e-4)
    # strong class much smaller: its sub-populations limit the estimate
    budget = PulseBudget(8 * 10**10, 10**9)
    plain = finite_bound(rates, params, budget, FluctuationSettings())
    strict = finite_bound(rates, params, budget, FluctuationSettings(min_over_classes=True))
    assert strict.delta_upper >= plain.delta_upper


@st.composite
def finite_cases(draw):
    """Loss-only, PNS or yield-table rates, expected or sampled, and a budget."""
    mu = draw(st.floats(min_value=0.1, max_value=0.5))
    mu_prime = draw(st.floats(min_value=mu + 0.05, max_value=1.0))
    params = ProtocolParams(mu, mu_prime)
    s0 = draw(st.sampled_from([0.0, 1e-6]) | st.floats(min_value=0.0, max_value=1e-3))
    eta = draw(st.floats(min_value=1e-5, max_value=1e-2))
    kind = draw(st.sampled_from(["no_eve", "pns", "yields"]))
    if kind == "no_eve":
        scenario = NoEve(eta=eta, s0=s0)
    elif kind == "pns":
        scenario = PnsAttack(q=eta, s0=s0)
    else:
        # Loss-only yields, each scaled by a factor in [0, 1.5].
        scales = draw(st.lists(st.floats(min_value=0.0, max_value=1.5), min_size=2, max_size=12))
        yields = (min(f * -math.expm1(n * math.log1p(-eta)), 1.0) for n, f in enumerate(scales, 1))
        scenario = YieldTable(s0=s0, yields=tuple(yields))
    n_mu = 10 ** draw(st.integers(min_value=5, max_value=16))
    n_mu_prime = int(n_mu * draw(st.floats(min_value=0.01, max_value=10.0)))
    if draw(st.booleans()):
        budget = PulseBudget(n_mu, n_mu_prime, n_mu)
        rates = sample_observation(scenario, params, budget, draw(st.integers(0, 2**32))).rates
    else:
        rates = expected_rates(scenario, params)
    assume(rates.s_mu > 0.0)
    settings = FluctuationSettings(
        confidence_exponent=draw(st.floats(min_value=1.0, max_value=50.0)),
        min_over_classes=draw(st.booleans()),
    )
    return params, rates, PulseBudget(n_mu, n_mu_prime), settings


# Darks are a quarter of the weak-class rate here, so a raised strong-class
# vacuum term would pull the bound below the asymptotic one.
@example(
    (
        PARAMS,
        expected_rates(NoEve(eta=1e-4, s0=1e-5), PARAMS),
        PulseBudget(10**10, 10**10),
        FluctuationSettings(),
    )
)
@given(finite_cases())
def test_finite_dominates_asymptotic_property(case):
    # Every fluctuation allowance widens the consistent yields, so it can
    # only raise the bound: above the asymptotic value, and more so for a
    # larger E, a smaller budget, or sub-populations sized by both classes.
    params, rates, budget, settings = case

    def delta(budget=budget, **changes):
        report = finite_bound(rates, params, budget, dataclasses.replace(settings, **changes))
        return report.delta_upper

    fin = delta()
    assert 0.0 <= fin <= 1.0
    assert fin >= wang_asymptotic_bound(rates, params).delta_upper - 1e-12
    assert delta(confidence_exponent=2.0 * settings.confidence_exponent) >= fin - 1e-12
    assert delta(PulseBudget(budget.n_mu // 10, budget.n_mu_prime // 10)) >= fin - 1e-12
    assert delta(min_over_classes=True) >= fin - 1e-12
