import math
import random

import pytest
from hypothesis import given, strategies as st

from decoyqkd import (
    METHOD_WANG_FINITE,
    DomainError,
    FluctuationSettings,
    NoEve,
    ObservedRates,
    ParameterError,
    ProtocolParams,
    PulseBudget,
    confidence_bound,
    expected_rates,
    finite_bound,
    relative_fluctuation,
    validate_pair,
    wang_asymptotic_bound,
)
from decoyqkd.bounds import TOL
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
    FluctuationSettings(confidence_exponent=100.0, r0=0.5, min_over_classes=True)
    with pytest.raises(ParameterError):
        FluctuationSettings(confidence_exponent=0.0)
    with pytest.raises(ParameterError):
        FluctuationSettings(r0=1.0)
    with pytest.raises(ParameterError):
        FluctuationSettings(r0=-0.1)


def test_confidence_bound_values():
    assert confidence_bound(0.0, 1e-4, 1e10) == 1.0
    # delta^2 n0 / s = 100 target from the exponent convention
    assert confidence_bound(1e-6, 1e-4, 1e10) == pytest.approx(math.exp(-25), rel=1e-12)
    assert confidence_bound(2e-6, 1e-4, 1e10) == pytest.approx(math.exp(-100), rel=1e-12)


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
    # bound, so s0 counts as exact unless r0 is set.
    rates = loss_only_rates(0.3, 0.45, 1e-3)
    n = 10**8
    for settings in (
        FluctuationSettings(),
        FluctuationSettings(r0=0.1),
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
    # r0 > 0 pulls the strong-class map below the asymptotic value.
    "r0_clamp_binds": (
        PARAMS,
        expected_rates(NoEve(eta=1e-3, s0=1e-5), PARAMS),
        PulseBudget(10**14, 10**14),
        FluctuationSettings(r0=0.9),
        0.31444433983366393,
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
    if name == "r0_clamp_binds":
        assert report.sc_upper == asym.sc_upper


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


def test_explicit_r0_stays_between_asymptotic_and_default():
    params = ProtocolParams(0.25, 0.41)
    rates = loss_only_rates(0.25, 0.41, 1e-4)
    budget = PulseBudget(8 * 10**10, 8 * 10**10)
    asym = wang_asymptotic_bound(rates, params).delta_upper
    base = finite_bound(rates, params, budget, FluctuationSettings()).delta_upper
    shifted = finite_bound(rates, params, budget, FluctuationSettings(r0=0.5)).delta_upper
    assert asym <= shifted <= base


@st.composite
def finite_cases(draw):
    mu = draw(st.floats(min_value=0.1, max_value=0.5))
    mu_prime = draw(st.floats(min_value=mu + 0.05, max_value=1.0))
    eta = draw(st.floats(min_value=1e-5, max_value=1e-2))
    exponent = draw(st.integers(min_value=5, max_value=14))
    return ProtocolParams(mu, mu_prime), loss_only_rates(mu, mu_prime, eta), 10**exponent


@given(finite_cases())
def test_finite_dominates_asymptotic_property(case):
    params, rates, n = case
    asym = wang_asymptotic_bound(rates, params)
    fin = finite_bound(rates, params, PulseBudget(n, n), FluctuationSettings())
    assert fin.delta_upper >= asym.delta_upper - 1e-12
    assert 0.0 <= fin.delta_upper <= 1.0
