import math

import pytest
from hypothesis import given, strategies as st

from decoyqkd import (
    METHOD_HWANG,
    METHOD_WANG_ASYMPTOTIC,
    ConvergenceError,
    DomainError,
    NoEve,
    ObservedRates,
    ParameterError,
    ProtocolParams,
    PulseBudget,
    delta_prime_bound,
    expected_rates,
    finite_bound,
    hwang_bound,
    hwang_optimized,
    wang_asymptotic_bound,
)
from decoyqkd.bounds import DEFAULT_MAX_ITER, TOL, _solve_sc

PARAMS = ProtocolParams(0.3, 0.45)
# Exact no-eavesdropper class-rate ratio S'/S = mu'/mu.
RATIO_RATES = ObservedRates(s0=0.0, s_mu=1e-4, s_mu_prime=1.5e-4)


def test_observed_rates_validation():
    ObservedRates(0.0, 0.0, 0.0)
    ObservedRates(1.0, 1.0, 1.0)
    for bad in (-1e-9, 1.0 + 1e-9, math.nan, math.inf):
        with pytest.raises(ParameterError):
            ObservedRates(s0=bad, s_mu=0.5, s_mu_prime=0.5)
        with pytest.raises(ParameterError):
            ObservedRates(s0=0.0, s_mu=bad, s_mu_prime=0.5)
        with pytest.raises(ParameterError):
            ObservedRates(s0=0.0, s_mu=0.5, s_mu_prime=bad)


def test_hwang_oracle_no_eve_ratio():
    # (mu/mu') e^{mu'-mu} at (0.3, 0.45), mpmath oracle
    report = hwang_bound(RATIO_RATES, PARAMS)
    assert report.delta_upper == pytest.approx(0.7745561618188554, rel=1e-12)
    assert report.method == METHOD_HWANG
    assert not report.clamped and not report.vacuous
    assert report.s1_lower == 0.0


def test_hwang_charges_all_strong_counts():
    # sc_upper * c must equal delta * S_mu by construction
    report = hwang_bound(RATIO_RATES, PARAMS)
    assert report.sc_upper * 0.036936313113766774 == pytest.approx(
        report.delta_upper * RATIO_RATES.s_mu, rel=1e-12
    )


def test_hwang_clamps_to_vacuous():
    # PNS-style rates: raw bound 1.0547 > 1
    rates = ObservedRates(0.0, 0.036936313113766774, 0.07543918014842872)
    report = hwang_bound(rates, PARAMS)
    assert report.delta_upper == 1.0
    assert report.clamped and report.vacuous


def test_hwang_requires_weak_counts():
    with pytest.raises(ParameterError):
        hwang_bound(ObservedRates(0.0, 0.0, 0.5), PARAMS)


def test_hwang_optimized_oracle():
    assert hwang_optimized(0.2) == pytest.approx(0.4451081856984935, rel=1e-12)
    assert hwang_optimized(0.5) == pytest.approx(0.5 * math.exp(0.5), rel=1e-12)


def test_hwang_optimized_domain():
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(DomainError):
            hwang_optimized(bad)


def test_wang_oracle_ratio_15():
    # Closed form collapses to 2 (e^{0.15} - 1) for this input.
    report = wang_asymptotic_bound(RATIO_RATES, PARAMS)
    assert report.delta_upper == pytest.approx(0.32366848545656625, rel=1e-12)
    assert report.method == METHOD_WANG_ASYMPTOTIC
    assert not report.clamped and not report.vacuous
    assert 0.0 < report.s1_lower


def test_wang_negative_raw_clamps_to_zero():
    rates = ObservedRates(0.0, 1e-4, 1e-4)
    report = wang_asymptotic_bound(rates, PARAMS)
    assert report.delta_upper == 0.0
    assert report.clamped and not report.vacuous


def test_wang_vacuous_on_pns_rates():
    rates = ObservedRates(0.0, 0.036936313113766774, 0.07543918014842872)
    report = wang_asymptotic_bound(rates, PARAMS)
    assert report.delta_upper == 1.0
    assert report.clamped and report.vacuous


def test_wang_requires_weak_counts():
    with pytest.raises(ParameterError):
        wang_asymptotic_bound(ObservedRates(0.0, 0.0, 0.5), PARAMS)


def test_wang_rate_decomposition_consistent():
    report = wang_asymptotic_bound(RATIO_RATES, PARAMS)
    # S_mu = e^{-mu} s0 + mu e^{-mu} s1 + c sc at the fixed point
    recomposed = (
        0.3 * math.exp(-0.3) * report.s1_lower + 0.036936313113766774 * report.sc_upper
    )
    assert recomposed == pytest.approx(RATIO_RATES.s_mu, rel=1e-10)


def _solve_exact(rates, params, max_iter=DEFAULT_MAX_ITER):
    """The shared sc/s1 solver without fluctuations, searching from sc = 0."""
    return _solve_sc(rates, params, 0.0, 0.0, 0.0, max_iter)


def test_iterate_matches_closed_form():
    sc, s1 = _solve_exact(RATIO_RATES, PARAMS)
    delta = 0.036936313113766774 * sc / RATIO_RATES.s_mu
    assert delta == pytest.approx(0.32366848545656625, rel=1e-9)
    assert s1 > 0.0


def test_iterate_converges_within_100_iterations():
    rates = ObservedRates(
        s0=1e-6, s_mu=-math.expm1(-1e-4 * 0.25), s_mu_prime=-math.expm1(-1e-4 * 0.41)
    )
    params = ProtocolParams(0.25, 0.41)
    sc, s1 = _solve_exact(rates, params, max_iter=100)
    assert sc > 0.0 and s1 > 0.0
    assert _solve_exact(rates, params) == (sc, s1)


def test_iterate_near_diagonal_matches_closed_form():
    # mu'/mu - 1 = 3.3e-4: a loop contracting by mu/mu' per step would
    # need tens of thousands of steps here.
    params = ProtocolParams(0.3, 0.3001)
    rates = expected_rates(NoEve(eta=1e-3, s0=1e-6), params)
    closed = wang_asymptotic_bound(rates, params)
    sc, s1 = _solve_exact(rates, params)
    assert sc == pytest.approx(closed.sc_upper, rel=1e-6)
    assert s1 == pytest.approx(closed.s1_lower, rel=1e-6)


def test_iterate_clamps_s1_at_zero():
    # Strong class so bright the weak class cannot contain any singles:
    # fixed point is the crude value, with no singles left (s1 <= 0).
    rates = ObservedRates(0.0, 1e-6, 0.5)
    sc, s1 = _solve_exact(rates, PARAMS)
    coeffs_c = 0.036936313113766774
    crude = (1.0 / 1.9365929469563801) * 0.5 / coeffs_c
    assert s1 <= 0.0
    assert sc == pytest.approx(crude, rel=1e-12)


def test_iterate_non_convergence_carries_last_iterate():
    with pytest.raises(ConvergenceError) as excinfo:
        finite_bound(RATIO_RATES, PARAMS, PulseBudget(10**10, 10**10), max_iter=2)
    assert excinfo.value.sc is not None and excinfo.value.sc > 0.0
    assert excinfo.value.s1 is not None


def test_delta_prime_trivial_forms():
    assert delta_prime_bound(1.0, RATIO_RATES, PARAMS) == 1.0
    expected = 1.0 - math.exp(0.3 - 0.45)
    assert delta_prime_bound(0.0, RATIO_RATES, PARAMS) == pytest.approx(expected, rel=1e-12)


def test_delta_prime_domain_and_degenerate_strong_class():
    with pytest.raises(DomainError):
        delta_prime_bound(1.5, RATIO_RATES, PARAMS)
    with pytest.raises(DomainError):
        delta_prime_bound(-0.1, RATIO_RATES, PARAMS)
    # zero strong rate: dark credit dropped, not divided by zero
    rates = ObservedRates(1e-6, 1e-4, 0.0)
    value = delta_prime_bound(0.2, rates, PARAMS)
    assert 0.0 <= value <= 1.0
    no_credit = 1.0 - (1.0 - 0.2 - math.exp(-0.3) * 1e-6 / 1e-4) * math.exp(0.3 - 0.45)
    assert value == pytest.approx(no_credit, rel=1e-12)


@given(st.floats(min_value=0.0, max_value=1.0))
def test_delta_prime_monotone_and_clamped(delta):
    value = delta_prime_bound(delta, RATIO_RATES, PARAMS)
    assert 0.0 <= value <= 1.0
    if delta < 1.0:
        assert delta_prime_bound(min(delta + 1e-3, 1.0), RATIO_RATES, PARAMS) >= value


@st.composite
def physical_inputs(draw):
    mu = draw(st.floats(min_value=0.05, max_value=0.8))
    mu_prime = draw(st.floats(min_value=mu + 0.01, max_value=1.0))
    s_mu = draw(st.floats(min_value=1e-7, max_value=0.5))
    ratio = draw(st.floats(min_value=0.2, max_value=3.0))
    s0 = draw(st.floats(min_value=0.0, max_value=0.01)) * s_mu
    return ProtocolParams(mu, mu_prime), ObservedRates(
        s0=s0, s_mu=s_mu, s_mu_prime=min(s_mu * ratio, 1.0)
    )


@given(physical_inputs())
def test_dominance_small_dark_regime(pair):
    # The tightened bound never exceeds the crude one while the crude
    # bound is informative and darks are small next to the weak rate.
    # Outside that regime (s0 comparable to S_mu, crude bound near 1)
    # the ordering genuinely reverses.
    params, rates = pair
    crude = hwang_bound(rates, params)
    if crude.delta_upper > 0.98:
        return
    tightened = wang_asymptotic_bound(rates, params)
    assert tightened.delta_upper <= crude.delta_upper + 1e-12


@given(physical_inputs())
def test_iterate_agrees_with_closed_form_property(pair):
    params, rates = pair
    closed = wang_asymptotic_bound(rates, params)
    # s1_lower == 0 marks the clamped regime where the solver deliberately
    # returns the tighter crude value instead of the algebraic fixed point.
    if closed.clamped or closed.vacuous or closed.delta_upper < 1e-6:
        return
    if closed.s1_lower <= 0.0:
        return
    sc, _ = _solve_exact(rates, params)
    coeffs_c = 1.0 - math.exp(-params.mu) - params.mu * math.exp(-params.mu)
    delta = coeffs_c * sc / rates.s_mu
    assert abs(delta - closed.delta_upper) <= 10 * TOL * closed.delta_upper


@given(physical_inputs(), st.floats(min_value=1.001, max_value=1.5))
def test_monotone_in_strong_rate(pair, factor):
    params, rates = pair
    base = wang_asymptotic_bound(rates, params).delta_upper
    brighter = ObservedRates(
        s0=rates.s0, s_mu=rates.s_mu, s_mu_prime=min(rates.s_mu_prime * factor, 1.0)
    )
    assert wang_asymptotic_bound(brighter, params).delta_upper >= base - 1e-12


def test_underflowed_divisors_raise_domain_error():
    # A subnormal weak rate makes mu' e^{-mu'} S_mu round to 0; at mu = 1e-170
    # the multi-photon weight c ~ mu^2 / 2 does.  Both used to divide by zero.
    subnormal = expected_rates(NoEve(eta=0.0, s0=5e-324), ProtocolParams(0.5, 0.6))
    assert hwang_bound(subnormal, ProtocolParams(0.5, 0.6)).vacuous
    with pytest.raises(DomainError, match=r"mu' e\^\{-mu'\} S_mu underflows to 0"):
        wang_asymptotic_bound(subnormal, ProtocolParams(0.5, 0.6))
    tiny = ProtocolParams(1e-170, 2e-170)
    rates = expected_rates(NoEve(eta=1e-3, s0=1e-6), tiny)
    for bound in (hwang_bound, wang_asymptotic_bound):
        with pytest.raises(DomainError, match="multi-photon weight c of mu=1e-170 underflows"):
            bound(rates, tiny)
