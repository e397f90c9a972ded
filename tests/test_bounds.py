import math
import os
import random
import re
import sys
from collections import Counter

import pytest
from hypothesis import given, strategies as st

import decoyqkd
from decoyqkd import (
    METHOD_HWANG,
    METHOD_WANG_ASYMPTOTIC,
    ConvergenceError,
    DomainError,
    NoEve,
    ObservedRates,
    ParameterError,
    PnsAttack,
    ProtocolParams,
    PulseBudget,
    YieldTable,
    batch,
    decompose,
    delta_prime_bound,
    expected_rates,
    finite_bound,
    hwang_bound,
    hwang_optimized,
    sample_observation,
    true_delta,
    wang_asymptotic_bound,
)
from decoyqkd.bounds import DEFAULT_MAX_ITER, TOL, _constraints, _s1, _solve_sc

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
    """(sc, s1) of the shared solver without fluctuations, searching from sc = 0."""
    system = _constraints(rates, decompose(params))
    sc = _solve_sc(system, 0.0, max_iter)
    return sc, _s1(system, sc)


def test_solver_matches_closed_form():
    sc, s1 = _solve_exact(RATIO_RATES, PARAMS)
    delta = 0.036936313113766774 * sc / RATIO_RATES.s_mu
    assert delta == pytest.approx(0.32366848545656625, rel=1e-9)
    assert s1 > 0.0


def test_solver_converges_within_100_iterations():
    rates = ObservedRates(
        s0=1e-6, s_mu=-math.expm1(-1e-4 * 0.25), s_mu_prime=-math.expm1(-1e-4 * 0.41)
    )
    params = ProtocolParams(0.25, 0.41)
    sc, s1 = _solve_exact(rates, params, max_iter=100)
    assert sc > 0.0 and s1 > 0.0
    assert _solve_exact(rates, params) == (sc, s1)


def test_solver_near_diagonal_matches_closed_form():
    # mu'/mu - 1 = 3.3e-4: a loop contracting by mu/mu' per step would
    # need tens of thousands of steps here.
    params = ProtocolParams(0.3, 0.3001)
    rates = expected_rates(NoEve(eta=1e-3, s0=1e-6), params)
    closed = wang_asymptotic_bound(rates, params)
    sc, s1 = _solve_exact(rates, params)
    assert sc == pytest.approx(closed.sc_upper, rel=1e-6)
    assert s1 == pytest.approx(closed.s1_lower, rel=1e-6)


def test_solver_clamps_s1_at_zero():
    # Strong class so bright the weak class cannot contain any singles:
    # fixed point is the crude value, with no singles left (s1 <= 0).
    rates = ObservedRates(0.0, 1e-6, 0.5)
    sc, s1 = _solve_exact(rates, PARAMS)
    coeffs_c = 0.036936313113766774
    crude = (1.0 / 1.9365929469563801) * 0.5 / coeffs_c
    assert s1 <= 0.0
    assert sc == pytest.approx(crude, rel=1e-12)


def test_solver_non_convergence_carries_last_iterate():
    # The iterate that evaluation max_iter + 1 would have taken, bit for bit:
    # at max_iter = 1 the pass at the seed, (sc_lo, y^2) with y = sqrt(s1 at sc_lo).
    frozen = {
        1: ("0x1.cb6d62f916493p-11", "0x1.3f199117fdfb9p-12"),
        2: ("0x1.fb0fc6f838544p-11", "0x1.2f443f8ec4935p-12"),
        3: ("0x1.fba5615aa3034p-11", "0x1.2f12857aa9b0ep-12"),
    }
    for max_iter, (sc, s1) in frozen.items():
        with pytest.raises(ConvergenceError) as excinfo:
            finite_bound(RATIO_RATES, PARAMS, PulseBudget(10**10, 10**10), max_iter=max_iter)
        assert str(excinfo.value) == f"no sc/s1 root within {max_iter} evaluations"
        assert (excinfo.value.sc.hex(), excinfo.value.s1.hex()) == (sc, s1)


def test_solver_builds_no_closure_per_call():
    # The scalar solver is called twice per soundness-scan strategy: its
    # excess is formed inline, not by a function defined, and bound to cells,
    # per call.  The lane solver is the same text, so it defines none either.
    for solver in (_solve_sc, batch._solve_sc):
        code = solver.__code__
        assert not any(isinstance(const, type(code)) for const in code.co_consts)
        assert code.co_cellvars == () and code.co_freevars == ()


def test_scan_op_calls_no_builtin_clamp():
    # ROADMAP item 19's guard: a clamp costs time on every op.  A builtin
    # min(x, 1.0) took 152 ns on the host it was measured on, the comparison
    # 1.0 if 1.0 < x else x 15 ns, and a soundness-scan op made about 31 such
    # clamps plus 3.7 math.isinf calls.  One op of each scenario kind, on
    # fresh objects so the class-rate cache misses, must call none of them
    # from the package's own code (a first call may import stdlib modules).
    banned = {min, max, math.isinf}
    package = os.path.dirname(decoyqkd.__file__)
    budget = PulseBudget(10**10, 10**10, 10**8)
    scenarios = [
        YieldTable(1e-5, (0.2, 0.4, 0.6, 0.3)),
        PnsAttack(q=0.02, s0=1e-6),
        NoEve(eta=1e-2, s0=1e-5),
    ]
    called = []

    def profile(frame, event, arg):
        if event == "c_call" and any(arg is fn for fn in banned):
            if frame.f_code.co_filename.startswith(package):
                called.append((arg.__name__, frame.f_code.co_name))

    for scenario in scenarios:
        reports = []
        sys.setprofile(profile)
        try:
            params = ProtocolParams(0.3, 0.45)
            rates = expected_rates(scenario, params)
            truth, _ = true_delta(scenario, params)
            reports += [
                hwang_bound(rates, params),
                wang_asymptotic_bound(rates, params),
                finite_bound(rates, params, budget),
            ]
            observation = sample_observation(scenario, params, budget, 7)
            reports.append(finite_bound(observation.rates, params, budget))
        finally:
            sys.setprofile(None)
        assert called == [], type(scenario).__name__
        assert all(report.delta_upper >= truth for report in reports[:3])
        # Off the PNS attack, whose truth is 1, the finite bounds ran the
        # solver, so its clamps were reached.
        assert all(r.vacuous for r in reports[2:]) == isinstance(scenario, PnsAttack)


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


@pytest.mark.parametrize(
    "rates, term",
    [
        # Both credits overflow, where the clamp would pass inf - inf = nan on.
        (ObservedRates(1.0, 1e-320, 1e-320), "e^{-mu} s0 / S_mu"),
        (ObservedRates(1.0, 1e-320, 1.5e-4), "e^{-mu} s0 / S_mu"),
        # The strong credit alone would overflow, but S_mu' lies below
        # e^{-mu'} s0, so it is forfeited and nothing overflows.
        (ObservedRates(1.0, 1e-4, 1e-320), None),
    ],
    ids=["both", "weak-credit", "dark-credit"],
)
def test_delta_prime_overflowing_credit_raises(rates, term):
    if term is None:
        weak_credit = math.exp(-0.3) * rates.s0 / rates.s_mu
        forfeited = 1.0 - (1.0 - 1.0 - weak_credit) * math.exp(0.3 - 0.45)
        assert delta_prime_bound(1.0, rates, PARAMS) == min(max(forfeited, 0.0), 1.0) == 1.0
        return
    with pytest.raises(DomainError, match=re.escape(f"{term} overflows to inf")):
        delta_prime_bound(1.0, rates, PARAMS)


def test_delta_prime_forfeits_a_dark_credit_above_the_strong_rate():
    # S_mu' below its own vacuum part e^{-mu'} s0 would credit more than the
    # strong class holds; the credit is forfeited, so delta' no longer
    # reads 0 beside a vacuous delta.
    rates = ObservedRates(1e-3, 1e-4, 1e-5)
    assert rates.s_mu_prime < math.exp(-0.45) * rates.s0
    for delta in (0.0, 0.05, 0.2, 1.0):
        weak_credit = math.exp(-0.3) * rates.s0 / rates.s_mu
        no_credit = 1.0 - (1.0 - delta - weak_credit) * math.exp(0.3 - 0.45)
        assert delta_prime_bound(delta, rates, PARAMS) == min(max(no_credit, 0.0), 1.0)
    assert delta_prime_bound(1.0, rates, PARAMS) == 1.0
    # At S_mu' equal to its vacuum part the credit is taken, and it is 1.
    vacuum_part = decompose(PARAMS).p0_mu_prime * 1e-6
    rates = ObservedRates(1e-6, 1e-4, vacuum_part)
    weak_credit = math.exp(-0.3) * 1e-6 / 1e-4
    taken = 1.0 - (1.0 - 0.2 - weak_credit) * math.exp(0.3 - 0.45) - 1.0
    assert delta_prime_bound(0.2, rates, PARAMS) == pytest.approx(min(max(taken, 0.0), 1.0))
    below = ObservedRates(1e-6, 1e-4, math.nextafter(vacuum_part, 0.0))
    assert delta_prime_bound(0.2, below, PARAMS) > delta_prime_bound(0.2, rates, PARAMS)


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
def test_solver_agrees_with_closed_form_property(pair):
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
    # A subnormal weak rate makes mu' e^{-mu'} S_mu round to 0, which the
    # closed form used to divide by.  At mu = 1e-170 the multi-photon weight
    # c ~ mu^2 / 2 would be 0, so that pair is refused before any bound.
    subnormal = expected_rates(NoEve(eta=0.0, s0=5e-324), ProtocolParams(0.5, 0.6))
    assert hwang_bound(subnormal, ProtocolParams(0.5, 0.6)).vacuous
    with pytest.raises(DomainError, match=r"mu' e\^\{-mu'\} S_mu underflows to 0"):
        wang_asymptotic_bound(subnormal, ProtocolParams(0.5, 0.6))
    with pytest.raises(ParameterError, match="mu must be at least 1e-150, got 1e-170"):
        ProtocolParams(1e-170, 2e-170)


def test_delta_prime_is_defined_on_pairs_at_the_intensity_floor():
    # It once returned a value where every other bound raised, and then
    # raised with them.  No admissible pair raises any more.
    rates = ObservedRates(s0=1e-6, s_mu=1e-3, s_mu_prime=2e-3)
    for mu_prime in (0.45, 2e-150):
        assert 0.0 <= delta_prime_bound(0.1, rates, ProtocolParams(1e-150, mu_prime)) <= 1.0
        with pytest.raises(ParameterError, match="mu must be at least 1e-150, got 1e-160"):
            ProtocolParams(1e-160, mu_prime)


def test_near_diagonal_family_is_sound_or_rejected():
    # mu'/mu - 1 over the decades 1e-16 .. 1e-5.  Below the admissibility
    # floor the closed form fell short of the truth by up to 1 (near 1e-15);
    # now such a pair is rejected, and every admissible one stays sound.
    rng = random.Random(11)
    outcomes = Counter()
    for decade in range(-16, -4):
        for _ in range(150):
            mu = rng.uniform(0.05, 0.6)
            mu_prime = mu * (1.0 + 10.0 ** (decade + rng.random()))
            s0 = 10.0 ** rng.uniform(-7.0, -4.0)
            kind = rng.choice(("no_eve", "pns", "two_photon"))
            if kind == "no_eve":
                scenario = NoEve(eta=10.0 ** rng.uniform(-4.0, -1.0), s0=s0)
            elif kind == "pns":
                scenario = PnsAttack(q=10.0 ** rng.uniform(-3.0, 0.0), s0=s0)
            else:
                yields = (10.0 ** rng.uniform(-4.0, -1.0), rng.random())
                scenario = YieldTable(s0=s0, yields=yields)
            try:
                params = ProtocolParams(mu, mu_prime)
            except ParameterError:
                outcomes[decade, "rejected"] += 1
                continue
            truth = true_delta(scenario, params)[0]
            rates = expected_rates(scenario, params)
            bounds = [hwang_bound(rates, params), wang_asymptotic_bound(rates, params)]
            bounds += [finite_bound(rates, params, PulseBudget(n, n)) for n in (10**10, 10**20)]
            for report in bounds:
                assert report.delta_upper >= truth - 1e-9, (kind, mu, mu_prime, report)
            outcomes[decade, "bounded"] += 1
    for decade in range(-16, -6):
        assert outcomes[decade, "rejected"] == 150
    assert outcomes[-6, "bounded"] == outcomes[-5, "bounded"] == 150
