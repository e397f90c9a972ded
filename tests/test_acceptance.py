"""End-to-end acceptance checks, one test per published target.

Each test prints a single PASS/FAIL line (replayed in the terminal summary
by conftest) with the measured deviation and, where bounded, the runtime.
"""

import math
import random
import time
from collections import Counter

import conftest

from decoyqkd import (
    FluctuationSettings,
    NoEve,
    ObservedRates,
    ProtocolParams,
    PulseBudget,
    WeakDecoySetup,
    YieldTable,
    acquisition_time,
    decompose,
    expected_rates,
    finite_bound,
    hwang_bound,
    hwang_optimized,
    required_pulses,
    sample_observation,
    table1,
    true_delta,
    validate_pair,
    wang_asymptotic_bound,
)
from decoyqkd.bounds import _solve_sc

from finite_oracle import INTERIOR, SEED, VACUOUS, finite_oracle
from reference import dark_rate_sensitivity


def _check(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num:02d} [{name}]: {detail}"
    print(line)
    conftest.acceptance_lines.append(line)
    assert ok, line


def test_criterion_01_hwang_row():
    t0 = time.perf_counter()
    worst = max(
        abs(hwang_optimized(x) - table1.REF_HWANG_OPT[x])
        for x in table1.MU_COLUMNS + table1.MU_PRIME_COLUMNS
    )
    elapsed = time.perf_counter() - t0
    _check(
        1,
        "optimized crude bound row",
        worst <= 1e-3 and elapsed < 0.1,
        f"max deviation {100 * worst:.3f}pp (tol 0.1pp), {1e3 * elapsed:.2f} ms",
    )


def test_criterion_02_w1_row():
    t0 = time.perf_counter()
    worst = 0.0
    for pair in table1.W1_PAIRS:
        delta, _ = table1.finite_cell(*pair, table1.W1_ETA, table1.W1_PULSES)
        worst = max(worst, abs(delta - table1.REF_W1[pair]))
    elapsed = time.perf_counter() - t0
    _check(
        2,
        "finite row, moderate loss",
        worst <= 1e-2 and elapsed < 1.0,
        f"max deviation {100 * worst:.3f}pp (tol 1pp), {elapsed:.3f} s",
    )


def test_criterion_03_w2_rows():
    t0 = time.perf_counter()
    worst = 0.0
    for pair in table1.W2_PAIRS:
        delta, delta_prime = table1.finite_cell(*pair, table1.W2_ETA, table1.W2_PULSES)
        worst = max(worst, abs(delta - table1.REF_W2[pair]))
        worst = max(worst, abs(delta_prime - table1.REF_W2_PRIME[pair]))
    elapsed = time.perf_counter() - t0
    _check(
        3,
        "finite rows, high loss",
        worst <= 1e-2 and elapsed < 1.0,
        f"max deviation {100 * worst:.3f}pp (tol 1pp), {elapsed:.3f} s",
    )


def test_criterion_04_true_fraction_row():
    worst = max(
        abs(table1.true_fraction(x) - table1.REF_TRUE_FRACTION[x])
        for x in table1.MU_COLUMNS + table1.MU_PRIME_COLUMNS
    )
    _check(
        4,
        "true multi-photon fraction row",
        worst <= 5e-3,
        f"max deviation {100 * worst:.3f}pp (tol 0.5pp)",
    )


def test_criterion_05_dark_rate_sensitivity():
    configs = [(pair, table1.W1_ETA, table1.W1_PULSES) for pair in table1.W1_PAIRS]
    configs += [(pair, table1.W2_ETA, table1.W2_PULSES) for pair in table1.W2_PAIRS]
    worst = max(
        dark_rate_sensitivity(pair[0], pair[1], eta, pulses)
        for pair, eta, pulses in configs
    )
    _check(
        5,
        "dark rate sensitivity",
        worst < 0.01,
        f"max |shift| {worst:.5f} over 8 configurations (tol 0.01)",
    )


def test_criterion_06_close_intensity_limit():
    worst = 0.0
    for mu in (0.2, 0.3, 0.4):
        mu_prime = mu + 1e-4
        rates = ObservedRates(s0=0.0, s_mu=1e-4, s_mu_prime=1e-4 * mu_prime / mu)
        report = wang_asymptotic_bound(rates, ProtocolParams(mu, mu_prime))
        worst = max(worst, abs(report.delta_upper - mu))
    _check(
        6,
        "close-intensity limit",
        worst < 1e-4,
        f"max |delta - mu| {worst:.2e} at mu' - mu = 1e-4 (tol 1e-4)",
    )


def test_criterion_07_pulse_budget():
    setup = WeakDecoySetup(eta=1e-4, s0=1e-6, mu_v=1e-4)
    pulses = required_pulses(setup, rel_dark_fluct_target=1e-3)
    days = acquisition_time(pulses, 8e7).days
    _check(
        7,
        "very-weak-decoy budget",
        pulses == 1e14 and 14 < days < 15,
        f"pulses {pulses:.17g} (want exactly 1e14), {days:.4f} days (want 14..15)",
    )


def test_criterion_08_soundness():
    rng = random.Random(12345)
    budget = PulseBudget(10**10, 10**10)
    settings = FluctuationSettings()
    t0 = time.perf_counter()
    violations = 0
    worst_margin = 1.0
    checked = 0
    while checked < 10_000:
        mu = rng.uniform(0.1, 0.5)
        mu_prime = rng.uniform(mu + 1e-3, 1.0)
        if not validate_pair(mu, mu_prime):
            continue
        s0 = rng.choice([0.0, rng.uniform(0, 1e-4)])
        yields = tuple(rng.uniform(0, 1) for _ in range(20))
        scenario = YieldTable(s0=s0, yields=yields)
        params = ProtocolParams(mu, mu_prime)
        rates = expected_rates(scenario, params)
        if rates.s_mu <= 0.0:
            continue
        checked += 1
        truth, _ = true_delta(scenario, params)
        wang = wang_asymptotic_bound(rates, params)
        crude = hwang_bound(rates, params)
        finite = finite_bound(rates, params, budget, settings)
        for report in (crude, wang, finite):
            if report.delta_upper < truth - 1e-12:
                violations += 1
        worst_margin = min(worst_margin, wang.delta_upper - truth)
    elapsed = time.perf_counter() - t0
    _check(
        8,
        "soundness vs arbitrary yields",
        violations == 0 and elapsed < 30.0,
        f"{checked} strategies, crude/asymptotic/finite (N=1e10) bounds, "
        f"{violations} violations, worst asymptotic margin {worst_margin:+.2e}, "
        f"{elapsed:.2f} s",
    )


def _oracle_cases(rng: random.Random, count: int):
    """Finite-bound inputs at practical budgets, N = 1e6 .. 1e14 weak-class pulses.

    NoEve channels and 12-entry yield tables, with min_over_classes on or
    off, then one pinned NoEve case whose solver leaves at the floor with
    s1 = 0.61 k1^2, vacuous only by the r1 >= 1 test.
    """
    while count:
        mu = rng.uniform(0.05, 0.5)
        mu_prime = rng.uniform(mu + 0.02, mu + 0.6)
        if not validate_pair(mu, mu_prime):
            continue
        count -= 1
        eta = 10.0 ** rng.uniform(-4.0, -1.0)
        s0 = 10.0 ** rng.uniform(-7.0, -4.0)
        if rng.random() < 0.5:
            scenario = NoEve(eta=eta, s0=s0)
        else:
            scenario = YieldTable(
                s0=s0,
                yields=tuple(
                    min(rng.uniform(0.5, 1.5) * -math.expm1(n * math.log1p(-eta)), 1.0)
                    for n in range(1, 13)
                ),
            )
        params = ProtocolParams(mu, mu_prime)
        n_mu = int(10.0 ** rng.uniform(6.0, 14.0))
        budget = PulseBudget(n_mu, int(n_mu * rng.uniform(0.2, 5.0)))
        settings = FluctuationSettings(
            confidence_exponent=rng.uniform(1.0, 40.0),
            min_over_classes=rng.random() < 0.5,
        )
        yield expected_rates(scenario, params), params, budget, settings
    params = ProtocolParams(0.29, 0.472)
    rates = expected_rates(NoEve(eta=9.7e-5, s0=7.6e-5), params)
    yield rates, params, PulseBudget(33_000_000, 33_000_000), FluctuationSettings()


def test_criterion_09_cross_validation():
    # Closed form against the shared solver without fluctuation terms.
    rng = random.Random(777)
    accepted = 0
    draws = 0
    worst_rel = 0.0
    while accepted < 1000:
        draws += 1
        assert draws < 50_000, "input family too restrictive"
        mu = rng.uniform(0.05, 0.8)
        mu_prime = rng.uniform(mu + 0.01, 1.0)
        if not validate_pair(mu, mu_prime):
            continue
        s_mu = 10.0 ** rng.uniform(-7.0, -0.31)
        s_mu_prime = min(rng.uniform(0.2, 3.0) * s_mu, 1.0)
        s0 = rng.uniform(0.0, 0.01) * s_mu
        rates = ObservedRates(s0=s0, s_mu=s_mu, s_mu_prime=s_mu_prime)
        params = ProtocolParams(mu, mu_prime)
        closed = wang_asymptotic_bound(rates, params)
        if closed.clamped or closed.vacuous or closed.delta_upper <= 1e-6:
            continue
        if closed.s1_lower <= 0.0:
            # Single-photon constraint binds: the solver returns the crude
            # value by design, so the closed form is not its fixed point.
            continue
        accepted += 1
        sc, _ = _solve_sc(rates, params, 0.0, 0.0, 0.0)
        delta_iter = decompose(params).c * sc / rates.s_mu
        worst_rel = max(
            worst_rel, abs(delta_iter - closed.delta_upper) / closed.delta_upper
        )

    # finite_bound against the independent mpmath solve of the same system.
    labels = Counter()
    flags_agree = 0
    worst_delta = 0.0
    for rates, params, budget, settings in _oracle_cases(random.Random(909), 120):
        report = finite_bound(rates, params, budget, settings)
        delta, label = finite_oracle(
            rates.s0, rates.s_mu, rates.s_mu_prime, params.mu, params.mu_prime,
            budget.n_mu, budget.n_mu_prime, settings.confidence_exponent,
            settings.min_over_classes,
        )
        labels[label] += 1
        flags_agree += report.vacuous == (label == VACUOUS)
        if not report.vacuous:
            worst_delta = max(worst_delta, abs(report.delta_upper - delta))
    cases = sum(labels.values())
    _check(
        9,
        "solver cross-validation",
        worst_rel < 1e-6
        and cases >= 100
        and worst_delta <= 1e-12
        and flags_agree == cases
        and labels[VACUOUS]
        and labels[INTERIOR]
        # With k1, kc > 0 the strong-class map lies above its asymptotic form,
        # so the asymptotic seed itself is never the bound.
        and not labels[SEED],
        f"closed form vs solver: {accepted} inputs, worst rel diff {worst_rel:.2e} "
        f"(tol 1e-6); finite_bound vs mpmath oracle: {cases} cases at N=1e6..1e14, "
        f"max |d delta_upper| {worst_delta:.1e} (tol 1e-12), vacuous flags agree on "
        f"{flags_agree}/{cases}; {labels[VACUOUS]} vacuous, {labels[SEED]} seed "
        f"(want 0), {labels[INTERIOR]} interior",
    )


def test_criterion_10_monte_carlo_consistency():
    params = ProtocolParams(0.3, 0.45)
    scenario = NoEve(eta=1e-3, s0=1e-6)
    budget = PulseBudget(10**9, 10**9, 10**9)
    settings = FluctuationSettings()
    reference = finite_bound(expected_rates(scenario, params), params, budget, settings)
    within = 0
    worst = 0.0
    for seed in range(100):
        observation = sample_observation(scenario, params, budget, seed)
        sampled = finite_bound(observation.rates, params, budget, settings)
        deviation = abs(sampled.delta_upper - reference.delta_upper)
        worst = max(worst, deviation)
        if deviation <= 0.03:
            within += 1
    _check(
        10,
        "sampled vs expected rates",
        within >= 95,
        f"{within}/100 seeds within 3pp, worst deviation {100 * worst:.2f}pp",
    )
