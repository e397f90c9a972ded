"""Plain-formula references that only the tests need."""

from __future__ import annotations

import math

from decoyqkd import (
    DomainError,
    FluctuationSettings,
    NoEve,
    ProtocolParams,
    PulseBudget,
    expected_rates,
    finite_bound,
    table1,
)


def poisson_pmf(n: int, mu: float) -> float:
    """Probability of exactly ``n`` photons at intensity ``mu``.

    Evaluated in log space so large ``n`` underflows gracefully to 0.0
    instead of overflowing the factorial.
    """
    if n < 0:
        raise DomainError(f"photon number must be non-negative, got {n}")
    if mu < 0 or not math.isfinite(mu):
        raise DomainError(f"intensity must be finite and non-negative, got {mu}")
    if mu == 0.0:
        return 1.0 if n == 0 else 0.0
    return math.exp(n * math.log(mu) - mu - math.lgamma(n + 1))


def dark_rate_sensitivity(
    mu: float,
    mu_prime: float,
    eta: float,
    n_pulses: int,
    factor: float = 1.5,
    s0: float = table1.S0,
) -> float:
    """Absolute change of the finite bound when the dark rate scales by factor.

    The dark rate is varied coherently: it enters both the simulated class
    rates (independent-OR channel model) and the verification formulas.
    """
    params = ProtocolParams(mu=mu, mu_prime=mu_prime)
    budget = PulseBudget(n_mu=n_pulses, n_mu_prime=n_pulses, n_vacuum=table1.VACUUM_PULSES)
    settings = FluctuationSettings()
    base = finite_bound(expected_rates(NoEve(eta=eta, s0=s0), params), params, budget, settings)
    bumped = finite_bound(
        expected_rates(NoEve(eta=eta, s0=factor * s0), params), params, budget, settings
    )
    return abs(bumped.delta_upper - base.delta_upper)
