"""Channel and eavesdropper models producing observed counting rates.

Three scenario kinds share one interface: a per-photon-number yield
``photon_yield(n)`` applied identically to every intensity class, and the
induced per-pulse class rate ``class_rate(x)`` at intensity ``x``.  Rates
can be taken exactly (expected values) or sampled per pulse with a seeded
generator.
"""

from __future__ import annotations

import math
import operator
from typing import Union

import numpy as np

from .bounds import ObservedRates
from .errors import ParameterError, _frozen, check_probability
from .finite_stats import PulseBudget
from .photon_stats import ProtocolParams, decompose, multi_photon_weight, poisson_mixture

# Largest class size numpy's exact binomial sampler accepts (int64).
MAX_SAMPLED_PULSES = 2**63 - 1


@_frozen
class NoEve:
    """Lossy channel with transmittance eta and independent dark counts.

    An n-photon pulse clicks unless all photons are lost and no dark count
    fires: yield 1 - (1 - s0)(1 - eta)^n.
    """

    eta: float
    s0: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.eta <= 1.0:
            check_probability("eta", self.eta)
        if not 0.0 <= self.s0 <= 1.0:
            check_probability("s0", self.s0)

    def photon_yield(self, n: int) -> float:
        return 1.0 - (1.0 - self.s0) * (1.0 - self.eta) ** n

    def class_rate(self, intensity: float) -> float:
        # Poisson mixture of the yields collapses to this closed form;
        # written via expm1 so vacuum returns exactly s0 and small eta*x
        # keeps full precision.
        return self.s0 - (1.0 - self.s0) * math.expm1(-self.eta * intensity)


@_frozen
class PnsAttack:
    """Photon-number-splitting attacker.

    Single-photon pulses are blocked; a fraction q of multi-photon pulses
    is forwarded losslessly.  Both classes are treated identically.
    """

    q: float
    s0: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.q <= 1.0:
            check_probability("q", self.q)
        if not 0.0 <= self.s0 <= 1.0:
            check_probability("s0", self.s0)

    def photon_yield(self, n: int) -> float:
        if n == 0:
            return self.s0
        if n == 1:
            return 0.0
        return self.q

    def class_rate(self, intensity: float) -> float:
        return math.exp(-intensity) * self.s0 + self.q * multi_photon_weight(intensity)


@_frozen
class YieldTable:
    """Arbitrary per-photon-number yields s_1..s_n_max; zero beyond the table."""

    s0: float
    yields: tuple[float, ...]

    def __post_init__(self) -> None:
        if not 0.0 <= self.s0 <= 1.0:
            check_probability("s0", self.s0)
        if len(self.yields) < 2:
            raise ParameterError(
                f"yields table needs entries for n=1 and n=2 at least, got {len(self.yields)}"
            )
        yields = tuple(map(float, self.yields))
        self.__dict__["yields"] = yields
        for n, y in enumerate(yields, start=1):
            # Fails for NaN and both infinities too; only then is the name formed.
            if not 0.0 <= y <= 1.0:
                check_probability(f"yields[{n}]", y)

    def photon_yield(self, n: int) -> float:
        if n == 0:
            return self.s0
        if n <= len(self.yields):
            return self.yields[n - 1]
        return 0.0

    def class_rate(self, intensity: float) -> float:
        # A click probability: an all-ones table's sum can round past 1.
        return min(poisson_mixture(intensity, self.s0, self.yields), 1.0)


ChannelScenario = Union[NoEve, PnsAttack, YieldTable]


# The last (scenario, params) pair and its class rates; see _class_rates.
_last: tuple = (None, None, None)


def _class_rates(scenario: ChannelScenario, params: ProtocolParams) -> tuple[float, float, float]:
    """S_0, S_mu and S_mu' of the scenario: class_rate at 0, mu and mu'.

    expected_rates, true_delta and sample_observation each read all of them
    for one strategy, so the last pair's rates are kept in one entry, keyed
    by the identity of scenario and params.  The entry holds both, so
    neither id can be reused while it lives, and it is replaced as one
    tuple, so a concurrent caller can only miss, never read another pair's
    rates.
    """
    global _last
    last_scenario, last_params, rates = _last
    if last_scenario is scenario and last_params is params:
        return rates
    rates = (
        scenario.class_rate(0.0),
        scenario.class_rate(params.mu),
        scenario.class_rate(params.mu_prime),
    )
    _last = (scenario, params, rates)
    return rates


def expected_rates(scenario: ChannelScenario, params: ProtocolParams) -> ObservedRates:
    """Exact per-pulse counting rates the scenario induces on the three classes."""
    return ObservedRates(*_class_rates(scenario, params))


def _fraction(scenario: ChannelScenario, total: float, p0: float, p1: float) -> float:
    """The n >= 2 share of a class rate total, from its Poisson weights p0 and p1."""
    if total <= 0.0:
        return 0.0
    multi = total - p0 * scenario.photon_yield(0) - p1 * scenario.photon_yield(1)
    return min(max(multi / total, 0.0), 1.0)


def multi_photon_fraction(scenario: ChannelScenario, intensity: float) -> float:
    """Exact fraction of clicks at this intensity caused by n >= 2 photons.

    Uses S - P_0 y_0 - P_1 y_1 over S, which equals the n >= 2 Poisson sum
    without truncation error.  A dead class (S = 0) contributes fraction 0.
    """
    total = scenario.class_rate(intensity)
    if total <= 0.0:
        return 0.0
    p0 = math.exp(-intensity)
    return _fraction(scenario, total, p0, intensity * p0)


def true_delta(scenario: ChannelScenario, params: ProtocolParams) -> tuple[float, float]:
    """Ground-truth multi-photon fractions (weak class, strong class).

    Each is multi_photon_fraction at that class's intensity, on the shared
    class rates and decompose(params)'s weights.
    """
    _, s_mu, s_mu_prime = _class_rates(scenario, params)
    coeffs = decompose(params)
    return (
        _fraction(scenario, s_mu, coeffs.p0_mu, coeffs.p1_mu),
        _fraction(scenario, s_mu_prime, coeffs.p0_mu_prime, coeffs.p1_mu_prime),
    )


@_frozen
class SimulatedObservation:
    """Sampled click counts and the rates they imply.

    The rates carry the scenario's exact vacuum rate, which the bounds take
    s0 to be: a rate sampled from a small vacuum class (0.0 from an empty
    one) would drop vacuum credit that the true s0 gives.
    """

    rates: ObservedRates
    clicks_mu: int
    clicks_mu_prime: int
    clicks_vacuum: int


def sample_observation(
    scenario: ChannelScenario,
    params: ProtocolParams,
    budget: PulseBudget,
    seed: int,
) -> SimulatedObservation:
    """Draw per-class click counts exactly binomially; deterministic for a fixed seed.

    Draw order is fixed (weak, strong, vacuum) so a given seed always maps
    to the same observation; the rates report the exact s0.
    The seed must be a non-negative integer, and no class may hold more
    than MAX_SAMPLED_PULSES pulses.
    """
    try:
        seed = operator.index(seed)
    except TypeError:
        raise ParameterError(f"seed must be a non-negative integer, got {seed!r}") from None
    if seed < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {seed}")
    for name in ("n_mu", "n_mu_prime", "n_vacuum"):
        if getattr(budget, name) > MAX_SAMPLED_PULSES:
            raise ParameterError(f"{name} exceeds 2**63 - 1, the most pulses a class can sample")
    s0, s_mu, s_mu_prime = _class_rates(scenario, params)
    # What default_rng(seed) builds for an int seed, without its dispatch.
    rng = np.random.Generator(np.random.PCG64(seed))
    clicks_mu = int(rng.binomial(budget.n_mu, s_mu))
    clicks_mu_prime = int(rng.binomial(budget.n_mu_prime, s_mu_prime))
    clicks_vacuum = int(rng.binomial(budget.n_vacuum, s0))
    rates = ObservedRates(
        s0=s0,
        s_mu=clicks_mu / budget.n_mu,
        s_mu_prime=clicks_mu_prime / budget.n_mu_prime,
    )
    return SimulatedObservation(
        rates=rates,
        clicks_mu=clicks_mu,
        clicks_mu_prime=clicks_mu_prime,
        clicks_vacuum=clicks_vacuum,
    )
