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
from dataclasses import dataclass
from typing import Union

import numpy as np

from .bounds import ObservedRates
from .errors import ParameterError, check_probability
from .finite_stats import PulseBudget
from .photon_stats import ProtocolParams, multi_photon_weight, poisson_mixture

# Largest class size sampled with numpy's exact binomial sampler; beyond
# this (int64 territory) counts are drawn from the rounded and clamped
# normal approximation, which is indistinguishable at such sizes.
EXACT_BINOMIAL_LIMIT = 2**62


@dataclass(frozen=True)
class NoEve:
    """Lossy channel with transmittance eta and independent dark counts.

    An n-photon pulse clicks unless all photons are lost and no dark count
    fires: yield 1 - (1 - s0)(1 - eta)^n.
    """

    eta: float
    s0: float = 0.0

    def __post_init__(self) -> None:
        check_probability("eta", self.eta)
        check_probability("s0", self.s0)

    def photon_yield(self, n: int) -> float:
        return 1.0 - (1.0 - self.s0) * (1.0 - self.eta) ** n

    def class_rate(self, intensity: float) -> float:
        # Poisson mixture of the yields collapses to this closed form;
        # written via expm1 so vacuum returns exactly s0 and small eta*x
        # keeps full precision.
        return self.s0 - (1.0 - self.s0) * math.expm1(-self.eta * intensity)


@dataclass(frozen=True)
class PnsAttack:
    """Photon-number-splitting attacker.

    Single-photon pulses are blocked; a fraction q of multi-photon pulses
    is forwarded losslessly.  Both classes are treated identically.
    """

    q: float
    s0: float = 0.0

    def __post_init__(self) -> None:
        check_probability("q", self.q)
        check_probability("s0", self.s0)

    def photon_yield(self, n: int) -> float:
        if n == 0:
            return self.s0
        if n == 1:
            return 0.0
        return self.q

    def class_rate(self, intensity: float) -> float:
        return math.exp(-intensity) * self.s0 + self.q * multi_photon_weight(intensity)


@dataclass(frozen=True)
class YieldTable:
    """Arbitrary per-photon-number yields s_1..s_n_max; zero beyond the table."""

    s0: float
    yields: tuple[float, ...]

    def __post_init__(self) -> None:
        check_probability("s0", self.s0)
        if len(self.yields) < 2:
            raise ParameterError(
                f"yields table needs entries for n=1 and n=2 at least, got {len(self.yields)}"
            )
        object.__setattr__(self, "yields", tuple(float(y) for y in self.yields))
        for n, y in enumerate(self.yields, start=1):
            check_probability(f"yields[{n}]", y)

    def photon_yield(self, n: int) -> float:
        if n == 0:
            return self.s0
        if n <= len(self.yields):
            return self.yields[n - 1]
        return 0.0

    def class_rate(self, intensity: float) -> float:
        return poisson_mixture(intensity, self.s0, self.yields)


ChannelScenario = Union[NoEve, PnsAttack, YieldTable]


def expected_rates(scenario: ChannelScenario, params: ProtocolParams) -> ObservedRates:
    """Exact per-pulse counting rates the scenario induces on the three classes."""
    return ObservedRates(
        s0=scenario.class_rate(0.0),
        s_mu=scenario.class_rate(params.mu),
        s_mu_prime=scenario.class_rate(params.mu_prime),
    )


def multi_photon_fraction(scenario: ChannelScenario, intensity: float) -> float:
    """Exact fraction of clicks at this intensity caused by n >= 2 photons.

    Uses S - P_0 y_0 - P_1 y_1 over S, which equals the n >= 2 Poisson sum
    without truncation error.  A dead class (S = 0) contributes fraction 0.
    """
    total = scenario.class_rate(intensity)
    if total <= 0.0:
        return 0.0
    multi = (
        total
        - math.exp(-intensity) * scenario.photon_yield(0)
        - intensity * math.exp(-intensity) * scenario.photon_yield(1)
    )
    return min(max(multi / total, 0.0), 1.0)


def true_delta(scenario: ChannelScenario, params: ProtocolParams) -> tuple[float, float]:
    """Ground-truth multi-photon fractions (weak class, strong class)."""
    return (
        multi_photon_fraction(scenario, params.mu),
        multi_photon_fraction(scenario, params.mu_prime),
    )


@dataclass(frozen=True)
class SimulatedObservation:
    """Sampled click counts and the rates they imply.

    A class with zero budgeted pulses reports zero clicks and rate 0.0;
    there is no estimate to be had from an empty class.
    """

    rates: ObservedRates
    clicks_mu: int
    clicks_mu_prime: int
    clicks_vacuum: int


def _sample_count(rng: np.random.Generator, n_pulses: int, rate: float) -> int:
    if n_pulses == 0:
        return 0
    if n_pulses <= EXACT_BINOMIAL_LIMIT:
        return int(rng.binomial(n_pulses, rate))
    mean = n_pulses * rate
    sd = math.sqrt(n_pulses * rate * (1.0 - rate))
    draw = round(rng.normal(mean, sd))
    return int(min(max(draw, 0), n_pulses))


def sample_observation(
    scenario: ChannelScenario,
    params: ProtocolParams,
    budget: PulseBudget,
    seed: int,
) -> SimulatedObservation:
    """Draw per-class click counts binomially; deterministic for a fixed seed.

    Draw order is fixed (weak, strong, vacuum) so a given seed always maps
    to the same observation.  The seed must be a non-negative integer.
    """
    try:
        seed = operator.index(seed)
    except TypeError:
        raise ParameterError(f"seed must be a non-negative integer, got {seed!r}") from None
    if seed < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {seed}")
    rng = np.random.default_rng(seed)
    clicks_mu = _sample_count(rng, budget.n_mu, scenario.class_rate(params.mu))
    clicks_mu_prime = _sample_count(rng, budget.n_mu_prime, scenario.class_rate(params.mu_prime))
    clicks_vacuum = _sample_count(rng, budget.n_vacuum, scenario.class_rate(0.0))
    rates = ObservedRates(
        s0=clicks_vacuum / budget.n_vacuum if budget.n_vacuum else 0.0,
        s_mu=clicks_mu / budget.n_mu,
        s_mu_prime=clicks_mu_prime / budget.n_mu_prime,
    )
    return SimulatedObservation(
        rates=rates,
        clicks_mu=clicks_mu,
        clicks_mu_prime=clicks_mu_prime,
        clicks_vacuum=clicks_vacuum,
    )
