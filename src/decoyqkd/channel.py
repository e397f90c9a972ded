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
import threading
from typing import Union

import numpy as np

from .bounds import ObservedRates
from .errors import ParameterError, _frozen, _shown, check_probability
from .finite_stats import PulseBudget
from .photon_stats import (
    ProtocolParams,
    _poisson_mixtures,
    decompose,
    multi_photon_weight,
    poisson_mixture,
)

# Largest class size numpy's exact binomial sampler accepts (int64).
MAX_SAMPLED_PULSES = 2**63 - 1

# A seed names a jump along PCG64's 2^128 period, so 2**128 would draw
# seed 0's stream again.
SEED_LIMIT = 2**128

# numpy's PCG64.jumped step, (phi - 1) 2^128 rounded to odd.  An odd step
# gives every seed below SEED_LIMIT its own start point; a shift such as
# seed << 64 would give all streams the same low 64 state bits.
_JUMP = 0x9E3779B97F4A7C15F39CC0605CEDC835

# Per thread: a PCG64(0), its Generator's binomial and its starting state.
# A generator is mutable, so threads sampling at once each move their own.
_samplers = threading.local()


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
        try:
            yields = tuple(map(float, self.yields))
        except OverflowError:  # an int past the float range, which the loop refuses
            yields = self.yields
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
        rate = poisson_mixture(intensity, self.s0, self.yields)
        return 1.0 if 1.0 < rate else rate


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
    rates.  A yield table sums S_mu and S_mu' in one pass over its yields,
    with class_rate's bits, errors and cap.
    """
    global _last
    last_scenario, last_params, rates = _last
    if last_scenario is scenario and last_params is params:
        return rates
    if type(scenario) is YieldTable:
        s0 = scenario.class_rate(0.0)
        s_mu, s_mu_prime = _poisson_mixtures(
            params.mu, params.mu_prime, scenario.s0, scenario.yields
        )
        rates = (s0, 1.0 if 1.0 < s_mu else s_mu, 1.0 if 1.0 < s_mu_prime else s_mu_prime)
    else:
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
    share = multi / total
    return 0.0 if 0.0 > share else 1.0 if 1.0 < share else share


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

    Seed s draws the stream of ``np.random.PCG64(0).jumped(s)``, in a
    fixed order (weak, strong, vacuum), so a given seed always maps to the
    same observation; the rates report the exact s0.  The seed must be an
    integer in [0, SEED_LIMIT), and no class may hold more than
    MAX_SAMPLED_PULSES pulses.  Each thread keeps one generator and moves
    it to the seed's start point: no SeedSequence hash per call.
    """
    try:
        seed = operator.index(seed)
    except TypeError:
        raise ParameterError(f"seed must be a non-negative integer, got {seed!r}") from None
    if not 0 <= seed < SEED_LIMIT:
        if seed < 0:
            raise ParameterError(f"seed must be a non-negative integer, got {_shown(seed)}")
        raise ParameterError(f"seed must be below 2**128, got a {seed.bit_length()}-bit integer")
    n_mu, n_mu_prime, n_vacuum = budget.n_mu, budget.n_mu_prime, budget.n_vacuum
    cap = MAX_SAMPLED_PULSES
    if n_mu > cap or n_mu_prime > cap or n_vacuum > cap:
        counts = {"n_mu": n_mu, "n_mu_prime": n_mu_prime, "n_vacuum": n_vacuum}
        name = next(name for name, count in counts.items() if count > cap)
        raise ParameterError(f"{name} exceeds 2**63 - 1, the most pulses a class can sample")
    s0, s_mu, s_mu_prime = _class_rates(scenario, params)
    try:
        bit, binomial, start = _samplers.sampler
    except AttributeError:  # this thread's first call
        bit = np.random.PCG64(0)
        binomial, start = np.random.Generator(bit).binomial, bit.state
        _samplers.sampler = bit, binomial, start
    bit.state = start
    bit.advance(seed * _JUMP)  # taken modulo 2^128, as jumped(seed) takes it
    # A scalar draw is already a Python int.  numpy returns 0 for an empty
    # vacuum class or a dark rate of 0 without moving the generator, so that
    # draw is skipped.
    clicks_mu = binomial(n_mu, s_mu)
    clicks_mu_prime = binomial(n_mu_prime, s_mu_prime)
    clicks_vacuum = binomial(n_vacuum, s0) if n_vacuum and s0 else 0
    rates = ObservedRates(s0, clicks_mu / n_mu, clicks_mu_prime / n_mu_prime)
    return SimulatedObservation(rates, clicks_mu, clicks_mu_prime, clicks_vacuum)
