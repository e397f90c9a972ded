"""Benchmark grid of bound values with frozen references for regression checks.

Two finite-statistics configurations are evaluated on fixed intensity
pairs, alongside the optimized crude bound and the true no-eavesdropper
multi-photon fraction, and compared against frozen reference values.

Convention for the finite rows: class rates are pure channel loss,
S = 1 - e^{-eta x}; the dark rate enters the verification formulas only.
The reference values reproduce under this convention (within 0.1pp),
not under the independent-OR dark model used by the channel scenarios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import ObservedRates, delta_prime_bound, hwang_optimized
from .channel import NoEve, multi_photon_fraction
from .finite_stats import FluctuationSettings, PulseBudget, finite_bound
from .photon_stats import ProtocolParams

S0 = 1e-6
MU_COLUMNS = (0.2, 0.25, 0.3, 0.35)
MU_PRIME_COLUMNS = (0.39, 0.41, 0.45, 0.47)

# Configuration 1: moderate loss, 1e10 pulses per signal class.
W1_ETA = 1e-3
W1_PULSES = 10**10
W1_PAIRS = ((0.2, 0.34), (0.25, 0.38), (0.3, 0.43), (0.35, 0.45))

# Configuration 2: high loss, 8e10 pulses per signal class.
W2_ETA = 1e-4
W2_PULSES = 8 * 10**10
W2_PAIRS = ((0.2, 0.39), (0.25, 0.41), (0.3, 0.45), (0.35, 0.47))

# The true-fraction row is evaluated on a dark-free lossy channel.
TRUE_FRACTION_ETA = 1e-3

REF_HWANG_OPT = {
    0.2: 0.445,
    0.25: 0.529,
    0.3: 0.604,
    0.35: 0.670,
    0.39: 0.718,
    0.41: 0.740,
    0.45: 0.780,
    0.47: 0.798,
}
REF_TRUE_FRACTION = {
    0.2: 0.183,
    0.25: 0.222,
    0.3: 0.259,
    0.35: 0.295,
    0.39: 0.323,
    0.41: 0.337,
    0.45: 0.362,
    0.47: 0.375,
}
REF_W1 = {
    (0.2, 0.34): 0.234,
    (0.25, 0.38): 0.289,
    (0.3, 0.43): 0.344,
    (0.35, 0.45): 0.399,
}
REF_W2 = {
    (0.2, 0.39): 0.256,
    (0.25, 0.41): 0.309,
    (0.3, 0.45): 0.362,
    (0.35, 0.47): 0.415,
}
REF_W2_PRIME = {
    (0.2, 0.39): 0.401,
    (0.25, 0.41): 0.422,
    (0.3, 0.45): 0.458,
    (0.35, 0.47): 0.486,
}


def loss_only_rates(mu: float, mu_prime: float, eta: float, s0: float = S0) -> ObservedRates:
    """Counting rates under the benchmark convention: darks in formulas only."""
    return ObservedRates(
        s0=s0,
        s_mu=-math.expm1(-eta * mu),
        s_mu_prime=-math.expm1(-eta * mu_prime),
    )


def finite_cell(
    mu: float,
    mu_prime: float,
    eta: float,
    n_pulses: int,
    s0: float = S0,
) -> tuple[float, float]:
    """Finite bound and its strong-class transfer for one grid cell."""
    params = ProtocolParams(mu=mu, mu_prime=mu_prime)
    rates = loss_only_rates(mu, mu_prime, eta, s0)
    budget = PulseBudget(n_pulses, n_pulses)
    report = finite_bound(rates, params, budget, FluctuationSettings())
    return report.delta_upper, delta_prime_bound(report.delta_upper, rates, params)


def true_fraction(intensity: float, eta: float = TRUE_FRACTION_ETA) -> float:
    """Exact multi-photon click fraction on a dark-free lossy channel."""
    return multi_photon_fraction(NoEve(eta=eta, s0=0.0), intensity)


@dataclass(frozen=True)
class Table1Row:
    """One computed cell beside its frozen reference value."""

    quantity: str
    intensity: float
    partner: float | None
    computed: float
    reference: float

    @property
    def deviation(self) -> float:
        return self.computed - self.reference


def rows() -> list[Table1Row]:
    """All grid cells in presentation order (quantity-major)."""
    out: list[Table1Row] = []
    for x in MU_COLUMNS + MU_PRIME_COLUMNS:
        out.append(Table1Row("delta_hwang", x, None, hwang_optimized(x), REF_HWANG_OPT[x]))
    for x in MU_COLUMNS + MU_PRIME_COLUMNS:
        out.append(Table1Row("delta_true", x, None, true_fraction(x), REF_TRUE_FRACTION[x]))
    for mu, mu_prime in W1_PAIRS:
        delta, _ = finite_cell(mu, mu_prime, W1_ETA, W1_PULSES)
        out.append(Table1Row("delta_w1", mu, mu_prime, delta, REF_W1[(mu, mu_prime)]))
    for mu, mu_prime in W2_PAIRS:
        delta, delta_prime = finite_cell(mu, mu_prime, W2_ETA, W2_PULSES)
        out.append(Table1Row("delta_w2", mu, mu_prime, delta, REF_W2[(mu, mu_prime)]))
        out.append(
            Table1Row(
                "delta_prime_w2", mu_prime, mu, delta_prime, REF_W2_PRIME[(mu, mu_prime)]
            )
        )
    return out
