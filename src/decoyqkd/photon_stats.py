"""Poisson photon-number statistics and intensity-pair decomposition.

A phase-randomized coherent pulse of intensity ``mu`` emits ``n`` photons
with probability ``P_n(mu) = mu**n * exp(-mu) / n!``.  The decomposition
machinery splits the stronger class of a two-intensity protocol into
vacuum, single photons, a part proportional to the multi-photon tail of
the weaker class, and a remainder whose weight is non-negative for every
admissible pair and read by no bound, so it is not computed.
"""

from __future__ import annotations

import math

from .errors import _FLOAT_MAX, DomainError, ParameterError, _frozen, _shown

# Tolerance for the Poisson prefix-sum sanity check in poisson_mixture.
SUM_TOL = 1e-12

# Smallest admissible relative separation mu'/mu - 1.  Below it the closed
# form's (S_mu' / S_mu) / (mu' e^{-mu'} / mu e^{-mu}) - 1 is mostly rounding
# noise, which mu / (mu' - mu) scales up, and the bound can fall below the
# true tagged fraction.
MIN_SEPARATION = 1e-6

# Smallest admissible weak intensity.  Above it c >= 5e-301 is normal, and
# as single-photon dominance caps mu' at 351.25, (mu'/mu)^2 <= 1.3e305 and
# e^{mu-mu'} >= 2.8e-153 are finite and normal too.
MIN_INTENSITY = 1e-150


def poisson_mixture(mu: float, y0: float, yields: tuple[float, ...]) -> float:
    """Return ``sum_n P_n(mu) y_n``, with ``y_0 = y0`` and ``y_n = yields[n - 1]``.

    Each ``P_n`` comes from the upward recurrence
    ``P_n = P_{n-1} * mu / n``, which is exact in the relative sense, and
    is weighted as soon as it is formed.  At ``mu = 0`` every term past the
    vacuum is a signed zero, so a vacuum weight that is not -0.0 is the sum
    itself (the yields are finite).
    """
    if not 0 <= mu <= _FLOAT_MAX:
        raise DomainError(f"intensity must be finite and non-negative, got {_shown(mu)}")
    if mu == 0.0 and math.copysign(1.0, y0) > 0.0:
        return y0
    p = total = math.exp(-mu)
    rate = p * y0
    for n, y in enumerate(yields, start=1):
        p = p * mu / n
        total += p
        rate += p * y
    # Partial sums may not exceed 1 by more than rounding noise.
    if total > 1.0 + SUM_TOL:
        raise DomainError(f"prefix sum exceeds 1 for mu={mu}, n_max={len(yields)}")
    return rate


def _poisson_mixtures(
    mu: float, mu_prime: float, y0: float, yields: tuple[float, ...]
) -> tuple[float, float]:
    """``poisson_mixture`` at mu and at mu', in one pass over the yields.

    For an admitted pair: both intensities are positive and finite, so no
    domain check or vacuum shortcut applies.  Each intensity keeps its own
    recurrence and prefix sum, so both sums have poisson_mixture's bits, and
    a failed check raises through poisson_mixture, mu's first.
    """
    p = total = math.exp(-mu)
    q = total_prime = math.exp(-mu_prime)
    rate, rate_prime = p * y0, q * y0
    for n, y in enumerate(yields, start=1):
        p = p * mu / n
        q = q * mu_prime / n
        total += p
        total_prime += q
        rate += p * y
        rate_prime += q * y
    if total > 1.0 + SUM_TOL or total_prime > 1.0 + SUM_TOL:
        poisson_mixture(mu, y0, yields)
        poisson_mixture(mu_prime, y0, yields)
    return rate, rate_prime


def multi_photon_weight(mu: float) -> float:
    """Total probability of two or more photons, ``1 - P_0 - P_1``.

    Below mu = 1e-2 the subtraction ``-expm1(-mu) - mu*exp(-mu)`` still
    cancels down to ~ulp(mu), so a truncated alternating series (error
    below mu^5/420 relative) takes over there.
    """
    if not 0 <= mu <= _FLOAT_MAX:
        raise DomainError(f"intensity must be finite and non-negative, got {_shown(mu)}")
    if mu < 1e-2:
        return mu * mu * (
            0.5 + mu * (-1.0 / 3.0 + mu * (0.125 + mu * (-1.0 / 30.0 + mu / 144.0)))
        )
    return -math.expm1(-mu) - mu * math.exp(-mu)


@_frozen
class PairValidity:
    """Outcome of an intensity-pair admissibility check."""

    valid: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.valid


# Every admissible pair gets this one immutable verdict.
_VALID = PairValidity(True)


def _pair_weights(mu: float, mu_prime: float) -> tuple[float, float] | None:
    """(e^{-mu}, e^{-mu'}) if the pair is admissible, else None.

    One chained comparison admits the pair; its dominance test forms the two
    weights, and ProtocolParams keeps them.
    """
    if MIN_INTENSITY <= mu < mu_prime <= _FLOAT_MAX and mu * (1.0 + MIN_SEPARATION) <= mu_prime:
        p0_mu, p0_mu_prime = math.exp(-mu), math.exp(-mu_prime)
        if mu * p0_mu < mu_prime * p0_mu_prime:
            return p0_mu, p0_mu_prime
    return None


def validate_pair(mu: float, mu_prime: float) -> PairValidity:
    """Check whether ``(mu, mu_prime)`` supports the decomposition.

    Requirements: both intensities positive and finite (an int past the
    float range is not), ``mu >= MIN_INTENSITY``, ``mu_prime > mu``,
    ``mu_prime >= mu * (1 + MIN_SEPARATION)``, and
    ``mu_prime * exp(-mu_prime) > mu * exp(-mu)`` so the single-photon weight
    of the stronger class dominates.  An admitted pair passes one chained
    comparison; a refused one goes through the clauses one by one, and
    the reason names the first that it fails.
    """
    if _pair_weights(mu, mu_prime) is not None:
        return _VALID
    for name, value in (("mu", mu), ("mu_prime", mu_prime)):
        if not abs(value) <= _FLOAT_MAX:
            return PairValidity(False, f"{name} must be finite, got {_shown(value)}")
        if value <= 0:
            return PairValidity(False, f"{name} must be positive, got {value}")
    if mu < MIN_INTENSITY:
        return PairValidity(False, f"mu must be at least {MIN_INTENSITY:g}, got {mu}")
    if mu_prime <= mu:
        return PairValidity(False, f"mu_prime must exceed mu, got {mu} >= {mu_prime}")
    floor = mu * (1.0 + MIN_SEPARATION)
    if mu_prime < floor:
        return PairValidity(
            False,
            f"mu_prime is below the admissibility floor mu*(1 + {MIN_SEPARATION:g}) = {floor}, "
            f"got {mu_prime}",
        )
    return PairValidity(
        False,
        "single-photon weight of mu_prime does not dominate: "
        f"{mu_prime}*exp(-{mu_prime}) <= {mu}*exp(-{mu})",
    )


@_frozen
class ProtocolParams:
    """Admissible two-intensity protocol parameters.

    Construction fails with ParameterError unless ``validate_pair`` accepts
    the pair, so downstream code may assume admissibility.
    """

    mu: float
    mu_prime: float

    def __post_init__(self) -> None:
        mu, mu_prime = self.mu, self.mu_prime
        weights = _pair_weights(mu, mu_prime)
        if weights is None:
            raise ParameterError(validate_pair(mu, mu_prime).reason)
        p0_mu, p0_mu_prime = weights
        exp_gap = math.exp(mu - mu_prime)
        coefficients = DecompositionCoefficients(
            p0_mu, mu * p0_mu, p0_mu_prime, mu_prime * p0_mu_prime, exp_gap,
            multi_photon_weight(mu), _multi_ratio(mu, mu_prime, exp_gap),
        )
        # decompose(self), formed once here; not a dataclass field.
        self.__dict__["_coefficients"] = coefficients


def _multi_ratio(mu, mu_prime, exp_gap):
    """(mu'/mu)^2 e^{mu-mu'} from exp_gap = e^{mu-mu'}, on floats or on lanes."""
    ratio = mu_prime / mu
    return ratio * ratio * exp_gap


@_frozen
class DecompositionCoefficients:
    """Every Poisson weight of the two-class photon-number decomposition.

    p0_mu, p1_mu: vacuum and single-photon weights e^{-mu} and mu e^{-mu};
                  p0_mu_prime and p1_mu_prime are the same at mu'
    exp_gap:      e^{mu-mu'}
    c:            multi-photon weight of the weaker class, 1 - P_0(mu) - P_1(mu)
    multi_ratio:  scale factor mu'^2 e^{-mu'} / (mu^2 e^{-mu}) applied to the
                  weaker-class multi-photon tail inside the stronger class

    The remainder weight ``multi_photon_weight(mu') - c * multi_ratio`` sums
    ``P_n(mu') - multi_ratio P_n(mu)`` over n >= 2: zero at n = 2, and
    ``e^{-mu'} mu'^2 (mu'^{n-2} - mu^{n-2}) / n! >= 0`` beyond, as mu' > mu.
    No bound reads it, so it is not computed.
    """

    p0_mu: float
    p1_mu: float
    p0_mu_prime: float
    p1_mu_prime: float
    exp_gap: float
    c: float
    multi_ratio: float


def decompose(params: ProtocolParams) -> DecompositionCoefficients:
    """Every weight the bounds read, formed once when ``params`` is built.

    No bound forms a Poisson weight of mu or mu' itself.  Never raises: the
    admissibility floor MIN_INTENSITY keeps every weight finite and normal.
    """
    return params._coefficients
