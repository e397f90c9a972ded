"""Pulse-count feasibility of the vacuum + very-weak-decoy alternative.

A very weak decoy intensity mu_v <= eta can in principle verify a
single-photon rate near eta/2, but pinning the dark rate to the required
relative precision costs so many pulses that the acquisition time becomes
impractical.  This module quantifies that trade.
"""

from __future__ import annotations

import math

from .errors import _FLOAT_MAX, DomainError, ParameterError, _frozen, _shown

SECONDS_PER_DAY = 86_400.0


@_frozen
class WeakDecoySetup:
    """Channel, dark rate, decoy intensity, and source speed under study."""

    eta: float
    s0: float
    mu_v: float
    rep_rate: float = 8e7
    confidence_exponent: float = 25.0

    def __post_init__(self) -> None:
        if not 0.0 < self.eta < 1.0:
            raise ParameterError(f"eta must lie in (0, 1), got {_shown(self.eta)}")
        if not 0.0 <= self.s0 < 1.0:
            raise ParameterError(f"s0 must lie in [0, 1), got {_shown(self.s0)}")
        if not 0.0 < self.mu_v <= self.eta:
            raise ParameterError(
                f"mu_v must lie in (0, eta], got mu_v={_shown(self.mu_v)} with eta={self.eta}"
            )
        if not 0.0 < self.rep_rate <= _FLOAT_MAX:
            raise ParameterError(f"rep_rate must be positive, got {_shown(self.rep_rate)}")
        if not 0.0 < self.confidence_exponent <= _FLOAT_MAX:
            raise ParameterError(
                f"confidence_exponent must be positive, got {_shown(self.confidence_exponent)}"
            )


def weak_decoy_s1_bound(setup: WeakDecoySetup) -> float:
    """Verified single-photon rate if every multi-photon pulse counted.

    (eta mu_v - mu_v^2 / 2) / (mu_v e^{-mu_v}); approaches eta as mu_v -> 0
    and eta/2 at the boundary mu_v = eta.
    """
    return (setup.eta * setup.mu_v - setup.mu_v**2 / 2.0) / (
        setup.mu_v * math.exp(-setup.mu_v)
    )


def required_pulses(setup: WeakDecoySetup, rel_dark_fluct_target: float = 1e-3) -> float:
    """Smallest pulse count holding the dark-rate fluctuation to the target.

    Solves 2 sqrt(E / (s0 N)) <= target for N, giving N = 4 E / (s0 target^2).
    Raises DomainError when target^2 underflows to 0 or N overflows.
    """
    if not 0.0 < rel_dark_fluct_target <= 1.0:
        raise DomainError(
            f"relative fluctuation target must lie in (0, 1], got {_shown(rel_dark_fluct_target)}"
        )
    if setup.s0 == 0.0:
        raise DomainError("a zero dark rate admits no relative-fluctuation requirement")
    squared = rel_dark_fluct_target**2
    if squared == 0.0:
        raise DomainError(
            f"relative fluctuation target {rel_dark_fluct_target} squared underflows to 0"
        )
    n_pulses = 4.0 * setup.confidence_exponent / setup.s0 / squared
    if not math.isfinite(n_pulses):
        raise DomainError(
            f"required pulse count 4 E / (s0 target^2) overflows for "
            f"E={setup.confidence_exponent}, s0={setup.s0}, target={rel_dark_fluct_target}"
        )
    return n_pulses


@_frozen
class AcquisitionTime:
    """Wall-clock time to emit a pulse count, in seconds and in days."""

    seconds: float
    days: float


def acquisition_time(n_pulses: float, rep_rate: float) -> AcquisitionTime:
    """Wall-clock time to emit n_pulses at rep_rate pulses per second.

    Raises DomainError when n_pulses / rep_rate is not finite.
    """
    if n_pulses < 0:
        raise DomainError(f"pulse count must be non-negative, got {n_pulses}")
    if rep_rate <= 0:
        raise DomainError(f"repetition rate must be positive, got {rep_rate}")
    seconds = n_pulses / rep_rate
    if not math.isfinite(seconds):
        raise DomainError(
            f"acquisition time n_pulses / rep_rate is not finite for "
            f"n_pulses={n_pulses}, rep_rate={rep_rate}"
        )
    return AcquisitionTime(seconds=seconds, days=seconds / SECONDS_PER_DAY)


@_frozen
class FeasibilityReport:
    """Everything needed to judge the very-weak-decoy idea at one setup.

    expected_signal_rate is the per-pulse click rate 1 - e^{-eta mu_v} the
    decoy class would show without darks; comparing it against dark_rate
    shows why the dark fluctuation dominates the estimate.
    """

    s1_bound: float
    rel_dark_fluct_target: float
    n_pulses_required: float
    time: AcquisitionTime
    expected_signal_rate: float
    dark_rate: float
    practical: bool


def build_report(setup: WeakDecoySetup, rel_dark_fluct_target: float = 1e-3) -> FeasibilityReport:
    """Assemble the feasibility verdict; practical means at most one day."""
    n_pulses = required_pulses(setup, rel_dark_fluct_target)
    time = acquisition_time(n_pulses, setup.rep_rate)
    return FeasibilityReport(
        s1_bound=weak_decoy_s1_bound(setup),
        rel_dark_fluct_target=rel_dark_fluct_target,
        n_pulses_required=n_pulses,
        time=time,
        expected_signal_rate=-math.expm1(-setup.eta * setup.mu_v),
        dark_rate=setup.s0,
        practical=time.days <= 1.0,
    )
