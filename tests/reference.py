"""Plain-formula references, and the scalar solver's evaluation count, that only the tests need."""

from __future__ import annotations

import itertools
import math
import sys
from typing import Callable

from decoyqkd import (
    ConvergenceError,
    DomainError,
    FluctuationSettings,
    NoEve,
    ProtocolParams,
    PulseBudget,
    batch,
    expected_rates,
    finite_bound,
    finite_stats,
    table1,
)
from decoyqkd.bounds import _solve_sc


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
    budget = PulseBudget(n_pulses, n_pulses)
    settings = FluctuationSettings()
    base = finite_bound(expected_rates(NoEve(eta=eta, s0=s0), params), params, budget, settings)
    bumped = finite_bound(
        expected_rates(NoEve(eta=eta, s0=factor * s0), params), params, budget, settings
    )
    return abs(bumped.delta_upper - base.delta_upper)


def solver_evaluations(system: tuple, sc_lo: float) -> int:
    """How many excess evaluations bounds._solve_sc makes: the least max_iter it returns with."""
    for max_iter in itertools.count(1):
        try:
            _solve_sc(system, sc_lo, max_iter)
        except ConvergenceError:
            continue
        return max_iter


def record_solver_evaluations(monkeypatch) -> list[int]:
    """Make finite_stats.finite_bound append each solver call's evaluation count to the list returned.

    A bound that exits before its solver appends nothing.
    """
    counts: list[int] = []
    solve = finite_stats._solve_sc

    def recording(system: tuple, sc_lo: float, max_iter: int) -> float:
        counts.append(solver_evaluations(system, sc_lo))
        return solve(system, sc_lo, max_iter)

    monkeypatch.setattr(finite_stats, "_solve_sc", recording)
    return counts


def package_calls(op: Callable[[], object]) -> tuple[object, list]:
    """op()'s result, and every call made in the package's frames while it ran, in order.

    A frame is the package's when its globals are a decoyqkd module's: the
    package's functions, and the record ``__init__`` that errors._frozen
    generates for each value class.  A Python call into such a frame is
    listed as its code object; a builtin that such a frame calls, as the
    builtin itself.
    """
    calls: list = []

    def profile(frame, event, arg):
        module = frame.f_globals.get("__name__", "")
        if module == "decoyqkd" or module.startswith("decoyqkd."):
            if event == "call":
                calls.append(frame.f_code)
            elif event == "c_call":
                calls.append(arg)

    sys.setprofile(profile)
    try:
        result = op()
    finally:
        sys.setprofile(None)
    return result, calls


def lane_solver_evaluations(run: Callable[[], object]) -> tuple[object, list[int]]:
    """run()'s result, and batch._solve_sc's evaluation count ``evals`` at each of its returns."""
    evals: list[int] = []
    code = batch._solve_sc.__code__

    def tracer(frame, event, arg):
        if frame.f_code is not code:
            return None
        if event == "return":
            evals.append(frame.f_locals["evals"])
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        result = run()
    finally:
        sys.settrace(previous)
    return result, evals
