"""A seeded differential corpus: every layer's output on random inputs, as exact text.

Run ``PYTHONPATH=src python tests/differential.py --seed S --draws N``.  Each
draw prints one line of tab-separated ``name=value`` fields: floats as
``float.hex``, so two trees print the same bytes only if every value has
the same bits, and errors as their type and message.  A draw is a scenario
(NoEve, PnsAttack, YieldTable or direct rates, with zeros, 1s and
subnormals), an intensity pair (down to the separation floor), a budget of
1 to 1e18 pulses per class (``n_vacuum`` 0 included) and a qber.  Its line
holds the decomposition, the rates, the true fractions, a sampled
observation, and every bound's report with its delta' and both key rates.
After every seventh draw with an asymptotic bound, one more line holds the
lane engine's reports on those seven lanes, each field by its name.

Diff the output of two trees to show that a change keeps every value, or
which fields it moves.
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import Callable, Iterator

import numpy as np

from decoyqkd import (
    ConvergenceError,
    FluctuationSettings,
    KeyRateInput,
    NoEve,
    ObservedRates,
    PnsAttack,
    ProtocolParams,
    PulseBudget,
    YieldTable,
    batch,
    decompose,
    delta_prime_bound,
    expected_rates,
    finite_bound,
    gllp_rate,
    hwang_bound,
    sample_observation,
    true_delta,
    wang_asymptotic_bound,
)
from decoyqkd.photon_stats import MIN_SEPARATION

# The report fields that the scalar and lane engines share; ``method`` is
# the scalar engine's own.
REPORT_FIELDS = ("delta_upper", "s1_lower", "sc_upper", "clamped", "vacuous")
COEFFICIENT_FIELDS = (
    "p0_mu", "p1_mu", "p0_mu_prime", "p1_mu_prime", "exp_gap", "c", "multi_ratio",
)
LANES = 7


def text(value) -> str:
    """A value's exact text: floats by their bits, arrays element by element."""
    if isinstance(value, np.ndarray):
        return ",".join(map(text, value.tolist()))
    if isinstance(value, float):
        return value.hex()
    return str(value)


class Line:
    """The fields of one output line, in order."""

    def __init__(self, name: str) -> None:
        self.fields = [name]

    def add(self, name: str, value) -> None:
        self.fields.append(f"{name}={text(value)}")

    def attempt(self, name: str, compute: Callable):
        """compute()'s value, or None once its error is added under name."""
        try:
            value = compute()
        except (ValueError, ArithmeticError, ConvergenceError, batch._Replay) as exc:
            self.add(name, f"!{type(exc).__name__}: {exc}")
            if isinstance(exc, ConvergenceError):
                self.add(f"{name}.next", f"{exc.sc.hex()},{exc.s1.hex()}")
            return None
        return value

    def report(self, name: str, report, qber: float, rates, params, lanes=False) -> None:
        """A report's shared fields, its delta' and the weak and strong key rates."""
        for field in REPORT_FIELDS:
            self.add(f"{name}.{field}", getattr(report, field))
        delta = report.delta_upper
        if lanes:
            prime = batch.delta_prime_bound(delta, rates, params)
            self.add(f"{name}.delta_prime", prime)
            self.add(f"{name}.key_weak", batch.gllp_rate(delta, qber))
            self.add(f"{name}.key_strong", batch.gllp_rate(prime, qber))
            return
        prime = self.attempt(
            f"{name}.delta_prime", lambda: delta_prime_bound(delta, rates, params)
        )
        if prime is not None:
            self.add(f"{name}.delta_prime", prime)
            self.add(f"{name}.key_weak", gllp_rate(KeyRateInput(delta, qber)))
            self.add(f"{name}.key_strong", gllp_rate(KeyRateInput(prime, qber)))

    def __str__(self) -> str:
        return "\t".join(self.fields)


def probability(rng: random.Random, low: float, high: float = 0.0) -> float:
    """A rate or yield: 0, 1, subnormal, or log-uniform on [10^low, 10^high]."""
    kind = rng.random()
    if kind < 0.05:
        return 0.0
    if kind < 0.08:
        return 1.0
    if kind < 0.12:
        return rng.choice((5e-324, rng.uniform(0.0, 2.0**-1022)))
    return 10.0 ** rng.uniform(low, high)


def draw_pair(rng: random.Random) -> tuple[float, float]:
    kind = rng.random()
    mu = 10.0 ** rng.uniform(-150.0, -1.0) if kind < 0.05 else rng.uniform(0.01, 0.9)
    gap = rng.random()
    if gap < 0.15:
        mu_prime = mu * (1.0 + MIN_SEPARATION)
    elif gap < 0.3:
        mu_prime = mu * (1.0 + 10.0 ** rng.uniform(-8.0, -2.0))
    elif gap < 0.33:
        mu_prime = rng.uniform(0.0, mu)
    else:
        mu_prime = rng.uniform(mu * 1.01, max(1.0, mu * 1.02))
    return mu, mu_prime


def draw_source(rng: random.Random):
    """A scenario, or direct rates."""
    kind = rng.random()
    s0 = probability(rng, -9.0, -3.0)
    if kind < 0.3:
        return NoEve(eta=probability(rng, -5.0), s0=s0)
    if kind < 0.5:
        return PnsAttack(q=probability(rng, -5.0), s0=s0)
    if kind < 0.8:
        size = rng.randint(2, 20)
        if rng.random() < 0.5:
            return YieldTable(s0=s0, yields=tuple(rng.random() for _ in range(size)))
        return YieldTable(s0=s0, yields=tuple(probability(rng, -6.0) for _ in range(size)))
    return ObservedRates(s0, probability(rng, -6.0), probability(rng, -6.0))


def pulses(rng: random.Random) -> int:
    return rng.choice((1, 10**18, int(10.0 ** rng.uniform(0.0, 18.0))))


def draw(rng: random.Random, index: int, line: Line):
    """One draw's fields; returns (params, rates) when its asymptotic bound exists."""
    mu, mu_prime = draw_pair(rng)
    source = draw_source(rng) if rng.random() < 0.98 else None
    n_mu = pulses(rng)
    n_mu_prime = n_mu if rng.random() < 0.5 else max(1, int(n_mu * rng.uniform(0.2, 5.0)))
    n_vacuum = 0 if rng.random() < 0.3 else pulses(rng)
    exponent = 25.0 if rng.random() < 0.5 else rng.uniform(0.5, 60.0)
    qber = rng.choice((0.0, 0.5, 0.015, rng.uniform(0.0, 0.1)))
    line.add("pair", f"{mu.hex()},{mu_prime.hex()}")
    line.add("source", repr(source))
    line.add("budget", f"{n_mu},{n_mu_prime},{n_vacuum}")
    line.add("exponent", exponent)
    line.add("qber", qber)
    params = line.attempt("params", lambda: ProtocolParams(mu, mu_prime))
    if params is None or source is None:
        return None
    coeffs = decompose(params)
    for name in COEFFICIENT_FIELDS:
        line.add(name, getattr(coeffs, name))
    if isinstance(source, ObservedRates):
        rates = source
    else:
        rates = line.attempt("rates", lambda: expected_rates(source, params))
        if rates is None:
            return None
        truth = line.attempt("truth", lambda: true_delta(source, params))
        if truth is not None:
            line.add("truth", f"{truth[0].hex()},{truth[1].hex()}")
    line.add("rates", f"{rates.s0.hex()},{rates.s_mu.hex()},{rates.s_mu_prime.hex()}")
    budget = PulseBudget(n_mu, n_mu_prime, n_vacuum)
    settings = FluctuationSettings(exponent)
    # Each bound's name, the rates it bounds, and the bound.
    bounds = {
        "hwang": (rates, lambda: hwang_bound(rates, params)),
        "asym": (rates, lambda: wang_asymptotic_bound(rates, params)),
        "finite": (rates, lambda: finite_bound(rates, params, budget, settings)),
        "finite3": (rates, lambda: finite_bound(rates, params, budget, settings, max_iter=3)),
    }
    if not isinstance(source, ObservedRates):
        observation = line.attempt(
            "sample", lambda: sample_observation(source, params, budget, seed=index)
        )
        if observation is not None:
            sampled = observation.rates
            line.add("sample.clicks", f"{observation.clicks_mu},{observation.clicks_mu_prime},"
                     f"{observation.clicks_vacuum}")
            line.add("sample.rates", f"{sampled.s_mu.hex()},{sampled.s_mu_prime.hex()}")
            bounds["sampled"] = (sampled, lambda: finite_bound(sampled, params, budget, settings))
    reports = {}
    for name, (observed, compute) in bounds.items():
        report = reports[name] = line.attempt(name, compute)
        if report is not None:
            line.add(f"{name}.method", report.method)
            line.report(name, report, qber, observed, params)
    return None if reports["asym"] is None else (params, rates)


def lane_group(group, n_pulses: int, exponent: float, qber: float, max_iter: int) -> Line:
    """The lane engine's reports on a group of (params, rates) lanes."""
    line = Line("lanes")
    mu, mu_prime = ([getattr(p, name) for p, _ in group] for name in ("mu", "mu_prime"))
    index = np.arange(len(group))
    pairs = batch.Pairs.of(batch.Weights.of(mu), batch.Weights.of(mu_prime), index, index)
    rates = batch.Rates._make(
        np.array([getattr(r, name) for _, r in group], float) for name in batch.Rates._fields
    )
    line.add("budget", f"{n_pulses},{exponent.hex()},{max_iter}")
    reports = {
        "asym": lambda: batch.wang_asymptotic_bound(rates, pairs),
        "finite": lambda: batch.finite_bound(rates, pairs, n_pulses, exponent, max_iter),
    }
    for name, compute in reports.items():
        report = line.attempt(name, compute)
        if report is not None:
            line.report(name, report, qber, rates, pairs, lanes=True)
    return line


def lines(seed: int, draws: int) -> Iterator[str]:
    rng = random.Random(seed)
    group = []
    for index in range(draws):
        line = Line(f"draw {index}")
        lane = draw(rng, index, line)
        yield str(line)
        if lane is not None:
            group.append(lane)
        if len(group) == LANES:
            max_iter = rng.choice((1, 3, 10_000, 10_000))
            yield str(lane_group(group, pulses(rng), rng.uniform(0.5, 60.0), rng.random() / 10,
                                 max_iter))
            group = []


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--draws", type=int, required=True)
    args = parser.parse_args(argv)
    for line in lines(args.seed, args.draws):
        sys.stdout.write(line + "\n")


if __name__ == "__main__":
    main()
