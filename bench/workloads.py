"""The benchmark's three workloads: seeded inputs, one timed pass, output checks.

Each workload is a closed loop with one client.  ``run_pass(tick)`` runs
one pass of ops, checks their outputs and returns a ``PassResult``; it calls
``tick`` between ops, where the speed calibration of speed.py runs.
``trace_unit`` is the fixed amount of work a traced run records spans for,
so its call counts repeat exactly for a given seed.  decoyqkd functions are
always looked up through their module at call time, so a traced run's
wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import lzma
import math
import os
import random
import subprocess
import sys
import time
import traceback
from array import array
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SWEEP_REFERENCE = Path(__file__).resolve().parent / "data" / "sweep_reference.csv.xz"

# The ROADMAP Baseline grid (39 450 rows), run as one sweep command per mu.
SWEEP_GRID = {"--mu": "0.05:0.5:0.005", "--mu-prime": "0.1:1.0:0.005", "--eta": "1e-4,1e-3,1e-2"}
SWEEP_SMOKE_GRID = {"--mu": "0.25,0.3", "--mu-prime": "0.3:0.5:0.05", "--eta": "1e-4,1e-3,1e-2"}
SWEEP_FLAGS = ("--n", "8e10", "--qber", "0.015", "--format", "csv")
# Tolerance tests/test_finite_stats.py::test_finite_bound_oracle_cell holds
# finite_bound's delta_upper to.
DELTA_ABS_TOL = 1e-8
# Tolerance the CLI tests hold JSON bound values to.
JSON_REL_TOL = 1e-12
# Soundness: a bound may sit below the truth by rounding only.
SOUNDNESS_TOL = 1e-12
# A strategy with mu' below this multiple of mu is near-diagonal.  The
# solver's step count grows like 1/(1 - mu/mu'), and it stops at its
# iteration cap on some such strategies (seen up to mu'/mu = 1.0024).
NEAR_DIAGONAL = 1.01
# Strategies between two speed-calibration chunks (about 40 ms of work).
SCAN_TICK_EVERY = 200
# Calibration chunks before and after each CLI launch.
CLI_TICK_CHUNKS = 5


@dataclass
class PassResult:
    """Outcome of one pass: ops done, op latencies, and what the checks found."""

    ops: int = 0
    latencies_s: array = field(default_factory=lambda: array("d"))
    failed: int = 0
    wrong: int = 0
    stderr_lines: int = 0
    output_bytes: int = 0
    sampled_below_truth: int = 0
    notes: list[str] = field(default_factory=list)
    slowness: float = 1.0  # of the machine during this pass; see speed.py


def _no_tick(chunks: int = 1) -> None:
    pass


def _note_exception(result: PassResult, where: str) -> None:
    if len(result.notes) < 5:
        result.notes.append(f"{where}: {traceback.format_exc(limit=3)}")


def run_cli_in_process(argv) -> tuple[int | None, str, str]:
    """``decoyqkd.cli.main(argv)`` with stdout and stderr captured in memory.

    Returns exit code None when main raised instead of returning one.
    """
    from decoyqkd import cli

    out, err = io.StringIO(), io.StringIO()
    code: int | None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else None
        except Exception:  # an untyped crash is a failed op, not a harness error
            traceback.print_exc()
            code = None
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# sweep_grid


def sweep_commands(grid: dict) -> list[tuple[str, ...]]:
    """One ``sweep`` argv per mu of ``grid``; together they print every row."""
    from decoyqkd.cli import parse_grid

    rest = [item for flag in ("--mu-prime", "--eta") for item in (flag, grid[flag])]
    return [
        ("sweep", "--mu", repr(mu), *rest, *SWEEP_FLAGS)
        for mu in parse_grid(grid["--mu"], "--mu")
    ]


def load_sweep_reference(path: Path = SWEEP_REFERENCE) -> dict:
    """(mu, mu_prime, eta) -> (delta_upper, vacuous), frozen at the seed commit."""
    reference = {}
    with lzma.open(path, "rt", encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            mu, mu_prime, eta, delta, vacuous = line.rstrip("\n").split(",")
            reference[(float(mu), float(mu_prime), float(eta))] = (
                float(delta),
                vacuous == "true",
            )
    return reference


class SweepGrid:
    """In-process ``decoyqkd sweep`` over the Baseline grid, CSV to memory.

    A pass runs one sweep command per mu (91 commands, about 430 rows
    each), so speed calibration can sit between them.  One op is one row;
    latency is per command.  The grid is fixed, so the seed changes nothing.
    """

    name = "sweep_grid"
    capture_every = 100  # finite_bound calls per solver-evaluation count
    has_children = False

    def __init__(self, seed: int, smoke: bool) -> None:
        self.grid = SWEEP_SMOKE_GRID if smoke else SWEEP_GRID
        self.commands = sweep_commands(self.grid)
        self.expected: dict | None = None

    def warm_up(self) -> None:
        run_cli_in_process(self.commands[len(self.commands) // 2])

    def load_checks(self) -> None:
        """Expected (delta_upper, vacuous) per row, grouped by mu."""
        from decoyqkd.cli import parse_grid

        grids = [set(parse_grid(self.grid[flag], flag)) for flag in SWEEP_GRID]
        self.expected = {}
        for key, value in load_sweep_reference().items():
            if all(v in g for v, g in zip(key, grids)):
                self.expected.setdefault(key[0], {})[key] = value

    def _check(self, mu: float, code, out: str, err: str, result: PassResult) -> None:
        expected = self.expected.get(mu, {})
        result.ops += len(expected)
        matched = set()
        if code == 0:
            lines = out.splitlines()
            header = lines[0].split(",")
            cols = [header.index(c) for c in ("mu", "mu_prime", "eta", "delta_upper", "vacuous")]
            for line in lines[1:]:
                cells = line.split(",")
                key = tuple(float(cells[i]) for i in cols[:3])
                ref = expected.get(key)
                if (
                    ref is not None
                    and key not in matched
                    and abs(float(cells[cols[3]]) - ref[0]) <= DELTA_ABS_TOL
                    and (cells[cols[4]] == "true") == ref[1]
                ):
                    matched.add(key)
            if len(lines) - 1 != len(expected):
                result.notes.append(
                    f"sweep mu={mu} printed {len(lines) - 1} rows, expected {len(expected)}"
                )
        else:
            result.notes.append(f"sweep mu={mu} exit code {code}: {err[-500:]}")
        missing = len(expected) - len(matched)
        result.failed += missing
        result.wrong += missing

    def run_pass(self, tick=_no_tick) -> PassResult:
        result = PassResult()
        for argv in self.commands:
            start = time.perf_counter()
            code, out, err = run_cli_in_process(argv)
            result.latencies_s.append(time.perf_counter() - start)
            result.stderr_lines += err.count("\n")
            result.output_bytes += len(out.encode())
            self._check(float(argv[2]), code, out, err, result)
            tick()
        return result

    trace_unit = run_pass


# ---------------------------------------------------------------------------
# soundness_scan


@dataclass(frozen=True)
class Strategy:
    """One adversary: a channel scenario, an intensity pair and a pulse budget."""

    scenario: object
    mu: float
    mu_prime: float
    budget: object
    sample_seed: int
    kind: str  # "yields", "pns" or "close"


def _stratified(rng: random.Random, count: int, low: float, high: float) -> list[float]:
    """``count`` draws, one uniform in each of ``count`` equal slices, shuffled.

    Keeps each seed's spread of intensities and budgets close to the others,
    so run time differs little from seed to seed.
    """
    values = [low + (high - low) * (i + rng.random()) / count for i in range(count)]
    rng.shuffle(values)
    return values


def make_strategies(seed: int, count: int) -> list[Strategy]:
    """Criterion 08's adversary family plus a PNS share and a close-intensity stratum.

    Kinds: 93 % random 20-entry yield tables, 5 % PNS attacks, 2 % yield
    tables at mu' = mu + 1e-4.  Budgets are log-uniform over 1e8..1e16
    pulses in every class.
    """
    from decoyqkd import channel, finite_stats, photon_stats

    rng = random.Random(seed)
    n_close = max(1, round(0.02 * count))
    n_pns = max(1, round(0.05 * count))
    sizes = {"close": n_close, "pns": n_pns, "yields": count - n_close - n_pns}
    # Budgets are stratified within each kind: the close-intensity cost
    # depends steeply on the budget.
    drawn = [
        (kind, exponent)
        for kind, size in sizes.items()
        for exponent in _stratified(rng, size, 8.0, 16.0)
    ]
    rng.shuffle(drawn)
    close_mus = iter(_stratified(rng, n_close, 0.1, 0.5))
    strategies = []
    for kind, exponent in drawn:
        while True:
            if kind == "close":
                mu = next(close_mus)
                mu_prime = mu + 1e-4
            else:
                mu = rng.uniform(0.1, 0.5)
                mu_prime = rng.uniform(mu + 1e-3, 1.0)
            if not photon_stats.validate_pair(mu, mu_prime):
                continue
            s0 = rng.choice([0.0, rng.uniform(0.0, 1e-4)])
            if kind == "pns":
                scenario = channel.PnsAttack(q=rng.uniform(0.0, 1.0), s0=s0)
            else:
                scenario = channel.YieldTable(
                    s0=s0, yields=tuple(rng.uniform(0.0, 1.0) for _ in range(20))
                )
            params = photon_stats.ProtocolParams(mu, mu_prime)
            if channel.expected_rates(scenario, params).s_mu > 0.0:
                break
        n = int(10.0**exponent)
        strategies.append(
            Strategy(
                scenario=scenario,
                mu=mu,
                mu_prime=mu_prime,
                budget=finite_stats.PulseBudget(n, n, n),
                sample_seed=rng.getrandbits(63),
                kind=kind,
            )
        )
    return strategies


class SoundnessScan:
    """Every bound on expected rates must dominate the true tagged fraction.

    One op is one yield-table or PNS strategy: expected_rates, true_delta,
    the three bounds, then sample_observation and finite_bound on the
    sampled rates.  The close-intensity and other near-diagonal strategies
    are not ops: on many of them the solver stops at its iteration cap, a
    known defect.  They run as a probe in the traced unit only, where the
    tracer counts the solver's ConvergenceErrors.
    """

    name = "soundness_scan"
    capture_every = 25
    has_children = False

    def __init__(self, seed: int, smoke: bool) -> None:
        from decoyqkd import bounds, channel, errors, finite_stats, photon_stats

        self.lib = (bounds, channel, errors, finite_stats, photon_stats)
        strategies = make_strategies(seed, 60 if smoke else 5000)
        self.strategies, self.close_probe = [], []
        for s in strategies:
            near = s.kind == "close" or s.mu_prime < NEAR_DIAGONAL * s.mu
            (self.close_probe if near else self.strategies).append(s)

    def warm_up(self) -> None:
        self._scan(self.strategies[:50], _no_tick)

    def load_checks(self) -> None:
        pass

    def _strategy(self, s: Strategy, result: PassResult) -> str:
        """Run one strategy: "ok", "unconverged" (ConvergenceError) or "failed"."""
        bounds, channel, errors, finite_stats, photon_stats = self.lib
        typed = (errors.ParameterError, errors.DomainError)
        try:
            params = photon_stats.ProtocolParams(s.mu, s.mu_prime)
            rates = channel.expected_rates(s.scenario, params)
            truth, _ = channel.true_delta(s.scenario, params)
            checked = [
                bounds.hwang_bound(rates, params),
                bounds.wang_asymptotic_bound(rates, params),
                finite_stats.finite_bound(rates, params, s.budget),
            ]
            observation = channel.sample_observation(
                s.scenario, params, s.budget, s.sample_seed
            )
            try:
                sampled = finite_stats.finite_bound(observation.rates, params, s.budget)
            except typed:
                sampled = None
        except errors.ConvergenceError:
            return "unconverged"
        except typed:
            # A typed error naming its cause is a result, not a failure.
            return "ok"
        except Exception:
            _note_exception(result, f"strategy mu={s.mu} mu'={s.mu_prime}")
            return "failed"
        violated = False
        for report in checked:
            if report.delta_upper < truth - SOUNDNESS_TOL or not 0.0 <= report.delta_upper <= 1.0:
                violated = True
                result.notes.append(
                    f"soundness violation [{report.method}] mu={s.mu} mu'={s.mu_prime} "
                    f"truth={truth} bound={report.delta_upper}"
                )
        if violated:
            result.wrong += 1
            return "failed"
        if sampled is not None and sampled.delta_upper < truth:
            result.sampled_below_truth += 1
        return "ok"

    def _scan(self, strategies, tick) -> PassResult:
        result = PassResult()
        clock = time.perf_counter
        for index, s in enumerate(strategies, start=1):
            start = clock()
            outcome = self._strategy(s, result)
            result.latencies_s.append(clock() - start)
            result.ops += 1
            if outcome != "ok":
                result.failed += 1
                if outcome == "unconverged":
                    result.notes.append(f"ConvergenceError at mu={s.mu} mu'={s.mu_prime}")
            if index % SCAN_TICK_EVERY == 0 or index == len(strategies):
                tick()
        return result

    def run_pass(self, tick=_no_tick) -> PassResult:
        return self._scan(self.strategies, tick)

    def trace_unit(self) -> PassResult:
        """One pass, then the near-diagonal probe.

        A probe strategy that stops with ConvergenceError is counted by the
        tracer, not as a failed op; a crash or a soundness violation on it
        is still a failure.
        """
        result = self.run_pass()
        for s in self.close_probe:
            if self._strategy(s, result) == "failed":
                result.failed += 1
        return result


# ---------------------------------------------------------------------------
# cli_oneshot


@dataclass
class Case:
    """One command line with what its run must produce."""

    argv: tuple[str, ...]
    expected_code: int
    expected_stdout: str | None = None
    check_json: object = None  # callable(payload) -> list of mismatch notes


def _close(value, expected) -> bool:
    return math.isclose(value, expected, rel_tol=JSON_REL_TOL, abs_tol=0.0)


def make_cases(seed: int) -> list[Case]:
    """The fixed argv rotation, with expected results from in-process calls."""
    from decoyqkd import (
        FluctuationSettings,
        KeyRateInput,
        NoEve,
        ObservedRates,
        PnsAttack,
        ProtocolParams,
        PulseBudget,
        WeakDecoySetup,
        build_report,
        expected_rates,
        finite_bound,
        gllp_rate,
        hwang_bound,
        sample_observation,
        wang_asymptotic_bound,
    )

    rng = random.Random(seed)
    cases = []

    # bound from a NoEve scenario with a budget and a qber, as json.
    mu = round(rng.uniform(0.2, 0.35), 4)
    params = ProtocolParams(mu, 0.45)
    rates = expected_rates(NoEve(eta=1e-4, s0=1e-6), params)
    budget = PulseBudget(8 * 10**10, 8 * 10**10)
    finite = finite_bound(rates, params, budget, FluctuationSettings())
    expect = {
        ("hwang", "delta_upper"): hwang_bound(rates, params).delta_upper,
        ("asymptotic", "delta_upper"): wang_asymptotic_bound(rates, params).delta_upper,
        ("finite", "delta_upper"): finite.delta_upper,
        ("key_rate", "weak"): gllp_rate(KeyRateInput(finite.delta_upper, 0.015)),
    }
    cases.append(
        Case(
            argv=("bound", "--mu", str(mu), "--mu-prime", "0.45", "--eta", "1e-4",
                  "--s0", "1e-6", "--n", "8e10", "--qber", "0.015", "--format", "json"),
            expected_code=3 if finite.vacuous else 0,
            check_json=lambda p, e=expect: [
                f"{a}.{b}" for (a, b), v in e.items() if not _close(p[a][b], v)
            ],
        )
    )

    # bound --rates as a table; a 1e6-pulse budget leaves the bound vacuous.
    rates_flag = "1e-6,3e-5,4.5e-5"
    small = finite_bound(
        ObservedRates(1e-6, 3e-5, 4.5e-5), ProtocolParams(0.3, 0.45),
        PulseBudget(10**6, 10**6), FluctuationSettings(),
    )
    cases.append(
        Case(
            argv=("bound", "--mu", "0.3", "--mu-prime", "0.45", "--rates", rates_flag,
                  "--n", "1e6", "--format", "table"),
            expected_code=3 if small.vacuous else 0,
        )
    )

    # simulate a PNS attack with a seed from the workload seed, as json.
    sim_seed = rng.getrandbits(32)
    params = ProtocolParams(0.3, 0.45)
    scenario = PnsAttack(q=0.5, s0=1e-6)
    budget = PulseBudget(10**10, 10**10)
    observation = sample_observation(scenario, params, budget, sim_seed)
    sampled = finite_bound(observation.rates, params, budget, FluctuationSettings())
    expect_sim = {
        ("observation", "clicks_mu"): observation.clicks_mu,
        ("observation", "clicks_mu_prime"): observation.clicks_mu_prime,
    }
    cases.append(
        Case(
            argv=("simulate", "--mu", "0.3", "--mu-prime", "0.45", "--scenario", "pns",
                  "--q", "0.5", "--s0", "1e-6", "--n", "1e10", "--seed", str(sim_seed),
                  "--format", "json"),
            expected_code=3 if sampled.vacuous else 0,
            check_json=lambda p, e=expect_sim, d=sampled.delta_upper: [
                f"{a}.{b}" for (a, b), v in e.items() if p[a][b] != v
            ] + ([] if _close(p["sampled"]["finite"]["delta_upper"], d) else ["sampled.finite"]),
        )
    )

    # feasibility at the default setup, as json: impractical, exit 5.
    report = build_report(WeakDecoySetup(eta=1e-4, s0=1e-6, mu_v=1e-4), 1e-3)
    cases.append(
        Case(
            argv=("feasibility", "--format", "json"),
            expected_code=0 if report.practical else 5,
            check_json=lambda p, r=report: [
                k for k, v in (
                    ("n_pulses_required", r.n_pulses_required),
                    ("acquisition_days", r.time.days),
                ) if not _close(p[k], v)
            ] + ([] if p["practical"] is r.practical else ["practical"]),
        )
    )

    cases.append(Case(argv=("table1",), expected_code=0))

    # Table outputs must match what the same code prints in-process.
    for case in cases:
        if case.check_json is None:
            code, out, _ = run_cli_in_process(case.argv)
            if code != case.expected_code:
                raise RuntimeError(f"in-process {case.argv[0]} exited {code}")
            case.expected_stdout = out
    return cases


def check_case(case: Case, code, out: str) -> list[str]:
    """Mismatch notes for one run of ``case``; empty when it is right."""
    problems = []
    if code != case.expected_code:
        problems.append(f"exit code {code}, expected {case.expected_code}")
    elif case.check_json is not None:
        try:
            problems += case.check_json(json.loads(out))
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"unreadable json: {exc!r}")
    elif out != case.expected_stdout:
        problems.append("stdout differs from the in-process run")
    return [f"{case.argv[0]}: {p}" for p in problems]


class CliOneshot:
    """One ``python -m decoyqkd.cli`` child per op and pass, rotating through five commands.

    The traced unit runs the same rotation in-process instead, ten times.
    """

    name = "cli_oneshot"
    capture_every = 1
    has_children = True

    def __init__(self, seed: int, smoke: bool) -> None:
        self.cases = make_cases(seed)
        self.next_case = 0
        self.trace_rounds = 1 if smoke else 10
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(SRC) + (
            os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else ""
        )

    def warm_up(self) -> None:
        pass

    def load_checks(self) -> None:
        pass

    def _launch(self, case: Case, result: PassResult) -> None:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "decoyqkd.cli", *case.argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=self.env,
            cwd=ROOT,
            text=True,
        )
        try:
            out, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            problems = ["child timed out"]
        else:
            problems = check_case(case, proc.returncode, out)
        result.latencies_s.append(time.perf_counter() - start)
        result.ops += 1
        if problems:
            result.failed += 1
            result.wrong += 1
            result.notes += problems + [err[-300:]]

    def run_pass(self, tick=_no_tick) -> PassResult:
        """The next command of the rotation, as a child process."""
        case = self.cases[self.next_case]
        self.next_case = (self.next_case + 1) % len(self.cases)
        result = PassResult()
        tick(CLI_TICK_CHUNKS)
        self._launch(case, result)
        tick(CLI_TICK_CHUNKS)
        return result

    def trace_unit(self) -> PassResult:
        """The same commands through ``cli.main`` in-process, ``trace_rounds`` times."""
        result = PassResult()
        for _ in range(self.trace_rounds):
            for case in self.cases:
                start = time.perf_counter()
                code, out, err = run_cli_in_process(case.argv)
                result.latencies_s.append(time.perf_counter() - start)
                result.ops += 1
                result.stderr_lines += err.count("\n")
                result.output_bytes += len(out.encode())
                problems = check_case(case, code, out)
                if problems:
                    result.failed += 1
                    result.wrong += 1
                    result.notes += problems
        return result


WORKLOADS = {cls.name: cls for cls in (SweepGrid, SoundnessScan, CliOneshot)}
