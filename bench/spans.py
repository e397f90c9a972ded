"""Span tracing of decoyqkd's public functions, installed from outside the package.

``Tracer.install`` rebinds each traced function, in every ``decoyqkd.*``
module namespace that holds it, to a wrapper that records one span (name,
start, end, parent) per call; ``uninstall`` puts the originals back.  The
package source is never edited.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import gzip
import inspect
import statistics
import subprocess
import sys
import time
from collections import Counter

# (module, attribute) of each traced function; the span is named
# "<module>.<attribute>".  finite_bound, expected_rates and ProtocolParams
# get dedicated wrappers below.
PLAIN = (
    ("photon_stats", "validate_pair"),
    ("photon_stats", "decompose"),
    ("channel", "true_delta"),
    ("channel", "sample_observation"),
    ("bounds", "hwang_bound"),
    ("bounds", "wang_asymptotic_bound"),
    ("bounds", "delta_prime_bound"),
    ("key_rate", "gllp_rate"),
    ("cli", "build_parser"),
    ("cli", "main"),
    ("feasibility", "build_report"),
    ("table1", "rows"),
)
SCENARIO_KINDS = {"NoEve": "no_eve", "PnsAttack": "pns", "YieldTable": "yields"}

# Every span name a traced run reports, in output order.
SPAN_NAMES = (
    "finite_stats.finite_bound",
    "photon_stats.validate_pair",
    "photon_stats.ProtocolParams",
    "photon_stats.decompose",
    *(f"channel.expected_rates.{kind}" for kind in SCENARIO_KINDS.values()),
    "channel.true_delta",
    "channel.sample_observation",
    "bounds.hwang_bound",
    "bounds.wang_asymptotic_bound",
    "bounds.delta_prime_bound",
    "key_rate.gllp_rate",
    "cli.build_parser",
    "cli.main",
    "feasibility.build_report",
    "table1.rows",
)


def _package_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if name == "decoyqkd" or name.startswith("decoyqkd.")
    ]


class Tracer:
    """Records nested spans around decoyqkd calls in one thread.

    capture_every: keep the arguments of every n-th finite_bound call
    (0 keeps none), for counting solver evaluations afterwards.
    """

    def __init__(self, capture_every: int = 0) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.finite_outcomes: Counter[str] = Counter()
        self.captured: list[tuple[tuple, dict]] = []
        self._capture_every = capture_every
        self._finite_calls = 0
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        index = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def _plain(self, fn, name: str):
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return wrapper

    def _expected_rates(self, fn):
        def wrapper(scenario, params):
            index = self._open(
                "channel.expected_rates." + SCENARIO_KINDS[type(scenario).__name__]
            )
            try:
                return fn(scenario, params)
            finally:
                self._close(index)

        return wrapper

    def _finite_bound(self, fn, convergence_error, typed_errors):
        outcomes = self.finite_outcomes

        def wrapper(*args, **kwargs):
            if self._capture_every and self._finite_calls % self._capture_every == 0:
                self.captured.append((args, kwargs))
            self._finite_calls += 1
            index = self._open("finite_stats.finite_bound")
            try:
                report = fn(*args, **kwargs)
            except convergence_error:
                outcomes["convergence_errors"] += 1
                raise
            except typed_errors:
                outcomes["typed_errors"] += 1
                raise
            finally:
                self._close(index)
            if report.vacuous:
                outcomes["vacuous"] += 1
            return report

        return wrapper

    def _rebind(self, original, wrapper) -> None:
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, original))

    def install(self) -> None:
        from decoyqkd import channel, errors, finite_stats, photon_stats

        for module_name, attr in PLAIN:
            module = sys.modules.get(f"decoyqkd.{module_name}")
            if module is None:  # never imported, so never called
                continue
            original = getattr(module, attr)
            self._rebind(original, self._plain(original, f"{module_name}.{attr}"))
        self._rebind(channel.expected_rates, self._expected_rates(channel.expected_rates))
        self._rebind(
            finite_stats.finite_bound,
            self._finite_bound(
                finite_stats.finite_bound,
                errors.ConvergenceError,
                (errors.ParameterError, errors.DomainError),
            ),
        )
        # A class keeps its identity for isinstance and dataclass use, so
        # its constructor is wrapped in place instead of rebinding the name.
        cls = photon_stats.ProtocolParams
        original_init = cls.__init__
        cls.__init__ = self._plain(original_init, "photon_stats.ProtocolParams")
        self._restore.append((cls, "__init__", original_init))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def layer_stats(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self seconds), self = span minus child spans."""
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        child_time = [0.0] * len(durations)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += durations[index]
        calls: Counter[str] = Counter()
        self_s: Counter[str] = Counter()
        for name, duration, children in zip(self.names, durations, child_time):
            calls[name] += 1
            self_s[name] += duration - children
        return {name: (calls[name], self_s[name]) for name in calls}

    def top_level_seconds(self) -> float:
        """Wall time covered by spans that have no traced parent."""
        return sum(
            end - start
            for start, end, parent in zip(self.starts, self.ends, self.parents)
            if parent < 0
        )

    def durations_of(self, name: str) -> list[float]:
        return [
            end - start
            for span, start, end in zip(self.names, self.starts, self.ends)
            if span == name
        ]

    def write(self, path) -> None:
        """Write every span as gzip CSV: index,name,start_s,end_s,parent."""
        origin = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for index, (name, start, end, parent) in enumerate(
                zip(self.names, self.starts, self.ends, self.parents)
            ):
                fh.write(f"{index},{name},{start - origin:.9f},{end - origin:.9f},{parent}\n")


def solver_evals(finite_bound, captured, cap: int) -> list[int]:
    """Smallest max_iter at which each captured finite_bound call returns.

    Found by bisection over [1, cap]; a call that still raises
    ConvergenceError at cap counts as cap evaluations.  Calls that end in
    any other error at cap are left out.
    """
    from decoyqkd.errors import ConvergenceError, DomainError, ParameterError

    signature = inspect.signature(finite_bound)
    counts = []
    for args, kwargs in captured:
        bound = signature.bind(*args, **kwargs)

        def returns_within(max_iter: int) -> bool:
            bound.arguments["max_iter"] = max_iter
            try:
                finite_bound(*bound.args, **bound.kwargs)
            except ConvergenceError:
                return False
            return True

        try:
            if not returns_within(cap):
                counts.append(cap)
                continue
        except (ParameterError, DomainError):
            continue
        low, high = 1, cap
        while low < high:
            mid = (low + high) // 2
            if returns_within(mid):
                high = mid
            else:
                low = mid + 1
        counts.append(low)
    return counts


IMPORT_MODULES = {"numpy": "numpy_ms", "decoyqkd": "decoyqkd_ms", "decoyqkd.cli": "cli_ms"}


def import_breakdown(python: str, env: dict, cwd, runs: int) -> dict[str, float]:
    """Median cumulative import time (ms) of numpy, decoyqkd and decoyqkd.cli.

    Each run is a fresh ``python -X importtime -c "import decoyqkd.cli"``.
    """
    samples: dict[str, list[float]] = {key: [] for key in IMPORT_MODULES.values()}
    for _ in range(runs):
        proc = subprocess.run(
            [python, "-X", "importtime", "-c", "import decoyqkd.cli"],
            env=env,
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        for line in proc.stderr.splitlines():
            # "import time:  self [us] | cumulative | imported package"
            parts = line.split("|")
            if len(parts) != 3 or not line.startswith("import time:"):
                continue
            key = IMPORT_MODULES.get(parts[2].strip())
            if key is not None:
                samples[key].append(int(parts[1]) / 1000.0)
    return {key: statistics.median(values) for key, values in samples.items()}
