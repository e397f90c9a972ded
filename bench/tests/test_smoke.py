"""Smoke test of the benchmark harness on tiny inputs; not a timing gate.

Run from the repository root:

    python -m pytest bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_harness_reports_every_metric(workload, trace):
    proc = run_bench(
        ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
        "--trace", str(trace), "--smoke",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_harness_refuses_without_sources():
    bare = BENCH / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run_bench(bare, "--workload", "sweep_grid", "--seed", "1", "--seconds", "1",
                         "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_counts_and_restores():
    from spans import Tracer, solver_evals

    from decoyqkd import bounds, channel, cli, finite_stats, photon_stats
    from decoyqkd.errors import ConvergenceError, ParameterError

    originals = (cli.finite_bound, finite_stats.wang_asymptotic_bound,
                 photon_stats.ProtocolParams.__init__)
    budget = finite_stats.PulseBudget(10**10, 10**10)
    tracer = Tracer(capture_every=1)
    tracer.install()
    try:
        params = photon_stats.ProtocolParams(0.3, 0.45)
        rates = channel.expected_rates(channel.NoEve(eta=1e-3, s0=1e-6), params)
        finite_stats.finite_bound(rates, params, budget)
        with pytest.raises(ParameterError):
            finite_stats.finite_bound(bounds.ObservedRates(0.0, 0.0, 1e-4), params, budget)
        try:
            finite_stats.finite_bound(rates, params, budget, max_iter=1)
            stopped = 0
        except ConvergenceError:
            stopped = 1
    finally:
        tracer.uninstall()
    assert (cli.finite_bound, finite_stats.wang_asymptotic_bound,
            photon_stats.ProtocolParams.__init__) == originals

    stats = tracer.layer_stats()
    assert stats["finite_stats.finite_bound"][0] == 3
    assert stats["photon_stats.ProtocolParams"][0] == 1
    assert stats["channel.expected_rates.no_eve"][0] == 1
    assert tracer.finite_outcomes["typed_errors"] == 1
    assert tracer.finite_outcomes["convergence_errors"] == stopped
    assert all(self_s >= 0.0 for _, self_s in stats.values())

    # The count is the smallest max_iter at which the call returns.
    cap = bounds.DEFAULT_MAX_ITER
    (evals,) = solver_evals(finite_stats.finite_bound, tracer.captured[:1], cap)
    finite_stats.finite_bound(rates, params, budget, max_iter=evals)
    if evals > 1:
        with pytest.raises(ConvergenceError):
            finite_stats.finite_bound(rates, params, budget, max_iter=evals - 1)
        # A call still stopped at the cap counts as the cap.
        assert solver_evals(finite_stats.finite_bound, tracer.captured[:1], evals - 1) == [
            evals - 1
        ]
