"""Byte-for-byte CLI output against a frozen fixture.

Each case runs ``decoyqkd.cli.main`` in a fresh directory holding the case's
input files and compares the exit code, stdout, stderr and every file the
command writes with ``tests/data/cli_golden.json``.  Paths in the cases are
relative, so error messages that name a file stay the same everywhere.

To freeze the fixture again after a deliberate output change, run
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

from __future__ import annotations

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from decoyqkd.cli import main

FIXTURE = Path(__file__).parent / "data" / "cli_golden.json"

BOUND = ("bound", "--mu", "0.25", "--mu-prime", "0.41", "--eta", "1e-4", "--s0", "1e-6",
         "--n", "8e10", "--qber", "0.015")
RATES = ("bound", "--mu", "0.3", "--mu-prime", "0.45", "--rates")
SIMULATE = ("simulate", "--mu", "0.3", "--mu-prime", "0.45", "--eta", "1e-3", "--s0", "1e-6",
            "--n", "1e9", "--n-vacuum", "1e9", "--seed", "42", "--qber", "0.02")
SWEEP = ("sweep", "--mu", "0.2,0.3,0.5", "--mu-prime", "0.4:0.5:0.05", "--eta", "1e-4,1e-3")
SWEEP_FINITE = SWEEP + ("--n", "8e10", "--qber", "0.015")

PARAMS = "[params]\nmu = 0.3\nmu_prime = 0.45\n"
FLUCTUATION = "[fluctuation]\nconfidence_exponent = 20\n"
RATES_INI = (
    PARAMS
    + "[rates]\ns0 = 1e-6\ns_mu = 1e-4\ns_mu_prime = 1.5e-4\n"
    + "[budget]\nn_mu = 1e10\nn_mu_prime = 2e10\nn_vacuum = 1e9\n"
    + FLUCTUATION
    + "[key]\nqber = 0.01\n"
)
FULL_INI = (
    PARAMS
    + "[scenario]\nkind = no_eve\neta = 1e-3\ns0 = 1e-6\n"
    + "[budget]\nn_mu = 8e10\nn_mu_prime = 8e10\n"
    + FLUCTUATION
    + "[key]\nqber = 0.015\n"
    + "[output]\nformat = json\n"
)
SWEEP_INI = (
    "[sweep]\nmu = 0.2:0.3:0.1\nmu_prime = 0.45\neta = 1e-4,1e-3\nn_pulses = 1e10\n"
    "s0 = 1e-6\nqber = 0.01\n"
    "[fluctuation]\n"
    "[output]\nformat = csv\n"
)
FEASIBILITY_INI = (
    "[feasibility]\neta = 1e-3\ns0 = 1e-5\nmu_v = 5e-4\nrep_rate = 1e9\n"
    "confidence_exponent = 20\ntarget = 1e-2\n"
    "[output]\nformat = table\n"
)

# (id, argv, input files)
CASES = [
    *((f"bound-{fmt}", (*BOUND, "--format", fmt), {}) for fmt in ("table", "json", "csv")),
    ("bound-rates-vacuous", (*RATES, "0,1e-4,1e-3"), {}),
    ("bound-rates-degenerate", (*RATES, "1e-6,1e-4,0"), {}),
    ("bound-rates-csv", (*RATES, "0,1e-4,1.5e-4", "--format", "csv"), {}),
    ("bound-yields-table", (
        "bound", "--mu", "0.3", "--mu-prime", "0.45", "--yields", "0.001,0.002,0.003",
        "--s0", "1e-6", "--n", "1e9", "--n-vacuum", "1e9", "--confidence-exponent", "20"), {}),
    ("bound-pns-json", (
        "bound", "--mu", "0.3", "--mu-prime", "0.45", "--scenario", "pns", "--q", "0.5",
        "--s0", "1e-6", "--format", "json"), {}),
    *((f"simulate-{fmt}", (*SIMULATE, "--format", fmt), {}) for fmt in ("table", "json", "csv")),
    ("simulate-pns-table", (
        "simulate", "--mu", "0.3", "--mu-prime", "0.45", "--scenario", "pns", "--q", "1.0",
        "--s0", "0", "--n", "100000", "--seed", "7"), {}),
    *((f"table1-{fmt}", ("table1", "--format", fmt), {}) for fmt in ("table", "json", "csv")),
    *((f"sweep-{fmt}", (*SWEEP_FINITE, "--format", fmt), {}) for fmt in ("table", "json", "csv")),
    ("sweep-asymptotic-table", SWEEP, {}),
    ("sweep-solver-flags-csv", (
        *SWEEP_FINITE, "--confidence-exponent", "20", "--s0", "1e-5", "--format", "csv"), {}),
    *((f"feasibility-{fmt}", ("feasibility", "--format", fmt), {})
      for fmt in ("table", "json", "csv")),
    ("feasibility-practical-csv", ("feasibility", "--s0", "1e-2", "--format", "csv"), {}),
    ("config-rates", ("bound", "--config", "rates.ini"), {"rates.ini": RATES_INI}),
    ("config-full-bound", ("bound", "--config", "full.ini"), {"full.ini": FULL_INI}),
    ("config-full-bound-override", (
        "bound", "--config", "full.ini", "--eta", "1e-2", "--format", "csv"),
     {"full.ini": FULL_INI}),
    ("config-full-simulate", ("simulate", "--config", "full.ini", "--seed", "5"),
     {"full.ini": FULL_INI}),
    ("config-sweep", ("sweep", "--config", "sweep.ini"), {"sweep.ini": SWEEP_INI}),
    ("config-feasibility", ("feasibility", "--config", "feasibility.ini"),
     {"feasibility.ini": FEASIBILITY_INI}),
    ("config-output-path", ("bound", "--config", "out.ini"),
     {"out.ini": PARAMS + "[rates]\ns0 = 0\ns_mu = 1e-4\ns_mu_prime = 1.5e-4\n"
      "[output]\nformat = csv\npath = from_config.csv\n"}),
    ("out-file", (*SWEEP_FINITE, "--format", "json", "--out", "sweep.json"), {}),
    ("table1-out-file", ("table1", "--format", "csv", "--out", "table1.csv"), {}),
    # exit 2: config and parameter problems
    ("error-missing-params", ("bound", "--rates", "0,1e-4,1.5e-4"), {}),
    ("error-inadmissible-pair", ("bound", "--mu", "0.5", "--mu-prime", "0.45", "--rates",
                                 "0,1e-4,1.5e-4"), {}),
    ("error-rates-and-scenario", (*RATES, "0,1e-4,1.5e-4", "--eta", "1e-3"), {}),
    ("error-missing-config", ("bound", "--config", "missing.ini"), {}),
    ("error-unknown-section", ("bound", "--config", "bad.ini"),
     {"bad.ini": PARAMS + "[extra]\nkey = 1\n"}),
    ("error-unknown-key", ("bound", "--config", "bad.ini"),
     {"bad.ini": "[params]\nmu = 0.3\nmu_primee = 0.45\n"}),
    ("error-bad-number", ("bound", "--config", "bad.ini"),
     {"bad.ini": "[params]\nmu = abc\nmu_prime = 0.45\n"}),
    ("error-bad-count", ("bound", "--config", "bad.ini", "--eta", "1e-3"),
     {"bad.ini": PARAMS + "[budget]\nn_mu = 1.5\nn_mu_prime = 10\n"}),
    ("error-removed-key", ("bound", "--config", "bad.ini", "--eta", "1e-3"),
     {"bad.ini": PARAMS + "[fluctuation]\nmin_over_classes = maybe\n"}),
    ("error-bad-format", ("bound", "--config", "bad.ini", "--eta", "1e-3"),
     {"bad.ini": PARAMS + "[output]\nformat = xml\n"}),
    ("error-scenario-kind", ("bound", "--config", "bad.ini"),
     {"bad.ini": PARAMS + "[scenario]\ns0 = 1e-6\n"}),
    ("error-half-budget", ("bound", "--mu", "0.3", "--mu-prime", "0.45", "--eta", "1e-3",
                           "--n-mu", "1e9"), {}),
    ("error-simulate-seed", ("simulate", "--mu", "0.3", "--mu-prime", "0.45", "--eta",
                             "1e-3", "--n", "1000"), {}),
    ("error-simulate-rates", ("simulate", "--config", "rates.ini", "--seed", "1"),
     {"rates.ini": RATES_INI}),
    ("error-sweep-no-pairs", ("sweep", "--mu", "0.5", "--mu-prime", "0.45", "--eta",
                              "1e-3"), {}),
    ("error-sweep-grid", ("sweep", "--mu", "0.5:0.4:0.1", "--mu-prime", "0.45", "--eta",
                          "1e-3"), {}),
    ("error-feasibility-eta", ("feasibility", "--eta", "2"), {}),
    # exit 3: vacuous; exit 5: impractical
    ("vacuous-sweep", (*SWEEP, "--n", "1000"), {}),
]


def run_case(argv, files) -> dict:
    """Run one case in the current directory; return what the fixture stores."""
    for name, text in files.items():
        Path(name).write_text(text, encoding="utf-8")
    before = set(os.listdir("."))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    written = {
        name: Path(name).read_bytes().decode("utf-8")
        for name in sorted(set(os.listdir(".")) - before)
    }
    return {
        "argv": list(argv),
        "files": files,
        "exit": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "written": written,
    }


@pytest.mark.parametrize("case, argv, files", CASES, ids=[case for case, _, _ in CASES])
def test_cli_output_matches_frozen(case, argv, files, tmp_path, monkeypatch):
    frozen = json.loads(FIXTURE.read_text(encoding="utf-8"))[case]
    monkeypatch.chdir(tmp_path)
    assert run_case(argv, files) == frozen


def freeze() -> None:
    frozen = {}
    home = os.getcwd()
    for case, argv, files in CASES:
        with tempfile.TemporaryDirectory() as scratch:
            os.chdir(scratch)
            try:
                frozen[case] = run_case(argv, files)
            finally:
                os.chdir(home)
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(frozen, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    freeze()
