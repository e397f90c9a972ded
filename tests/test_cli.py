import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from decoyqkd import cli
from decoyqkd.cli import SWEEP_COLUMNS, main, parse_grid
from decoyqkd.errors import ConfigError, ConvergenceError


SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def test_bound_exact_ratio_oracles(capsys):
    code, payload = run_json(
        capsys,
        "bound", "--mu", "0.3", "--mu-prime", "0.45", "--rates", "0,1e-4,1.5e-4",
    )
    assert code == 0
    assert payload["hwang"]["delta_upper"] == pytest.approx(0.7745561618188554, rel=1e-12)
    assert payload["asymptotic"]["delta_upper"] == pytest.approx(
        0.32366848545656625, rel=1e-12
    )
    assert payload["asymptotic"]["vacuous"] is False


def test_bound_no_eve_scenario(capsys):
    code, payload = run_json(
        capsys,
        "bound", "--mu", "0.3", "--mu-prime", "0.45", "--eta", "1e-3", "--s0", "0",
    )
    assert code == 0
    assert abs(payload["asymptotic"]["delta_upper"] - 0.3235) < 5e-4
    assert payload["inputs"]["scenario"]["kind"] == "no_eve"


def test_bound_finite_section_ordering(capsys):
    code, payload = run_json(
        capsys,
        "bound", "--mu", "0.25", "--mu-prime", "0.41",
        "--eta", "1e-4", "--s0", "1e-6", "--n", "80000000000", "--qber", "0.01",
    )
    assert code == 0
    assert set(payload) >= {"inputs", "hwang", "asymptotic", "finite", "key_rate"}
    assert payload["asymptotic"]["delta_upper"] <= payload["finite"]["delta_upper"]
    assert payload["finite"]["delta_upper"] <= payload["hwang"]["delta_upper"]
    assert 0.0 < payload["key_rate"]["weak"] < 1.0
    assert payload["key_rate"]["strong"] <= payload["key_rate"]["weak"]


def test_bound_vacuous_exit_code(capsys):
    code, payload = run_json(
        capsys,
        "bound", "--mu", "0.3", "--mu-prime", "0.45", "--rates", "0,1e-4,1e-3",
    )
    assert code == 3
    assert payload["asymptotic"]["vacuous"] is True


def test_bound_degenerate_strong_class(capsys):
    code, payload = run_json(
        capsys,
        "bound", "--mu", "0.3", "--mu-prime", "0.45", "--rates", "1e-6,1e-4,0",
    )
    assert code == 0
    assert payload["degenerate_strong_class"] is True
    assert payload["hwang"]["delta_upper"] == 0.0
    assert payload["asymptotic"]["delta_upper"] == 0.0
    assert payload["asymptotic"]["clamped"] is True


def test_bound_missing_params_is_config_error(capsys):
    code, _, err = run(capsys, "bound", "--rates", "0,1e-4,1.5e-4")
    assert code == 2
    assert "error:" in err


def test_bound_rates_and_scenario_conflict(capsys):
    code, _, err = run(
        capsys,
        "bound", "--mu", "0.3", "--mu-prime", "0.45",
        "--rates", "0,1e-4,1.5e-4", "--eta", "1e-3",
    )
    assert code == 2
    assert "not both" in err


def test_bound_non_convergence_exit_code(capsys, monkeypatch):
    # No input is known to exhaust the solver's cap, so the solver is replaced.
    def exhausted(*args, **kwargs):
        raise ConvergenceError("no sc/s1 root within 10000 evaluations", sc=1e-3, s1=1e-4)

    monkeypatch.setattr(cli, "finite_bound", exhausted)
    code, out, err = run(
        capsys,
        "bound", "--mu", "0.25", "--mu-prime", "0.41",
        "--eta", "1e-4", "--s0", "1e-6", "--n", "80000000000",
    )
    assert code == 4
    assert out == ""
    assert err == "error: no sc/s1 root within 10000 evaluations\n"


def test_bound_human_table_percentages(capsys):
    code, out, _ = run(
        capsys,
        "bound", "--mu", "0.3", "--mu-prime", "0.45", "--rates", "0,1e-4,1.5e-4",
    )
    assert code == 0
    assert "== asymptotic ==" in out
    assert "%" in out


def test_bound_csv_schema(capsys):
    code, out, _ = run(
        capsys,
        "bound", "--mu", "0.3", "--mu-prime", "0.45", "--rates", "0,1e-4,1.5e-4",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "method,delta_upper,delta_prime_upper,s1_lower,sc_upper,clamped,vacuous"
    assert len(lines) == 3  # hwang + asymptotic


def test_bound_rerun_byte_identical(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    argv = [
        "bound", "--mu", "0.25", "--mu-prime", "0.41",
        "--eta", "1e-4", "--s0", "1e-6", "--n", "80000000000", "--format", "json",
    ]
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[params]\nmu = 0.3\nmu_prime = 0.45\n"
        "[scenario]\nkind = no_eve\neta = 1e-3\ns0 = 1e-6\n"
    )
    code, base = run_json(capsys, "bound", "--config", str(cfg))
    assert code == 0
    code, overridden = run_json(capsys, "bound", "--config", str(cfg), "--eta", "1e-2")
    assert code == 0
    assert overridden["inputs"]["scenario"]["eta"] == 1e-2
    assert overridden["asymptotic"]["delta_upper"] != base["asymptotic"]["delta_upper"]
    code, direct = run_json(
        capsys,
        "bound", "--mu", "0.3", "--mu-prime", "0.45", "--eta", "1e-2", "--s0", "1e-6",
    )
    assert code == 0
    assert direct["asymptotic"]["delta_upper"] == overridden["asymptotic"]["delta_upper"]


def test_config_rejects_rates_and_scenario(tmp_path, capsys):
    cfg = tmp_path / "both.ini"
    cfg.write_text(
        "[params]\nmu = 0.3\nmu_prime = 0.45\n"
        "[rates]\ns0 = 0\ns_mu = 1e-4\ns_mu_prime = 1.5e-4\n"
        "[scenario]\nkind = no_eve\neta = 1e-3\n"
    )
    code, _, err = run(capsys, "bound", "--config", str(cfg))
    assert code == 2
    assert "exactly one" in err


@pytest.mark.parametrize(
    "argv, unused",
    [
        (("--scenario", "pns", "--q", "0.5", "--eta", "1e-3"), "pns scenario does not use eta"),
        (("--eta", "1e-3", "--yields", "0.1"), "no_eve scenario does not use yields"),
        (("--scenario", "yields", "--yields", "0.1", "--q", "0.5"),
         "yields scenario does not use q"),
    ],
    ids=["pns-eta", "no_eve-yields", "yields-q"],
)
def test_scenario_flags_the_kind_does_not_use(capsys, argv, unused):
    code, out, err = run(capsys, "bound", "--mu", "0.3", "--mu-prime", "0.45", *argv)
    assert (code, out, err) == (2, "", f"error: {unused}\n")


def test_config_scenario_keys_the_kind_does_not_use(tmp_path, capsys):
    cfg = tmp_path / "mixed.ini"
    cfg.write_text(
        "[params]\nmu = 0.3\nmu_prime = 0.45\n"
        "[scenario]\neta = 1e-3\nq = 0.5\nyields = abc\n"
    )
    code, out, err = run(capsys, "bound", "--config", str(cfg))
    assert (code, out, err) == (2, "", "error: no_eve scenario does not use q\n")


PARAMS_INI = "[params]\nmu = 0.3\nmu_prime = 0.45\n"


@pytest.mark.parametrize(
    "argv, ini, message",
    [
        (("--scenario", "no_eve"), None, "no_eve scenario requires eta"),
        (("--scenario", "pns"), None, "pns scenario requires q"),
        (("--scenario", "yields"), None, "yields scenario requires a yields list"),
        ((), "[scenario]\nkind = foo\neta = 1e-3\n",
         "unknown scenario kind 'foo' (expected no_eve, pns, or yields)"),
        ((), "[rates]\ns0 = 0\ns_mu = 1e-4\ns_mu_prime = 1.5e-4\n[scenario]\neta = 1e-3\n",
         "config supplies both [rates] and [scenario]; keep exactly one"),
        ((), "", "no rate source: supply a scenario, direct rates, or a [rates] section"),
        ((), "[rates]\ns0 = 0\ns_mu = 1e-4\n", "[rates] section is missing ['s_mu_prime']"),
        (("--rates", "0,1e-4"), None, "--rates expects three values: s0,s_mu,s_mu_prime"),
    ],
    ids=[
        "no_eve-without-eta",
        "pns-without-q",
        "yields-without-list",
        "unknown-kind",
        "config-rates-and-scenario",
        "no-rate-source",
        "rates-section-incomplete",
        "rates-flag-count",
    ],
)
def test_rate_source_resolution_errors(tmp_path, capsys, argv, ini, message):
    if ini is None:
        argv = ("--mu", "0.3", "--mu-prime", "0.45", *argv)
    else:
        cfg = tmp_path / "run.ini"
        cfg.write_text(PARAMS_INI + ini)
        argv = ("--config", str(cfg), *argv)
    code, out, err = run(capsys, "bound", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_unwritable_out_is_a_config_error(tmp_path, capsys):
    target = tmp_path / "nodir" / "x.txt"
    code, out, err = run(capsys, "table1", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write output file {target}: ")
    assert err.count("\n") == 1
    assert not target.exists()


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[params]\nmu = 0.3\nmu_primee = 0.45\n")
    code, _, err = run(capsys, "bound", "--config", str(cfg))
    assert code == 2
    assert "unknown key 'mu_primee'" in err


def test_malformed_config_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("mu = 0.3\n")
    code, out, err = run(capsys, "bound", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: config file {cfg} is malformed: ")


@pytest.mark.parametrize("text, value", [
    ("0", False), ("false", False), ("No", False), ("OFF", False), ("1", True), ("yes", True),
])
def test_config_bool_spellings(tmp_path, capsys, text, value):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"{PARAMS_INI}[fluctuation]\nmin_over_classes = {text}\n")
    argv = ("bound", "--eta", "1e-3", "--n-mu", "1e10", "--n-mu-prime", "1e8")
    code, payload = run_json(capsys, *argv, "--config", str(cfg))
    flag = "--min-over-classes" if value else "--no-min-over-classes"
    assert (code, payload) == run_json(capsys, *argv, "--mu", "0.3", "--mu-prime", "0.45", flag)
    assert payload["inputs"]["min_over_classes"] is value


@pytest.mark.parametrize(
    "argv, message",
    [
        (("simulate", "--mu", "0.3", "--mu-prime", "0.45", "--eta", "1e-3", "--seed", "1"),
         "simulate requires a pulse budget (--n or [budget] section)"),
        (("sweep", "--mu", "0.3", "--mu-prime", "0.45"),
         "sweep needs mu, mu_prime, and eta grids"),
    ],
    ids=["simulate-without-budget", "sweep-without-eta-grid"],
)
def test_missing_required_inputs_exit_2(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_simulate_requires_seed(capsys):
    code, _, err = run(
        capsys,
        "simulate", "--mu", "0.3", "--mu-prime", "0.45", "--eta", "1e-3", "--n", "1000",
    )
    assert code == 2
    assert "seed" in err


def test_simulate_negative_seed_exit_2(capsys):
    code, out, err = run(
        capsys,
        "simulate", "--mu", "0.3", "--mu-prime", "0.45", "--eta", "1e-3", "--n", "1e6",
        "--seed", "-1",
    )
    assert (code, out, err) == (2, "", "error: seed must be a non-negative integer, got -1\n")


def test_simulate_rejects_direct_rates(tmp_path, capsys):
    cfg = tmp_path / "rates.ini"
    cfg.write_text(
        "[params]\nmu = 0.3\nmu_prime = 0.45\n"
        "[rates]\ns0 = 0\ns_mu = 1e-4\ns_mu_prime = 1.5e-4\n"
    )
    code, _, err = run(
        capsys, "simulate", "--config", str(cfg), "--n", "1000", "--seed", "1"
    )
    assert code == 2
    assert "not samplable" in err


def test_simulate_pns_detected(capsys):
    code, payload = run_json(
        capsys,
        "simulate", "--mu", "0.3", "--mu-prime", "0.45",
        "--scenario", "pns", "--q", "1.0", "--s0", "0",
        "--n", "100000", "--seed", "7",
    )
    assert code == 3
    assert payload["sampled"]["asymptotic"]["vacuous"] is True
    assert payload["expected"]["asymptotic"]["vacuous"] is True


def test_simulate_deterministic_and_accurate(tmp_path, capsys):
    argv = [
        "simulate", "--mu", "0.3", "--mu-prime", "0.45",
        "--eta", "1e-3", "--s0", "1e-6",
        "--n", "1000000000", "--n-vacuum", "1000000000",
        "--seed", "3", "--format", "json",
    ]
    first = tmp_path / "s1.json"
    second = tmp_path / "s2.json"
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    payload = json.loads(first.read_text())
    sampled = payload["sampled"]["finite"]["delta_upper"]
    expected = payload["expected"]["finite"]["delta_upper"]
    assert abs(sampled - expected) < 0.03
    assert payload["observation"]["clicks_mu"] > 0


def test_table1_csv(tmp_path, capsys):
    out = tmp_path / "table.csv"
    assert main(["table1", "--format", "csv", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "quantity,intensity,partner,computed,reference,deviation"
    assert len(lines) == 29


def test_table1_human(capsys):
    code, out, _ = run(capsys, "table1")
    assert code == 0
    assert "delta_hwang" in out and "delta_prime_w2" in out
    assert "pp" in out


def test_sweep_csv_schema_and_order(capsys):
    code, out, _ = run(
        capsys,
        "sweep", "--mu", "0.2,0.3", "--mu-prime", "0.45", "--eta", "1e-3,1e-2",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    cells = [line.split(",") for line in lines[1:]]
    assert [float(c[0]) for c in cells] == [0.2, 0.2, 0.3, 0.3]
    assert [float(c[2]) for c in cells] == [1e-3, 1e-2, 1e-3, 1e-2]


def test_sweep_matches_benchmark_within_a_point(capsys):
    code, payload = run_json(
        capsys,
        "sweep", "--mu", "0.25", "--mu-prime", "0.38", "--eta", "1e-3",
        "--n", "10000000000",
    )
    assert code == 0
    assert len(payload) == 1
    assert abs(payload[0]["delta_upper"] - 0.289) < 0.01


def test_sweep_skips_inadmissible_pairs(capsys):
    code, out, err = run(
        capsys,
        "sweep", "--mu", "0.3,0.5", "--mu-prime", "0.45", "--eta", "1e-3",
        "--format", "csv",
    )
    assert code == 0
    assert "skipping inadmissible pair" in err
    assert len(out.strip().split("\n")) == 2


def test_sweep_all_inadmissible_is_config_error(capsys):
    code, _, err = run(capsys, "sweep", "--mu", "0.5", "--mu-prime", "0.45", "--eta", "1e-3")
    assert code == 2
    assert "no admissible" in err


def test_sweep_optimal_strong_intensity(capsys):
    code, payload = run_json(
        capsys,
        "sweep", "--mu", "0.3", "--mu-prime", "0.40:0.50:0.01", "--eta", "1e-4",
        "--n", "80000000000",
    )
    assert code == 0
    assert len(payload) == 11
    best = min(payload, key=lambda row: row["delta_upper"])
    assert 0.43 <= best["mu_prime"] <= 0.47


def test_feasibility_default_impractical(capsys):
    code, payload = run_json(capsys, "feasibility")
    assert code == 5
    assert payload["n_pulses_required"] == 1e14
    assert payload["acquisition_days"] == pytest.approx(14.467592592592593, rel=1e-9)
    assert payload["practical"] is False


def test_feasibility_practical_case(capsys):
    code, payload = run_json(capsys, "feasibility", "--s0", "1e-2")
    assert code == 0
    assert payload["practical"] is True


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--target", "1e-300"), "relative fluctuation target 1e-300 squared underflows to 0"),
        (("--s0", "1e-320", "--format", "json"),
         "required pulse count 4 E / (s0 target^2) overflows for E=25.0, s0=1e-320, "
         "target=0.001"),
        (("--rep-rate", "1e-320", "--format", "json"),
         "acquisition time n_pulses / rep_rate is not finite for "
         "n_pulses=100000000000000.0, rep_rate=1e-320"),
    ],
    ids=["target-squared-underflows", "pulse-count-overflows", "acquisition-time-overflows"],
)
def test_feasibility_unrepresentable_pulse_count_exit_2(capsys, argv, message):
    code, out, err = run(capsys, "feasibility", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_module_entry_point_exits_with_main_code():
    proc = subprocess.run(
        [sys.executable, "-m", "decoyqkd.cli", "bound", "--rates", "0,1e-4,1.5e-4"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: mu and mu_prime are required (flags or [params] section)\n"
    assert 'decoyqkd = "decoyqkd.cli:main"' in (SRC.parent / "pyproject.toml").read_text()


LAZY_MODULES = ("decoyqkd.batch", "decoyqkd.table1")
ONE_SHOT_COMMANDS = (
    ["bound", "--mu", "0.3", "--mu-prime", "0.45", "--eta", "1e-3", "--n", "8e10",
     "--qber", "0.015"],
    ["simulate", "--mu", "0.3", "--mu-prime", "0.45", "--eta", "1e-3", "--n", "1e9",
     "--n-vacuum", "1e9", "--seed", "42"],
    ["feasibility", "--eta", "1e-4", "--s0", "1e-6", "--rep-rate", "8e7"],
    ["table1"],
)


def test_one_shot_commands_skip_sweep_engine():
    # One fresh interpreter runs the commands in turn and lists, after each,
    # which lazily imported modules are loaded so far.
    script = (
        "import contextlib, io, json, sys\n"
        "from decoyqkd.cli import main\n"
        "seen = {}\n"
        f"for argv in {ONE_SHOT_COMMANDS!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = main(argv)\n"
        f"    seen[argv[0]] = [code, [m for m in {LAZY_MODULES!r} if m in sys.modules]]\n"
        "print(json.dumps(seen))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
        check=True,
    )
    assert json.loads(proc.stdout) == {
        "bound": [0, []],
        "simulate": [0, []],
        "feasibility": [5, []],
        "table1": [0, ["decoyqkd.table1"]],
    }


def test_parse_grid_range():
    values = parse_grid("0.4:0.5:0.01", "test")
    assert len(values) == 11
    assert values[0] == 0.4
    assert values[-1] == 0.5


def test_parse_grid_list_and_scalar():
    assert parse_grid("0.1, 0.2", "test") == [0.1, 0.2]
    assert parse_grid("5", "test") == [5.0]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--mu", "0.1:inf:0.1", "--mu-prime", "0.45"),
         "[sweep] mu: grid start, stop and step must be finite, got '0.1:inf:0.1'"),
        (("--mu", "0.1:nan:0.1", "--mu-prime", "0.45"),
         "[sweep] mu: grid start, stop and step must be finite, got '0.1:nan:0.1'"),
        (("--mu", "0.3", "--mu-prime", "0.45:0.5:inf"),
         "[sweep] mu_prime: grid start, stop and step must be finite, got '0.45:0.5:inf'"),
        (("--mu", "0.1:0.2:1e-12", "--mu-prime", "0.45"),
         "[sweep] mu: grid '0.1:0.2:1e-12' has more than 1000000 points"),
        (("--mu", "0.3", "--mu-prime=-1e308:1e308:1"),
         "[sweep] mu_prime: grid '-1e308:1e308:1' has more than 1000000 points"),
        # 5001 * 7001 rows, rejected before any pair is checked.
        (("--mu", "0.1:0.6:0.0001", "--mu-prime", "0.2:0.9:0.0001"),
         "sweep grid has 35012001 rows, more than 1000000"),
    ],
    ids=["inf-stop", "nan-stop", "inf-step", "too-many-points", "span-overflows",
         "too-many-rows"],
)
def test_unusable_grid_ranges_exit_2(capsys, argv, message):
    code, out, err = run(capsys, "sweep", *argv, "--eta", "1e-3")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_parse_grid_point_limit(monkeypatch):
    # A small limit stands in for 10**6, as in test_sweep_row_count_limit;
    # test_unusable_grid_ranges_exit_2 checks the real one.
    monkeypatch.setattr(cli, "MAX_GRID_POINTS", 1000)
    assert len(parse_grid("1:1000:1", "test")) == 1000
    with pytest.raises(ConfigError, match="has more than 1000 points"):
        parse_grid("0:1000:1", "test")


def test_parse_grid_malformed():
    for bad in ("0.5:0.4:0.1", "a:b:c", "", "0.1:0.5:0", "1:2:3:4"):
        with pytest.raises(ConfigError):
            parse_grid(bad, "test")


SWEEP_GRID = ("--mu", "0.1,0.3,0.5", "--mu-prime", "0.2:0.6:0.1", "--eta", "1e-4,1e-2")


def scalar_sweep(n=None, qber=None, **fluctuation):
    """Notes and rows of the sweep over SWEEP_GRID, assembled from the scalar functions."""
    from decoyqkd import (
        FluctuationSettings, KeyRateInput, NoEve, ProtocolParams, PulseBudget,
        delta_prime_bound, expected_rates, finite_bound, gllp_rate, validate_pair,
        wang_asymptotic_bound,
    )

    fluct = FluctuationSettings(**fluctuation)
    notes, rows = [], []
    for mu in (0.1, 0.3, 0.5):
        for mu_prime in (0.2, 0.3, 0.4, 0.5, 0.6):
            check = validate_pair(mu, mu_prime)
            if not check:
                notes.append(
                    f"note: skipping inadmissible pair mu={mu}, mu_prime={mu_prime}: "
                    f"{check.reason}"
                )
                continue
            params = ProtocolParams(mu, mu_prime)
            for eta in (1e-4, 1e-2):
                rates = expected_rates(NoEve(eta=eta, s0=1e-6), params)
                if n is None:
                    report = wang_asymptotic_bound(rates, params)
                else:
                    budget = PulseBudget(n, n)
                    report = finite_bound(rates, params, budget, fluct)
                rows.append([
                    mu, mu_prime, eta, n, 1e-6, report.delta_upper,
                    delta_prime_bound(report.delta_upper, rates, params), report.s1_lower,
                    None if qber is None else gllp_rate(KeyRateInput(report.delta_upper, qber)),
                    report.clamped, report.vacuous,
                ])
    return notes, rows


def render_sweep(rows, fmt):
    def cell_text(cell, digits, missing):
        if isinstance(cell, bool):
            return "true" if cell else "false"
        if isinstance(cell, float):
            return format(cell, digits)
        return missing if cell is None else str(cell)

    def machine(cell):
        return cell_text(cell, ".17g", "")

    def human(cell):
        return cell_text(cell, ".4g", "-")

    if fmt == "json":
        return json.dumps([dict(zip(SWEEP_COLUMNS, row)) for row in rows], indent=2) + "\n"
    if fmt == "csv":
        lines = [",".join(SWEEP_COLUMNS)] + [",".join(map(machine, row)) for row in rows]
    else:
        lines = ["  ".join(SWEEP_COLUMNS)] + ["  ".join(map(human, row)) for row in rows]
    return "\n".join(lines) + "\n"


SWEEP_FLAG_SETS = [
    ((), {}),
    (("--n", "1e7", "--qber", "0.02"), {"n": 10**7, "qber": 0.02}),
    (("--n", "1e6", "--qber", "0.2"), {"n": 10**6, "qber": 0.2}),
    (
        ("--n", "1e9", "--min-over-classes", "--confidence-exponent", "20", "--qber", "0.01"),
        {"n": 10**9, "confidence_exponent": 20.0, "min_over_classes": True, "qber": 0.01},
    ),
    (("--n", "1000"), {"n": 1000}),
    # E / (n p1) overflows to inf.
    (("--n", "1", "--confidence-exponent", "1e308"), {"n": 1, "confidence_exponent": 1e308}),
]


@pytest.mark.parametrize("fmt", ["csv", "json", "table"])
@pytest.mark.parametrize("flags, scalar_args", SWEEP_FLAG_SETS)
def test_sweep_output_equals_scalar_rows(capsys, fmt, flags, scalar_args):
    code, out, err = run(capsys, "sweep", *SWEEP_GRID, *flags, "--format", fmt)
    notes, rows = scalar_sweep(**scalar_args)
    assert out == render_sweep(rows, fmt)
    assert err == "".join(note + "\n" for note in notes)
    assert notes
    all_vacuous = all(row[-1] for row in rows)
    assert all_vacuous == (scalar_args.get("n") in (1, 1000))
    assert code == (3 if all_vacuous else 0)


# Floats whose text a value-keyed table could get wrong: both zeros, NaN,
# infinities and subnormals.
SPECIAL_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -1e-310]


@st.composite
def float_columns(draw):
    """Columns of all-distinct floats, or of repeats drawn from a small pool."""
    if draw(st.booleans()):
        return draw(st.lists(st.floats(), unique=True, max_size=30))
    pool = draw(st.lists(st.floats() | st.sampled_from(SPECIAL_FLOATS), min_size=1, max_size=6))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=60))


@given(float_columns())
@example([0.0, -0.0, 0.0])
@example([-0.0, 0.0, 1.5, 1.5])
@example([math.nan, math.nan, float("nan"), 2.0])
def test_float_columns_format_each_cell_as_17g(column):
    assert cli._fmt_column(column) == [format(value, ".17g") for value in column]


def fmt_cell(cell):
    return cli._FMT_MACHINE.get(type(cell), cli._fmt_text)(cell)


@given(st.one_of(
    *map(st.lists, (
        st.floats() | st.integers() | st.booleans() | st.none() | st.text(",\"\n\ra"),
        st.booleans(),
        st.integers(),
        st.none(),
        st.text(",\"\n\ra"),
    ))
))
@example([80000000000] * 5)
@example([None] * 3)
def test_other_columns_format_cell_by_cell(column):
    assert cli._fmt_column(column) == list(map(fmt_cell, column))


def test_sweep_csv_keeps_signed_zeros(capsys):
    pair = ("sweep", "--mu", "0.3", "--mu-prime", "0.45", "--format", "csv")
    code, out, _ = run(capsys, *pair, "--eta", "0,-0,1e-3", "--s0", "1e-6")
    assert code == 0
    eta = SWEEP_COLUMNS.index("eta")
    assert [line.split(",")[eta] for line in out.splitlines()[1:]] == ["0", "-0", "0.001"]
    code, out, _ = run(capsys, *pair, "--eta", "1e-4,1e-3,1e-2", "--s0", "-0")
    assert code == 0
    s0 = SWEEP_COLUMNS.index("s0")
    assert [line.split(",")[s0] for line in out.splitlines()[1:]] == ["-0"] * 3


def test_sweep_csv_equals_per_cell_reference(capsys, monkeypatch):
    rendered = {}
    render = cli._render

    def spy(fmt, out, header, columns, doc, table):
        rendered["columns"] = columns
        render(fmt, out, header, columns, doc, table)

    monkeypatch.setattr(cli, "_render", spy)
    code, out, _ = run(
        capsys,
        "sweep", "--mu", "0.05:0.5:0.05", "--mu-prime", "0.1:1.0:0.01",
        "--eta", "1e-4,1e-3,1e-2", "--n", "1e8", "--qber", "0.015", "--format", "csv",
    )
    assert code == 0
    rows = list(zip(*rendered["columns"]))
    assert (len(rows), sum(row[-1] for row in rows)) == (2163, 166)
    lines = [",".join(SWEEP_COLUMNS), *(",".join(map(fmt_cell, row)) for row in rows)]
    assert out == "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "flags, scalar_args, exit_code",
    [
        (("--n", "1e10", "--qber", "0.7"), {"n": 10**10, "qber": 0.7}, 2),
        (("--n", "0"), {"n": 0}, 2),
    ],
)
def test_sweep_errors_equal_scalar_errors(capsys, flags, scalar_args, exit_code):
    code, out, err = run(capsys, "sweep", *SWEEP_GRID, *flags)
    with pytest.raises(Exception) as raised:
        scalar_sweep(**scalar_args)
    assert code == exit_code
    assert out == ""
    assert err.splitlines()[-1] == f"error: {raised.value}"


def test_bound_overflowed_fluctuation_is_vacuous(capsys):
    code, payload = run_json(
        capsys,
        "bound", "--mu", "0.3", "--mu-prime", "0.45", "--eta", "1e-3",
        "--n", "1", "--confidence-exponent", "1e308",
    )
    assert code == 3
    assert payload["finite"]["vacuous"] is True
    assert payload["finite"]["delta_upper"] == 1.0


def test_bound_floor_exit_is_vacuous(capsys):
    # The solver's floor exit with s1 = 0.61 k1^2 (see test_finite_stats).
    code, payload = run_json(
        capsys,
        "bound", "--mu", "0.29", "--mu-prime", "0.472", "--eta", "9.7e-5", "--s0", "7.6e-5",
        "--n", "3.3e7",
    )
    assert code == 3
    assert payload["finite"]["vacuous"] is True
    assert payload["asymptotic"]["vacuous"] is False


def test_sweep_row_count_limit(capsys, monkeypatch):
    # SWEEP_GRID has 3 * 5 * 2 = 30 rows, admissible or not.
    monkeypatch.setattr(cli, "MAX_GRID_POINTS", 30)
    assert run(capsys, "sweep", *SWEEP_GRID)[0] == 0
    monkeypatch.setattr(cli, "MAX_GRID_POINTS", 29)
    code, out, err = run(capsys, "sweep", *SWEEP_GRID)
    assert (code, out, err) == (2, "", "error: sweep grid has 30 rows, more than 29\n")


@pytest.mark.parametrize("command", ["bound", "sweep"])
@pytest.mark.parametrize(
    "argv, cause",
    [
        (("--mu", "0.5", "--mu-prime", "0.6", "--eta", "0", "--s0", "5e-324"),
         "mu' e^{-mu'} S_mu underflows to 0"),
        (("--mu", "1e-170", "--mu-prime", "2e-170", "--eta", "1e-3"),
         "multi-photon weight c of mu=1e-170 underflows to 0"),
        (("--mu", "0.5", "--mu-prime", "0.6", "--eta", "0", "--s0", "5e-324", "--n", "1e10"),
         "mu' e^{-mu'} S_mu underflows to 0"),
        (("--mu", "1e-170", "--mu-prime", "2e-170", "--eta", "1e-3", "--n", "1e10"),
         "multi-photon weight c of mu=1e-170 underflows to 0"),
        (("--mu", "1e-170", "--mu-prime", "0.45", "--eta", "1e-3"),
         "(mu'/mu)^2 e^{mu-mu'} overflows for mu=1e-170, mu_prime=0.45"),
        # c is subnormal here, not 0.
        (("--mu", "1e-160", "--mu-prime", "0.45", "--eta", "1e-3"),
         "(mu'/mu)^2 e^{mu-mu'} overflows for mu=1e-160, mu_prime=0.45"),
        # c = 5e-321 is subnormal: sc_upper = S_mu / c would overflow to inf.
        (("--mu", "1e-160", "--mu-prime", "2e-160", "--eta", "1e-3", "--s0", "1e-6"),
         "multi-photon weight c of mu=1e-160 underflows to 4.99994e-321"),
    ],
    ids=[
        "subnormal-rate",
        "tiny-mu",
        "subnormal-rate-finite",
        "tiny-mu-finite",
        "tiny-mu-ordinary-mu-prime",
        "tiny-mu-ordinary-mu-prime-subnormal-c",
        "subnormal-c",
    ],
)
def test_underflowed_inputs_exit_2(capsys, command, argv, cause):
    code, out, err = run(capsys, command, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and cause in err


COUNT_COMMANDS = {
    "bound": ("bound", "--mu", "0.3", "--mu-prime", "0.45", "--eta", "1e-3"),
    "simulate": ("simulate", "--mu", "0.3", "--mu-prime", "0.45", "--eta", "1e-3", "--seed", "1"),
    "sweep": ("sweep", "--mu", "0.3", "--mu-prime", "0.45", "--eta", "1e-3"),
}


@pytest.mark.parametrize("command", list(COUNT_COMMANDS))
@pytest.mark.parametrize(
    "form, value, cause",
    [
        ("flag", "inf", "argument --n: expected a finite integer, got 'inf'"),
        ("flag", "1e400", "error: n_mu is too large to convert to a float"),
        ("flag", "abc", "argument --n: expected an integer, got 'abc'"),
        ("config", "inf", "expected a finite integer, got 'inf'"),
        ("config", "1e400", "error: n_mu is too large to convert to a float"),
        ("config", "abc", "expected an integer, got 'abc'"),
    ],
    ids=["flag-inf", "flag-1e400", "flag-text", "config-inf", "config-1e400", "config-text"],
)
def test_out_of_range_pulse_counts_exit_2(tmp_path, capsys, command, form, value, cause):
    argv = list(COUNT_COMMANDS[command])
    if form == "flag":
        argv += ["--n", value]
    else:
        cfg = tmp_path / "run.ini"
        if command == "sweep":
            cfg.write_text(f"[sweep]\nn_pulses = {value}\n")
        else:
            cfg.write_text(f"[budget]\nn_mu = {value}\nn_mu_prime = 1e10\n")
        argv += ["--config", str(cfg)]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the flag
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and cause in errors[0]


@pytest.mark.parametrize("command", list(COUNT_COMMANDS))
def test_r0_is_rejected(tmp_path, capsys, command):
    # The vacuum rate counts as exact: no flag or config key sets a fluctuation for it.
    with pytest.raises(SystemExit) as raised:
        main([*COUNT_COMMANDS[command], "--n", "1e10", "--r0", "0.1"])
    assert raised.value.code == 2
    assert "unrecognized arguments: --r0 0.1" in capsys.readouterr().err
    cfg = tmp_path / "run.ini"
    cfg.write_text("[fluctuation]\nr0 = 0.1\n")
    code, out, err = run(capsys, *COUNT_COMMANDS[command], "--n", "1e10", "--config", str(cfg))
    message = f"error: {cfg}: unknown key 'r0' in section [fluctuation]\n"
    assert (code, out, err) == (2, "", message)


MODEL_FLAGS = (
    "--mu", "--mu-prime", "--scenario", "--eta", "--s0", "--q", "--yields",
    "--n", "--n-mu", "--n-mu-prime", "--n-vacuum",
)
FLUCTUATION_FLAGS = ("--qber", "--confidence-exponent", "--min-over-classes")
FLAG_INVENTORY = {
    "bound": ("--config", "--format", "--out", *MODEL_FLAGS, *FLUCTUATION_FLAGS, "--rates"),
    "simulate": ("--config", "--format", "--out", "--seed", *MODEL_FLAGS, *FLUCTUATION_FLAGS),
    "table1": ("--format", "--out"),
    "sweep": (
        "--config", "--format", "--out", "--mu", "--mu-prime", "--eta", "--s0", "--n",
        *FLUCTUATION_FLAGS,
    ),
    "feasibility": (
        "--config", "--format", "--out", "--eta", "--s0", "--mu-v", "--rep-rate",
        "--confidence-exponent", "--target",
    ),
}


def test_flag_inventory():
    # One entry per option (--min-over-classes also takes a --no- form); --help aside.
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        name: tuple(
            action.option_strings[0] for action in command._actions
            if action.option_strings and action.dest != "help"
        )
        for name, command in sub.choices.items()
    }
    assert flags == FLAG_INVENTORY
    assert sum(map(len, flags.values())) == 58
