import argparse
import ast
import contextlib
import gc
import io
import json
import lzma
import math
import os
import random
import re
import subprocess
import sys
from decimal import MAX_PREC, Context, Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings as hyp_settings, strategies as st

from decoyqkd import cli
from decoyqkd.cli import SWEEP_COLUMNS, main, parse_grid
from decoyqkd.errors import ConfigError, ConvergenceError
from decoyqkd.photon_stats import MIN_INTENSITY, ProtocolParams, decompose, validate_pair
from reference import lane_solver_evaluations, record_solver_evaluations


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


def test_bound_strong_class_fraction_not_below_truth(capsys):
    # S_x / x grows with x on this table, so the paper's delta' transfer
    # printed 74.15 % (crude) and 61.22 % (asymptotic), and a strong key rate
    # of 0.24, against a true strong-class tagged fraction of 9/13 = 69.23 %.
    code, payload = run_json(
        capsys,
        "bound", "--mu", "0.1", "--mu-prime", "0.3", "--scenario", "yields",
        "--yields", "0.01,0.1,0.5", "--s0", "0", "--qber", "0.01",
    )
    assert code == 0
    assert payload["hwang"]["delta_prime_upper"] == pytest.approx(11 / 13, rel=1e-12)
    assert payload["asymptotic"]["delta_prime_upper"] == pytest.approx(10 / 13, rel=1e-12)
    assert payload["key_rate"]["strong"] == pytest.approx(0.09058255421408277, rel=1e-12)


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


def test_bound_finite_delta_never_negative(capsys):
    # The finite solver landed a rounding step below its clamped seed sc = 0
    # on these rates, so delta_upper was -1.19e-16 and its delta' exited 2
    # with "delta must lie in [0, 1]".  No yields give their S_mu, which is
    # above its ceiling, so the CLI now refuses them; both engines still
    # floor sc on them (test_batch.py).
    code, out, err = run(
        capsys,
        "bound", "--mu", "0.019184350094736843", "--mu-prime", "0.9480957022500398",
        "--rates", "6.2428761270174016e-09,0.11631410064078987,6.616781629119358e-05",
        "--n", "1e18", "--confidence-exponent", "4.654601437947795", "--format", "json",
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: --rates: S_mu 0.11631410064078987 is above its yield ceiling")


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


@pytest.mark.parametrize("source", ["--rates", "[rates]"])
def test_bound_refuses_rates_below_their_vacuum_part(tmp_path, capsys, source):
    # No photon-number yields give S_mu < e^{-mu} s0.  Such rates exited 3,
    # with a 5.164 % hwang bound beside a vacuous asymptotic one.
    argv = ["bound", "--mu", "0.3", "--mu-prime", "0.45"]
    if source == "--rates":
        argv += ["--rates", "1e-3,1e-4,1e-5"]
    else:
        (tmp_path / "r.ini").write_text("[rates]\ns0 = 1e-3\ns_mu = 1e-4\ns_mu_prime = 1e-5\n")
        argv += ["--config", str(tmp_path / "r.ini")]
    assert run(capsys, *argv) == (
        2, "", f"error: {source}: S_mu 0.0001 is below its vacuum part e^{{-mu}} s0 = "
        "0.0007408182206817179, which no photon-number yields produce\n",
    )
    # S_mu at its vacuum part is not refused.
    vacuum = math.exp(-0.3) * 1e-3
    code, _, err = run(capsys, *argv[:5], "--rates", f"1e-3,{vacuum!r},1e-3")
    assert (code, err) == (0, "")


@pytest.mark.parametrize("source", ["--rates", "[rates]"])
@pytest.mark.parametrize("cls, index", [("S_mu", 1), ("S_mu'", 2)])
def test_bound_refuses_rates_above_their_yield_ceiling(tmp_path, capsys, source, cls, index):
    # No photon-number yields give S_x > 1 - e^{-x} (1 - s0).  S_mu = 0.5 at
    # mu = 0.1 exited 0 with an asymptotic s1_lower of 5.53 and a hwang
    # sc_upper of 7.65.
    params = ProtocolParams(0.1, 0.5)
    coeffs = decompose(params)
    s0 = 0.25
    ceilings = [1.0 - coeffs.p0_mu * (1.0 - s0), 1.0 - coeffs.p0_mu_prime * (1.0 - s0)]
    rates = [s0, *ceilings]
    rates[index] = math.nextafter(ceilings[index - 1], 1.0)
    argv = ["bound", "--mu", "0.1", "--mu-prime", "0.5"]

    def refusal(values):
        if source == "--rates":
            return run(capsys, *argv, "--rates", ",".join(map(repr, values)))
        keys = ("s0", "s_mu", "s_mu_prime")
        body = "".join(f"{key} = {value!r}\n" for key, value in zip(keys, values))
        (tmp_path / "r.ini").write_text("[rates]\n" + body)
        return run(capsys, *argv, "--config", str(tmp_path / "r.ini"))

    intensity = "mu" if cls == "S_mu" else "mu'"
    assert refusal(rates) == (
        2, "", f"error: {source}: {cls} {rates[index]!r} is above its yield ceiling "
        f"1 - e^{{-{intensity}}} (1 - s0) = {ceilings[index - 1]!r}, "
        "which no photon-number yields reach\n",
    )
    # A rate at its ceiling still runs; at s0 = 1 that ceiling is exactly 1.
    rates[index] = ceilings[index - 1]
    code, _, err = refusal(rates)
    assert (code, err) == (0, "")
    code, _, err = refusal([1.0, 1.0, 1.0])
    assert (code, err) == (0, "")


def test_known_defect_sc_upper_exceeds_1_at_the_yield_ceiling(capsys):
    """Pins a known defect of both asymptotic bounds (ROADMAP "Cap sc at 1").

    These are the rates of all-ones yields, each at its yield ceiling, so the
    run is not refused.  sc is a mean multi-photon yield, so it is at most 1,
    but no bound uses that: the hwang and asymptotic sc_upper come out at
    5.018 and 1.188, with clamped false.  Taking min(sc, 1) would give
    delta <= c / S_mu = 0.049, against the asymptotic 0.058; the change that
    does so turns this pin into a check that every sc_upper is at most 1.
    """
    code, out, err = run(
        capsys, "bound", "--mu", "0.1", "--mu-prime", "0.5",
        "--rates", "0,0.09516258196404048,0.3934693402873666", "--format", "csv",
    )
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()]
    sc_upper = {row[0]: row[rows[0].index("sc_upper")] for row in rows[1:]}
    assert sc_upper == {
        "hwang_crude": "5.0182289582600301",
        "wang_asymptotic": "1.1880547953421359",
    }


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
    scenario = "[params]\nmu = 0.3\nmu_prime = 0.45\n[scenario]\neta = 1e-3\nq = 0.5\n"
    cfg.write_text(scenario + "yields = 1e-3\n")
    code, out, err = run(capsys, "bound", "--config", str(cfg))
    assert (code, out, err) == (2, "", "error: no_eve scenario does not use q\n")
    # Every text is parsed where it enters, even one that no kind reads.
    cfg.write_text(scenario + "yields = abc\n")
    code, out, err = run(capsys, "bound", "--config", str(cfg))
    assert (code, out, err) == (2, "", "error: [scenario] yields: expected a number, got 'abc'\n")


@pytest.mark.parametrize(
    "argv, ini, message",
    [
        (("--config", "run.ini", "--mu", "0.3"), "[params]\nmu = abc\n",
         "[params] mu: expected a number, got 'abc'"),
        (("--mu", "0.3", "--n", "abc", "--n-mu", "1e6", "--n-mu-prime", "1e6"), None,
         "--n: expected an integer, got 'abc'"),
    ],
    ids=["config-under-flag", "flag-under-flag"],
)
def test_overridden_text_is_still_parsed(tmp_path, monkeypatch, capsys, argv, ini, message):
    monkeypatch.chdir(tmp_path)
    if ini is not None:
        (tmp_path / "run.ini").write_text(ini)
    code, out, err = run(capsys, "bound", *argv, "--mu-prime", "0.45", "--eta", "1e-3")
    assert (code, out, err) == (2, "", f"error: {message}\n")


PARAMS_INI = "[params]\nmu = 0.3\nmu_prime = 0.45\n"
RATES_INI = "[rates]\ns0 = 1e-6\ns_mu = 1e-4\ns_mu_prime = 1.5e-4\n"


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
        (("--rates", "0,1e-4,1.5e-4", "--s0", "1e-6"), None,
         "supply either --rates or scenario flags, not both"),
        # Direct rates from one layer and a scenario from the other.
        (("--s0", "1e-6"), RATES_INI, "supply either [rates] or scenario flags, not both"),
        (("--eta", "1e-3"), RATES_INI, "supply either [rates] or scenario flags, not both"),
        (("--rates", "0,1e-4,1.5e-4"), "[scenario]\neta = 1e-3\ns0 = 1e-6\n",
         "supply either --rates or [scenario], not both"),
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
        "rates-and-s0-flag",
        "config-rates-and-s0-flag",
        "config-rates-and-eta-flag",
        "rates-flag-and-config-scenario",
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


@pytest.mark.parametrize(
    "ini, message",
    [
        ("[sweep]\nmu = 0:1:0.000001\n", "has more than 1000000 points"),
        ("[sweep]\nmu = 0.1:0.2\n", "grid ranges use start:stop:step"),
    ],
    ids=["over-cap", "malformed"],
)
def test_config_sections_the_command_does_not_read_are_not_parsed(tmp_path, capsys, ini, message):
    bound = ("bound", "--mu", "0.3", "--mu-prime", "0.45", "--eta", "1e-3", "--format", "csv")
    cfg = tmp_path / "run.ini"
    cfg.write_text(ini)
    assert run(capsys, *bound, "--config", str(cfg)) == run(capsys, *bound)
    code, out, err = run(capsys, "sweep", "--config", str(cfg), "--mu-prime", "0.45", "--eta", "1e-3")
    assert (code, out) == (2, "")
    assert err.startswith("error: [sweep] mu: ") and message in err
    # An unknown key stays an error in a section the command does not read.
    cfg.write_text(ini + "mu_primee = 0.45\n")
    code, _, err = run(capsys, *bound, "--config", str(cfg))
    assert (code, err) == (2, f"error: {cfg}: unknown key 'mu_primee' in section [sweep]\n")


def test_malformed_config_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("mu = 0.3\n")
    code, out, err = run(capsys, "bound", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: config file {cfg} is malformed: ")


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


def test_simulate_seed_past_the_generator_period_exit_2(capsys):
    # Seed s draws PCG64(0).jumped(s), and jumped(2**128) is PCG64(0) again.
    argv = ("simulate", "--mu", "0.3", "--mu-prime", "0.45", "--eta", "1e-3", "--n", "1e9")
    for seed, bits in ((str(2**128), 129), ("1e40", (10**40).bit_length())):
        message = f"error: seed must be below 2**128, got a {bits}-bit integer\n"
        assert run(capsys, *argv, "--seed", seed) == (2, "", message)
    # The largest seed runs, and runs the same twice.
    last = run(capsys, *argv, "--seed", str(2**128 - 1), "--format", "csv")
    assert last[0] == 0 and last == run(capsys, *argv, "--seed", str(2**128 - 1), "--format", "csv")


@pytest.mark.parametrize(
    "seed, message",
    [
        ("1.5", "--seed: expected an integer, got '1.5'"),
        # An integer this large takes hours to build, and past 4300 digits
        # the input echo cannot print it.
        ("1e999999999", "--seed: expected an integer of at most 4300 digits, got '1e999999999'"),
    ],
    ids=["fraction", "huge"],
)
def test_simulate_seed_takes_the_count_grammar(capsys, seed, message):
    argv = ("simulate", "--mu", "0.3", "--mu-prime", "0.45", "--eta", "1e-3", "--n", "1e6")
    assert run(capsys, *argv, "--seed", seed) == (2, "", f"error: {message}\n")
    assert run(capsys, *argv, "--seed", "1e1") == run(capsys, *argv, "--seed", "10")


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


ALL_ONES = ("--scenario", "yields", "--yields", ",".join(["1"] * 32), "--s0", "1")


def test_all_ones_yield_table_is_bounded_and_sampled(capsys):
    # Its strong-class rate rounded to 1.0000000000000002: bound exited 2 with
    # "s_mu_prime must lie in [0, 1]", and simulate crashed in numpy's sampler.
    pair = ("--mu", "0.6", "--mu-prime", "1.1840552396430415")
    code, payload = run_json(capsys, "bound", *pair, *ALL_ONES)
    assert code == 0
    assert payload["asymptotic"]["vacuous"] is False
    code, payload = run_json(capsys, "simulate", *pair, *ALL_ONES, "--n", "1e6", "--seed", "1")
    assert code == 0
    assert payload["expected_rates"]["s_mu_prime"] == 1.0
    observation = payload["observation"]
    assert observation["clicks_mu"] == observation["clicks_mu_prime"] == 10**6


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
    assert 'decoyqkd = "decoyqkd.cli:launch"' in (SRC.parent / "pyproject.toml").read_text()


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


def launch(*argv):
    """``python -m decoyqkd.cli argv`` in a fresh interpreter, its output as bytes."""
    return subprocess.run(
        [sys.executable, "-m", "decoyqkd.cli", *argv],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
    )


def run_main(capsys, *argv):
    """In-process ``main``, with argparse's exit taken as its code."""
    try:
        code = main(list(argv))
    except SystemExit as exit:
        code = exit.code
    captured = capsys.readouterr()
    return code, captured.out.encode(), captured.err.encode()


@pytest.mark.parametrize(
    "argv, code",
    [
        *zip(ONE_SHOT_COMMANDS, (0, 0, 5, 0)),
        (["bound", "--mu", "0.3", "--mu-prime", "0.45", "--eta", "1e-3", "--n", "8e10",
          "--qber", "0.015", "--format", "json"], 0),
        (["--help"], 0),
        (["bound", "--mu", "0.3", "--bogus"], 2),
    ],
    ids=["bound", "simulate", "feasibility", "table1", "bound-json", "help", "usage-error"],
)
def test_launch_prints_what_main_prints(capsys, argv, code):
    # The launcher exits through the interpreter's own teardown, so every
    # byte main writes, argparse's help and usage text included, arrives.
    proc = launch(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == run_main(capsys, *argv)
    assert proc.returncode == code


def test_launch_writes_the_out_file_main_writes(capsys, tmp_path):
    argv = ("bound", "--mu", "0.3", "--mu-prime", "0.45", "--eta", "1e-3", "--n", "8e10",
            "--qber", "0.015", "--format", "json", "--out")
    proc = launch(*argv, str(tmp_path / "launched.json"))
    assert (proc.returncode, proc.stdout, proc.stderr) == run_main(
        capsys, *argv, str(tmp_path / "main.json")
    )
    written = (tmp_path / "launched.json").read_bytes()
    assert written.startswith(b"{") and written == (tmp_path / "main.json").read_bytes()


def test_launch_delivers_a_large_sweep_through_a_pipe(capsys):
    argv = ("sweep", "--mu", "0.1:0.4:0.01", "--mu-prime", "0.1:1.0:0.005",
            "--eta", "1e-4,1e-3,1e-2", "--format", "csv")
    proc = launch(*argv)
    assert len(proc.stdout) > 10**6
    assert (proc.returncode, proc.stdout, proc.stderr) == run_main(capsys, *argv)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device whose writes fail")
def test_launch_reports_a_failed_flush_at_exit():
    # Buffered output that cannot be written at exit is reported by the
    # interpreter's own teardown, which the launcher keeps, with exit code 120.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "decoyqkd.cli", "feasibility", "--format", "json"],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env={**env, "PYTHONPATH": str(SRC)},
            timeout=60,
        )
    assert proc.returncode == 120
    assert proc.stderr.startswith("Exception ignored in: <_io.TextIOWrapper name='<stdout>'")


def test_launch_freezes_the_heap_after_main():
    # A fresh interpreter runs the module as python -m does: it exits with
    # main's code, and the launcher has frozen the heap for the exit.
    script = (
        "import gc, runpy, sys\n"
        "sys.argv = ['decoyqkd', 'feasibility']\n"
        "before = gc.get_freeze_count()\n"
        "try:\n"
        "    runpy.run_module('decoyqkd.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exit:\n"
        "    print(repr([exit.code, before, gc.get_freeze_count() > 0]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
        check=True,
    )
    assert ast.literal_eval(proc.stdout.splitlines()[-1]) == [5, 0, True]


def test_main_leaves_the_heap_unfrozen(capsys):
    # Frozen objects are never collected, so main, which a sweep benchmark or
    # a library caller runs many times in one process, must not freeze.
    before = gc.get_freeze_count()
    for argv in (*ONE_SHOT_COMMANDS, ["sweep", *SWEEP_GRID]):
        main(argv)
    with pytest.raises(SystemExit):
        main(["--help"])
    capsys.readouterr()
    assert gc.get_freeze_count() == before


def test_launch_loads_configparser_and_json_only_where_read(tmp_path):
    # One fresh interpreter launches the commands in turn, as python -m
    # decoyqkd.cli does, and lists after each which of the watched modules
    # are loaded so far.  It prints a repr, since json is one of them.
    # numpy stays on the import of decoyqkd.cli: bench/spans.py:import_breakdown
    # takes the median import time of every module it names, numpy included,
    # and fails for one not loaded.  Taking numpy off is ROADMAP item 3, which
    # waits for the benchmark to report an unloaded module as absent (item 2).
    # numpy.random, which costs about 10-16 ms to import, loads with the
    # first sample that simulate draws, and no other command loads it.
    config = tmp_path / "f.ini"
    config.write_text("[params]\nmu = 0.3\nmu_prime = 0.45\n[rates]\n"
                      "s0 = 1e-6\ns_mu = 3e-5\ns_mu_prime = 4.5e-5\n")
    launches = [
        ["table1"],
        ["bound", "--rates", "1e-6,3e-5,4.5e-5", "--mu", "0.3", "--mu-prime", "0.45",
         "--format", "table"],
        ["bound", "--config", str(config)],
        ["feasibility"],
        ["simulate", "--mu", "0.3", "--mu-prime", "0.45", "--eta", "1e-3", "--n", "1e8",
         "--seed", "3"],
    ]
    watched = ("configparser", "json", "numpy", "numpy.random")
    script = (
        "import contextlib, io, runpy, sys\n"
        "seen = []\n"
        f"for argv in {launches!r}:\n"
        "    sys.argv = ['decoyqkd', *argv]\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        try:\n"
        "            runpy.run_module('decoyqkd.cli', run_name='__main__', alter_sys=True)\n"
        "        except SystemExit as exit:\n"
        "            code = exit.code\n"
        f"    seen.append([code, [m for m in {watched!r} if m in sys.modules]])\n"
        "print(repr(seen))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
        check=True,
    )
    assert ast.literal_eval(proc.stdout) == [
        [0, ["numpy"]],
        [0, ["numpy"]],
        [0, ["configparser", "numpy"]],
        [5, ["configparser", "numpy"]],
        [0, ["configparser", "numpy", "numpy.random"]],
    ]


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
         "--mu: grid start, stop and step must be finite, got '0.1:inf:0.1'"),
        (("--mu", "0.1:nan:0.1", "--mu-prime", "0.45"),
         "--mu: grid start, stop and step must be finite, got '0.1:nan:0.1'"),
        (("--mu", "0.3", "--mu-prime", "0.45:0.5:inf"),
         "--mu-prime: grid start, stop and step must be finite, got '0.45:0.5:inf'"),
        (("--mu", "0.1:0.2:1e-12", "--mu-prime", "0.45"),
         "--mu: grid '0.1:0.2:1e-12' has more than 1000000 points"),
        (("--mu", "0.3", "--mu-prime=-1e308:1e308:1"),
         "--mu-prime: grid '-1e308:1e308:1' has more than 1000000 points"),
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


@pytest.mark.parametrize(
    "argv, ini, message",
    [
        (("sweep", "--mu", "0.1:0.5:0", "--mu-prime", "0.45", "--eta", "1e-3"), "",
         "--mu: grid step must be positive, got 0.0"),
        (("sweep", "--mu", "0.3", "--mu-prime", "0.45", "--eta", "1e-3:1e-4:1e-4"), "",
         "--eta: grid stop 0.0001 is below start 0.001"),
        (("sweep", "--mu-prime", "0.45", "--eta", "1e-3"), "[sweep]\nmu = 0.1:0.5:0\n",
         "[sweep] mu: grid step must be positive, got 0.0"),
        (("bound", "--mu", "0.3", "--mu-prime", "0.45", "--yields", "0.1,x"), "",
         "--yields: expected a number, got 'x'"),
        (("bound", "--mu", "0.3", "--mu-prime", "0.45"), "[scenario]\nyields = 0.1,x\n",
         "[scenario] yields: expected a number, got 'x'"),
    ],
    ids=["mu-flag", "eta-flag", "mu-config", "yields-flag", "yields-config"],
)
def test_parse_errors_name_the_flag_or_config_key(tmp_path, capsys, argv, ini, message):
    if ini:
        (tmp_path / "run.ini").write_text(ini)
        argv += ("--config", str(tmp_path / "run.ini"))
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_parse_grid_keeps_the_written_start():
    # Points were rounded to 12 decimals, or 3 past a small step's first
    # digit, which moved a start written with more.
    assert parse_grid("0.1234567890123456:0.4:0.1", "test") == [
        0.1234567890123456, 0.2234567890123456, 0.3234567890123456
    ]
    assert parse_grid("1.23456e-13:3e-12:1e-12", "test") == [
        1.23456e-13, 1.123456e-12, 2.123456e-12
    ]
    # An exponent too large for Decimal writes a start of 0.
    assert parse_grid("1e-99999999999999999999:1:0.5", "test") == [0.0, 0.5, 1.0]


def test_benchmark_grid_matches_its_reference_rows():
    # The sweep benchmark looks each row up by its (mu, mu', eta) floats, so
    # a grid or admissibility change that moves one float fails it.
    reference = SRC.parent / "bench" / "data" / "sweep_reference.csv.xz"
    with lzma.open(reference, "rt", encoding="utf-8") as fh:
        next(fh)
        keys = [tuple(map(float, line.split(",")[:3])) for line in fh]
    pairs = [
        (mu, mu_prime)
        for mu in parse_grid("0.05:0.5:0.005", "mu")
        for mu_prime in parse_grid("0.1:1.0:0.005", "mu_prime")
        if validate_pair(mu, mu_prime)
    ]
    assert len(keys) == 39_450
    assert keys == [(mu, mu_prime, eta) for mu, mu_prime in pairs for eta in (1e-4, 1e-3, 1e-2)]


def test_parse_grid_rounds_to_the_step(capsys):
    # Points were rounded to 12 decimals and stop widened by 1e-12: every
    # point below 1e-12 became 0, and 3.1e-12 passed a stop of 3e-12.
    assert parse_grid("1e-13:3e-12:1e-12", "test") == [1e-13, 1.1e-12, 2.1e-12]
    code, out, err = run(
        capsys, "sweep", "--mu", "0.3", "--mu-prime", "0.45", "--eta", "1e-14:5e-14:1e-14",
        "--format", "csv",
    )
    assert (code, err) == (0, "")
    etas = [float(line.split(",")[2]) for line in out.splitlines()[1:]]
    assert etas == [1e-14, 2e-14, 3e-14, 4e-14, 5e-14]


def test_parse_grid_never_passes_stop(capsys):
    # Stop was widened by 1e-12, which let in a point just past it.
    assert parse_grid("0.3:0.449999999999999:0.05", "test") == [0.3, 0.35, 0.4]
    code, out, err = run(
        capsys, "sweep", "--mu", "0.2", "--mu-prime", "0.3:0.449999999999999:0.05",
        "--eta", "1e-3", "--format", "csv",
    )
    assert (code, err) == (0, "")
    assert [float(line.split(",")[1]) for line in out.splitlines()[1:]] == [0.3, 0.35, 0.4]


@pytest.mark.parametrize(
    "flag, grid, repeated",
    [
        # A step below the float spacing: 8 points, 2 distinct floats.
        ("--mu-prime", "0.45:0.45000000000000007:1e-17", "0.45"),
        ("--mu", "0.3,0.3", "0.3"),
        ("--mu", "0.2,0.3,0.25,0.3", "0.3"),
        ("--eta", "1e-3,0.001", "0.001"),
    ],
)
def test_parse_grid_refuses_repeated_points(capsys, tmp_path, flag, grid, repeated):
    # Each repeat was bounded and printed as a row of its own.
    values = {"--mu": "0.3", "--mu-prime": "0.45", "--eta": "1e-3", flag: grid}
    message = f"grid {grid!r} holds {repeated} more than once\n"
    code, out, err = run(capsys, "sweep", *(x for kv in values.items() for x in kv))
    assert (code, out, err) == (2, "", f"error: {flag}: {message}")
    # The same grid from a config file names its key.
    key = flag[2:].replace("-", "_")
    cfg = tmp_path / "sweep.ini"
    lines = (f"{k[2:].replace('-', '_')} = {v}\n" for k, v in values.items())
    cfg.write_text("[sweep]\n" + "".join(lines))
    code, out, err = run(capsys, "sweep", "--config", str(cfg))
    assert (code, out, err) == (2, "", f"error: [sweep] {key}: {message}")


def test_parse_grid_keeps_both_signed_zeros():
    # 0.0 and -0.0 compare equal but are two floats, printed apart.
    values = parse_grid("0,-0,1e-3", "test")
    assert [math.copysign(1.0, v) for v in values] == [1.0, -1.0, 1.0]
    with pytest.raises(ConfigError, match="holds -0.0 more than once"):
        parse_grid("0,-0,-0.0", "test")


@hyp_settings(max_examples=300)
@given(
    st.integers(-10**7, 10**7), st.integers(-20, 5), st.integers(1, 10**5),
    st.integers(-20, 5), st.integers(1, 60), st.one_of(st.none(), st.integers(1, 17)),
)
def test_parse_grid_points_are_exact_decimal_sums(a, a_exp, b, b_exp, count, short):
    # Decimal-written start and step; stop is the exact last point, or just
    # below it.  Point k is the float nearest start + k step, taken in the
    # decimals that the parsed floats print as, and no point passes stop.
    start, step = Decimal(a).scaleb(a_exp), Decimal(b).scaleb(b_exp)
    with localcontext(Context(prec=100)):
        stop = start + (count - 1) * step
        if short is not None and count > 1:
            stop -= step.scaleb(-short)
    first, last, increment = (Fraction(repr(float(x))) for x in (start, stop, step))
    points = (last - first) // increment + 1
    assume(points <= 1000)
    expected = [float(first + k * increment) for k in range(points)]
    if len(set(expected)) < points:
        # A step below the float spacing of its points repeats a float.
        with pytest.raises(ConfigError, match="more than once"):
            parse_grid(f"{start}:{stop}:{step}", "test")
        return
    values = parse_grid(f"{start}:{stop}:{step}", "test")
    assert values == expected
    assert all(value <= float(stop) for value in values)


def decimal_grid(text):
    """A range's points summed exactly in Decimal and rounded once by float()."""
    first, last, increment = (Decimal(repr(float(x))) for x in text.split(":"))
    with localcontext(Context(prec=MAX_PREC)):
        count = (last - first) // increment + 1
        if count > cli.MAX_GRID_POINTS:
            return None
        return [float(first + k * increment) for k in range(int(count))]


RANGE_NUMBER = r"-?[0-9.]+(?:e[-+]?[0-9]+)?"
RANGE_TEXT = re.compile(rf"(?<![\w.:-]){RANGE_NUMBER}:{RANGE_NUMBER}:{RANGE_NUMBER}(?![\w.:])")


def test_parse_grid_matches_decimal_sums_on_every_written_range():
    # Every start:stop:step range written in the tests, the README and the
    # benchmark gives the same floats, bit for bit, as Decimal sums would.
    root = SRC.parent
    files = [*root.glob("tests/**/*.py"), *root.glob("tests/data/*.json"), root / "README.md",
             *root.glob("bench/**/*.py"), *root.glob("bench/*.md")]
    ranges = {m for f in files for m in RANGE_TEXT.findall(f.read_text(encoding="utf-8"))}
    assert {"0.1:1.0:0.005", "0.43:0.47:0.02", "0.4:0.5:0.05", "-1e308:1e308:1"} <= ranges
    for text in sorted(ranges):
        start, stop, step = map(float, text.split(":"))
        if step <= 0 or stop < start:
            with pytest.raises(ConfigError):
                parse_grid(text, "test")
            continue
        expected = decimal_grid(text)
        if expected is None:
            with pytest.raises(ConfigError, match="points"):
                parse_grid(text, "test")
        elif len(set(expected)) < len(expected):
            with pytest.raises(ConfigError, match="more than once"):
                parse_grid(text, "test")
        else:
            assert [v.hex() for v in parse_grid(text, "test")] == [v.hex() for v in expected], text


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
SWEEP_VALUES = ((0.1, 0.3, 0.5), (0.2, 0.3, 0.4, 0.5, 0.6), (1e-4, 1e-2))


def scalar_sweep(grid, n=None, qber=None, **fluctuation):
    """Notes and rows of the sweep over grid = (mus, mu_primes, etas), from the scalar functions."""
    from decoyqkd import (
        FluctuationSettings, KeyRateInput, NoEve, ProtocolParams, PulseBudget,
        delta_prime_bound, expected_rates, finite_bound, gllp_rate, validate_pair,
        wang_asymptotic_bound,
    )

    fluct = FluctuationSettings(**fluctuation)
    mus, mu_primes, etas = grid
    notes, rows = [], []
    for mu in mus:
        for mu_prime in mu_primes:
            check = validate_pair(mu, mu_prime)
            if not check:
                notes.append(
                    f"note: skipping inadmissible pair mu={mu}, mu_prime={mu_prime}: "
                    f"{check.reason}"
                )
                continue
            params = ProtocolParams(mu, mu_prime)
            for eta in etas:
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
        ("--n", "1e9", "--confidence-exponent", "20", "--qber", "0.01"),
        {"n": 10**9, "confidence_exponent": 20.0, "qber": 0.01},
    ),
    (("--n", "1000"), {"n": 1000}),
    # E / (n p1) overflows to inf.
    (("--n", "1", "--confidence-exponent", "1e308"), {"n": 1, "confidence_exponent": 1e308}),
]


@pytest.mark.parametrize("fmt", ["csv", "json", "table"])
@pytest.mark.parametrize("flags, scalar_args", SWEEP_FLAG_SETS)
def test_sweep_output_equals_scalar_rows(capsys, fmt, flags, scalar_args):
    code, out, err = run(capsys, "sweep", *SWEEP_GRID, *flags, "--format", fmt)
    notes, rows = scalar_sweep(SWEEP_VALUES, **scalar_args)
    assert out == render_sweep(rows, fmt)
    assert err == "".join(note + "\n" for note in notes)
    assert notes
    all_vacuous = all(row[-1] for row in rows)
    assert all_vacuous == (scalar_args.get("n") in (1, 1000))
    assert code == (3 if all_vacuous else 0)


def below_dominance(mu):
    """The least float mu' > 1 with mu' e^{-mu'} <= mu e^{-mu}, for 0 < mu < 1."""
    lo, hi = 1.0, 800.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if mid * math.exp(-mid) > mu * math.exp(-mu) else (lo, mid)
    return hi


# Values validate_pair refuses on their own, and the intensity floor's neighbours.
EDGE_INTENSITIES = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, -0.3, -1e-300, 5e-324,
    MIN_INTENSITY, math.nextafter(MIN_INTENSITY, 0.0), math.nextafter(MIN_INTENSITY, 1.0),
]


@st.composite
def admissibility_grids(draw):
    """mu and mu' grids around every test of validate_pair."""
    intensities = st.sampled_from(EDGE_INTENSITIES) | st.floats(1e-160, 2.0)
    mus = draw(st.lists(intensities | st.floats(0.01, 0.9), min_size=1, max_size=5))
    mu_primes = draw(st.lists(intensities, max_size=3))
    for mu in mus:
        if not MIN_INTENSITY <= mu < 0.99:
            continue
        floor = mu * (1.0 + 1e-6)
        edge = below_dominance(mu)
        near = [math.nextafter(floor, 0.0), floor, math.nextafter(floor, 2.0)]
        near += [math.nextafter(edge, 0.0), edge, math.nextafter(edge, 1e3)]
        mu_primes += draw(st.lists(st.sampled_from(near), max_size=4))
        mu_primes.append(draw(st.floats(floor, edge)))
    # A grid repeats no float (test_parse_grid_refuses_repeated_points); 0.0
    # and -0.0 are two.
    def distinct(values):
        return list({(v, math.copysign(1.0, v)): v for v in values}.values())

    return distinct(mus), draw(st.permutations(distinct(mu_primes)))


@hyp_settings(max_examples=60, deadline=None)
@given(admissibility_grids())
@example(([0.3, MIN_INTENSITY], [math.nan, 0.3 * (1.0 + 1e-6), below_dominance(0.3)]))
def test_sweep_admits_exactly_the_pairs_validate_pair_admits(grid):
    mus, mu_primes = grid
    # --flag=value, since a value may start with "-".
    argv = ["sweep", "--mu=" + ",".join(map(repr, mus)), "--eta", "1e-3", "--format", "csv"]
    if mu_primes:
        argv.append("--mu-prime=" + ",".join(map(repr, mu_primes)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if not mu_primes:
        assert (code, out, err) == (2, "", "error: sweep needs mu, mu_prime, and eta grids\n")
        return
    notes, rows = scalar_sweep((mus, mu_primes, (1e-3,)))
    if not rows:
        notes.append("error: sweep grid contains no admissible (mu, mu_prime) pairs")
    assert err == "".join(note + "\n" for note in notes)
    assert out == (render_sweep(rows, "csv") if rows else "")
    assert code == (0 if rows else 2)


def test_sweep_validates_only_rejected_pairs_and_skips_empty_solver_passes(capsys, monkeypatch):
    validated = []

    def counting_validate_pair(mu, mu_prime):
        validated.append((mu, mu_prime))
        return validate_pair(mu, mu_prime)

    monkeypatch.setattr(cli, "validate_pair", counting_validate_pair)
    (code, out, err), evals = lane_solver_evaluations(
        lambda: run(capsys, "sweep", *SWEEP_GRID, "--n", "8e10", "--format", "csv")
    )
    counts = record_solver_evaluations(monkeypatch)
    notes, rows = scalar_sweep(SWEEP_VALUES, n=8 * 10**10)
    assert code == 0 and rows and notes
    assert len(validated) == len(notes) == err.count("\n")
    # One lane solve, whose passes number its slowest row's scalar
    # evaluations: none once every lane has left the solver.
    assert evals == [max(counts)]


# Floats with text of their own: both zeros, NaN, infinities and subnormals.
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
    assert list(map(cli._fmt_cell, column)) == [format(value, ".17g") for value in column]


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
    assert list(map(cli._fmt_cell, column)) == list(map(fmt_cell, column))


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


def test_sweep_csv_equals_per_cell_reference(capsys):
    # JSON round-trips every float exactly, so its records are the cells.
    argv = (
        "sweep", "--mu", "0.05:0.5:0.05", "--mu-prime", "0.1:1.0:0.01",
        "--eta", "1e-4,1e-3,1e-2", "--n", "1e8", "--qber", "0.015",
    )
    code, records = run_json(capsys, *argv)
    assert code == 0
    assert (len(records), sum(record["vacuous"] for record in records)) == (2163, 166)
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    rows = [",".join(map(fmt_cell, record.values())) for record in records]
    assert out == "\n".join([",".join(SWEEP_COLUMNS), *rows]) + "\n"


def sweep_csv_grids(seed=20040615, count=6):
    """Sweep flags: the edge grids, then seeded random ones."""
    grid = ("--mu", "0.1,0.3,0.5", "--mu-prime", "0.2:0.6:0.1", "--eta", "1e-4,1e-2")
    grids = [
        grid,
        (*grid, "--qber", "0.015"),
        (*grid, "--n", "1e8", "--qber", "0"),
        (*grid, "--n", "1e8", "--qber", "-0"),
        (*grid, "--n", "8e10", "--qber", "0.3"),
        ("--mu", "0.3", "--mu-prime", "0.45", "--eta", "0,-0,1e-3", "--n", "1e9"),
        ("--mu", "0.3", "--mu-prime", "0.45", "--eta", "1e-4,1e-2", "--s0", "-0"),
        ("--mu", "0.3", "--mu-prime", "0.45", "--eta", "1e-3", "--qber", "0.015"),
    ]
    rng = random.Random(seed)
    for _ in range(count):
        mu = [rng.uniform(0.02, 0.5) for _ in range(rng.randint(1, 3))]
        mu_prime = [rng.uniform(0.5, 0.95)] + [rng.uniform(0.02, 0.95) for _ in range(2)]
        eta = [10.0 ** rng.uniform(-5.0, 0.0) for _ in range(rng.randint(1, 3))]
        flags = ["--s0", repr(rng.uniform(0.0, 1e-4))]
        n = rng.choice((None, 10**6, 8 * 10**10))
        if n is not None:
            flags += ["--n", str(n)]
        qber = rng.choice((None, 0.0, -0.0, 0.3, rng.uniform(0.0, 0.5)))
        if qber is not None:
            flags += ["--qber", repr(qber)]
        grids.append((
            "--mu", ",".join(map(repr, mu)),
            "--mu-prime", ",".join(map(repr, mu_prime)),
            "--eta", ",".join(map(repr, eta)),
            *flags,
        ))
    return grids


@pytest.mark.parametrize("flags", sweep_csv_grids())
def test_sweep_csv_equals_generic_csv(capsys, tmp_path, flags):
    # The generic csv path over the json records is the reference for the
    # rows that sweep builds from its grid.
    code, records = run_json(capsys, "sweep", *flags)
    assert code in (0, 3) and records
    expected = "\n".join(cli._csv_lines(records)) + "\n"
    csv_code, out, err = run(capsys, "sweep", *flags, "--format", "csv")
    assert (csv_code, out) == (code, expected)
    path = tmp_path / "sweep.csv"
    assert run(capsys, "sweep", *flags, "--format", "csv", "--out", str(path)) == (code, "", err)
    assert path.read_bytes() == out.encode()


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
        scalar_sweep(SWEEP_VALUES, **scalar_args)
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


TINY_160 = "mu must be at least 1e-150, got 1e-160"
TINY_170 = "mu must be at least 1e-150, got 1e-170"


@pytest.mark.parametrize("command", ["bound", "sweep"])
@pytest.mark.parametrize(
    "argv, cause",
    [
        (("--mu", "0.5", "--mu-prime", "0.6", "--eta", "0", "--s0", "5e-324"),
         "mu' e^{-mu'} S_mu underflows to 0"),
        (("--mu", "1e-170", "--mu-prime", "2e-170", "--eta", "1e-3"), TINY_170),
        (("--mu", "0.5", "--mu-prime", "0.6", "--eta", "0", "--s0", "5e-324", "--n", "1e10"),
         "mu' e^{-mu'} S_mu underflows to 0"),
        (("--mu", "1e-170", "--mu-prime", "2e-170", "--eta", "1e-3", "--n", "1e10"), TINY_170),
        (("--mu", "1e-170", "--mu-prime", "2e-170", "--eta", "1e-3", "--s0", "0"), TINY_170),
        (("--mu", "1e-170", "--mu-prime", "2e-170", "--eta", "1e-3", "--s0", "0", "--n", "1e10"),
         TINY_170),
        (("--mu", "1e-170", "--mu-prime", "0.45", "--eta", "1e-3"), TINY_170),
        (("--mu", "1e-160", "--mu-prime", "0.45", "--eta", "1e-3"), TINY_160),
        (("--mu", "1e-160", "--mu-prime", "2e-160", "--eta", "1e-3", "--s0", "1e-6"), TINY_160),
    ],
    ids=[
        "subnormal-rate",
        "tiny-mu",
        "subnormal-rate-finite",
        "tiny-mu-finite",
        "tiny-mu-no-dark-counts",
        "tiny-mu-no-dark-counts-finite",
        "tiny-mu-ordinary-mu-prime",
        "tiny-mu-ordinary-mu-prime-subnormal-c",
        "subnormal-c",
    ],
)
def test_underflowed_inputs_exit_2(capsys, command, argv, cause):
    # A weak intensity whose decomposition would leave the normal floats is
    # refused by the intensity floor; a sweep skips its one pair and is left
    # with none.
    code, out, err = run(capsys, command, *argv)
    assert code == 2
    assert out == ""
    if cause not in (TINY_160, TINY_170):
        assert err.startswith("error: ") and cause in err
    elif command == "bound":
        assert err == f"error: {cause}\n"
    else:
        assert err == (
            f"note: skipping inadmissible pair mu={argv[1]}, mu_prime={argv[3]}: {cause}\n"
            "error: sweep grid contains no admissible (mu, mu_prime) pairs\n"
        )


def test_sweep_skips_a_weak_intensity_below_the_floor(capsys):
    code, out, err = run(
        capsys, "sweep", "--mu", "1e-170,0.3", "--mu-prime", "0.45", "--eta", "1e-3",
        "--format", "csv",
    )
    assert code == 0
    rows = [tuple(map(float, line.split(",")[:3])) for line in out.splitlines()[1:]]
    assert rows == [(0.3, 0.45, 1e-3)]
    assert err == (
        "note: skipping inadmissible pair mu=1e-170, mu_prime=0.45: "
        f"{TINY_170}\n"
    )


COUNT_COMMANDS = {
    "bound": ("bound", "--mu", "0.3", "--mu-prime", "0.45", "--eta", "1e-3"),
    "simulate": ("simulate", "--mu", "0.3", "--mu-prime", "0.45", "--eta", "1e-3", "--seed", "1"),
    "sweep": ("sweep", "--mu", "0.3", "--mu-prime", "0.45", "--eta", "1e-3"),
}


@pytest.mark.parametrize("command", list(COUNT_COMMANDS))
@pytest.mark.parametrize(
    "form, value, cause",
    [
        ("flag", "inf", "error: --n: expected a finite integer, got 'inf'"),
        ("flag", "1e400", "error: n_mu is too large to convert to a float"),
        ("flag", "abc", "error: --n: expected an integer, got 'abc'"),
        ("config", "inf", "expected a finite integer, got 'inf'"),
        ("config", "1e400", "error: n_mu is too large to convert to a float"),
        ("config", "abc", "expected an integer, got 'abc'"),
        ("flag", "1e4300", "error: --n: expected an integer of at most 4300 digits, got '1e4300'"),
        ("config", "1e4300", "expected an integer of at most 4300 digits, got '1e4300'"),
    ],
    ids=["flag-inf", "flag-1e400", "flag-text", "config-inf", "config-1e400", "config-text",
         "flag-4301-digits", "config-4301-digits"],
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
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and cause in errors[0]


def assert_option_removed(tmp_path, capsys, command, flag, key):
    """The flag is an unrecognized argument, and [fluctuation] key an unknown key."""
    with pytest.raises(SystemExit) as raised:
        main([*COUNT_COMMANDS[command], "--n", "1e10", *flag])
    assert raised.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[fluctuation]\n{key} = 1\n")
    code, out, err = run(capsys, *COUNT_COMMANDS[command], "--n", "1e10", "--config", str(cfg))
    message = f"error: {cfg}: unknown key '{key}' in section [fluctuation]\n"
    assert (code, out, err) == (2, "", message)


@pytest.mark.parametrize("command", list(COUNT_COMMANDS))
def test_r0_is_rejected(tmp_path, capsys, command):
    # The vacuum rate counts as exact: no flag or config key sets a fluctuation for it.
    assert_option_removed(tmp_path, capsys, command, ("--r0", "0.1"), "r0")


@pytest.mark.parametrize("command", list(COUNT_COMMANDS))
def test_min_over_classes_is_rejected(tmp_path, capsys, command):
    # Every fluctuation is sized by the smaller signal class: no flag or
    # config key switches that off.
    assert_option_removed(tmp_path, capsys, command, ("--min-over-classes",), "min_over_classes")


def test_simulate_sizes_fluctuations_by_the_smaller_class(capsys):
    # A strong class of 3e5 pulses beside 1e10 weak ones: sized by the weak
    # class alone, this draw's sampled finite bound was 0.2274, below the
    # true tagged fraction 0.2579962.
    code, payload = run_json(
        capsys, "simulate", "--mu", "0.3", "--mu-prime", "0.45", "--scenario", "no_eve",
        "--eta", "1e-2", "--s0", "1e-6", "--n-mu", "1e10", "--n-mu-prime", "3e5",
        "--n-vacuum", "1e10", "--confidence-exponent", "12", "--seed", "1",
    )
    assert code == 0
    assert payload["sampled"]["finite"]["delta_upper"] >= 0.2579962


def test_simulate_without_vacuum_class_keeps_the_vacuum_credit(capsys):
    # No --n-vacuum: the vacuum class is empty, and reporting s0 = 0 for it
    # dropped the vacuum credit.  The sampled finite bound was then 0.1183,
    # below the true tagged fraction 0.4279 of this PNS attack.
    code, payload = run_json(
        capsys, "simulate", "--mu", "0.3", "--mu-prime", "0.45", "--scenario", "pns",
        "--q", "3e-3", "--s0", "2e-4", "--n", "1e12", "--seed", "1",
    )
    assert code == 3
    assert payload["observation"]["s0"] == 2e-4
    assert payload["sampled"]["finite"]["vacuous"] is True
    assert payload["sampled"]["finite"]["delta_upper"] == 1.0


def test_simulate_without_vacuum_class_covers_no_eve(capsys):
    # The same defect on a NoEve channel gave 0.1303, below the truth 0.2035.
    code, payload = run_json(
        capsys, "simulate", "--mu", "0.3", "--mu-prime", "0.45", "--eta", "1e-3",
        "--s0", "1e-4", "--n", "1e13", "--seed", "1",
    )
    assert code == 0
    assert payload["sampled"]["finite"]["delta_upper"] >= 0.2035


def test_simulate_with_a_small_vacuum_class_covers_no_eve(capsys):
    # 100 vacuum pulses drew no click, and the sampled s0 of 0 gave a sampled
    # finite bound of 7.7e-05 against a true tagged fraction of 0.0882.
    code, payload = run_json(
        capsys, "simulate", "--mu", "0.3", "--mu-prime", "0.45", "--eta", "1e-3",
        "--s0", "1e-3", "--n", "1e9", "--n-vacuum", "100", "--seed", "3",
    )
    assert code == 0
    assert payload["observation"]["clicks_vacuum"] == 0
    assert payload["observation"]["s0"] == 1e-3
    assert payload["sampled"]["finite"]["delta_upper"] >= 0.0882


BUDGET_INI = "[budget]\nn_mu = 5e8\nn_mu_prime = 5e8\n"
MODEL = ("--mu", "0.3", "--mu-prime", "0.45", "--eta", "1e-3", "--s0", "1e-6")


@pytest.mark.parametrize("command", ["bound", "simulate"])
def test_pulse_count_flags_win_over_the_budget_section(tmp_path, capsys, command):
    # The [budget] counts used to override --n.
    cfg = tmp_path / "b.ini"
    cfg.write_text(BUDGET_INI)
    seed = ("--seed", "1") if command == "simulate" else ()
    argv = (command, "--config", str(cfg), *MODEL, *seed)
    _, payload = run_json(capsys, *argv, "--n", "1e10")
    assert (payload["inputs"]["n_mu"], payload["inputs"]["n_mu_prime"]) == (10**10, 10**10)
    # --n-mu wins over --n, which still wins over [budget] for n_mu_prime.
    _, payload = run_json(capsys, *argv, "--n", "1e10", "--n-mu", "2e9")
    assert (payload["inputs"]["n_mu"], payload["inputs"]["n_mu_prime"]) == (2 * 10**9, 10**10)
    _, payload = run_json(capsys, *argv)
    assert (payload["inputs"]["n_mu"], payload["inputs"]["n_mu_prime"]) == (5 * 10**8, 5 * 10**8)


def test_simulate_rejects_a_class_beyond_int64(capsys):
    code, out, err = run(capsys, *COUNT_COMMANDS["simulate"], "--n", "1e10", "--n-vacuum", "1e19")
    assert (code, out) == (2, "")
    assert err == "error: n_vacuum exceeds 2**63 - 1, the most pulses a class can sample\n"


NEAR_DIAGONAL_FLOOR = (
    "mu_prime is below the admissibility floor mu*(1 + 1e-06) = 0.30000029999999994, "
    "got 0.30000000000000004"
)


def test_bound_rejects_a_pair_below_the_admissibility_floor(capsys):
    # One ulp apart, the closed form reported delta_upper 0.0 where the true
    # weak-class tagged fraction is 0.998.
    code, out, err = run(
        capsys, "bound", "--mu", "0.3", "--mu-prime", "0.30000000000000004", "--scenario", "pns",
        "--q", "0.01", "--s0", "1e-6", "--format", "json",
    )
    assert (code, out, err) == (2, "", f"error: {NEAR_DIAGONAL_FLOOR}\n")


def test_sweep_skips_a_pair_below_the_admissibility_floor(capsys):
    # Where the sweep printed delta_upper 0.0025 for a true fraction of 0.258.
    code, out, err = run(
        capsys, "sweep", "--mu", "0.3", "--mu-prime", "0.30000000000000004", "--eta", "1e-3",
    )
    assert (code, out) == (2, "")
    assert err == (
        f"note: skipping inadmissible pair mu=0.3, mu_prime=0.30000000000000004: "
        f"{NEAR_DIAGONAL_FLOOR}\n"
        "error: sweep grid contains no admissible (mu, mu_prime) pairs\n"
    )


MODEL_FLAGS = (
    "--mu", "--mu-prime", "--scenario", "--eta", "--s0", "--q", "--yields",
    "--n", "--n-mu", "--n-mu-prime", "--n-vacuum", "--qber", "--confidence-exponent",
)
FLAG_INVENTORY = {
    "bound": ("--config", "--format", "--out", *MODEL_FLAGS, "--rates"),
    "simulate": ("--config", "--format", "--out", "--seed", *MODEL_FLAGS),
    "table1": ("--format", "--out"),
    "sweep": (
        "--config", "--format", "--out", "--mu", "--mu-prime", "--eta", "--s0", "--n",
        "--qber", "--confidence-exponent",
    ),
    "feasibility": (
        "--config", "--format", "--out", "--eta", "--s0", "--mu-v", "--rep-rate",
        "--confidence-exponent", "--target",
    ),
}


def test_flag_inventory():
    # One entry per option; --help aside.
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
    assert sum(map(len, flags.values())) == 55


# The config keys each flag sets, by command: flag -> ((section, key), ...).
def _keys(section, *keys):
    return {"--" + key.replace("_", "-"): ((section, key),) for key in keys}


_OUTPUT_KEYS = {"--format": (("output", "format"),), "--out": (("output", "path"),)}
_MODEL_KEYS = {
    **_keys("params", "mu", "mu_prime"),
    "--scenario": (("scenario", "kind"),),
    **_keys("scenario", "eta", "s0", "q", "yields"),
    "--n": (("budget", "n_mu"), ("budget", "n_mu_prime")),
    **_keys("budget", "n_mu", "n_mu_prime", "n_vacuum"),
    **_keys("key", "qber"),
    **_keys("fluctuation", "confidence_exponent"),
}
FLAG_KEYS = {
    "bound": {
        **_OUTPUT_KEYS,
        **_MODEL_KEYS,
        "--rates": (("rates", "s0"), ("rates", "s_mu"), ("rates", "s_mu_prime")),
    },
    "simulate": {**_OUTPUT_KEYS, **_MODEL_KEYS},
    "table1": _OUTPUT_KEYS,
    "sweep": {
        **_OUTPUT_KEYS,
        **_keys("sweep", "mu", "mu_prime", "eta", "s0"),
        "--n": (("sweep", "n_pulses"),),
        **_keys("sweep", "qber"),
        **_keys("fluctuation", "confidence_exponent"),
    },
    "feasibility": {
        **_OUTPUT_KEYS,
        **_keys("feasibility", "eta", "s0", "mu_v", "rep_rate", "confidence_exponent", "target"),
    },
}
# The other flags: a file to read, and the seed.
NOT_CONFIG_KEYS = {"--config", "--seed"}

# A valid run of each command with none of the flags above set in a config.
# The yields scenario reads every [scenario] key, and with --n-mu and
# --n-mu-prime in place of --n, [budget] is read too.
_BASE = {"--mu": "0.3", "--mu-prime": "0.45", "--scenario": "yields", "--yields": "0.1,0.2",
         "--n-mu": "1e6", "--n-mu-prime": "1e6"}
FLAG_BASES = {
    "bound": _BASE,
    # Direct rates exclude a scenario.
    "bound --rates": {"--mu": "0.3", "--mu-prime": "0.45"},
    "simulate": {**_BASE, "--seed": "1"},
    "sweep": {"--mu": "0.3", "--mu-prime": "0.45", "--eta": "1e-3"},
    "feasibility": {},
}
# A malformed text for each parser, and the two free-text keys' bad values.
MALFORMED = {
    cli._as_float: "abc",
    cli._as_floats: "0.1,x",
    cli._as_count: "1.5",
    cli.parse_grid: "0.1:0.5:0",
}
TEXT_ERRORS = {
    ("output", "format"): ("xml", "unknown output format 'xml' (expected table, json, or csv)"),
    ("scenario", "kind"): ("foo", "unknown scenario kind 'foo' (expected no_eve, pns, or yields)"),
}


def test_flag_keys_cover_every_flag():
    # The reviewed table above is the one the CLI overlays the config with,
    # in the same order: --n before the --n-mu and --n-mu-prime that win over it.
    for command, (_, _, flags) in cli.COMMANDS.items():
        keyed = [(flag, keys) for flag, keys in flags.items() if keys]
        assert keyed == list(FLAG_KEYS[command].items())
        assert tuple(flags) == FLAG_INVENTORY[command]
        assert flags.keys() - FLAG_KEYS[command].keys() <= NOT_CONFIG_KEYS
    for keyed in FLAG_KEYS.values():
        for keys in keyed.values():
            assert all(key in cli.CONFIG_KEYS[section] for section, key in keys)


# table1 reads no config file.
CONFIGURED_FLAGS = [
    (command, flag) for command, flags in FLAG_KEYS.items() if command != "table1" for flag in flags
]


@pytest.mark.parametrize(
    "command, flag", CONFIGURED_FLAGS, ids=[f"{command}{flag}" for command, flag in CONFIGURED_FLAGS]
)
def test_a_malformed_flag_fails_as_its_config_key_does(tmp_path, capsys, command, flag):
    # The same text fails the same way, with the flag or the key as its label.
    keys = FLAG_KEYS[command][flag]
    (section, key), *_ = keys
    if (section, key) == ("output", "path"):
        value, message = str(tmp_path / "nodir" / "x"), "cannot write output file "
    elif (section, key) in TEXT_ERRORS:
        value, message = TEXT_ERRORS[section, key]
    else:
        value, message = MALFORMED[cli.CONFIG_KEYS[section][key]], f"{flag}: "
    # The base run, without the flags that set any of the same keys.
    given = FLAG_BASES.get(f"{command} {flag}", FLAG_BASES[command])
    base = [text for name, setting in given.items()
            if not set(keys) & set(FLAG_KEYS[command].get(name, ())) for text in (name, setting)]
    # --rates takes one value per key.
    text = ",".join([value] * len(keys)) if flag == "--rates" else value
    code, out, err = run(capsys, command, *base, flag, text)
    assert (code, out) == (2, "") and err.startswith(f"error: {message}")
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[{section}]\n" + "".join(f"{name} = {value}\n" for _, name in keys))
    configured = run(capsys, command, *base, "--config", str(cfg))
    assert configured == (2, "", err.replace(f"{flag}: ", f"[{section}] {key}: "))
