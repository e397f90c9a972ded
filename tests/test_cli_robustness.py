"""Every drawn CLI input ends in a result or in a typed error.

A seeded loop starts from a valid run of a command and sets one or two of
its flags, drawn from ``cli.COMMANDS`` so that a new flag is drawn by
default, to text from an edge pool or a practical pool.  Half the draws of
a command that reads a config file write their flags as one, through the
same flag -> key table.  Each run must end in an exit code the CLI
documents:
- nothing but argparse's ``SystemExit(2)`` escapes ``main``;
- an exit-2 run prints no output, and its stderr, after any ``note:``
  lines, starts with ``error:`` or with argparse's usage;
- json output parses with no ``NaN`` or ``Infinity``;
- every csv row has as many cells as its header;
- on exit 0 or 3, every ``delta_upper`` and ``delta_prime_upper`` lies in
  [0, 1] and every key rate is at least 0.
"""

from __future__ import annotations

import csv
import io
import json
import random

from decoyqkd import cli
from decoyqkd.cli import main

P = {"--mu": "0.3", "--mu-prime": "0.45"}
# Valid runs to start from; each draw adds a --format.
VALID = [
    ("bound", {**P, "--eta": "1e-3", "--s0": "1e-6", "--n": "1e10", "--qber": "0.02"}),
    ("bound", {**P, "--rates": "1e-6,1e-4,1.5e-4", "--n-mu": "1e9", "--n-mu-prime": "2e9"}),
    ("bound", {**P, "--scenario": "pns", "--q": "0.5", "--s0": "1e-6", "--qber": "0.01"}),
    ("simulate", {**P, "--eta": "1e-3", "--s0": "1e-6", "--n": "1e9", "--seed": "1"}),
    ("simulate", {**P, "--yields": "1e-3,2e-3", "--n": "1e6", "--n-vacuum": "1e6", "--seed": "2"}),
    ("table1", {}),
    ("sweep", {"--mu": "0.2,0.3", "--mu-prime": "0.45", "--eta": "1e-4,1e-3", "--n": "1e10",
               "--qber": "0.02"}),
    ("feasibility", {"--eta": "1e-3", "--s0": "1e-6"}),
]

# Edge text for any value: signed zeros, a subnormal, a weak intensity past
# the 1e-150 floor, non-finite and huge numbers, counts past 4300 digits,
# a near-diagonal strong intensity, and malformed text.
EDGE = ["0", "-0", "5e-324", "1e-170", "-1", "1e308", "inf", "-inf", "nan", "1e4300", "1e5000",
        "", "abc", "1,2", "0.30000000000000004", "1.5"]
EDGE_GRIDS = ["0:inf:0.1", "nan:1:0.1", "0.1:0.2:0", "0.3:0.2:0.1", "0:1:1e-7", "1e-170,0.3"]
EDGE_RATES = ["1e-6,1e-4", "0,0,0", "5e-324,1e-4,1.5e-4", "1e-6,nan,1", "1e-6,1e-4,inf",
              "1,1e-320,1e-320"]
# Practical text, by the parser of the key a flag sets.
PRACTICAL = {
    cli._as_float: ["0.1", "0.3", "0.45", "0.6", "1e-3", "1e-4", "1e-6", "0.02", "20"],
    cli._as_floats: ["0.1,0.2", "1e-3,2e-3,3e-3"],
    cli._as_count: ["1", "100000", "1e9", "1e10", "8e10"],
    cli.parse_grid: ["0.2:0.3:0.1", "0.45", "1e-4,1e-3", "0.3:0.5:0.05"],
}
PRACTICAL_TEXT = {
    ("output", "format"): ["table", "json", "csv"],
    ("output", "path"): ["", "out.txt", "nodir/out.txt"],
    ("scenario", "kind"): ["no_eve", "pns", "yields"],
}
# The practical and edge pools of the flags that do not set one key.
FLAG_POOLS = {
    "--seed": (["0", "1", "42", "1e3"], EDGE),
    "--rates": (["1e-6,1e-4,1.5e-4", "0,1e-4,1e-3", "1e-6,1e-4,0"], EDGE_RATES + EDGE),
}

# Reproductions of tracebacks and NaN output that hand-run batteries found,
# each drawn first: a subnormal s0, an --out into a missing directory, an
# intensity whose weights overflowed, grid ranges with inf and nan, seeds
# numpy or the echo refused, and rates whose dark-count credits overflowed.
PINNED = [
    (0, {"--s0": "5e-324"}),
    (1, {"--rates": "5e-324,1e-4,1.5e-4"}),
    (5, {"--out": "nodir/out.txt"}),
    (0, {"--mu": "1e-170"}),
    (6, {"--mu": "0:inf:0.1"}),
    (6, {"--eta": "nan:1:0.1"}),
    (3, {"--seed": "-1"}),
    (3, {"--seed": "1e5000"}),
    (1, {"--rates": "1,1e-320,1e-320"}),
]
DRAWS = 600
BOUNDED = {"delta_upper", "delta_prime_upper"}
RATE_KEYS = {"key_rate", "weak", "strong"}


def _value(rng: random.Random, command: str, flag: str) -> str:
    if flag in FLAG_POOLS:
        practical, edge = FLAG_POOLS[flag]
    else:
        (section, key), *_ = cli.COMMANDS[command][2][flag]
        parser = cli.CONFIG_KEYS[section][key]
        practical = PRACTICAL_TEXT.get((section, key)) or PRACTICAL[parser]
        edge = EDGE_GRIDS + EDGE if parser is cli.parse_grid else EDGE
    return rng.choice(practical if rng.random() < 0.7 else edge)


def _draws():
    rng = random.Random(21)
    drawn = [(VALID[base], changes) for base, changes in PINNED]
    while len(drawn) < DRAWS:
        command, flags = rng.choice(VALID)
        choices = [flag for flag in cli.COMMANDS[command][2] if flag != "--config"]
        changed = rng.sample(choices, min(rng.choice((1, 2)), len(choices)))
        drawn.append(((command, flags), {flag: _value(rng, command, flag) for flag in changed}))
    for (command, flags), changes in drawn:
        fmt = rng.choice(("table", "json", "csv"))
        as_config = "--config" in cli.COMMANDS[command][2] and rng.random() < 0.5
        yield command, {"--format": fmt, **flags, **changes}, as_config


def _argv(command: str, flags: dict[str, str], as_config: bool) -> list[str]:
    """The command line, with the keyed flags moved to run.ini if as_config."""
    table = cli.COMMANDS[command][2]
    sections: dict[str, dict[str, str]] = {}
    argv = [command]
    for flag in table:
        if flag not in flags:
            continue
        texts = [flags[flag]] * len(table[flag])
        if flag == "--rates":
            texts = [part for part in flags[flag].split(",") if part.strip()]
        if as_config and table[flag] and len(texts) == len(table[flag]):
            for (section, key), text in zip(table[flag], texts):
                sections.setdefault(section, {})[key] = text
        else:
            argv.append(f"{flag}={flags[flag]}")
    if sections:
        with open("run.ini", "w", encoding="utf-8") as fh:
            for section, entries in sections.items():
                fh.write(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in entries.items()))
        argv.append("--config=run.ini")
    return argv


def _reject(constant: str) -> None:
    raise ValueError(f"non-strict json constant {constant}")


def _check_ranges(name: str, value: object) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            _check_ranges(key, item)
    elif isinstance(value, list):
        for item in value:
            _check_ranges(name, item)
    elif name in BOUNDED and value is not None:
        assert 0.0 <= value <= 1.0, (name, value)
    elif name in RATE_KEYS and value is not None:
        assert value >= 0.0, (name, value)


def _check_output(fmt: str, text: str, results: bool) -> None:
    if fmt == "json":
        doc = json.loads(text, parse_constant=_reject)
        if results:
            _check_ranges("", doc)
    elif fmt == "csv":
        header, *rows = csv.reader(io.StringIO(text))
        for row in rows:
            assert len(row) == len(header), row
            if results:
                _check_ranges("", {name: float(cell) for name, cell in zip(header, row)
                                   if name in BOUNDED | RATE_KEYS and cell})


def test_every_drawn_input_ends_in_a_result_or_a_typed_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    results = 0
    for command, flags, as_config in _draws():
        argv = _argv(command, flags, as_config)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
            assert code == 2, argv
        out, err = capsys.readouterr()
        assert code in (0, 2, 3, 4, 5), argv
        if code == 2:
            reported = [line for line in err.splitlines() if not line.startswith("note: ")]
            assert out == "" and reported[0].startswith(("error: ", "usage: ")), (argv, err)
            continue
        path = tmp_path / flags.get("--out", "")
        if path.is_file():
            out = path.read_text(encoding="utf-8")
            path.unlink()
        if out:
            _check_output(flags["--format"], out, code in (0, 3))
        results += code in (0, 3)
    # Guards the draws: at least a third of them reach a bound and a renderer.
    assert results >= DRAWS // 3
