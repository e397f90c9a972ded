"""Command-line surface: bound verification, simulation, benchmarks, sweeps.

Every command is deterministic given its config (plus seed where sampling
is involved): no timestamps, no locale formatting.  Machine formats carry
full precision: CSV prints each float as %.17g, JSON as the shortest repr
that reads back to it, and both read back to the same float.  Human tables
carry 4 significant digits.
Exit codes: 0 ok, 2 config/parameter problem, 3 vacuous bound, 4 solver
used up its evaluation cap, 5 impractical feasibility verdict.
"""

from __future__ import annotations

import argparse
import functools
import gc
import math
import sys
from collections import Counter
from dataclasses import asdict, fields
from decimal import Decimal, InvalidOperation
from typing import Any, Callable, Collection, Iterator, Sequence

from .bounds import (
    BoundReport,
    ObservedRates,
    delta_prime_bound,
    hwang_bound,
    wang_asymptotic_bound,
)
from .channel import (
    ChannelScenario,
    NoEve,
    PnsAttack,
    YieldTable,
    expected_rates,
    sample_observation,
)
from .errors import ConfigError, ConvergenceError, DomainError, ParameterError
from .feasibility import WeakDecoySetup, build_report
from .finite_stats import FluctuationSettings, PulseBudget, finite_bound
from .key_rate import KeyRateInput, gllp_rate
from .photon_stats import MIN_SEPARATION, ProtocolParams, decompose, validate_pair

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VACUOUS = 3
EXIT_NO_CONVERGENCE = 4
EXIT_IMPRACTICAL = 5

# Most points a start:stop:step grid range may hold, and most rows a sweep may run.
MAX_GRID_POINTS = 10**6

SWEEP_COLUMNS = (
    "mu",
    "mu_prime",
    "eta",
    "n_pulses",
    "s0",
    "delta_upper",
    "delta_prime_upper",
    "s1_lower",
    "key_rate",
    "clamped",
    "vacuous",
)


# ---------------------------------------------------------------------------
# config values: parsers, the key table, and the one input map of a run


def _as_float(raw: str, where: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{where}: expected a number, got {raw!r}") from None


def _as_floats(raw: str, where: str) -> tuple[float, ...]:
    return tuple(_as_float(token, where) for token in raw.split(",") if token.strip())


def _as_count(raw: str, where: str) -> int:
    # Accept scientific notation for large pulse counts without a float
    # detour that would lose integer exactness.
    try:
        value = Decimal(raw)
    except InvalidOperation:
        raise ConfigError(f"{where}: expected an integer, got {raw!r}") from None
    if not value.is_finite():
        raise ConfigError(f"{where}: expected a finite integer, got {raw!r}")
    if value != value.to_integral_value():
        raise ConfigError(f"{where}: expected an integer, got {raw!r}")
    # Python prints an int of at most 4300 digits by default, and building
    # 10**1000000 alone takes about 40 s.
    if value.adjusted() >= 4300:
        raise ConfigError(f"{where}: expected an integer of at most 4300 digits, got {raw!r}")
    return int(value)


def _as_text(raw: str, where: str) -> str:
    return raw


def parse_grid(text: str, where: str) -> list[float]:
    """Grid syntax: 'start:stop:step' (inclusive) or a comma list or one value.

    Range point k is start + k step, summed exactly in the decimals that start
    and step print as and rounded to a float once; no point passes stop.  No
    two points may be the same float, as from a step below the float spacing
    of its points or a value listed twice.
    """
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"{where}: grid ranges use start:stop:step, got {text!r}")
        start, stop, step = (_as_float(p, where) for p in parts)
        if not all(map(math.isfinite, (start, stop, step))):
            raise ConfigError(f"{where}: grid start, stop and step must be finite, got {text!r}")
        if step <= 0:
            raise ConfigError(f"{where}: grid step must be positive, got {step}")
        if stop < start:
            raise ConfigError(f"{where}: grid stop {stop} is below start {start}")
        # Each of start, stop and step as the int n with n / 10**shift exactly the
        # decimal its repr prints; int / int rounds each point once, correctly.
        scaled = []
        for x in (start, stop, step):
            mantissa, _, exponent = repr(x).partition("e")
            whole, _, fraction = mantissa.partition(".")
            scaled.append((int(whole + fraction), int(exponent or 0) - len(fraction)))
        shift = max(0, *(-e for _, e in scaled))
        first, last, increment = (n * 10 ** (e + shift) for n, e in scaled)
        count = (last - first) // increment + 1
        if count > MAX_GRID_POINTS:
            raise ConfigError(f"{where}: grid {text!r} has more than {MAX_GRID_POINTS} points")
        scale = 10**shift
        values = [n / scale for n in range(first, last + 1, increment)]
    else:
        values = list(_as_floats(text, where))
        if not values:
            raise ConfigError(f"{where}: empty grid")
    if len(set(values)) < len(values):
        # Equal points of one sign are one float; 0.0 and -0.0 are two.
        counts = Counter((v, math.copysign(1.0, v)) for v in values)
        repeated = [v for v, sign in counts if counts[v, sign] > 1]
        if repeated:
            raise ConfigError(f"{where}: grid {text!r} holds {repeated[0]!r} more than once")
    return values


# Section -> key -> parser of its text; anything else in a config file is an
# error.  Text given on the command line goes through the same parser.
CONFIG_KEYS: dict[str, dict[str, Callable[[str, str], Any]]] = {
    "params": {"mu": _as_float, "mu_prime": _as_float},
    "scenario": {
        "kind": _as_text,
        "eta": _as_float,
        "s0": _as_float,
        "q": _as_float,
        "yields": _as_floats,
    },
    "rates": {"s0": _as_float, "s_mu": _as_float, "s_mu_prime": _as_float},
    "budget": {"n_mu": _as_count, "n_mu_prime": _as_count, "n_vacuum": _as_count},
    "fluctuation": {"confidence_exponent": _as_float},
    "key": {"qber": _as_float},
    "sweep": {
        "mu": parse_grid,
        "mu_prime": parse_grid,
        "eta": parse_grid,
        "n_pulses": _as_count,
        "s0": _as_float,
        "qber": _as_float,
    },
    "output": {"format": _as_text, "path": _as_text},
    "feasibility": {
        key: _as_float
        for key in ("eta", "s0", "mu_v", "rep_rate", "confidence_exponent", "target")
    },
}

# Section -> key -> value of one run: the config file's values, overlaid by
# each given flag's values.  Each text is parsed where it enters, so a
# malformed one fails even if another layer overrides it.  Handlers read their
# inputs from this map alone; a key left unset keeps its library default.
Inputs = dict[str, dict[str, Any]]


def load_config(path: str, sections: Collection[str]) -> Inputs:
    """The values of the config file's sections named in sections.

    Every section and key must be known, but values are parsed only in the
    named sections; the others are left out.
    """
    # Imported here, like json in _render, so runs without --config never load it.
    import configparser

    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except configparser.Error as exc:
        # configparser reports offending line numbers in its message.
        raise ConfigError(f"config file {path} is malformed: {exc}") from None
    inputs: Inputs = {}
    for section in parser.sections():
        if section not in CONFIG_KEYS:
            raise ConfigError(f"{path}: unknown config section [{section}]")
        values = {}
        for key, text in parser.items(section):
            if key not in CONFIG_KEYS[section]:
                raise ConfigError(f"{path}: unknown key '{key}' in section [{section}]")
            if section in sections:
                values[key] = CONFIG_KEYS[section][key](text, f"[{section}] {key}")
        if section in sections:
            inputs[section] = values
    return inputs


def _resolve_params(inputs: Inputs) -> ProtocolParams:
    values = inputs.get("params", {})
    if len(values) < 2:
        raise ConfigError("mu and mu_prime are required (flags or [params] section)")
    return ProtocolParams(**values)


# Each channel scenario kind: its class and the input it reads besides s0.
# A kind left unset is inferred from the first of these inputs given.
SCENARIOS: dict[str, tuple[type, str]] = {
    "no_eve": (NoEve, "eta"),
    "pns": (PnsAttack, "q"),
    "yields": (YieldTable, "yields"),
}


def _build_scenario(inputs: Inputs) -> tuple[ChannelScenario, dict[str, Any]]:
    values = dict(inputs.get("scenario", {}))
    kind = values.pop("kind", None)
    given = [key for _, key in SCENARIOS.values() if key in values]
    if kind is None:
        kind = next((kind for kind, (_, key) in SCENARIOS.items() if key in given), None)
        if kind is None:
            raise ConfigError("scenario kind cannot be determined; set [scenario] kind")
    if kind not in SCENARIOS:
        *others, last = SCENARIOS
        raise ConfigError(
            f"unknown scenario kind {kind!r} (expected {', '.join(others)}, or {last})"
        )
    cls, key = SCENARIOS[kind]
    for unused in given:
        if unused != key:
            raise ConfigError(f"{kind} scenario does not use {unused}")
    if key not in given:
        needed = key if CONFIG_KEYS["scenario"][key] is _as_float else f"a {key} list"
        raise ConfigError(f"{kind} scenario requires {needed}")
    scenario = cls(**{"s0": 0.0, **values})
    return scenario, {"kind": kind, **asdict(scenario)}


def _resolve_rate_source(
    args: argparse.Namespace, inputs: Inputs, params: ProtocolParams
) -> tuple[ObservedRates, dict[str, Any] | None]:
    """Direct rates, or a scenario's rates and echo; a run may give only one."""
    rates, scenario = inputs.get("rates"), inputs.get("scenario")
    # Each source is named by its flags if any of them was given.
    direct = "--rates" if args.rates is not None else "[rates]"
    if rates is not None and scenario is not None:
        _, _, flags = COMMANDS[args.command]
        flagged = any(
            section == "scenario" and _flag_text(args, flag) is not None
            for flag, keys in flags.items()
            for section, _ in keys
        )
        modelled = "scenario flags" if flagged else "[scenario]"
        if (direct, modelled) == ("[rates]", "[scenario]"):
            raise ConfigError("config supplies both [rates] and [scenario]; keep exactly one")
        raise ConfigError(f"supply either {direct} or {modelled}, not both")
    if rates is not None:
        missing = set(CONFIG_KEYS["rates"]) - set(rates)
        if missing:
            raise ConfigError(f"[rates] section is missing {sorted(missing)}")
        observed = ObservedRates(**rates)
        coeffs = decompose(params)
        vacuum = coeffs.p0_mu * observed.s0
        if observed.s_mu < vacuum:
            raise ConfigError(
                f"{direct}: S_mu {observed.s_mu} is below its vacuum part e^{{-mu}} s0 = {vacuum},"
                " which no photon-number yields produce"
            )
        # A class clicks at most as often as yields of 1 above the vacuum make it:
        # 1 - e^{-x} (1 - s0), which is exactly 1 at s0 = 1.
        for label, intensity, rate, p0 in (
            ("S_mu", "mu", observed.s_mu, coeffs.p0_mu),
            ("S_mu'", "mu'", observed.s_mu_prime, coeffs.p0_mu_prime),
        ):
            ceiling = 1.0 - p0 * (1.0 - observed.s0)
            if rate > ceiling:
                raise ConfigError(
                    f"{direct}: {label} {rate} is above its yield ceiling"
                    f" 1 - e^{{-{intensity}}} (1 - s0) = {ceiling},"
                    " which no photon-number yields reach"
                )
        return observed, None
    if scenario is not None:
        built, echo = _build_scenario(inputs)
        return expected_rates(built, params), echo
    raise ConfigError("no rate source: supply a scenario, direct rates, or a [rates] section")


def _resolve_budget(inputs: Inputs) -> PulseBudget | None:
    counts = inputs.get("budget", {})
    signal = {"n_mu", "n_mu_prime"} & counts.keys()
    if len(signal) == 1:
        raise ConfigError("a pulse budget needs both n_mu and n_mu_prime (or --n)")
    return PulseBudget(**counts) if signal else None


def _resolve_output(inputs: Inputs) -> tuple[str, str | None]:
    output = inputs.get("output", {})
    fmt = output.get("format", "table")
    if fmt not in ("table", "json", "csv"):
        raise ConfigError(f"unknown output format {fmt!r} (expected table, json, or csv)")
    return fmt, output.get("path")


# ---------------------------------------------------------------------------
# rendering


def _fmt_text(value: Any) -> str:
    # csv's minimal quoting, which only free text can need.
    text = str(value)
    if any(ch in text for ch in ',"\n\r'):
        return '"' + text.replace('"', '""') + '"'
    return text


# How a csv float looks; sweep's row template uses it too.
_CSV_FLOAT = "%.17g"

# Machine formats by exact cell type.
_FMT_MACHINE: dict[type, Callable[[Any], str]] = {
    bool: {True: "true", False: "false"}.__getitem__,
    float: _CSV_FLOAT.__mod__,
    type(None): lambda value: "",
    int: str,
}


def _fmt_human(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".4g")
    if value is None:
        return "-"
    if isinstance(value, dict):
        kind = value.get("kind", "")
        body = ", ".join(f"{k}={_fmt_human(v)}" for k, v in value.items() if k != "kind")
        return f"{kind}({body})"
    if isinstance(value, (list, tuple)):
        return ",".join(_fmt_human(v) for v in value)
    return str(value)


def _fmt_pct(value: float) -> str:
    return format(100.0 * value, ".4g") + "%"


def _fmt_cell(value: Any) -> str:
    """One csv cell, formatted by the value's exact type."""
    return _FMT_MACHINE.get(type(value), _fmt_text)(value)


_PERCENT_FIELDS = {"delta_upper", "delta_prime_upper"}


def _table_lines(sections: dict[str, dict[str, Any]], prefix: str = "") -> list[str]:
    """One '== title ==' block of aligned name/value lines per section.

    A section whose values are all sections nests: its title prefixes theirs.
    """
    lines: list[str] = []
    for title, body in sections.items():
        if all(isinstance(value, dict) for value in body.values()):
            lines += _table_lines(body, f"{prefix}{title} ")
            continue
        lines.append(f"== {prefix}{title} ==")
        width = max(map(len, body), default=0)
        for name, value in body.items():
            if name in _PERCENT_FIELDS and isinstance(value, float):
                rendered = _fmt_pct(value)
            else:
                rendered = _fmt_human(value)
            lines.append(f"{name.ljust(width)}  {rendered}")
    return lines


def _csv_lines(records: Sequence[dict[str, Any]]) -> list[str]:
    """The header of the first record's keys, then one line per record in that key order."""
    lines = [",".join(map(_fmt_text, records[0]))]
    lines += (",".join(map(_fmt_cell, record.values())) for record in records)
    return lines


def _render(
    fmt: str,
    out: str | None,
    csv: Callable[[], list[str]],
    doc: Callable[[], Any],
    table: Callable[[], list[str]],
) -> None:
    """Write a command's output as fmt to the file out, or to stdout.

    csv and table give the output's lines, doc the value that json dumps.
    Only the requested format is built.
    """
    if fmt == "json":
        import json

        lines = [json.dumps(doc(), indent=2)]
    else:
        lines = {"csv": csv, "table": table}[fmt]()
    text = "\n".join(lines) + "\n"
    if out:
        try:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output file {out}: {exc}") from None
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# command handlers


def _report_dict(
    report: BoundReport, rates: ObservedRates, params: ProtocolParams
) -> dict[str, Any]:
    return {
        "method": report.method,
        "delta_upper": report.delta_upper,
        "delta_prime_upper": delta_prime_bound(report.delta_upper, rates, params),
        "s1_lower": report.s1_lower,
        "sc_upper": report.sc_upper,
        "clamped": report.clamped,
        "vacuous": report.vacuous,
    }


def _bound_pipeline(
    rates: ObservedRates,
    params: ProtocolParams,
    budget: PulseBudget | None,
    settings: FluctuationSettings,
    qber: float | None,
) -> tuple[dict[str, Any], BoundReport]:
    sections = {"hwang": _report_dict(hwang_bound(rates, params), rates, params)}
    final = wang_asymptotic_bound(rates, params)
    sections["asymptotic"] = last = _report_dict(final, rates, params)
    if budget is not None:
        final = finite_bound(rates, params, budget, settings)
        sections["finite"] = last = _report_dict(final, rates, params)
    if qber is not None:
        sections["key_rate"] = {
            "qber": qber,
            "weak": gllp_rate(KeyRateInput(delta=final.delta_upper, qber=qber)),
            "strong": gllp_rate(KeyRateInput(delta=last["delta_prime_upper"], qber=qber)),
        }
    return sections, final


def _method_records(sections: dict[str, Any]) -> list[dict[str, Any]]:
    """The per-bound sections of a _bound_pipeline result, in order."""
    return [body for name, body in sections.items() if name != "key_rate"]


def cmd_bound(args: argparse.Namespace, inputs: Inputs) -> int:
    params = _resolve_params(inputs)
    rates, scenario_echo = _resolve_rate_source(args, inputs, params)
    budget = _resolve_budget(inputs)
    settings = FluctuationSettings(**inputs.get("fluctuation", {}))
    qber = inputs.get("key", {}).get("qber")
    fmt, out = _resolve_output(inputs)

    sections, final = _bound_pipeline(rates, params, budget, settings, qber)
    no_budget = dict.fromkeys(field.name for field in fields(PulseBudget))
    inputs = {
        **asdict(params),
        **asdict(rates),
        "scenario": scenario_echo,
        **(asdict(budget) if budget is not None else no_budget),
        **asdict(settings),
        "qber": qber,
    }
    degenerate = rates.s_mu_prime == 0.0

    def table() -> list[str]:
        lines = _table_lines({"inputs": inputs})
        if degenerate:
            lines.append("note: strong class observed zero counts (degenerate input)")
        return lines + _table_lines(sections)

    records = _method_records(sections)
    _render(
        fmt,
        out,
        lambda: _csv_lines(records),
        lambda: {"inputs": inputs, "degenerate_strong_class": degenerate, **sections},
        table,
    )
    return EXIT_VACUOUS if final.vacuous else EXIT_OK


def cmd_simulate(args: argparse.Namespace, inputs: Inputs) -> int:
    if "rates" in inputs:
        raise ConfigError("simulate draws from a scenario; direct rates are not samplable")
    params = _resolve_params(inputs)
    scenario, scenario_echo = _build_scenario(inputs)
    budget = _resolve_budget(inputs)
    if budget is None:
        raise ConfigError("simulate requires a pulse budget (--n or [budget] section)")
    if args.seed is None:
        raise ConfigError("simulate requires --seed for reproducible sampling")
    seed = _as_count(args.seed, "--seed")
    settings = FluctuationSettings(**inputs.get("fluctuation", {}))
    qber = inputs.get("key", {}).get("qber")
    fmt, out = _resolve_output(inputs)

    observation = sample_observation(scenario, params, budget, seed)
    exact = expected_rates(scenario, params)
    expected_sections, _ = _bound_pipeline(exact, params, budget, settings, qber)
    sampled_sections, sampled_final = _bound_pipeline(
        observation.rates, params, budget, settings, qber
    )

    doc: dict[str, Any] = {
        "inputs": {
            **asdict(params),
            "scenario": scenario_echo,
            **asdict(budget),
            "seed": seed,
            **asdict(settings),
            "qber": qber,
        },
        "observation": {
            "clicks_mu": observation.clicks_mu,
            "clicks_mu_prime": observation.clicks_mu_prime,
            "clicks_vacuum": observation.clicks_vacuum,
            **asdict(observation.rates),
        },
        "expected_rates": asdict(exact),
        "expected": expected_sections,
        "sampled": sampled_sections,
    }
    records = [
        {"source": source, **record}
        for source in ("expected", "sampled")
        for record in _method_records(doc[source])
    ]
    _render(
        fmt,
        out,
        lambda: _csv_lines(records),
        lambda: doc,
        lambda: _table_lines(doc),
    )
    return EXIT_VACUOUS if sampled_final.vacuous else EXIT_OK


def cmd_table1(args: argparse.Namespace, inputs: Inputs) -> int:
    # Imported here, like batch in cmd_sweep, so other commands never load it.
    from .table1 import rows

    fmt, out = _resolve_output(inputs)
    all_rows = rows()
    records = [{**asdict(row), "deviation": row.deviation} for row in all_rows]

    def table() -> list[str]:
        lines = ["quantity         intensity  partner  computed  reference  deviation"]
        for row in all_rows:
            lines.append(
                f"{row.quantity:<16} {row.intensity:<10.4g} "
                f"{(format(row.partner, '.4g') if row.partner is not None else '-'):<8} "
                f"{_fmt_pct(row.computed):>9} {_fmt_pct(row.reference):>10} "
                f"{100.0 * row.deviation:>+8.2f}pp"
            )
        return lines

    _render(fmt, out, lambda: _csv_lines(records), lambda: records, table)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace, inputs: Inputs) -> int:
    """Bound every admissible (mu, mu_prime, eta) grid row on a NoEve channel.

    Rows come from the lane-parallel engine in batch.py, which matches the
    scalar functions bit for bit: finite_bound with --n pulses per signal
    class (wang_asymptotic_bound without), then delta_prime_bound and, with
    --qber, gllp_rate.  Exit 3 when every row is vacuous.
    """
    from . import batch

    given = inputs.get("sweep", {})
    mu_grid, mu_prime_grid, eta_grid = given.get("mu"), given.get("mu_prime"), given.get("eta")
    if not mu_grid or not mu_prime_grid or not eta_grid:
        raise ConfigError("sweep needs mu, mu_prime, and eta grids")
    s0, n_pulses, qber = given.get("s0", 1e-6), given.get("n_pulses"), given.get("qber")
    settings = FluctuationSettings(**inputs.get("fluctuation", {}))
    fmt, out = _resolve_output(inputs)

    size = len(mu_grid) * len(mu_prime_grid) * len(eta_grid)
    if size > MAX_GRID_POINTS:
        raise ConfigError(f"sweep grid has {size} rows, more than {MAX_GRID_POINTS}")
    mu, mu_prime = batch.Weights.of(mu_grid), batch.Weights.of(mu_prime_grid)
    # validate_pair's tests on its own per-value floats.  A value it refuses
    # whatever the partner has nan weights, which fail both; mu' > mu needs no
    # test, as the floor mu (1 + MIN_SEPARATION) exceeds mu.  validate_pair
    # itself runs only for a rejected pair's note.
    floor = mu.x * (1.0 + MIN_SEPARATION)
    admitted = (mu_prime.x >= floor[:, None]) & (mu_prime.p1 > mu.p1[:, None])
    notes = [
        f"note: skipping inadmissible pair mu={mu_grid[a]}, mu_prime={mu_prime_grid[b]}: "
        f"{validate_pair(mu_grid[a], mu_prime_grid[b]).reason}\n"
        for a, b in zip(*(index.tolist() for index in (~admitted).nonzero()))
    ]
    sys.stderr.write("".join(notes))
    pairs = admitted.nonzero()
    if not pairs[0].size:
        raise ConfigError("sweep grid contains no admissible (mu, mu_prime) pairs")

    report, delta_prime, key_rate = batch.sweep(
        mu, mu_prime, pairs, eta_grid, s0, n_pulses, settings, qber
    )
    i, j = (index.tolist() for index in pairs)

    def csv() -> list[str]:
        # Each grid value and each eta is formatted once, and joined into the
        # prefix of its rows; the computed cells of a row fill one template.
        mu_cells = [f"{_CSV_FLOAT}," % value for value in mu_grid]
        mu_prime_cells = [f"{_CSV_FLOAT}," % value for value in mu_prime_grid]
        heads = [mu_cells[a] + mu_prime_cells[b] for a, b in zip(i, j)]
        tails = [f"{_fmt_cell(eta)},{_fmt_cell(n_pulses)},{_fmt_cell(s0)}," for eta in eta_grid]
        computed = [report.delta_upper, delta_prime, report.s1_lower]
        key_cell = ""
        if key_rate is not None:
            computed.append(key_rate)
            key_cell = _CSV_FLOAT
        template = f"%s{_CSV_FLOAT},{_CSV_FLOAT},{_CSV_FLOAT},{key_cell},%s,%s"
        flag = _FMT_MACHINE[bool]
        cells = zip(
            [head + tail for head in heads for tail in tails],
            *(column.tolist() for column in computed),
            map(flag, report.clamped.tolist()),
            map(flag, report.vacuous.tolist()),
        )
        return [",".join(SWEEP_COLUMNS), *map(template.__mod__, cells)]

    def records() -> Iterator[tuple[Any, ...]]:
        count = len(i) * len(eta_grid)
        return zip(
            [mu_grid[a] for a in i for _ in eta_grid],
            [mu_prime_grid[b] for b in j for _ in eta_grid],
            eta_grid * len(i),
            [n_pulses] * count,
            [s0] * count,
            report.delta_upper.tolist(),
            delta_prime.tolist(),
            report.s1_lower.tolist(),
            [None] * count if key_rate is None else key_rate.tolist(),
            report.clamped.tolist(),
            report.vacuous.tolist(),
        )

    _render(
        fmt,
        out,
        csv,
        lambda: [dict(zip(SWEEP_COLUMNS, record)) for record in records()],
        lambda: [
            "  ".join(SWEEP_COLUMNS),
            *("  ".join(map(_fmt_human, record)) for record in records()),
        ],
    )
    return EXIT_VACUOUS if report.vacuous.all() else EXIT_OK


def cmd_feasibility(args: argparse.Namespace, inputs: Inputs) -> int:
    given = {"eta": 1e-4, "s0": 1e-6, **inputs.get("feasibility", {})}
    target = {"rel_dark_fluct_target": given.pop("target")} if "target" in given else {}
    setup = WeakDecoySetup(**{"mu_v": given["eta"], **given})
    report = build_report(setup, **target)
    fmt, out = _resolve_output(inputs)

    # The report's fields in order, with its time as acquisition_seconds and _days.
    verdict: dict[str, Any] = {}
    for key, value in asdict(report).items():
        if key == "time":
            verdict |= {f"acquisition_{unit}": part for unit, part in value.items()}
        else:
            verdict[key] = value
    setup_echo = asdict(setup)
    record = {**setup_echo, **verdict}
    _render(
        fmt,
        out,
        lambda: _csv_lines([record]),
        lambda: {"setup": setup_echo, **verdict},
        lambda: _table_lines({"setup": setup_echo, "verdict": verdict}),
    )
    return EXIT_OK if report.practical else EXIT_IMPRACTICAL


# ---------------------------------------------------------------------------
# parser assembly


# Each flag's (section, key) pairs: its text sets every one of them, or with
# --rates, one comma-separated value each.  --config and --seed set none.
Flags = dict[str, tuple[tuple[str, str], ...]]


def _keys(section: str, *keys: str) -> Flags:
    return {"--" + key.replace("_", "-"): ((section, key),) for key in keys}


_OUTPUT_FLAGS = {"--format": (("output", "format"),), "--out": (("output", "path"),)}
_COMMON_FLAGS = {"--config": (), **_OUTPUT_FLAGS}
_MODEL_FLAGS = {
    **_keys("params", "mu", "mu_prime"),
    "--scenario": (("scenario", "kind"),),
    **_keys("scenario", "eta", "s0", "q", "yields"),
    # Before --n-mu and --n-mu-prime, which overlay it.
    "--n": (("budget", "n_mu"), ("budget", "n_mu_prime")),
    **_keys("budget", "n_mu", "n_mu_prime", "n_vacuum"),
    **_keys("key", "qber"),
    **_keys("fluctuation", "confidence_exponent"),
}

# Each command's help line, handler, and flags in help order.  Flags overlay
# the config in this order; the handler reads the keys they set.
COMMANDS: dict[str, tuple[str, Callable[[argparse.Namespace, Inputs], int], Flags]] = {
    "bound": ("bound the tagged fraction from counting rates", cmd_bound,
              {**_COMMON_FLAGS, **_MODEL_FLAGS,
               "--rates": tuple(("rates", key) for key in CONFIG_KEYS["rates"])}),
    "simulate": ("sample an observation and bound it", cmd_simulate,
                 {**_COMMON_FLAGS, "--seed": (), **_MODEL_FLAGS}),
    "table1": ("benchmark grid with frozen references", cmd_table1, _OUTPUT_FLAGS),
    "sweep": ("grid sweep over (mu, mu_prime, eta)", cmd_sweep,
              {**_COMMON_FLAGS, **_keys("sweep", "mu", "mu_prime", "eta", "s0"),
               "--n": (("sweep", "n_pulses"),), **_keys("sweep", "qber"),
               **_keys("fluctuation", "confidence_exponent")}),
    "feasibility": ("very-weak-decoy pulse-count verdict", cmd_feasibility,
                    {**_COMMON_FLAGS, **_keys("feasibility", "eta", "s0", "mu_v", "rep_rate",
                                                "confidence_exponent", "target")}),
}

# Help text and metavar of the flags that have them; "command --flag" wins over "--flag".
_GRID = {"metavar": "GRID"}
FLAG_HELP: dict[str, dict[str, str]] = {
    "--config": {"metavar": "PATH"},
    "--format": {"metavar": "{table,json,csv}"},
    "--out": {"metavar": "PATH"},
    "--scenario": {"metavar": "{" + ",".join(SCENARIOS) + "}"},
    "--yields": {"metavar": "S1,S2,..."},
    "--n": {"help": "pulses per signal class (sets both)"},
    "--rates": {"metavar": "S0,SMU,SMUP", "help": "direct observed rates"},
    "sweep --mu": _GRID,
    "sweep --mu-prime": _GRID,
    "sweep --eta": _GRID,
    "sweep --n": {},
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process; parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="decoyqkd",
        description="Verified multi-photon bounds for two-intensity decoy protocols",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, handler, flags) in COMMANDS.items():
        command = sub.add_parser(name, help=summary)
        for flag in flags:
            command.add_argument(flag, **FLAG_HELP.get(f"{name} {flag}", FLAG_HELP.get(flag, {})))
        command.set_defaults(handler=handler)
    return parser


def _flag_text(args: argparse.Namespace, flag: str) -> str | None:
    """The text given for flag, or None."""
    return getattr(args, flag[2:].replace("-", "_"))


def _inputs(args: argparse.Namespace) -> Inputs:
    """The config's values, then each given flag's values over the keys it sets.

    The config's sections are parsed where the command reads them: those its
    flags set, and [rates], which simulate reads to refuse it.
    """
    _, _, flags = COMMANDS[args.command]
    inputs: Inputs = {}
    if getattr(args, "config", None):
        sections = {section for keys in flags.values() for section, _ in keys}
        inputs = load_config(args.config, sections | {"rates"})
    for flag, keys in flags.items():
        text = _flag_text(args, flag)
        if text is None:
            continue
        texts = [text] * len(keys)
        if flag == "--rates":
            texts = [part for part in text.split(",") if part.strip()]
            if len(texts) != 3:
                raise ConfigError("--rates expects three values: s0,s_mu,s_mu_prime")
        for (section, key), part in zip(keys, texts):
            inputs.setdefault(section, {})[key] = CONFIG_KEYS[section][key](part, flag)
    return inputs


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args, _inputs(args))
    except (ConfigError, ParameterError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


def launch() -> None:
    """Run ``main`` as the process's one command, then exit with its code.

    The ``decoyqkd`` script and ``python -m decoyqkd.cli`` start here.  The
    heap is frozen before the interpreter exits, so the collections at exit
    skip what the operating system frees anyway; the normal exit still
    flushes stdout and stderr and runs ``atexit`` handlers.  ``main`` does
    not freeze: in-process callers repeat it, and frozen objects are never
    collected.
    """
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    launch()
