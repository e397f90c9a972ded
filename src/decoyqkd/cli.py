"""Command-line surface: bound verification, simulation, benchmarks, sweeps.

Every command is deterministic given its config (plus seed where sampling
is involved): no timestamps, no locale formatting, machine formats carry
full precision (17 significant digits), human tables 4 significant digits.
Exit codes: 0 ok, 2 config/parameter problem, 3 vacuous bound, 4 solver
used up its evaluation cap, 5 impractical feasibility verdict.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import json
import math
import sys
from dataclasses import asdict, fields
from decimal import Decimal, InvalidOperation
from typing import Any, Callable, Iterable, Sequence

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
from .photon_stats import ProtocolParams, validate_pair

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
# config values: parsers, the key table, and the flag > config > default lookup


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
    return int(value)


def _as_bool(raw: str, where: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{where}: expected a boolean, got {raw!r}")


def _as_text(raw: str, where: str) -> str:
    return raw


def parse_grid(text: str, where: str) -> list[float]:
    """Grid syntax: 'start:stop:step' (inclusive) or a comma list or one value."""
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
        steps = (stop - start) / step
        if math.isinf(steps) or round(steps) + 1 > MAX_GRID_POINTS:
            raise ConfigError(f"{where}: grid {text!r} has more than {MAX_GRID_POINTS} points")
        values = [round(start + k * step, 12) for k in range(round(steps) + 1)]
        return [v for v in values if v <= stop + 1e-12]
    values = list(_as_floats(text, where))
    if not values:
        raise ConfigError(f"{where}: empty grid")
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
    "fluctuation": {
        "confidence_exponent": _as_float,
        "min_over_classes": _as_bool,
    },
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

Config = dict[str, dict[str, str]]


def load_config(path: str) -> Config:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except configparser.Error as exc:
        # configparser reports offending line numbers in its message.
        raise ConfigError(f"config file {path} is malformed: {exc}") from None
    data = {section: dict(parser.items(section)) for section in parser.sections()}
    for section, entries in data.items():
        if section not in CONFIG_KEYS:
            raise ConfigError(f"{path}: unknown config section [{section}]")
        for key in entries:
            if key not in CONFIG_KEYS[section]:
                raise ConfigError(f"{path}: unknown key '{key}' in section [{section}]")
    return data


def _setting(
    args: argparse.Namespace | None,
    config: Config,
    section: str,
    key: str,
    default: Any = None,
    flag: str | None = None,
) -> Any:
    """The flag ``flag`` (default: ``key``), else ``[section] key``, else default.

    Flags that argparse has already typed are taken as they are; text is
    parsed by the key's CONFIG_KEYS parser.  ``args=None`` reads the config only.
    """
    value = getattr(args, flag or key, None)
    if value is None:
        value = config.get(section, {}).get(key)
    if value is None:
        return default
    if isinstance(value, str):
        return CONFIG_KEYS[section][key](value, f"[{section}] {key}")
    return value


def _given(
    args: argparse.Namespace, config: Config, section: str, keys: Iterable[str] = ()
) -> dict[str, Any]:
    """The set keys (default: all of section), parsed; unset ones keep library defaults."""
    values = {key: _setting(args, config, section, key) for key in keys or CONFIG_KEYS[section]}
    return {key: value for key, value in values.items() if value is not None}


def _resolve_params(args: argparse.Namespace, config: Config) -> ProtocolParams:
    values = _given(args, config, "params")
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


def _scenario_inputs_given(args: argparse.Namespace, config: Config) -> list[str]:
    return [
        key
        for _, key in SCENARIOS.values()
        if getattr(args, key, None) is not None or key in config.get("scenario", {})
    ]


def _build_scenario(
    args: argparse.Namespace, config: Config
) -> tuple[ChannelScenario, dict[str, Any]]:
    kind = _setting(args, config, "scenario", "kind", flag="scenario")
    # Numbers parse up front, in CONFIG_KEYS order; a list only once it is read.
    parsers = CONFIG_KEYS["scenario"]
    numbers = _given(args, config, "scenario", [k for k in parsers if parsers[k] is _as_float])
    given = _scenario_inputs_given(args, config)
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
        needed = key if parsers[key] is _as_float else f"a {key} list"
        raise ConfigError(f"{kind} scenario requires {needed}")
    scenario = cls(**{"s0": 0.0, **numbers, key: _setting(args, config, "scenario", key)})
    return scenario, {"kind": kind, **asdict(scenario)}


def _read_rates(source: str | dict[str, str]) -> ObservedRates:
    """Direct rates from the --rates text or the [rates] config section."""
    if isinstance(source, str):
        parts = [p for p in source.split(",") if p.strip()]
        if len(parts) != 3:
            raise ConfigError("--rates expects three values: s0,s_mu,s_mu_prime")
        return ObservedRates(*(_as_float(p, "--rates") for p in parts))
    keys = CONFIG_KEYS["rates"]
    missing = set(keys) - set(source)
    if missing:
        raise ConfigError(f"[rates] section is missing {sorted(missing)}")
    return ObservedRates(**{key: _as_float(source[key], f"[rates] {key}") for key in keys})


def _resolve_rate_source(
    args: argparse.Namespace, config: Config, params: ProtocolParams
) -> tuple[ObservedRates, dict[str, Any] | None]:
    """Direct rates, or a scenario's rates and echo; the flags decide, else the config."""
    for rates, scenario, conflict in (
        (
            args.rates,
            args.scenario is not None or _scenario_inputs_given(args, {}),
            "supply either --rates or scenario flags, not both",
        ),
        (
            config.get("rates"),
            "scenario" in config,
            "config supplies both [rates] and [scenario]; keep exactly one",
        ),
    ):
        if rates is not None and scenario:
            raise ConfigError(conflict)
        if rates is not None:
            return _read_rates(rates), None
        if scenario:
            built, echo = _build_scenario(args, config)
            return expected_rates(built, params), echo
    raise ConfigError("no rate source: supply a scenario, direct rates, or a [rates] section")


def _resolve_budget(args: argparse.Namespace, config: Config) -> PulseBudget | None:
    counts = _given(args, config, "budget")
    if args.n is not None:
        counts = {"n_mu": args.n, "n_mu_prime": args.n, **counts}
    signal = {"n_mu", "n_mu_prime"} & counts.keys()
    if len(signal) == 1:
        raise ConfigError("a pulse budget needs both n_mu and n_mu_prime (or --n)")
    return PulseBudget(**counts) if signal else None


def _resolve_output(args: argparse.Namespace, config: Config) -> tuple[str, str | None]:
    fmt = _setting(args, config, "output", "format", "table", flag="fmt")
    if fmt not in ("table", "json", "csv"):
        raise ConfigError(f"unknown output format {fmt!r} (expected table, json, or csv)")
    return fmt, args.out or _setting(None, config, "output", "path")


# ---------------------------------------------------------------------------
# rendering


def _fmt_text(value: Any) -> str:
    # csv's minimal quoting, which only free text can need.
    text = str(value)
    if any(ch in text for ch in ',"\n\r'):
        return '"' + text.replace('"', '""') + '"'
    return text


# Machine formats by exact cell type; a column of one type picks its
# formatter once instead of testing every cell.
_FMT_MACHINE: dict[type, Callable[[Any], str]] = {
    bool: {True: "true", False: "false"}.__getitem__,
    float: lambda value: format(value, ".17g"),
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


def _fmt_column(column: Sequence[Any]) -> list[str]:
    """The csv cells of one column, each formatted by its exact type.

    A single-type column with repeated values formats each distinct value
    once, unless it holds a zero: 0.0 and -0.0 are one key but print "0" and
    "-0".
    """
    kinds = set(map(type, column))
    if len(kinds) != 1:
        return [_FMT_MACHINE.get(type(cell), _fmt_text)(cell) for cell in column]
    fmt = _FMT_MACHINE.get(kinds.pop(), _fmt_text)
    # A NaN cell finds its own key by identity, so NaNs need no guard.
    distinct = set(column)
    if len(distinct) < len(column) and 0.0 not in distinct:
        text = {value: fmt(value) for value in distinct}
        return list(map(text.__getitem__, column))
    return list(map(fmt, column))


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


def _columns(records: Sequence[dict[str, Any]]) -> Iterable[Sequence[Any]]:
    """The columns of records that share one key order."""
    return zip(*(record.values() for record in records))


def _render(
    fmt: str,
    out: str | None,
    header: Sequence[str],
    columns: Iterable[Sequence[Any]],
    doc: Callable[[], Any],
    table: Callable[[], list[str]],
) -> None:
    """Write a command's output as fmt to the file out, or to stdout.

    csv is header plus equal-length columns, each cell formatted by its exact
    Python type; json is doc(); the table is the lines table().  Only the
    requested format is built.
    """
    if fmt == "csv":
        lines = [",".join(map(_fmt_text, header))]
        lines += map(",".join, zip(*map(_fmt_column, columns)))
    elif fmt == "json":
        lines = [json.dumps(doc(), indent=2)]
    else:
        lines = table()
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
    sections["asymptotic"] = _report_dict(final, rates, params)
    if budget is not None:
        final = finite_bound(rates, params, budget, settings)
        sections["finite"] = _report_dict(final, rates, params)
    if qber is not None:
        final_delta_prime = delta_prime_bound(final.delta_upper, rates, params)
        sections["key_rate"] = {
            "qber": qber,
            "weak": gllp_rate(KeyRateInput(delta=final.delta_upper, qber=qber)),
            "strong": gllp_rate(KeyRateInput(delta=final_delta_prime, qber=qber)),
        }
    return sections, final


def _method_records(sections: dict[str, Any]) -> list[dict[str, Any]]:
    """The per-bound sections of a _bound_pipeline result, in order."""
    return [body for name, body in sections.items() if name != "key_rate"]


def cmd_bound(args: argparse.Namespace, config: Config) -> int:
    params = _resolve_params(args, config)
    rates, scenario_echo = _resolve_rate_source(args, config, params)
    budget = _resolve_budget(args, config)
    settings = FluctuationSettings(**_given(args, config, "fluctuation"))
    qber = _setting(args, config, "key", "qber")
    fmt, out = _resolve_output(args, config)

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
        tuple(records[0]),
        _columns(records),
        lambda: {"inputs": inputs, "degenerate_strong_class": degenerate, **sections},
        table,
    )
    return EXIT_VACUOUS if final.vacuous else EXIT_OK


def cmd_simulate(args: argparse.Namespace, config: Config) -> int:
    if "rates" in config:
        raise ConfigError("simulate draws from a scenario; direct rates are not samplable")
    params = _resolve_params(args, config)
    scenario, scenario_echo = _build_scenario(args, config)
    budget = _resolve_budget(args, config)
    if budget is None:
        raise ConfigError("simulate requires a pulse budget (--n or [budget] section)")
    if args.seed is None:
        raise ConfigError("simulate requires --seed for reproducible sampling")
    settings = FluctuationSettings(**_given(args, config, "fluctuation"))
    qber = _setting(args, config, "key", "qber")
    fmt, out = _resolve_output(args, config)

    observation = sample_observation(scenario, params, budget, args.seed)
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
            "seed": args.seed,
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
        fmt, out, tuple(records[0]), _columns(records), lambda: doc, lambda: _table_lines(doc)
    )
    return EXIT_VACUOUS if sampled_final.vacuous else EXIT_OK


def cmd_table1(args: argparse.Namespace, config: Config) -> int:
    # Imported here, like batch in cmd_sweep, so other commands never load it.
    from .table1 import rows

    fmt, out = _resolve_output(args, config)
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

    _render(fmt, out, tuple(records[0]), _columns(records), lambda: records, table)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace, config: Config) -> int:
    """Bound every admissible (mu, mu_prime, eta) grid row on a NoEve channel.

    Rows come from the lane-parallel engine in batch.py, which matches the
    scalar functions bit for bit: finite_bound with --n pulses per signal
    class (wang_asymptotic_bound without), then delta_prime_bound and, with
    --qber, gllp_rate.  Exit 3 when every row is vacuous.
    """
    from . import batch

    mu_grid = _setting(args, config, "sweep", "mu")
    mu_prime_grid = _setting(args, config, "sweep", "mu_prime")
    eta_grid = _setting(args, config, "sweep", "eta")
    if not mu_grid or not mu_prime_grid or not eta_grid:
        raise ConfigError("sweep needs mu, mu_prime, and eta grids")
    s0 = _setting(args, config, "sweep", "s0", 1e-6)
    n_pulses = _setting(args, config, "sweep", "n_pulses", flag="n")
    qber = _setting(args, config, "sweep", "qber")
    settings = FluctuationSettings(**_given(args, config, "fluctuation"))
    fmt, out = _resolve_output(args, config)

    size = len(mu_grid) * len(mu_prime_grid) * len(eta_grid)
    if size > MAX_GRID_POINTS:
        raise ConfigError(f"sweep grid has {size} rows, more than {MAX_GRID_POINTS}")
    pairs: list[tuple[float, float]] = []
    for mu in mu_grid:
        for mu_prime in mu_prime_grid:
            check = validate_pair(mu, mu_prime)
            if not check:
                print(
                    f"note: skipping inadmissible pair mu={mu}, mu_prime={mu_prime}: "
                    f"{check.reason}",
                    file=sys.stderr,
                )
                continue
            pairs.append((mu, mu_prime))
    if not pairs:
        raise ConfigError("sweep grid contains no admissible (mu, mu_prime) pairs")

    rows = batch.sweep(pairs, eta_grid, s0, n_pulses, settings, qber)
    count = len(pairs) * len(eta_grid)
    columns = [
        [mu for mu, _ in pairs for _ in eta_grid],
        [mu_prime for _, mu_prime in pairs for _ in eta_grid],
        eta_grid * len(pairs),
        [n_pulses] * count,
        [s0] * count,
        rows.delta_upper.tolist(),
        rows.delta_prime_upper.tolist(),
        rows.s1_lower.tolist(),
        [None] * count if rows.key_rate is None else rows.key_rate.tolist(),
        rows.clamped.tolist(),
        rows.vacuous.tolist(),
    ]
    _render(
        fmt,
        out,
        SWEEP_COLUMNS,
        columns,
        lambda: [dict(zip(SWEEP_COLUMNS, record)) for record in zip(*columns)],
        lambda: [
            "  ".join(SWEEP_COLUMNS),
            *("  ".join(map(_fmt_human, record)) for record in zip(*columns)),
        ],
    )
    return EXIT_VACUOUS if rows.vacuous.all() else EXIT_OK


def cmd_feasibility(args: argparse.Namespace, config: Config) -> int:
    eta = _setting(args, config, "feasibility", "eta", 1e-4)
    s0 = _setting(args, config, "feasibility", "s0", 1e-6)
    mu_v = _setting(args, config, "feasibility", "mu_v", eta)
    options = _given(args, config, "feasibility", ("rep_rate", "confidence_exponent", "target"))
    target = {"rel_dark_fluct_target": options.pop("target")} if "target" in options else {}
    setup = WeakDecoySetup(eta=eta, s0=s0, mu_v=mu_v, **options)
    report = build_report(setup, **target)
    fmt, out = _resolve_output(args, config)

    verdict = {
        "s1_bound": report.s1_bound,
        "rel_dark_fluct_target": report.rel_dark_fluct_target,
        "n_pulses_required": report.n_pulses_required,
        "acquisition_seconds": report.time.seconds,
        "acquisition_days": report.time.days,
        "expected_signal_rate": report.expected_signal_rate,
        "dark_rate": report.dark_rate,
        "practical": report.practical,
    }
    setup_echo = asdict(setup)
    record = {**setup_echo, **verdict}
    _render(
        fmt,
        out,
        tuple(record),
        _columns([record]),
        lambda: {"setup": setup_echo, **verdict},
        lambda: _table_lines({"setup": setup_echo, "verdict": verdict}),
    )
    return EXIT_OK if report.practical else EXIT_IMPRACTICAL


# ---------------------------------------------------------------------------
# parser assembly


def _count_flag(raw: str) -> int:
    # Same grammar and messages as config-file counts, so "--n 8e10" works
    # on the command line too; argparse names the flag.
    try:
        return _as_count(raw, "")
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc).removeprefix(": ")) from None


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", dest="fmt", choices=("table", "json", "csv"))
    parser.add_argument("--out", metavar="PATH")


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH")
    _add_output_flags(parser)


def _add_solver_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--qber", type=float)
    parser.add_argument("--confidence-exponent", dest="confidence_exponent", type=float)
    parser.add_argument(
        "--min-over-classes",
        dest="min_over_classes",
        action=argparse.BooleanOptionalAction,
        default=None,
    )


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mu", type=float)
    parser.add_argument("--mu-prime", dest="mu_prime", type=float)
    parser.add_argument("--scenario", choices=tuple(SCENARIOS))
    parser.add_argument("--eta", type=float)
    parser.add_argument("--s0", type=float)
    parser.add_argument("--q", type=float)
    parser.add_argument("--yields", metavar="S1,S2,...")
    parser.add_argument("--n", type=_count_flag, help="pulses per signal class (sets both)")
    parser.add_argument("--n-mu", dest="n_mu", type=_count_flag)
    parser.add_argument("--n-mu-prime", dest="n_mu_prime", type=_count_flag)
    parser.add_argument("--n-vacuum", dest="n_vacuum", type=_count_flag)
    _add_solver_flags(parser)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process; parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="decoyqkd",
        description="Verified multi-photon bounds for two-intensity decoy protocols",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="bound the tagged fraction from counting rates")
    _add_common_flags(p_bound)
    _add_model_flags(p_bound)
    p_bound.add_argument("--rates", metavar="S0,SMU,SMUP", help="direct observed rates")
    p_bound.set_defaults(handler=cmd_bound)

    p_sim = sub.add_parser("simulate", help="sample an observation and bound it")
    _add_common_flags(p_sim)
    p_sim.add_argument("--seed", type=int)
    _add_model_flags(p_sim)
    p_sim.set_defaults(handler=cmd_simulate)

    p_table = sub.add_parser("table1", help="benchmark grid with frozen references")
    _add_output_flags(p_table)
    p_table.set_defaults(handler=cmd_table1)

    p_sweep = sub.add_parser("sweep", help="grid sweep over (mu, mu_prime, eta)")
    _add_common_flags(p_sweep)
    p_sweep.add_argument("--mu", metavar="GRID")
    p_sweep.add_argument("--mu-prime", dest="mu_prime", metavar="GRID")
    p_sweep.add_argument("--eta", metavar="GRID")
    p_sweep.add_argument("--s0", type=float)
    p_sweep.add_argument("--n", type=_count_flag)
    _add_solver_flags(p_sweep)
    p_sweep.set_defaults(handler=cmd_sweep)

    p_feas = sub.add_parser("feasibility", help="very-weak-decoy pulse-count verdict")
    _add_common_flags(p_feas)
    p_feas.add_argument("--eta", type=float)
    p_feas.add_argument("--s0", type=float)
    p_feas.add_argument("--mu-v", dest="mu_v", type=float)
    p_feas.add_argument("--rep-rate", dest="rep_rate", type=float)
    p_feas.add_argument("--confidence-exponent", dest="confidence_exponent", type=float)
    p_feas.add_argument("--target", type=float)
    p_feas.set_defaults(handler=cmd_feasibility)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config) if getattr(args, "config", None) else {}
        return args.handler(args, config)
    except (ConfigError, ParameterError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
