"""Command-line surface: bound verification, simulation, benchmarks, sweeps.

Every command is deterministic given its config (plus seed where sampling
is involved): no timestamps, no locale formatting, machine formats carry
full precision (17 significant digits), human tables 4 significant digits.
Exit codes: 0 ok, 2 config/parameter problem, 3 vacuous bound, 4 solver
non-convergence, 5 impractical feasibility verdict.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from decimal import Decimal, InvalidOperation
from typing import Any, Callable, Sequence

from . import batch
from .bounds import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
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
from .table1 import rows as table1_rows

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VACUOUS = 3
EXIT_NO_CONVERGENCE = 4
EXIT_IMPRACTICAL = 5

# Section -> allowed keys; anything else in a config file is an error.
KNOWN_KEYS: dict[str, set[str]] = {
    "params": {"mu", "mu_prime"},
    "scenario": {"kind", "eta", "s0", "q", "yields"},
    "rates": {"s0", "s_mu", "s_mu_prime"},
    "budget": {"n_mu", "n_mu_prime", "n_vacuum"},
    "fluctuation": {"confidence_exponent", "r0", "min_over_classes"},
    "key": {"qber"},
    "sweep": {"mu", "mu_prime", "eta", "n_pulses", "s0", "qber"},
    "output": {"format", "path"},
    "feasibility": {"eta", "s0", "mu_v", "rep_rate", "confidence_exponent", "target"},
}

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
# config file handling


def load_config(path: str) -> dict[str, dict[str, str]]:
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
        if section not in KNOWN_KEYS:
            raise ConfigError(f"{path}: unknown config section [{section}]")
        for key in entries:
            if key not in KNOWN_KEYS[section]:
                raise ConfigError(f"{path}: unknown key '{key}' in section [{section}]")
    return data


def _as_float(raw: str, where: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{where}: expected a number, got {raw!r}") from None


def _as_count(raw: str, where: str) -> int:
    # Accept scientific notation for large pulse counts without a float
    # detour that would lose integer exactness.
    try:
        value = Decimal(raw)
    except InvalidOperation:
        raise ConfigError(f"{where}: expected an integer, got {raw!r}") from None
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


def parse_grid(text: str, where: str) -> list[float]:
    """Grid syntax: 'start:stop:step' (inclusive) or a comma list or one value."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"{where}: grid ranges use start:stop:step, got {text!r}")
        start, stop, step = (_as_float(p, where) for p in parts)
        if step <= 0:
            raise ConfigError(f"{where}: grid step must be positive, got {step}")
        if stop < start:
            raise ConfigError(f"{where}: grid stop {stop} is below start {start}")
        count = int(round((stop - start) / step))
        values = [round(start + k * step, 12) for k in range(count + 1)]
        return [v for v in values if v <= stop + 1e-12]
    values = [
        _as_float(token, where) for token in text.split(",") if token.strip()
    ]
    if not values:
        raise ConfigError(f"{where}: empty grid")
    return values


# ---------------------------------------------------------------------------
# merging config sections with flag overrides


def _pick_float(
    flag_value: float | None, section: dict[str, str], key: str, where: str
) -> float | None:
    if flag_value is not None:
        return flag_value
    if key in section:
        return _as_float(section[key], where)
    return None


def _pick_count(
    flag_value: int | None, section: dict[str, str], key: str, where: str
) -> int | None:
    if flag_value is not None:
        return flag_value
    if key in section:
        return _as_count(section[key], where)
    return None


def _resolve_params(args: argparse.Namespace, config: dict[str, dict[str, str]]) -> ProtocolParams:
    section = config.get("params", {})
    mu = _pick_float(args.mu, section, "mu", "[params] mu")
    mu_prime = _pick_float(args.mu_prime, section, "mu_prime", "[params] mu_prime")
    if mu is None or mu_prime is None:
        raise ConfigError("mu and mu_prime are required (flags or [params] section)")
    return ProtocolParams(mu=mu, mu_prime=mu_prime)


def _scenario_flags_present(args: argparse.Namespace) -> bool:
    return any(
        getattr(args, name, None) is not None for name in ("scenario", "eta", "q", "yields")
    )


def _build_scenario(args: argparse.Namespace, config: dict[str, dict[str, str]]) -> ChannelScenario:
    section = config.get("scenario", {})
    kind = args.scenario or section.get("kind")
    eta = _pick_float(args.eta, section, "eta", "[scenario] eta")
    s0 = _pick_float(args.s0, section, "s0", "[scenario] s0")
    q = _pick_float(args.q, section, "q", "[scenario] q")
    yields_raw = args.yields if args.yields is not None else section.get("yields")
    if kind is None:
        if eta is not None:
            kind = "no_eve"
        elif q is not None:
            kind = "pns"
        elif yields_raw is not None:
            kind = "yields"
        else:
            raise ConfigError("scenario kind cannot be determined; set [scenario] kind")
    if kind == "no_eve":
        if eta is None:
            raise ConfigError("no_eve scenario requires eta")
        return NoEve(eta=eta, s0=s0 if s0 is not None else 0.0)
    if kind == "pns":
        if q is None:
            raise ConfigError("pns scenario requires q")
        return PnsAttack(q=q, s0=s0 if s0 is not None else 0.0)
    if kind == "yields":
        if yields_raw is None:
            raise ConfigError("yields scenario requires a yields list")
        table = tuple(
            _as_float(token, "[scenario] yields")
            for token in str(yields_raw).split(",")
            if token.strip()
        )
        return YieldTable(s0=s0 if s0 is not None else 0.0, yields=table)
    raise ConfigError(f"unknown scenario kind {kind!r} (expected no_eve, pns, or yields)")


def _resolve_rate_source(
    args: argparse.Namespace, config: dict[str, dict[str, str]], params: ProtocolParams
) -> tuple[ObservedRates, ChannelScenario | None]:
    """Exactly one of direct rates / scenario must be supplied."""
    rates_flag = getattr(args, "rates", None)
    scenario_flagged = _scenario_flags_present(args)
    if rates_flag is not None and scenario_flagged:
        raise ConfigError("supply either --rates or scenario flags, not both")
    if rates_flag is not None:
        parts = [p for p in rates_flag.split(",") if p.strip()]
        if len(parts) != 3:
            raise ConfigError("--rates expects three values: s0,s_mu,s_mu_prime")
        s0, s_mu, s_mu_prime = (_as_float(p, "--rates") for p in parts)
        return ObservedRates(s0=s0, s_mu=s_mu, s_mu_prime=s_mu_prime), None
    if scenario_flagged:
        scenario = _build_scenario(args, config)
        return expected_rates(scenario, params), scenario
    has_rates = "rates" in config
    has_scenario = "scenario" in config
    if has_rates and has_scenario:
        raise ConfigError("config supplies both [rates] and [scenario]; keep exactly one")
    if has_rates:
        section = config["rates"]
        missing = {"s0", "s_mu", "s_mu_prime"} - set(section)
        if missing:
            raise ConfigError(f"[rates] section is missing {sorted(missing)}")
        return (
            ObservedRates(
                s0=_as_float(section["s0"], "[rates] s0"),
                s_mu=_as_float(section["s_mu"], "[rates] s_mu"),
                s_mu_prime=_as_float(section["s_mu_prime"], "[rates] s_mu_prime"),
            ),
            None,
        )
    if has_scenario:
        scenario = _build_scenario(args, config)
        return expected_rates(scenario, params), scenario
    raise ConfigError("no rate source: supply a scenario, direct rates, or a [rates] section")


def _resolve_budget(
    args: argparse.Namespace, config: dict[str, dict[str, str]]
) -> PulseBudget | None:
    section = config.get("budget", {})
    shared = getattr(args, "n", None)
    n_mu = _pick_count(getattr(args, "n_mu", None), section, "n_mu", "[budget] n_mu")
    n_mu_prime = _pick_count(
        getattr(args, "n_mu_prime", None), section, "n_mu_prime", "[budget] n_mu_prime"
    )
    n_vacuum = _pick_count(
        getattr(args, "n_vacuum", None), section, "n_vacuum", "[budget] n_vacuum"
    )
    if shared is not None:
        n_mu = n_mu if n_mu is not None else shared
        n_mu_prime = n_mu_prime if n_mu_prime is not None else shared
    if n_mu is None and n_mu_prime is None:
        return None
    if n_mu is None or n_mu_prime is None:
        raise ConfigError("a pulse budget needs both n_mu and n_mu_prime (or --n)")
    return PulseBudget(n_mu=n_mu, n_mu_prime=n_mu_prime, n_vacuum=n_vacuum or 0)


def _resolve_settings(
    args: argparse.Namespace, config: dict[str, dict[str, str]]
) -> FluctuationSettings:
    section = config.get("fluctuation", {})
    exponent = _pick_float(
        getattr(args, "confidence_exponent", None),
        section,
        "confidence_exponent",
        "[fluctuation] confidence_exponent",
    )
    r0 = _pick_float(getattr(args, "r0", None), section, "r0", "[fluctuation] r0")
    min_over = getattr(args, "min_over_classes", None)
    if min_over is None and "min_over_classes" in section:
        min_over = _as_bool(section["min_over_classes"], "[fluctuation] min_over_classes")
    return FluctuationSettings(
        confidence_exponent=exponent if exponent is not None else 25.0,
        r0=r0 if r0 is not None else 0.0,
        min_over_classes=bool(min_over) if min_over is not None else False,
    )


def _resolve_qber(args: argparse.Namespace, config: dict[str, dict[str, str]]) -> float | None:
    return _pick_float(getattr(args, "qber", None), config.get("key", {}), "qber", "[key] qber")


def _resolve_output(
    args: argparse.Namespace, config: dict[str, dict[str, str]]
) -> tuple[str, str | None]:
    section = config.get("output", {})
    fmt = args.fmt or section.get("format", "table")
    if fmt not in ("table", "json", "csv"):
        raise ConfigError(f"unknown output format {fmt!r} (expected table, json, or csv)")
    out = args.out or section.get("path")
    return fmt, out


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
    if isinstance(value, list):
        return ",".join(_fmt_human(v) for v in value)
    return str(value)


def _fmt_pct(value: float) -> str:
    return format(100.0 * value, ".4g") + "%"


def _fmt_column(column: Sequence[Any]) -> list[str]:
    kinds = set(map(type, column))
    if len(kinds) == 1:
        return list(map(_FMT_MACHINE.get(kinds.pop(), _fmt_text), column))
    return [_FMT_MACHINE.get(type(cell), _fmt_text)(cell) for cell in column]


def _csv_text(header: Sequence[str], columns: Sequence[Sequence[Any]]) -> str:
    """CSV of equal-length columns; each cell is formatted by its exact Python type."""
    lines = [",".join(map(_fmt_text, header))]
    lines += map(",".join, zip(*map(_fmt_column, columns)))
    return "\n".join(lines) + "\n"


def _json_text(obj: Any) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report_dict(report: BoundReport, delta_prime: float | None) -> dict[str, Any]:
    return {
        "method": report.method,
        "delta_upper": report.delta_upper,
        "delta_prime_upper": delta_prime,
        "s1_lower": report.s1_lower,
        "sc_upper": report.sc_upper,
        "clamped": report.clamped,
        "vacuous": report.vacuous,
    }


def _table_section(title: str, pairs: Sequence[tuple[str, Any]], percent: set[str]) -> list[str]:
    lines = [f"== {title} =="]
    width = max((len(name) for name, _ in pairs), default=0)
    for name, value in pairs:
        if name in percent and isinstance(value, float):
            rendered = _fmt_pct(value)
        else:
            rendered = _fmt_human(value)
        lines.append(f"{name.ljust(width)}  {rendered}")
    return lines


_PERCENT_FIELDS = {"delta_upper", "delta_prime_upper"}


def _bound_table(report_obj: dict[str, Any]) -> str:
    lines: list[str] = []
    lines += _table_section("inputs", list(report_obj["inputs"].items()), set())
    if report_obj.get("degenerate_strong_class"):
        lines.append("note: strong class observed zero counts (degenerate input)")
    for key in ("hwang", "asymptotic", "finite"):
        if key in report_obj:
            lines += _table_section(key, list(report_obj[key].items()), _PERCENT_FIELDS)
    if "key_rate" in report_obj:
        lines += _table_section("key_rate", list(report_obj["key_rate"].items()), set())
    return "\n".join(lines) + "\n"


def _bound_csv(report_obj: dict[str, Any]) -> str:
    header = (
        "method",
        "delta_upper",
        "delta_prime_upper",
        "s1_lower",
        "sc_upper",
        "clamped",
        "vacuous",
    )
    entries = [report_obj[key] for key in ("hwang", "asymptotic", "finite") if key in report_obj]
    return _csv_text(header, [[entry[column] for entry in entries] for column in header])


# ---------------------------------------------------------------------------
# command handlers


def _bound_pipeline(
    rates: ObservedRates,
    params: ProtocolParams,
    budget: PulseBudget | None,
    settings: FluctuationSettings,
    qber: float | None,
    tol: float,
    max_iter: int,
) -> tuple[dict[str, Any], BoundReport]:
    hwang = hwang_bound(rates, params)
    asymptotic = wang_asymptotic_bound(rates, params)
    sections: dict[str, Any] = {
        "hwang": _report_dict(hwang, delta_prime_bound(hwang.delta_upper, rates, params)),
        "asymptotic": _report_dict(
            asymptotic, delta_prime_bound(asymptotic.delta_upper, rates, params)
        ),
    }
    final = asymptotic
    if budget is not None:
        final = finite_bound(rates, params, budget, settings, tol, max_iter)
        sections["finite"] = _report_dict(
            final, delta_prime_bound(final.delta_upper, rates, params)
        )
    if qber is not None:
        final_delta_prime = delta_prime_bound(final.delta_upper, rates, params)
        sections["key_rate"] = {
            "qber": qber,
            "weak": gllp_rate(KeyRateInput(delta=final.delta_upper, qber=qber)),
            "strong": gllp_rate(KeyRateInput(delta=final_delta_prime, qber=qber)),
        }
    return sections, final


def _scenario_echo(scenario: ChannelScenario | None) -> dict[str, Any] | None:
    if scenario is None:
        return None
    if isinstance(scenario, NoEve):
        return {"kind": "no_eve", "eta": scenario.eta, "s0": scenario.s0}
    if isinstance(scenario, PnsAttack):
        return {"kind": "pns", "q": scenario.q, "s0": scenario.s0}
    return {"kind": "yields", "s0": scenario.s0, "yields": list(scenario.yields)}


def cmd_bound(args: argparse.Namespace) -> int:
    config = load_config(args.config) if args.config else {}
    params = _resolve_params(args, config)
    rates, scenario = _resolve_rate_source(args, config, params)
    budget = _resolve_budget(args, config)
    settings = _resolve_settings(args, config)
    qber = _resolve_qber(args, config)
    fmt, out = _resolve_output(args, config)

    sections, final = _bound_pipeline(
        rates, params, budget, settings, qber, args.tol, args.max_iter
    )
    report_obj: dict[str, Any] = {
        "inputs": {
            "mu": params.mu,
            "mu_prime": params.mu_prime,
            "s0": rates.s0,
            "s_mu": rates.s_mu,
            "s_mu_prime": rates.s_mu_prime,
            "scenario": _scenario_echo(scenario),
            "n_mu": budget.n_mu if budget else None,
            "n_mu_prime": budget.n_mu_prime if budget else None,
            "n_vacuum": budget.n_vacuum if budget else None,
            "confidence_exponent": settings.confidence_exponent,
            "r0": settings.r0,
            "min_over_classes": settings.min_over_classes,
            "qber": qber,
        },
        "degenerate_strong_class": rates.s_mu_prime == 0.0,
    }
    report_obj.update(sections)

    if fmt == "json":
        _emit(_json_text(report_obj), out)
    elif fmt == "csv":
        _emit(_bound_csv(report_obj), out)
    else:
        _emit(_bound_table(report_obj), out)
    return EXIT_VACUOUS if final.vacuous else EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    config = load_config(args.config) if args.config else {}
    if getattr(args, "rates", None) is not None or "rates" in config:
        raise ConfigError("simulate draws from a scenario; direct rates are not samplable")
    params = _resolve_params(args, config)
    scenario = _build_scenario(args, config)
    budget = _resolve_budget(args, config)
    if budget is None:
        raise ConfigError("simulate requires a pulse budget (--n or [budget] section)")
    if args.seed is None:
        raise ConfigError("simulate requires --seed for reproducible sampling")
    settings = _resolve_settings(args, config)
    qber = _resolve_qber(args, config)
    fmt, out = _resolve_output(args, config)

    observation = sample_observation(scenario, params, budget, args.seed)
    exact = expected_rates(scenario, params)
    expected_sections, _ = _bound_pipeline(
        exact, params, budget, settings, qber, args.tol, args.max_iter
    )
    sampled_sections, sampled_final = _bound_pipeline(
        observation.rates, params, budget, settings, qber, args.tol, args.max_iter
    )

    report_obj: dict[str, Any] = {
        "inputs": {
            "mu": params.mu,
            "mu_prime": params.mu_prime,
            "scenario": _scenario_echo(scenario),
            "n_mu": budget.n_mu,
            "n_mu_prime": budget.n_mu_prime,
            "n_vacuum": budget.n_vacuum,
            "seed": observation.seed,
            "confidence_exponent": settings.confidence_exponent,
            "r0": settings.r0,
            "min_over_classes": settings.min_over_classes,
            "qber": qber,
        },
        "observation": {
            "clicks_mu": observation.clicks_mu,
            "clicks_mu_prime": observation.clicks_mu_prime,
            "clicks_vacuum": observation.clicks_vacuum,
            "s0": observation.rates.s0,
            "s_mu": observation.rates.s_mu,
            "s_mu_prime": observation.rates.s_mu_prime,
        },
        "expected_rates": {
            "s0": exact.s0,
            "s_mu": exact.s_mu,
            "s_mu_prime": exact.s_mu_prime,
        },
        "expected": expected_sections,
        "sampled": sampled_sections,
    }

    if fmt == "json":
        _emit(_json_text(report_obj), out)
    elif fmt == "csv":
        header = (
            "source",
            "method",
            "delta_upper",
            "delta_prime_upper",
            "s1_lower",
            "sc_upper",
            "clamped",
            "vacuous",
        )
        sources, entries = [], []
        for source in ("expected", "sampled"):
            for key in ("hwang", "asymptotic", "finite"):
                if key in report_obj[source]:
                    sources.append(source)
                    entries.append(report_obj[source][key])
        columns = [sources] + [[entry[column] for entry in entries] for column in header[1:]]
        _emit(_csv_text(header, columns), out)
    else:
        lines: list[str] = []
        lines += _table_section("inputs", list(report_obj["inputs"].items()), set())
        lines += _table_section("observation", list(report_obj["observation"].items()), set())
        lines += _table_section(
            "expected_rates", list(report_obj["expected_rates"].items()), set()
        )
        for source in ("expected", "sampled"):
            for key in ("hwang", "asymptotic", "finite", "key_rate"):
                if key in report_obj[source]:
                    lines += _table_section(
                        f"{source} {key}",
                        list(report_obj[source][key].items()),
                        _PERCENT_FIELDS,
                    )
        _emit("\n".join(lines) + "\n", out)
    return EXIT_VACUOUS if sampled_final.vacuous else EXIT_OK


def cmd_table1(args: argparse.Namespace) -> int:
    fmt, out = args.fmt or "table", args.out
    all_rows = table1_rows()
    if fmt == "json":
        payload = [
            {
                "quantity": row.quantity,
                "intensity": row.intensity,
                "partner": row.partner,
                "computed": row.computed,
                "reference": row.reference,
                "deviation": row.deviation,
            }
            for row in all_rows
        ]
        _emit(_json_text(payload), out)
    elif fmt == "csv":
        header = ("quantity", "intensity", "partner", "computed", "reference", "deviation")
        columns = [[getattr(row, column) for row in all_rows] for column in header]
        _emit(_csv_text(header, columns), out)
    else:
        lines = ["quantity         intensity  partner  computed  reference  deviation"]
        for row in all_rows:
            lines.append(
                f"{row.quantity:<16} {row.intensity:<10.4g} "
                f"{(format(row.partner, '.4g') if row.partner is not None else '-'):<8} "
                f"{_fmt_pct(row.computed):>9} {_fmt_pct(row.reference):>10} "
                f"{100.0 * row.deviation:>+8.2f}pp"
            )
        _emit("\n".join(lines) + "\n", out)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    """Bound every admissible (mu, mu_prime, eta) grid row on a NoEve channel.

    Rows come from the lane-parallel engine in batch.py, which matches the
    scalar functions bit for bit: finite_bound with --n pulses per signal
    class (wang_asymptotic_bound without), then delta_prime_bound and, with
    --qber, gllp_rate.  Exit 3 when every row is vacuous.
    """
    config = load_config(args.config) if args.config else {}
    section = config.get("sweep", {})

    def grid_of(flag_value: str | None, key: str) -> list[float] | None:
        raw = flag_value if flag_value is not None else section.get(key)
        if raw is None:
            return None
        return parse_grid(str(raw), f"[sweep] {key}")

    mu_grid = grid_of(args.mu, "mu")
    mu_prime_grid = grid_of(args.mu_prime, "mu_prime")
    eta_grid = grid_of(args.eta, "eta")
    if not mu_grid or not mu_prime_grid or not eta_grid:
        raise ConfigError("sweep needs mu, mu_prime, and eta grids")
    s0 = _pick_float(args.s0, section, "s0", "[sweep] s0")
    if s0 is None:
        s0 = 1e-6
    n_pulses = _pick_count(args.n, section, "n_pulses", "[sweep] n_pulses")
    qber = _pick_float(args.qber, section, "qber", "[sweep] qber")
    settings = _resolve_settings(args, config)
    fmt, out = _resolve_output(args, config)

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

    rows = batch.sweep(
        pairs, eta_grid, s0, n_pulses, settings, qber, args.tol, args.max_iter
    )
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

    if fmt == "csv":
        _emit(_csv_text(SWEEP_COLUMNS, columns), out)
    elif fmt == "json":
        payload = [dict(zip(SWEEP_COLUMNS, record)) for record in zip(*columns)]
        _emit(_json_text(payload), out)
    else:
        lines = ["  ".join(SWEEP_COLUMNS)]
        for record in zip(*columns):
            lines.append("  ".join(_fmt_human(cell) for cell in record))
        _emit("\n".join(lines) + "\n", out)
    return EXIT_VACUOUS if rows.vacuous.all() else EXIT_OK


def cmd_feasibility(args: argparse.Namespace) -> int:
    config = load_config(args.config) if args.config else {}
    section = config.get("feasibility", {})
    eta = _pick_float(args.eta, section, "eta", "[feasibility] eta")
    s0 = _pick_float(args.s0, section, "s0", "[feasibility] s0")
    mu_v = _pick_float(args.mu_v, section, "mu_v", "[feasibility] mu_v")
    rep_rate = _pick_float(args.rep_rate, section, "rep_rate", "[feasibility] rep_rate")
    exponent = _pick_float(
        args.confidence_exponent,
        section,
        "confidence_exponent",
        "[feasibility] confidence_exponent",
    )
    target = _pick_float(args.target, section, "target", "[feasibility] target")
    if eta is None:
        eta = 1e-4
    if s0 is None:
        s0 = 1e-6
    if mu_v is None:
        mu_v = eta
    setup = WeakDecoySetup(
        eta=eta,
        s0=s0,
        mu_v=mu_v,
        rep_rate=rep_rate if rep_rate is not None else 8e7,
        confidence_exponent=exponent if exponent is not None else 25.0,
    )
    report = build_report(setup, target if target is not None else 1e-3)
    fmt, out = _resolve_output(args, config)

    payload = {
        "setup": {
            "eta": setup.eta,
            "s0": setup.s0,
            "mu_v": setup.mu_v,
            "rep_rate": setup.rep_rate,
            "confidence_exponent": setup.confidence_exponent,
        },
        "s1_bound": report.s1_bound,
        "rel_dark_fluct_target": report.rel_dark_fluct_target,
        "n_pulses_required": report.n_pulses_required,
        "acquisition_seconds": report.time.seconds,
        "acquisition_days": report.time.days,
        "expected_signal_rate": report.expected_signal_rate,
        "dark_rate": report.dark_rate,
        "practical": report.practical,
    }
    if fmt == "json":
        _emit(_json_text(payload), out)
    elif fmt == "csv":
        header = tuple(payload["setup"].keys()) + tuple(
            k for k in payload if k != "setup"
        )
        record = list(payload["setup"].values()) + [
            payload[k] for k in payload if k != "setup"
        ]
        _emit(_csv_text(header, [[cell] for cell in record]), out)
    else:
        lines = _table_section("setup", list(payload["setup"].items()), set())
        lines += _table_section(
            "verdict", [(k, v) for k, v in payload.items() if k != "setup"], set()
        )
        _emit("\n".join(lines) + "\n", out)
    return EXIT_OK if report.practical else EXIT_IMPRACTICAL


# ---------------------------------------------------------------------------
# parser assembly


def _count_flag(raw: str) -> int:
    # Same grammar as config-file counts, so "--n 8e10" works on the
    # command line too.
    try:
        return _as_count(raw, "flag")
    except ConfigError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {raw!r}") from None


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", dest="fmt", choices=("table", "json", "csv"))
    parser.add_argument("--out", metavar="PATH")


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH")
    _add_output_flags(parser)
    parser.add_argument("--seed", type=int)


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mu", type=float)
    parser.add_argument("--mu-prime", dest="mu_prime", type=float)
    parser.add_argument("--scenario", choices=("no_eve", "pns", "yields"))
    parser.add_argument("--eta", type=float)
    parser.add_argument("--s0", type=float)
    parser.add_argument("--q", type=float)
    parser.add_argument("--yields", metavar="S1,S2,...")
    parser.add_argument("--n", type=_count_flag, help="pulses per signal class (sets both)")
    parser.add_argument("--n-mu", dest="n_mu", type=_count_flag)
    parser.add_argument("--n-mu-prime", dest="n_mu_prime", type=_count_flag)
    parser.add_argument("--n-vacuum", dest="n_vacuum", type=_count_flag)
    parser.add_argument("--qber", type=float)
    parser.add_argument("--confidence-exponent", dest="confidence_exponent", type=float)
    parser.add_argument("--r0", type=float)
    parser.add_argument(
        "--min-over-classes",
        dest="min_over_classes",
        action=argparse.BooleanOptionalAction,
        default=None,
    )
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL)
    parser.add_argument("--max-iter", dest="max_iter", type=int, default=DEFAULT_MAX_ITER)


def build_parser() -> argparse.ArgumentParser:
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
    p_sweep.add_argument("--qber", type=float)
    p_sweep.add_argument("--confidence-exponent", dest="confidence_exponent", type=float)
    p_sweep.add_argument("--r0", type=float)
    p_sweep.add_argument(
        "--min-over-classes",
        dest="min_over_classes",
        action=argparse.BooleanOptionalAction,
        default=None,
    )
    p_sweep.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_sweep.add_argument("--max-iter", dest="max_iter", type=int, default=DEFAULT_MAX_ITER)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    handler: Callable[[argparse.Namespace], int] = args.handler
    try:
        return handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ParameterError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
