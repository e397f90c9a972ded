import ast
import importlib
import inspect
from dataclasses import fields
from pathlib import Path

import decoyqkd
from decoyqkd.bounds import DEFAULT_MAX_ITER
from decoyqkd.cli import parse_grid
from decoyqkd.feasibility import WeakDecoySetup, build_report
from decoyqkd.finite_stats import PulseBudget, finite_bound

# The reviewed public surface: an addition or removal shows up as a diff here.
PUBLIC_API = [
    "AcquisitionTime",
    "BoundReport",
    "ChannelScenario",
    "ConfigError",
    "ConvergenceError",
    "DecompositionCoefficients",
    "DomainError",
    "FeasibilityReport",
    "FluctuationSettings",
    "KeyRateInput",
    "METHOD_HWANG",
    "METHOD_WANG_ASYMPTOTIC",
    "METHOD_WANG_FINITE",
    "NoEve",
    "ObservedRates",
    "PairValidity",
    "ParameterError",
    "PnsAttack",
    "ProtocolParams",
    "PulseBudget",
    "SimulatedObservation",
    "WeakDecoySetup",
    "YieldTable",
    "acquisition_time",
    "binary_entropy",
    "build_report",
    "decompose",
    "delta_prime_bound",
    "expected_rates",
    "finite_bound",
    "gllp_rate",
    "hwang_bound",
    "hwang_optimized",
    "multi_photon_fraction",
    "multi_photon_weight",
    "required_pulses",
    "sample_observation",
    "true_delta",
    "validate_pair",
    "wang_asymptotic_bound",
    "weak_decoy_s1_bound",
]


def test_public_api_inventory():
    assert sorted(decoyqkd.__all__) == PUBLIC_API
    assert len(PUBLIC_API) == 41
    for name in PUBLIC_API:
        assert hasattr(decoyqkd, name), name


# Module-level names the benchmark under bench/ rebinds or calls.  A rename
# or removal breaks the benchmark, so it shows up here, without importing it.
BENCHMARK_HOOKS = {
    "photon_stats": ("validate_pair", "decompose", "ProtocolParams"),
    "channel": ("expected_rates", "true_delta", "sample_observation"),
    "bounds": ("hwang_bound", "wang_asymptotic_bound", "delta_prime_bound", "DEFAULT_MAX_ITER"),
    "finite_stats": ("finite_bound", "wang_asymptotic_bound", "PulseBudget"),
    "key_rate": ("gllp_rate",),
    "cli": ("build_parser", "main", "parse_grid", "finite_bound"),
    "feasibility": ("build_report",),
    "table1": ("rows",),
}


def test_benchmark_hooks_resolve():
    for module_name, names in BENCHMARK_HOOKS.items():
        module = importlib.import_module(f"decoyqkd.{module_name}")
        for name in names:
            assert hasattr(module, name), f"{module_name}.{name}"
    # The soundness scan passes n_vacuum as the third positional argument.
    assert [field.name for field in fields(PulseBudget)][:3] == ["n_mu", "n_mu_prime", "n_vacuum"]
    assert PulseBudget(1, 1, 1).n_vacuum == 1
    # The workloads pass finite_bound's rates, params and budget by position.
    parameters = inspect.signature(finite_bound).parameters
    assert list(parameters)[:3] == ["rates", "params", "budget"]
    # Solver evaluation counts bisect finite_bound's max_iter, by name, over
    # [1, DEFAULT_MAX_ITER].
    assert parameters["max_iter"].default == DEFAULT_MAX_ITER
    # The sweep workload passes parse_grid's text and label by position.
    assert list(inspect.signature(parse_grid).parameters)[:2] == ["text", "where"]
    # The one-shot CLI workload checks the feasibility verdict against report.time.days.
    report = build_report(WeakDecoySetup(eta=1e-4, s0=1e-6, mu_v=1e-4), 1e-3)
    assert isinstance(report.time.days, float)


def _dotted(node):
    """The dotted name an expression spells, or None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return ".".join([node.id, *reversed(parts)])
    return None


def test_value_classes_use_the_frozen_decorator():
    # errors._frozen gives every value class an __init__ that sets its
    # instance dict in one call; a class built by dataclass(...) itself, or
    # a field stored through object.__setattr__, falls back to one call per
    # field.
    offences = []
    for path in sorted(Path(decoyqkd.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                targets = [node.func]
            elif isinstance(node, ast.ClassDef):
                # A called decorator is an ast.Call of its own.
                targets = [d for d in node.decorator_list if not isinstance(d, ast.Call)]
            else:
                continue
            for target in targets:
                name = _dotted(target)
                if name == "object.__setattr__":
                    offences.append(f"{path.name}:{node.lineno} calls object.__setattr__")
                elif name in ("dataclass", "dataclasses.dataclass") and path.name != "errors.py":
                    offences.append(f"{path.name}:{node.lineno} applies {name} directly")
    assert offences == []
