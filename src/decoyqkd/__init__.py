"""Verified multi-photon bounds and channel simulation for two-intensity decoy protocols."""

from .bounds import (
    METHOD_HWANG,
    METHOD_WANG_ASYMPTOTIC,
    METHOD_WANG_FINITE,
    BoundReport,
    ObservedRates,
    delta_prime_bound,
    hwang_bound,
    hwang_optimized,
    wang_asymptotic_bound,
)
from .channel import (
    ChannelScenario,
    NoEve,
    PnsAttack,
    SimulatedObservation,
    YieldTable,
    expected_rates,
    multi_photon_fraction,
    sample_observation,
    true_delta,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    ParameterError,
)
from .feasibility import (
    AcquisitionTime,
    FeasibilityReport,
    WeakDecoySetup,
    acquisition_time,
    build_report,
    required_pulses,
    weak_decoy_s1_bound,
)
from .finite_stats import (
    FluctuationSettings,
    PulseBudget,
    finite_bound,
)
from .key_rate import KeyRateInput, binary_entropy, gllp_rate
from .photon_stats import (
    DecompositionCoefficients,
    PairValidity,
    ProtocolParams,
    decompose,
    multi_photon_weight,
    validate_pair,
)

__version__ = "0.1.0"

__all__ = [
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
