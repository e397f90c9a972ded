import decoyqkd

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
    "relative_fluctuation",
    "required_pulses",
    "sample_observation",
    "true_delta",
    "validate_pair",
    "wang_asymptotic_bound",
    "weak_decoy_s1_bound",
]


def test_public_api_inventory():
    assert sorted(decoyqkd.__all__) == PUBLIC_API
    assert len(PUBLIC_API) == 42
    for name in PUBLIC_API:
        assert hasattr(decoyqkd, name), name
