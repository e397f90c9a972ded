import math
import random
from dataclasses import asdict

import mpmath as mp
import pytest
from hypothesis import given, strategies as st

from decoyqkd import (
    DomainError,
    ParameterError,
    ProtocolParams,
    decompose,
    multi_photon_weight,
    validate_pair,
)
from decoyqkd.photon_stats import poisson_mixture

from reference import poisson_pmf

mp.mp.dps = 50


# Oracle values computed with mpmath at 50 digits.
PMF_ORACLE = [
    (0, 0.3, 0.7408182206817179),
    (2, 0.3, 0.033336819930677304),
    (5, 1.0, 0.0030656620097620193),
    (20, 0.5, 2.3775421711883458e-25),
]


@pytest.mark.parametrize("n,mu,expected", PMF_ORACLE)
def test_pmf_oracle(n, mu, expected):
    assert poisson_pmf(n, mu) == pytest.approx(expected, rel=1e-13)


def test_pmf_vacuum_intensity():
    assert poisson_pmf(0, 0.0) == 1.0
    assert poisson_pmf(3, 0.0) == 0.0


def test_pmf_underflows_to_zero():
    assert poisson_pmf(200, 0.1) == 0.0


def test_pmf_domain():
    with pytest.raises(DomainError):
        poisson_pmf(-1, 0.3)
    with pytest.raises(DomainError):
        poisson_pmf(2, -0.1)
    with pytest.raises(DomainError):
        poisson_pmf(2, math.nan)


@given(st.floats(min_value=1e-6, max_value=2.0), st.integers(min_value=0, max_value=30))
def test_prefix_matches_pmf(mu, n_max):
    # A unit weight at n picks P_n(mu) out of the mixture.
    for n in range(n_max + 1):
        weights = [0.0] * (n_max + 1)
        weights[n] = 1.0
        assert poisson_mixture(mu, weights[0], tuple(weights[1:])) == pytest.approx(
            poisson_pmf(n, mu), rel=1e-12, abs=1e-300
        )
    assert poisson_mixture(mu, 1.0, (1.0,) * n_max) <= 1.0 + 1e-12


def test_prefix_domain():
    for mu in (-0.3, -5e-324, math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="intensity must be finite and non-negative"):
            poisson_mixture(mu, 1e-6, (0.5, 0.5))


@given(st.floats(min_value=1e-12, max_value=1.5))
def test_multi_photon_weight_matches_high_precision(mu):
    oracle = float(1 - mp.e ** -mp.mpf(mu) - mp.mpf(mu) * mp.e ** -mp.mpf(mu))
    assert multi_photon_weight(mu) == pytest.approx(oracle, rel=1e-12, abs=1e-300)


def test_multi_photon_weight_domain():
    for mu in (-0.3, -5e-324, math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="intensity must be finite and non-negative"):
            multi_photon_weight(mu)


def test_multi_photon_weight_small_mu_no_cancellation():
    # Naive 1 - e^{-mu} - mu e^{-mu} loses every digit here; the stable
    # form must stay within rounding of mu^2/2.
    assert multi_photon_weight(1e-8) == pytest.approx(5e-17, rel=1e-6)


def test_validate_pair_accepts_table_values():
    for mu, mu_prime in ((0.2, 0.34), (0.25, 0.41), (0.3, 0.45), (0.35, 0.47)):
        assert validate_pair(mu, mu_prime)


def test_validate_pair_rejections():
    assert not validate_pair(0.45, 0.3)
    assert not validate_pair(0.3, 0.3)
    assert not validate_pair(0.0, 0.45)
    assert not validate_pair(-0.1, 0.45)
    assert not validate_pair(0.3, math.inf)
    # mu_prime past the mode of x e^{-x}: single-photon weight no longer dominates
    check = validate_pair(0.3, 3.0)
    assert not check
    assert "dominate" in check.reason


def test_protocol_params_guard():
    params = ProtocolParams(mu=0.3, mu_prime=0.45)
    assert params.mu == 0.3
    with pytest.raises(ParameterError):
        ProtocolParams(mu=0.45, mu_prime=0.3)
    with pytest.raises(ParameterError):
        ProtocolParams(mu=0.3, mu_prime=3.0)


def test_decompose_oracle():
    coeffs = decompose(ProtocolParams(0.3, 0.45))
    assert coeffs.c == pytest.approx(0.036936313113766774, rel=1e-13)
    assert coeffs.multi_ratio == pytest.approx(1.9365929469563801, rel=1e-13)
    remainder = multi_photon_weight(0.45) - coeffs.c * coeffs.multi_ratio
    assert remainder == pytest.approx(0.003908576685735541, rel=1e-10)


def test_decompose_computed_once_per_params():
    params = ProtocolParams(0.3, 0.45)
    assert decompose(params) is decompose(params)
    assert decompose(params) == decompose(ProtocolParams(0.3, 0.45))
    assert asdict(params) == {"mu": 0.3, "mu_prime": 0.45}
    assert params == ProtocolParams(0.3, 0.45)


def test_decompose_ratio_overflow_is_a_domain_error():
    # c = mu^2/2 is subnormal at mu = 1e-160, and (mu'/mu)^2 overflows.
    params = ProtocolParams(1e-160, 0.45)
    for _ in range(2):
        with pytest.raises(DomainError, match=r"\(mu'/mu\)\^2 e\^\{mu-mu'\} overflows"):
            decompose(params)


@st.composite
def admissible_pairs(draw):
    mu = draw(st.floats(min_value=0.01, max_value=0.9))
    mu_prime = draw(st.floats(min_value=mu + 1e-4, max_value=1.0))
    return mu, mu_prime


def check_remainder_nonnegative(mu, mu_prime):
    coeffs = decompose(ProtocolParams(mu, mu_prime))
    # The strong class's weight beyond its vacuum, single photons and scaled weak tail.
    assert multi_photon_weight(mu_prime) - coeffs.c * coeffs.multi_ratio >= -1e-15, (mu, mu_prime)
    assert coeffs.c >= 0.0
    assert coeffs.multi_ratio > 1.0


@given(admissible_pairs())
def test_decompose_remainder_nonnegative(pair):
    check_remainder_nonnegative(*pair)


def test_decompose_remainder_nonnegative_near_diagonal_and_small_mu():
    # Near-diagonal pairs, where the remainder is a difference of two nearly
    # equal weights, and mu < 1e-2, where multi_photon_weight uses its series.
    rng = random.Random(410075)
    for _ in range(2000):
        mu = 10.0 ** rng.uniform(-6.0, math.log10(0.9))
        check_remainder_nonnegative(mu, mu * (1.0 + 1e-12))
        mu = 10.0 ** rng.uniform(-6.0, -2.0)
        check_remainder_nonnegative(mu, mu * (1.0 + 10.0 ** rng.uniform(-12.0, 0.5)))


@given(admissible_pairs())
def test_decompose_two_photon_identity(pair):
    # The scaled weak two-photon weight must equal the strong one exactly.
    mu, mu_prime = pair
    coeffs = decompose(ProtocolParams(mu, mu_prime))
    assert coeffs.multi_ratio * poisson_pmf(2, mu) == pytest.approx(
        poisson_pmf(2, mu_prime), rel=1e-12
    )
