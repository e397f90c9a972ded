import copy
import math
import pickle
import random
import re
import sys
from dataclasses import asdict, astuple, replace

import mpmath as mp
import pytest
from hypothesis import assume, given, strategies as st

from decoyqkd import (
    DomainError,
    FluctuationSettings,
    KeyRateInput,
    NoEve,
    ObservedRates,
    PairValidity,
    ParameterError,
    PnsAttack,
    ProtocolParams,
    PulseBudget,
    WeakDecoySetup,
    YieldTable,
    acquisition_time,
    binary_entropy,
    decompose,
    delta_prime_bound,
    hwang_optimized,
    multi_photon_weight,
    required_pulses,
    sample_observation,
    validate_pair,
)
from decoyqkd.photon_stats import MIN_INTENSITY, MIN_SEPARATION, _multi_ratio, poisson_mixture

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
    # Below MIN_INTENSITY the decomposition's weights leave the normal floats.
    assert validate_pair(MIN_INTENSITY, 0.45)
    check = validate_pair(math.nextafter(MIN_INTENSITY, 0.0), 0.45)
    assert not check
    assert check.reason.startswith("mu must be at least 1e-150, got 9.99999999999999")
    # Below mu' = mu (1 + 1e-6) the closed form divides rounding noise by mu' - mu.
    floor = 0.3 * (1.0 + MIN_SEPARATION)
    assert validate_pair(0.3, floor)
    for mu_prime in (0.30000000000000004, math.nextafter(floor, 0.0)):
        check = validate_pair(0.3, mu_prime)
        assert not check
        assert check.reason == (
            f"mu_prime is below the admissibility floor mu*(1 + 1e-06) = {floor}, got {mu_prime}"
        )


# The refusal texts that test_validate_pair_rejections does not pin, in
# the order the clauses are checked: mu before mu_prime, finiteness before
# sign, then order and dominance.  A pair failing two clauses gets the first.
REFUSALS = [
    ((math.nan, 0.45), "mu must be finite, got nan"),
    ((math.inf, 0.45), "mu must be finite, got inf"),
    ((-math.inf, 0.45), "mu must be finite, got -inf"),
    ((0.0, 0.45), "mu must be positive, got 0.0"),
    ((-0.1, 0.45), "mu must be positive, got -0.1"),
    ((0.3, math.nan), "mu_prime must be finite, got nan"),
    ((0.3, math.inf), "mu_prime must be finite, got inf"),
    ((0.3, -math.inf), "mu_prime must be finite, got -inf"),
    ((0.3, 0.0), "mu_prime must be positive, got 0.0"),
    ((0.3, -0.1), "mu_prime must be positive, got -0.1"),
    ((math.nan, math.nan), "mu must be finite, got nan"),
    ((0.0, math.inf), "mu must be positive, got 0.0"),
    ((-0.1, math.nan), "mu must be positive, got -0.1"),
    ((0.3, 0.3), "mu_prime must exceed mu, got 0.3 >= 0.3"),
    ((0.45, 0.3), "mu_prime must exceed mu, got 0.45 >= 0.3"),
    # mu_prime past the mode of x e^{-x}: the single-photon weight no longer dominates.
    ((0.3, 3.0),
     "single-photon weight of mu_prime does not dominate: 3.0*exp(-3.0) <= 0.3*exp(-0.3)"),
    ((1.0, 1.5),
     "single-photon weight of mu_prime does not dominate: 1.5*exp(-1.5) <= 1.0*exp(-1.0)"),
]


@pytest.mark.parametrize("pair, reason", REFUSALS)
def test_validate_pair_refusal_texts(pair, reason):
    check = validate_pair(*pair)
    assert not check.valid
    assert check.reason == reason


def test_int_intensities_past_the_float_range_are_not_finite():
    # Such an int overflowed in the pair check's float arithmetic, and both
    # validate_pair and ProtocolParams raised a bare OverflowError.
    big = 10**400
    cases = [
        ((0.3, big), f"mu_prime must be finite, got {big}"),
        ((big, 10 * big), f"mu must be finite, got {big}"),
        ((big, 0.45), f"mu must be finite, got {big}"),
        ((-big, 0.45), f"mu must be finite, got {-big}"),
        ((0.0, big), "mu must be positive, got 0.0"),
    ]
    for pair, reason in cases:
        assert validate_pair(*pair) == PairValidity(False, reason)
        with pytest.raises(ParameterError) as refused:
            ProtocolParams(*pair)
        assert str(refused.value) == reason
    # An int inside the float range is checked and decomposed as its float.
    assert decompose(ProtocolParams(0.3, 1)) == decompose(ProtocolParams(0.3, 1.0))
    largest = int(sys.float_info.max)
    assert validate_pair(0.3, largest).reason.startswith("single-photon weight of mu_prime")


def _refused_pair(mu, mu_prime):
    """validate_pair's refusal of the pair, raised as ProtocolParams raises it."""
    verdict = validate_pair(mu, mu_prime)
    assert not verdict
    raise ParameterError(verdict.reason)


_PARAMS = ProtocolParams(0.3, 0.45)
_SETUP = WeakDecoySetup(1e-3, 1e-6, 1e-4)

# (field, site): each site is refused by the value given as that field.
HUGE_INT_SITES = [
    ("mu", lambda v: _refused_pair(v, 1)),
    ("mu_prime", lambda v: _refused_pair(0.3, v)),
    ("mu", lambda v: ProtocolParams(v, 0.45)),
    ("mu_prime", lambda v: ProtocolParams(0.3, v)),
    ("seed", lambda v: sample_observation(NoEve(1e-3), _PARAMS, PulseBudget(10, 10), v)),
    ("s0", lambda v: ObservedRates(v, 0.0, 0.0)),
    ("s_mu", lambda v: ObservedRates(0.0, v, 0.0)),
    ("s_mu_prime", lambda v: ObservedRates(0.0, 0.0, v)),
    ("eta", lambda v: NoEve(v)),
    ("s0", lambda v: NoEve(1e-3, v)),
    ("q", lambda v: PnsAttack(v)),
    ("s0", lambda v: PnsAttack(0.1, v)),
    ("s0", lambda v: YieldTable(v, (0.1, 0.1))),
    ("yields[1]", lambda v: YieldTable(0.0, (v, 0.1))),
    ("yields[2]", lambda v: YieldTable(0.0, (0.1, v))),
    ("delta", lambda v: KeyRateInput(v, 0.0)),
    ("qber", lambda v: KeyRateInput(0.0, v)),
    ("confidence_exponent", lambda v: FluctuationSettings(v)),
    ("n_mu", lambda v: PulseBudget(v, 1)),
    ("eta", lambda v: WeakDecoySetup(v, 1e-6, 1e-4)),
    ("s0", lambda v: WeakDecoySetup(1e-3, v, 1e-4)),
    ("mu_v", lambda v: WeakDecoySetup(1e-3, 1e-6, v)),
    ("rep_rate", lambda v: WeakDecoySetup(1e-3, 1e-6, 1e-4, v)),
    ("confidence_exponent", lambda v: WeakDecoySetup(1e-3, 1e-6, 1e-4, 8e7, v)),
    ("intensity", multi_photon_weight),
    ("intensity", lambda v: poisson_mixture(v, 0.0, (0.1,))),
    ("mu", hwang_optimized),
    ("delta", lambda v: delta_prime_bound(v, ObservedRates(0.0, 1e-3, 2e-3), _PARAMS)),
    ("entropy argument", binary_entropy),
    ("relative fluctuation target", lambda v: required_pulses(_SETUP, v)),
    ("n_pulses", lambda v: acquisition_time(v, 1.0)),
    ("rep_rate", lambda v: acquisition_time(1.0, v)),
]

# (value, its text in a refusal): str() prints at most 4 300 digits, so a
# longer int is shown by its bit count.
HUGE_INTS = [
    (10**400, str(10**400)),
    (-(10**400), str(-(10**400))),
    (10**5000, "a 16610-bit integer"),
    (-(10**5000), "a negative 16610-bit integer"),
]


@pytest.mark.parametrize("value, shown", HUGE_INTS, ids=["1e400", "-1e400", "1e5000", "-1e5000"])
@pytest.mark.parametrize(
    "name, site", HUGE_INT_SITES, ids=[f"{i}-{name}" for i, (name, _) in enumerate(HUGE_INT_SITES)]
)
def test_huge_ints_are_refused_by_type(name, site, value, shown):
    # An int past the float range overflowed where a site converted it to a
    # float, and one past str()'s digit limit raised a bare ValueError where
    # its refusal printed it.  Each is refused by comparison, with the text
    # of the site's own typed refusal, naming the field.
    with pytest.raises((ParameterError, DomainError)) as refused:
        site(value)
    message = str(refused.value)
    assert re.search(rf"(?<!\w){re.escape(name)}(?!\w)", message)
    if name == "n_mu":
        assert message == "n_mu is too large to convert to a float"
    elif name == "n_pulses" and value > 0:
        # Past the float range, as inf is, the pulse count keeps inf's refusal.
        assert message == (
            f"acquisition time n_pulses / rep_rate is not finite for n_pulses={shown}, rep_rate=1.0"
        )
    elif name == "seed" and value > 0:
        # A seed past the generator's period is shown by its bit count at any size.
        assert message == f"seed must be below 2**128, got a {value.bit_length()}-bit integer"
    else:
        assert message.endswith(shown) or f"={shown} " in message


def test_protocol_params_guard():
    params = ProtocolParams(mu=0.3, mu_prime=0.45)
    assert params.mu == 0.3
    with pytest.raises(ParameterError):
        ProtocolParams(mu=0.45, mu_prime=0.3)
    with pytest.raises(ParameterError):
        ProtocolParams(mu=0.3, mu_prime=3.0)


def test_decompose_oracle():
    coeffs = decompose(ProtocolParams(0.3, 0.45))
    assert coeffs.p0_mu == pytest.approx(0.7408182206817179, rel=1e-15)
    assert coeffs.p1_mu == pytest.approx(0.22224546620451535, rel=1e-15)
    assert coeffs.p0_mu_prime == pytest.approx(0.6376281516217733, rel=1e-15)
    assert coeffs.p1_mu_prime == pytest.approx(0.28693266822979796, rel=1e-15)
    assert coeffs.exp_gap == pytest.approx(0.8607079764250578, rel=1e-15)
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


def decomposition_bits(mu, mu_prime):
    """Each coefficient formed by itself from the pair, as float.hex."""
    exp_gap = math.exp(mu - mu_prime)
    weights = (
        math.exp(-mu), mu * math.exp(-mu), math.exp(-mu_prime), mu_prime * math.exp(-mu_prime),
        exp_gap, multi_photon_weight(mu), _multi_ratio(mu, mu_prime, exp_gap),
    )
    return [w.hex() for w in weights]


@st.composite
def pair_and_other_partner(draw):
    """An admissible pair down to the MIN_INTENSITY floor, and a second admissible mu'."""
    mu = draw(st.floats(MIN_INTENSITY, 0.99))
    # Below 1, every mu' from the separation floor on dominates; above, some do.
    partners = st.floats(mu * (1.0 + MIN_SEPARATION), 1.0) | st.floats(1.0, 400.0)
    mu_prime, other = draw(partners), draw(partners)
    assume(validate_pair(mu, mu_prime) and validate_pair(mu, other) and other != mu_prime)
    return mu, mu_prime, other


@given(pair_and_other_partner())
def test_decomposition_is_formed_at_construction(pairs):
    mu, mu_prime, other = pairs
    params = ProtocolParams(mu, mu_prime)
    # Formed by the constructor, before anything reads it; not a field.
    assert "_coefficients" in vars(params)
    assert asdict(params) == {"mu": mu, "mu_prime": mu_prime}
    bits = decomposition_bits(mu, mu_prime)
    assert [w.hex() for w in astuple(decompose(params))] == bits
    for twin in (copy.copy(params), copy.deepcopy(params), pickle.loads(pickle.dumps(params))):
        assert twin == params
        assert [w.hex() for w in astuple(decompose(twin))] == bits
    moved = replace(params, mu_prime=other)
    assert [w.hex() for w in astuple(decompose(moved))] == decomposition_bits(mu, other)


@pytest.mark.parametrize(
    "mu_prime", [0.45, 2e-160], ids=["ratio-would-overflow", "c-would-be-subnormal"]
)
def test_protocol_params_refuse_a_weak_intensity_below_the_floor(mu_prime):
    # At mu = 1e-160, c = mu^2/2 is subnormal, and beside mu' = 0.45 so is
    # 1/(mu'/mu)^2; every bound divides by both.  The floor refuses the pair
    # before it reaches decompose.
    with pytest.raises(ParameterError, match=r"^mu must be at least 1e-150, got 1e-160$"):
        ProtocolParams(1e-160, mu_prime)


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
        check_remainder_nonnegative(mu, mu * (1.0 + MIN_SEPARATION))
        mu = 10.0 ** rng.uniform(-6.0, -2.0)
        check_remainder_nonnegative(mu, mu * (1.0 + 10.0 ** rng.uniform(-6.0, 0.5)))


@given(admissible_pairs())
def test_decompose_two_photon_identity(pair):
    # The scaled weak two-photon weight must equal the strong one exactly.
    mu, mu_prime = pair
    coeffs = decompose(ProtocolParams(mu, mu_prime))
    assert coeffs.multi_ratio * poisson_pmf(2, mu) == pytest.approx(
        poisson_pmf(2, mu_prime), rel=1e-12
    )
