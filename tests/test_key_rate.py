import pytest
from hypothesis import given, strategies as st

from decoyqkd import (
    DomainError,
    KeyRateInput,
    ParameterError,
    binary_entropy,
    gllp_rate,
)


def rate(delta, qber):
    return gllp_rate(KeyRateInput(delta=delta, qber=qber))


def test_binary_entropy_oracles():
    assert binary_entropy(0.5) == pytest.approx(1.0, rel=1e-15)
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.01) == pytest.approx(0.08079313589591117, rel=1e-13)


def test_binary_entropy_domain():
    for bad in (-0.1, 1.1, float("nan")):
        with pytest.raises(DomainError):
            binary_entropy(bad)


@given(st.floats(min_value=0.0, max_value=1.0))
def test_binary_entropy_symmetric(x):
    assert abs(binary_entropy(x) - binary_entropy(1.0 - x)) <= 1e-14


def test_gllp_perfect_channel():
    assert rate(0.0, 0.0) == 1.0


def test_gllp_all_tagged():
    assert rate(1.0, 0.0) == 0.0


def test_gllp_oracle():
    assert rate(0.309, 0.01) == pytest.approx(0.5347786747208963, rel=1e-12)


def test_gllp_zero_error_is_one_minus_delta():
    for delta in (0.0, 0.1, 0.32366848545656625, 0.9):
        assert rate(delta, 0.0) == 1.0 - delta


def test_gllp_monotone_in_delta():
    rates = [rate(d, 0.01) for d in (0.0, 0.1, 0.2, 0.4, 0.6, 0.99)]
    assert all(a >= b for a, b in zip(rates, rates[1:]))


def test_gllp_monotone_in_qber():
    rates = [rate(0.2, t) for t in (0.0, 0.01, 0.05, 0.1, 0.2)]
    assert all(a >= b for a, b in zip(rates, rates[1:]))


def test_gllp_negative_raw_clamps():
    raw = 1.0 - 0.5 - binary_entropy(0.2) - 0.5 * binary_entropy(0.4)
    assert raw < 0.0
    assert rate(0.5, 0.2) == 0.0


def test_gllp_error_exceeds_untagged_capacity():
    # qber / (1 - delta) > 1/2 means the corrected-phase entropy is undefined.
    assert rate(0.9, 0.06) == 0.0


def test_key_rate_input_validation():
    KeyRateInput(delta=0.3, qber=0.05)
    with pytest.raises(ParameterError):
        KeyRateInput(delta=-0.01, qber=0.05)
    with pytest.raises(ParameterError):
        KeyRateInput(delta=1.2, qber=0.05)
    with pytest.raises(ParameterError):
        KeyRateInput(delta=0.3, qber=0.6)


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=0.5),
)
def test_gllp_rate_bounded(delta, qber):
    assert 0.0 <= rate(delta, qber) <= 1.0
