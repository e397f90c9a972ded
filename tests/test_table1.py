import math

import pytest

from decoyqkd import table1

from reference import dark_rate_sensitivity


def test_rows_shape_and_order():
    rows = table1.rows()
    assert len(rows) == 28
    quantities = [row.quantity for row in rows]
    assert quantities[:8] == ["delta_hwang"] * 8
    assert quantities[8:16] == ["delta_true"] * 8
    assert quantities[16:20] == ["delta_w1"] * 4
    assert quantities[20:] == ["delta_w2", "delta_prime_w2"] * 4
    assert [row.intensity for row in rows[:8]] == list(
        table1.MU_COLUMNS + table1.MU_PRIME_COLUMNS
    )


def test_strong_class_rows_swap_roles():
    rows = [row for row in table1.rows() if row.quantity == "delta_prime_w2"]
    assert [(row.partner, row.intensity) for row in rows] == list(table1.W2_PAIRS)


def test_deviation_tolerances():
    tolerance = {
        "delta_hwang": 1e-3,
        "delta_true": 5e-3,
        "delta_w1": 1e-2,
        "delta_w2": 1e-2,
        "delta_prime_w2": 1e-2,
    }
    for row in table1.rows():
        assert abs(row.deviation) < tolerance[row.quantity], row


def test_loss_only_rates():
    rates = table1.loss_only_rates(0.25, 0.41, 1e-4)
    assert rates.s0 == 1e-6
    assert rates.s_mu == -math.expm1(-2.5e-5)
    assert rates.s_mu_prime == -math.expm1(-4.1e-5)
    assert rates.s_mu < 1e-4 * 0.25


W1_REGRESSIONS = {
    (0.2, 0.34): 0.23409645324013792,
    (0.25, 0.38): 0.289058470015491,
    (0.3, 0.43): 0.34389781723404067,
    (0.35, 0.45): 0.39914757405683315,
}
W2_REGRESSIONS = {
    (0.2, 0.39): 0.25643710760349625,
    (0.25, 0.41): 0.3091400244662775,
    (0.3, 0.45): 0.36187456335734897,
    (0.35, 0.47): 0.41501897920890807,
}
W2_PRIME_REGRESSIONS = {
    (0.2, 0.39): 0.40159628551576193,
    (0.25, 0.41): 0.42164738134141805,
    (0.3, 0.45): 0.45784510396139233,
    (0.35, 0.47): 0.48572766463155165,
}


def test_finite_cell_regressions():
    for pair, expected in W1_REGRESSIONS.items():
        delta, _ = table1.finite_cell(*pair, table1.W1_ETA, table1.W1_PULSES)
        assert delta == pytest.approx(expected, abs=1e-9)
    for pair in table1.W2_PAIRS:
        delta, delta_prime = table1.finite_cell(*pair, table1.W2_ETA, table1.W2_PULSES)
        assert delta == pytest.approx(W2_REGRESSIONS[pair], abs=1e-9)
        assert delta_prime == pytest.approx(W2_PRIME_REGRESSIONS[pair], abs=1e-9)


def test_true_fraction_oracle():
    assert table1.true_fraction(0.2) == pytest.approx(0.18118737111760783, rel=1e-9)
    assert table1.true_fraction(0.47) == pytest.approx(0.3748508446789516, rel=1e-9)


def test_dark_rate_sensitivity_small():
    shift = dark_rate_sensitivity(0.25, 0.41, table1.W2_ETA, table1.W2_PULSES)
    assert shift < 0.01
