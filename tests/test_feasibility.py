import pytest

from decoyqkd import (
    DomainError,
    ParameterError,
    WeakDecoySetup,
    acquisition_time,
    build_report,
    required_pulses,
    weak_decoy_s1_bound,
)

DEFAULT = WeakDecoySetup(eta=1e-4, s0=1e-6, mu_v=1e-4)


def test_setup_validation():
    with pytest.raises(ParameterError):
        WeakDecoySetup(eta=0.0, s0=1e-6, mu_v=1e-4)
    with pytest.raises(ParameterError):
        WeakDecoySetup(eta=1e-4, s0=1.0, mu_v=1e-4)
    with pytest.raises(ParameterError):
        WeakDecoySetup(eta=1e-4, s0=1e-6, mu_v=2e-4)
    with pytest.raises(ParameterError):
        WeakDecoySetup(eta=1e-4, s0=1e-6, mu_v=1e-4, rep_rate=0.0)
    with pytest.raises(ParameterError):
        WeakDecoySetup(eta=1e-4, s0=1e-6, mu_v=1e-4, confidence_exponent=0.0)


def test_s1_bound_oracles():
    assert weak_decoy_s1_bound(DEFAULT) == pytest.approx(5.000500025000833e-05, rel=1e-12)
    half = WeakDecoySetup(eta=1e-4, s0=1e-6, mu_v=5e-5)
    assert weak_decoy_s1_bound(half) == pytest.approx(7.500375009375156e-05, rel=1e-12)


def test_s1_bound_approaches_eta_for_vanishing_decoy():
    tiny = WeakDecoySetup(eta=1e-4, s0=1e-6, mu_v=1e-12)
    assert weak_decoy_s1_bound(tiny) == pytest.approx(1e-4, rel=1e-9)


def test_required_pulses_exact():
    assert required_pulses(DEFAULT) == 1e14
    assert required_pulses(DEFAULT, rel_dark_fluct_target=1e-2) == 1e12
    assert required_pulses(DEFAULT, rel_dark_fluct_target=1.0) == 1e8


def test_required_pulses_domain():
    with pytest.raises(DomainError):
        required_pulses(DEFAULT, rel_dark_fluct_target=0.0)
    with pytest.raises(DomainError):
        required_pulses(DEFAULT, rel_dark_fluct_target=1.5)
    dark_free = WeakDecoySetup(eta=1e-4, s0=0.0, mu_v=1e-4)
    with pytest.raises(DomainError):
        required_pulses(dark_free)


def test_required_pulses_monotone():
    brighter_dark = WeakDecoySetup(eta=1e-4, s0=1e-5, mu_v=1e-4)
    assert required_pulses(brighter_dark) < required_pulses(DEFAULT)
    assert required_pulses(DEFAULT, rel_dark_fluct_target=1e-2) < required_pulses(
        DEFAULT, rel_dark_fluct_target=1e-3
    )


def test_acquisition_time_oracle():
    time = acquisition_time(1e14, 8e7)
    assert time.seconds == pytest.approx(1.25e6, rel=1e-12)
    assert time.days == pytest.approx(14.467592592592593, rel=1e-12)


def test_acquisition_time_edge_cases():
    assert acquisition_time(0, 8e7).seconds == 0.0
    with pytest.raises(DomainError):
        acquisition_time(-1, 8e7)
    with pytest.raises(DomainError):
        acquisition_time(1e10, 0.0)


@pytest.mark.parametrize(
    "n_pulses, rep_rate",
    [(1e14, 1e-320), (1e300, 1e-10), (float("inf"), 8e7), (float("nan"), 8e7)],
    ids=["subnormal-rate", "overflow", "infinite-count", "nan-count"],
)
def test_acquisition_time_not_finite_is_domain_error(n_pulses, rep_rate):
    with pytest.raises(DomainError) as raised:
        acquisition_time(n_pulses, rep_rate)
    assert str(raised.value) == (
        f"acquisition time n_pulses / rep_rate is not finite for "
        f"n_pulses={n_pulses}, rep_rate={rep_rate}"
    )


def test_acquisition_contrast():
    # A counting-statistics budget that fits in under an hour vs one that
    # takes weeks at the same repetition rate.
    quick = acquisition_time(8e10, 8e7)
    slow = acquisition_time(1e14, 8e7)
    assert quick.seconds == pytest.approx(1000.0, rel=1e-12)
    assert quick.seconds < 3600
    assert slow.days > 14


def test_build_report_defaults_impractical():
    report = build_report(DEFAULT)
    assert report.n_pulses_required == 1e14
    assert report.time.days == pytest.approx(14.467592592592593, rel=1e-12)
    assert report.practical is False
    assert report.expected_signal_rate == pytest.approx(1e-8, rel=1e-3)


def test_build_report_bright_darks_practical():
    bright = WeakDecoySetup(eta=1e-4, s0=1e-2, mu_v=1e-4)
    report = build_report(bright)
    assert report.practical is True
    assert report.time.days <= 1.0


@pytest.mark.parametrize(
    "setup, target, cause",
    [
        (DEFAULT, 1e-300, "squared underflows to 0"),
        (WeakDecoySetup(eta=1e-4, s0=1e-320, mu_v=1e-4), 1e-3, "overflows"),
        (DEFAULT, 1e-160, "overflows"),
    ],
    ids=["target-squared-underflows", "subnormal-dark-rate", "subnormal-target-squared"],
)
def test_required_pulses_unrepresentable_count_is_domain_error(setup, target, cause):
    with pytest.raises(DomainError, match=cause):
        required_pulses(setup, target)
