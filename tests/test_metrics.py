"""Metric tests: RMSE, threshold crossings, the asymmetric accuracy
score, aggregate scoring, and lag errors.

The headline oracle feeds published percent-error values through the
accuracy chain and checks the aggregate score lands on the published
0.914.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tstransformer.errors import ContractError, ParameterError
from tstransformer.metrics import (
    FaultThresholds,
    RulCoverageWarning,
    accuracy_ft,
    evaluate_forecast,
    lag_error,
    percent_error_ft,
    rmse,
    score_rul,
    threshold_crossing,
)

REFERENCE_PERCENT_ERRORS = (-2.706, 0.466, -0.206, -0.269, -0.251)


# ---------------------------------------------------------------------------
# rmse


def test_rmse_identical_is_zero():
    x = np.linspace(3.3, 3.1, 50)
    assert rmse(x, x) == 0.0


def test_rmse_hand_value():
    assert rmse([1.0, 2.0], [0.0, 0.0]) == pytest.approx(math.sqrt(2.5), abs=1e-12)


def test_rmse_length_mismatch():
    with pytest.raises(ContractError):
        rmse([1.0, 2.0], [1.0])


# ---------------------------------------------------------------------------
# threshold crossing


def test_threshold_voltage_derivation():
    thr = FaultThresholds()
    assert thr.voltages[1] == pytest.approx(3.325 * 0.96, abs=1e-12)
    assert thr.voltages[1] == pytest.approx(3.192, abs=1e-9)


def test_crossing_linear_interpolation():
    t = np.linspace(0.0, 10.0, 11)
    v = np.linspace(3.3, 3.1, 11)
    assert threshold_crossing(t, v, 3.2, 0.0) == pytest.approx(5.0, abs=1e-9)


def test_crossing_never_below_is_none():
    t = np.arange(5.0)
    assert threshold_crossing(t, np.full(5, 3.3), 3.2, 0.0) is None


def test_crossing_origin_shifts_rul():
    t = np.linspace(0.0, 10.0, 101)
    v = np.linspace(3.3, 3.1, 101)
    assert threshold_crossing(t, v, 3.2, 2.0) == pytest.approx(3.0, abs=1e-9)


def test_crossing_already_below_at_origin():
    t = np.arange(4.0)
    v = np.array([3.0, 3.0, 3.0, 3.0])
    assert threshold_crossing(t, v, 3.2, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_crossing_monotone_in_threshold():
    rng = np.random.default_rng(0)
    t = np.arange(200.0)
    v = 3.3 - np.cumsum(np.abs(rng.normal(0, 1e-3, 200)))  # non-increasing
    ruls = [threshold_crossing(t, v, thr, 0.0) for thr in (3.28, 3.25, 3.22)]
    ruls = [r for r in ruls if r is not None]
    assert all(a <= b for a, b in zip(ruls, ruls[1:]))


# ---------------------------------------------------------------------------
# percent error


def test_percent_error_zero_for_exact():
    assert percent_error_ft(100.0, 100.0) == 0.0


def test_percent_error_reference_row_one():
    # recomputing the published RUL pair gives -2.7123 (the printed
    # table rounds the same pair to -2.706)
    pe = percent_error_ft(80.191, 82.366)
    assert pe == pytest.approx(100.0 * (80.191 - 82.366) / 80.191, abs=1e-12)
    assert pe == pytest.approx(-2.7123, abs=5e-4)


def test_percent_error_reference_row_two():
    pe = percent_error_ft(243.930, 242.746)
    assert pe == pytest.approx(0.4854, abs=5e-4)


def test_percent_error_contract_violation():
    with pytest.raises(ContractError):
        percent_error_ft(0.0, 5.0)
    with pytest.raises(ContractError):
        percent_error_ft(None, 5.0)


# ---------------------------------------------------------------------------
# accuracy score


def test_accuracy_identity_at_zero():
    assert accuracy_ft(0.0) == 1.0


def test_accuracy_half_life_points_exact():
    assert accuracy_ft(-5.0) == pytest.approx(0.5, abs=1e-12)
    assert accuracy_ft(20.0) == pytest.approx(0.5, abs=1e-12)


def test_accuracy_reference_value():
    assert accuracy_ft(-2.706) == pytest.approx(0.6872, abs=5e-5)


def test_accuracy_continuous_at_zero():
    assert accuracy_ft(-1e-12) == pytest.approx(1.0, abs=1e-11)
    assert accuracy_ft(1e-12) == pytest.approx(1.0, abs=1e-11)


@settings(max_examples=200, deadline=None)
@given(x=st.floats(min_value=0.0, max_value=50.0))
def test_accuracy_matched_half_life_structure(x):
    assert accuracy_ft(-x * 5.0) == pytest.approx(accuracy_ft(x * 20.0), rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    a=st.floats(min_value=0.01, max_value=100.0),
    b=st.floats(min_value=0.01, max_value=100.0),
)
def test_accuracy_decreasing_in_magnitude_per_branch(a, b):
    lo, hi = sorted((a, b))
    if hi - lo < 1e-6 * hi:
        return
    assert accuracy_ft(-hi) < accuracy_ft(-lo)
    assert accuracy_ft(hi) < accuracy_ft(lo)
    assert 0.0 < accuracy_ft(a) <= 1.0
    assert 0.0 < accuracy_ft(-a) <= 1.0


def test_accuracy_rejects_non_finite():
    with pytest.raises(ContractError):
        accuracy_ft(float("nan"))


# ---------------------------------------------------------------------------
# aggregate score


def test_score_perfect():
    assert score_rul([1.0] * 5) == 1.0


def test_score_reference_table():
    accs = [accuracy_ft(pe) for pe in REFERENCE_PERCENT_ERRORS]
    assert score_rul(accs) == pytest.approx(0.914, abs=0.005)


def test_score_permutation_invariant_and_bounded():
    rng = np.random.default_rng(1)
    accs = list(rng.uniform(0.01, 1.0, 5))
    s = score_rul(accs)
    assert s == pytest.approx(score_rul(accs[::-1]), abs=0.0)
    assert 0.0 < s <= 1.0


def test_score_warns_on_partial_coverage():
    with pytest.warns(RulCoverageWarning):
        s = score_rul([0.9, 0.8, None, 0.7, None])
    assert s == pytest.approx((0.9 + 0.8 + 0.7) / 3, abs=1e-12)


def test_score_empty_is_contract_error():
    with pytest.raises(ContractError):
        score_rul([None, None])


# ---------------------------------------------------------------------------
# lag error


def test_lag_identical_series():
    t = np.linspace(0.0, 10.0, 101)
    v = np.linspace(3.3, 3.1, 101)
    assert lag_error(t, v, v, 3.2, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_lag_sign_convention():
    # prediction crosses 2 h after truth -> lag of -2 h
    t = np.linspace(0.0, 20.0, 201)
    true = 3.3 - 0.01 * t
    pred = 3.3 - 0.01 * np.clip(t - 2.0, 0.0, None)
    assert lag_error(t, pred, true, 3.2, 0.0) == pytest.approx(-2.0, abs=1e-6)


def test_lag_flags_non_crossing():
    t = np.arange(5.0)
    assert lag_error(t, np.full(5, 3.3), np.linspace(3.3, 3.0, 5), 3.1, 0.0) is None


def test_lag_requires_shared_grid():
    with pytest.raises(ContractError):
        lag_error(np.arange(5.0), np.zeros(4), np.zeros(5), 3.2, 0.0)


# ---------------------------------------------------------------------------
# report assembly


def test_evaluate_forecast_report_and_csv():
    thresholds = FaultThresholds()
    t = np.linspace(500.0, 1000.0, 2001)
    true = 3.31 - 4.2e-4 * (t - 500.0)
    pred = true - 2e-4  # slightly pessimistic
    report = evaluate_forecast(t, true, pred, thresholds, 500.0)
    assert len(report.estimates) == 5
    assert report.score_rul == pytest.approx(
        np.mean([e.accuracy for e in report.estimates]), abs=1e-12
    )
    assert report.rmse == pytest.approx(2e-4, abs=1e-9)
    for est, lag in zip(report.estimates, report.lag_errors):
        assert est.percent_error is not None
        assert lag == pytest.approx(est.rul_true - est.rul_pred, abs=1e-12)
        expected_pe = 100.0 * (est.rul_true - est.rul_pred) / est.rul_true
        assert est.percent_error == pytest.approx(expected_pe, abs=1e-9)
    text = report.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "ft,rul_true_h,rul_pred_h,percent_error_pct,accuracy"
    assert len(lines) == 7 and lines[-1].startswith("summary,")


def test_evaluate_forecast_excludes_missing_crossings_and_warns():
    thresholds = FaultThresholds(loss_fractions=(0.035, 0.04))
    t = np.linspace(500.0, 600.0, 500)
    true = 3.31 - 1.0e-3 * (t - 500.0)  # crosses both
    pred = np.full_like(t, 3.30)  # crosses neither
    with pytest.warns(RulCoverageWarning):
        report = evaluate_forecast(t, true, pred, thresholds, 500.0)
    # no threshold left to score: the report says so instead of failing
    assert report.score_rul is None
    assert all(e.accuracy is None and e.rul_pred is None for e in report.estimates)
    assert report.lag_errors == (None, None)
    assert report.rmse == pytest.approx(rmse(pred, true), abs=0.0)
    assert report.to_csv().splitlines()[-1] == f"summary,{report.rmse!r},,,"
    with pytest.raises(ContractError):
        score_rul([None, None])


def test_evaluate_forecast_flags_threshold_crossed_at_origin():
    # The true series starts below the 3.5 % threshold (3.2086 V): RUL_true is
    # 0, where percent error is undefined, so that threshold is flagged.
    t = np.linspace(0.0, 600.0, 3001)
    true = 3.2 - 1.0e-4 * t
    pred = true - 1e-4
    with pytest.warns(RulCoverageWarning) as caught:
        report = evaluate_forecast(t, true, pred, FaultThresholds(), 0.0)
    first = report.estimates[0]
    assert first.rul_true == 0.0 and first.percent_error is None and first.accuracy is None
    assert report.lag_errors[0] is None
    assert [str(w.message) for w in caught if "threshold 0.035" in str(w.message)] == [
        "threshold 0.035: true series is already at or below it at the origin; excluded from Score_RUL"
    ]
    assert all(e.accuracy is not None for e in report.estimates[1:])
    assert report.score_rul == pytest.approx(
        np.mean([e.accuracy for e in report.estimates[1:]]), abs=1e-12
    )


def test_fault_threshold_validation():
    with pytest.raises(ParameterError):
        FaultThresholds(initial_voltage=-1.0)
    with pytest.raises(ParameterError):
        FaultThresholds(initial_voltage=float("nan"))
    with pytest.raises(ParameterError):
        FaultThresholds(loss_fractions=(0.05, 0.04))
    with pytest.raises(ParameterError):
        FaultThresholds(loss_fractions=(0.0, 0.5))
