"""Remaining-useful-life evaluation: RMSE, threshold RULs, scores, lag.

RUL at a fault threshold is the time from a prediction origin until the
voltage first falls to the threshold, located by linear interpolation
between the bracketing samples. The accuracy score is asymmetric: late
forecasts (negative percent error) lose score four times faster than
early ones, with half-life points at -5% and +20%.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ParameterError

DEFAULT_LOSS_FRACTIONS = (0.035, 0.040, 0.045, 0.050, 0.055)
DEFAULT_INITIAL_VOLTAGE = 3.325

_LN_HALF = math.log(0.5)


class RulCoverageWarning(UserWarning):
    """A threshold was excluded from the score: a series never crossed it, or RUL_true is 0."""


@dataclass(frozen=True)
class FaultThresholds:
    """Voltage-loss milestones as fractions of the initial voltage."""

    initial_voltage: float = DEFAULT_INITIAL_VOLTAGE
    loss_fractions: tuple = DEFAULT_LOSS_FRACTIONS

    def __post_init__(self):
        object.__setattr__(self, "loss_fractions", tuple(float(f) for f in self.loss_fractions))
        if not self.initial_voltage > 0.0:  # NaN fails too
            raise ParameterError(f"initial voltage must be positive, got {self.initial_voltage}")
        fr = self.loss_fractions
        if not fr:
            raise ParameterError("need at least one loss fraction")
        if any(not 0.0 < f < 1.0 for f in fr) or any(b <= a for a, b in zip(fr, fr[1:])):
            raise ParameterError(f"loss fractions must be strictly increasing in (0, 1): {fr}")

    @property
    def voltages(self) -> tuple:
        """Threshold voltages V0 * (1 - fraction), one per fraction."""
        return tuple(self.initial_voltage * (1.0 - f) for f in self.loss_fractions)


@dataclass(frozen=True)
class RulEstimate:
    """True/predicted RUL at one threshold; None marks a non-crossing."""

    loss_fraction: float
    rul_true: float | None
    rul_pred: float | None
    percent_error: float | None
    accuracy: float | None

    @property
    def valid(self) -> bool:
        return self.accuracy is not None


@dataclass(frozen=True)
class MetricsReport:
    """Full evaluation block for one forecast run.

    ``score_rul`` is None when no threshold gives a valid accuracy.
    """

    rmse: float
    estimates: tuple
    score_rul: float | None
    lag_errors: tuple  # signed hours per threshold, None where flagged

    def to_csv(self) -> str:
        """Fixed-order CSV: one threshold row each, then a summary row."""
        lines = ["ft,rul_true_h,rul_pred_h,percent_error_pct,accuracy"]
        for est in self.estimates:
            cells = [repr(est.loss_fraction)] + [
                "" if v is None else repr(v)
                for v in (est.rul_true, est.rul_pred, est.percent_error, est.accuracy)
            ]
            lines.append(",".join(cells))
        score = "" if self.score_rul is None else repr(self.score_rul)
        lines.append(f"summary,{self.rmse!r},{score},,")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------


def rmse(pred, true) -> float:
    """Root mean squared difference between two equal-length series."""
    pred = np.asarray(pred, dtype=np.float64)
    true = np.asarray(true, dtype=np.float64)
    if pred.shape != true.shape or pred.size == 0:
        raise ContractError(f"rmse needs equal non-empty series, got {pred.shape} vs {true.shape}")
    diff = pred - true
    return float(np.sqrt(np.mean(diff * diff)))


def threshold_crossing(time, values, threshold_voltage: float, origin_hours: float):
    """RUL in hours from ``origin_hours`` to the first drop to the threshold.

    The crossing instant is linearly interpolated between the bracketing
    samples; returns None when the series never reaches the threshold at
    or after the origin (a value, not an error).
    """
    time = np.asarray(time, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if time.shape != values.shape or time.ndim != 1 or time.size == 0:
        raise ContractError(f"need matching 1-D series, got {time.shape} vs {values.shape}")
    thr = float(threshold_voltage)
    origin = float(origin_hours)
    start = int(np.searchsorted(time, origin, side="left"))
    for i in range(start, len(time)):
        if values[i] <= thr:
            if i == 0 or values[i - 1] <= thr:
                t_star = time[i]
            else:
                frac = (values[i - 1] - thr) / (values[i - 1] - values[i])
                t_star = max(time[i - 1] + frac * (time[i] - time[i - 1]), origin)
            return float(t_star - origin)
    return None


def percent_error_ft(rul_true: float, rul_pred: float) -> float:
    """Signed percent RUL error; positive means an early forecast."""
    if rul_true is None or rul_pred is None:
        raise ContractError("percent error undefined for non-crossing RULs; flag them instead")
    if rul_true <= 0.0:
        raise ContractError(f"true RUL must be positive, got {rul_true}")
    return 100.0 * (rul_true - rul_pred) / rul_true


def accuracy_ft(percent_error: float) -> float:
    """Asymmetric accuracy in (0, 1]: half-life -5% late, +20% early."""
    pe = float(percent_error)
    if not math.isfinite(pe):
        raise ContractError(f"percent error must be finite, got {percent_error}")
    if pe <= 0.0:
        return math.exp(-_LN_HALF * (pe / 5.0))
    return math.exp(_LN_HALF * (pe / 20.0))


def score_rul(accuracies, expected: int = 5) -> float:
    """Mean accuracy over valid thresholds; warns when some are missing."""
    accs = [a for a in accuracies if a is not None]
    if not accs:
        raise ContractError("no valid accuracies to score")
    if len(accs) < expected:
        warnings.warn(
            f"Score_RUL averaged over {len(accs)} of {expected} thresholds",
            RulCoverageWarning,
            stacklevel=2,
        )
    return float(sum(accs) / len(accs))


def lag_error(time, pred, true, threshold_voltage: float, origin_hours: float):
    """Signed crossing-time gap: true minus predicted, in hours.

    Positive means the prediction crossed early; negative means it lags
    reality. Both series must share the timestamp grid (``threshold_crossing``
    checks each against it). None flags a non-crossing on either side.
    """
    r_true = threshold_crossing(time, true, threshold_voltage, origin_hours)
    r_pred = threshold_crossing(time, pred, threshold_voltage, origin_hours)
    if r_true is None or r_pred is None:
        return None
    return r_true - r_pred


def evaluate_forecast(
    time,
    true,
    pred,
    thresholds: FaultThresholds | None = None,
    origin_hours: float | None = None,
) -> MetricsReport:
    """Assemble the full report for an aligned (time, true, pred) triple.

    ``origin_hours`` defaults to the first timestamp. Thresholds that
    one of the series never crosses, or that the true series has already
    reached at the origin (RUL 0, where percent error is undefined), are
    flagged, warned about, and excluded from the score; with none left
    the score is None.
    """
    thresholds = thresholds or FaultThresholds()
    time = np.asarray(time, dtype=np.float64)
    origin = float(time[0]) if origin_hours is None else float(origin_hours)

    estimates, accs, lags = [], [], []
    for frac, thr_v in zip(thresholds.loss_fractions, thresholds.voltages):
        r_true = threshold_crossing(time, true, thr_v, origin)
        r_pred = threshold_crossing(time, pred, thr_v, origin)
        if r_true is None or r_pred is None or r_true == 0.0:
            why = ("true series is already at or below it at the origin" if r_true == 0.0
                   else f"{'true' if r_true is None else 'predicted'} series never crosses")
            warnings.warn(
                f"threshold {frac:g}: {why}; excluded from Score_RUL",
                RulCoverageWarning,
                stacklevel=2,
            )
            estimates.append(RulEstimate(frac, r_true, r_pred, None, None))
            lags.append(None)
            continue
        pe = percent_error_ft(r_true, r_pred)
        estimates.append(RulEstimate(frac, r_true, r_pred, pe, accuracy_ft(pe)))
        accs.append(estimates[-1].accuracy)
        lags.append(r_true - r_pred)
    # Each excluded threshold has warned above; score_rul's own coverage warning would repeat it.
    score = score_rul(accs, expected=len(accs)) if accs else None
    return MetricsReport(
        rmse=rmse(pred, true),
        estimates=tuple(estimates),
        score_rul=score,
        lag_errors=tuple(lags),
    )
