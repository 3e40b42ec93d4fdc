"""The public API, pinned: the names ``tstransformer`` exports and the
signatures of the calls whose shape has changed before. A change that
drops or reshapes one of these edits the pin and states why."""

import inspect

import tstransformer
from tstransformer.training import adam_step, save_checkpoint

EXPORTS = (
    "Checkpoint", "CsvSchema", "DegradationSpec", "FaultThresholds", "ForecastResult", "MetricsReport",
    "ModelConfig", "NormStats", "RulEstimate", "TSTransformerModel", "Tensor", "TimeSeries", "TrainConfig",
    "WindowedDataset", "accuracy_ft", "adam_init", "adam_step", "affine", "backward", "condense",
    "degradation_curve", "depthwise_conv1d", "evaluate_forecast", "gradient_check", "ingest_csv", "lag_error",
    "layer_norm", "load_checkpoint", "make_windows", "matmul", "moving_average", "mse_loss", "no_grad",
    "param_count", "percent_error_ft", "relu", "rmse", "rolling_forecast", "save_checkpoint", "score_rul",
    "softmax_last", "split_at", "synth_degradation", "threshold_crossing", "train", "zscore_apply",
    "zscore_fit", "zscore_invert",
)


def _shape(fn) -> str:
    """Parameter names, kinds and defaults, and the return annotation."""
    sig = inspect.signature(fn)
    params = [p.replace(annotation=inspect.Parameter.empty) for p in sig.parameters.values()]
    return f"{sig.replace(parameters=params, return_annotation=inspect.Signature.empty)} -> {sig.return_annotation}"


def test_package_exports_are_pinned():
    exported = {name for name, value in vars(tstransformer).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert sorted(exported) == sorted(EXPORTS)


def test_adam_step_and_save_checkpoint_signatures_are_pinned():
    assert _shape(adam_step) == "(named_params, state, config) -> float"
    assert _shape(save_checkpoint) == "(path, model, stats, target, extra=None) -> None"
