"""The public API, pinned: the names ``tstransformer`` exports, the public
names ``autodiff`` defines and the model's public methods, and the
signatures of the calls whose shape has changed before. The layering too:
every function and class ``autodiff`` defines, private ones included. A change that
drops or reshapes one of these edits the pin and states why; a test-only
helper belongs in ``tests/helpers.py``, not in the library."""

import inspect

import tstransformer
from tstransformer import autodiff
from tstransformer.model import TSTransformerModel
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

# The taped reference chain's own primitives (add ... attention) and the
# model's sublayers (embed, reduce_kv, multi_scale_attention) live in
# tests/helpers.py: no tst path, export or benchmark calls them.
AUTODIFF_NAMES = (
    "Tensor", "affine", "backward", "depthwise_conv1d", "gradient_check", "layer_norm", "matmul", "no_grad",
    "relu", "softmax_last", "zero_grad",
)
# The autodiff core, private names included: the graph engine, the
# primitives and the array kernels they call. The encoder stage's array code
# (attention, the stage build, forward and backward) lives in the model,
# which imports these kernels by name; a helper added here edits this pin
# and says why it belongs to no model.
AUTODIFF_DEFINED = AUTODIFF_NAMES + (
    "_NonFiniteError", "_State", "_affine", "_affine_grads", "_check_data", "_const", "_depthwise_conv1d",
    "_depthwise_conv1d_grads", "_fold_taps", "_layer_norm", "_layer_norm_grads", "_pad_index", "_reduce_leading",
    "_result", "_softmax", "_softmax_grad",
)
MODEL_METHODS = (
    "forward", "from_arrays", "load_arrays", "named_parameters", "param", "parameter_count", "parameters",
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


def test_autodiff_names_and_model_methods_are_pinned():
    defined = [name for name, value in vars(autodiff).items()
               if not name.startswith("_") and getattr(value, "__module__", None) == autodiff.__name__]
    assert sorted(defined) == sorted(AUTODIFF_NAMES)
    assert sorted(name for name in vars(TSTransformerModel) if not name.startswith("_")) == sorted(MODEL_METHODS)


def test_autodiff_defines_only_the_autodiff_core():
    defined = [name for name, value in vars(autodiff).items()
               if callable(value) and getattr(value, "__module__", None) == autodiff.__name__]
    assert sorted(defined) == sorted(AUTODIFF_DEFINED)


def test_adam_step_and_save_checkpoint_signatures_are_pinned():
    assert _shape(adam_step) == "(named_params, state, config) -> float"
    assert _shape(save_checkpoint) == "(path, model, stats, target, extra=None) -> None"
