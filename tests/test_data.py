"""Pipeline tests: ingestion, condensing, filtering, normalization,
splitting, windowing, and the synthetic degradation generator."""

import csv
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import first_crossing_by_bisection, stacked_windows
from tstransformer.data import (
    CsvSchema,
    DegradationSpec,
    TimeSeries,
    condense,
    degradation_curve,
    ingest_csv,
    make_windows,
    moving_average,
    split_at,
    synth_degradation,
    zscore_apply,
    zscore_fit,
    zscore_invert,
)
from tstransformer.errors import DataError, ParameterError, SchemaError
from tstransformer.metrics import threshold_crossing


def series(time, target, extra=None, names=("Utot_V", "I_A")):
    cols = [np.asarray(target, dtype=float)]
    if extra is not None:
        cols.append(np.asarray(extra, dtype=float))
    else:
        cols.append(np.zeros(len(time)) + 7.0)
    return TimeSeries(np.asarray(time, dtype=float), np.stack(cols, axis=1), names)


# ---------------------------------------------------------------------------
# TimeSeries invariants


def test_time_must_strictly_increase():
    with pytest.raises(DataError, match="row 2"):
        series([0.0, 1.0, 1.0], [1.0, 2.0, 3.0])


def test_target_must_exist():
    with pytest.raises(SchemaError):
        TimeSeries(np.array([0.0]), np.array([[1.0]]), ("I_A",))


# ---------------------------------------------------------------------------
# ingest


def test_ingest_well_formed(tmp_path):
    p = tmp_path / "ok.csv"
    p.write_text("time_h,Utot_V,I_A\n0.0,3.3,70\n0.1,3.29,71\n0.2,3.28,69\n")
    ts = ingest_csv(p)
    assert len(ts) == 3
    assert ts.channel_names == ("Utot_V", "I_A")
    assert ts.dropped_rows == 0


def test_ingest_missing_target_column(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("time_h,I_A\n0.0,70\n")
    with pytest.raises(SchemaError, match="Utot_V"):
        ingest_csv(p)


def test_ingest_drops_and_counts_malformed_rows(tmp_path):
    p = tmp_path / "messy.csv"
    p.write_text("time_h,Utot_V\n0.0,3.3\n0.1,garbage\n0.2,3.28\n")
    ts = ingest_csv(p)
    assert len(ts) == 2
    assert ts.dropped_rows == 1


def test_ingest_missing_file():
    with pytest.raises(FileNotFoundError):
        ingest_csv("/nonexistent/file.csv")


def test_ingest_undecodable_text_is_data_error(tmp_path):
    p = tmp_path / "latin1.csv"
    p.write_bytes("time_h,Utot_V\n0.0,3.3\n# \u00b0C\n".encode("latin-1"))
    with pytest.raises(DataError, match="latin1.csv: not UTF-8"):
        ingest_csv(p)


def test_ingest_explicit_covariates(tmp_path):
    p = tmp_path / "cols.csv"
    p.write_text("time_h,Utot_V,I_A,T_C\n0.0,3.3,70,55\n1.0,3.2,71,56\n")
    ts = ingest_csv(p, CsvSchema(covariates=("I_A",)))
    assert ts.channel_names == ("Utot_V", "I_A")
    with pytest.raises(SchemaError, match="missing"):
        ingest_csv(p, CsvSchema(covariates=("P_mbar",)))


@pytest.mark.parametrize("name", ["I,A", "I\nA", "I\rA"])
def test_ingest_rejects_column_names_the_csv_writers_cannot_hold(tmp_path, name):
    # Series CSVs and checkpoint headers join channel names with commas
    # and newlines, so such a name would come back split.
    p = tmp_path / "names.csv"
    with open(p, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([["time_h", "Utot_V", name], [0.0, 3.3, 70], [0.1, 3.29, 71]])
    with pytest.raises(SchemaError, match=re.escape(repr(name))):
        ingest_csv(p)


# ---------------------------------------------------------------------------
# condense


def test_condense_one_hz_hour():
    t = np.arange(3600) / 3600.0  # 1 Hz for one hour
    ts = series(t, 3.3 - 0.01 * t)
    out = condense(ts, 0.1)
    assert len(out) == 10
    assert np.allclose(np.diff(out.time), 0.1, atol=1e-9)


def test_condense_gridded_input_keeps_values():
    t = np.arange(50) * 0.1
    vals = np.sin(t) + 3.0
    out = condense(series(t, vals), 0.1)
    assert np.allclose(out.features[:, 0], vals, atol=1e-12)


def test_condense_idempotent_on_gridded_data():
    t = np.arange(200) * 0.025
    once = condense(series(t, np.cos(t)), 0.1)
    twice = condense(once, 0.1)
    assert np.array_equal(once.time, twice.time)
    assert np.array_equal(once.features, twice.features)


def test_condense_rejects_bad_interval():
    with pytest.raises(ParameterError):
        condense(series([0.0, 1.0], [1.0, 2.0]), 0.0)


# ---------------------------------------------------------------------------
# moving average


def test_moving_average_constant_unchanged():
    ts = series(np.arange(9.0), np.full(9, 2.5))
    out = moving_average(ts, 5)
    assert np.allclose(out.features[:, 0], 2.5, atol=1e-15)


def test_moving_average_hand_example():
    ts = series(np.arange(5.0), [0.0, 0.0, 3.0, 0.0, 0.0])
    out = moving_average(ts, 3)
    assert np.allclose(out.features[:, 0], [0.0, 1.0, 1.0, 1.0, 0.0], atol=1e-15)


def test_moving_average_w1_identity():
    vals = np.random.default_rng(0).normal(size=6)
    ts = series(np.arange(6.0), vals)
    assert np.allclose(moving_average(ts, 1).features[:, 0], vals, atol=1e-15)


@pytest.mark.parametrize("w", [0, 2, 4, 11])
def test_moving_average_rejects_bad_window(w):
    ts = series(np.arange(9.0), np.arange(9.0))
    with pytest.raises(ParameterError):
        moving_average(ts, w)


def test_moving_average_preserves_global_mean_statistically():
    rng = np.random.default_rng(5)
    vals = 3.3 + rng.normal(0.0, 0.01, size=2000)
    ts = series(np.arange(2000.0), vals)
    out = moving_average(ts, 15)
    assert abs(out.features[:, 0].mean() - vals.mean()) < 1e-4


def test_moving_average_preserves_length_and_order():
    rng = np.random.default_rng(1)
    t = np.sort(rng.uniform(0, 100, size=301))
    t += np.arange(301) * 1e-9  # enforce strict increase
    out = moving_average(series(t, rng.normal(size=301)), 15)
    assert len(out) == 301
    assert np.all(np.diff(out.time) > 0)


# ---------------------------------------------------------------------------
# z-score


def test_zscore_round_trip_and_train_mean():
    rng = np.random.default_rng(2)
    ts = series(np.arange(100.0), rng.normal(3.3, 0.1, 100), rng.normal(70, 5, 100))
    stats = zscore_fit(ts)
    normed = zscore_apply(ts, stats)
    assert np.max(np.abs(normed.features.mean(axis=0))) <= 1e-9
    back = zscore_invert(normed, stats)
    assert np.max(np.abs(back.features - ts.features)) <= 1e-12


def test_zscore_constant_channel_flagged():
    ts = series(np.arange(10.0), np.linspace(3.3, 3.2, 10), np.full(10, 70.0))
    stats = zscore_fit(ts)
    assert stats.constant_channels == ("I_A",)
    assert stats.std[1] == 1.0


# ---------------------------------------------------------------------------
# split


def test_split_partitions_at_boundary():
    t = np.linspace(0.0, 1020.0, 1021)
    train, test = split_at(series(t, np.linspace(3.3, 3.1, 1021)), 500.0)
    assert train.time[-1] < 500.0 <= test.time[0]
    assert len(train) + len(test) == 1021


def test_split_rejects_boundary_at_edges():
    ts = series(np.arange(10.0), np.arange(10.0))
    with pytest.raises(ParameterError):
        split_at(ts, 0.0)  # empty train
    with pytest.raises(ParameterError):
        split_at(ts, 100.0)  # empty test


# ---------------------------------------------------------------------------
# windows


def test_window_count_formula():
    ts = series(np.arange(100.0), np.arange(100.0))
    assert len(make_windows(ts, 32, 1)) == 68


def test_single_window_boundary_case():
    ts = series(np.arange(33.0), np.arange(33.0))
    ds = make_windows(ts, 32, 1)
    assert len(ds) == 1 and ds.inputs.shape == (1, 32, 2)


def test_windows_too_short():
    ts = series(np.arange(10.0), np.arange(10.0))
    with pytest.raises(DataError, match="33"):
        make_windows(ts, 32, 1)


def test_windows_reconstruct_target():
    rng = np.random.default_rng(3)
    vals = rng.normal(size=60)
    ds = make_windows(series(np.arange(60.0), vals), 8, 1)
    assert np.array_equal(ds.targets[:, 0], vals[8:])


def test_windows_all_channels_shape():
    ts = series(np.arange(20.0), np.arange(20.0))
    ds = make_windows(ts, 4, 3, all_channels=True)
    assert ds.targets.shape == (len(ds), 3, 2)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(10, 120),
    tw=st.integers(1, 8),
    s=st.integers(1, 4),
    stride=st.integers(1, 5),
)
def test_window_count_property(n, tw, s, stride):
    ts = series(np.arange(float(n)), np.arange(float(n)))
    if tw + s > n:
        with pytest.raises(DataError):
            make_windows(ts, tw, s, stride)
        return
    ds = make_windows(ts, tw, s, stride)
    assert len(ds) == len(range(0, n - tw - s + 1, stride))


@settings(max_examples=60, deadline=None)
@given(
    spare=st.integers(0, 50),
    m=st.integers(1, 4),
    tw=st.integers(1, 12),
    s=st.integers(1, 6),
    stride=st.integers(1, 7),
    all_channels=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_windows_are_read_only_views_equal_to_stacked_copies(spare, m, tw, s, stride, all_channels, seed):
    n = tw + s + spare
    names = ("Utot_V", "I_A", "TinH2_C", "PinAIR_mbara")[:m]
    ts = TimeSeries(np.arange(float(n)), np.random.default_rng(seed).normal(size=(n, m)), names)
    ds = make_windows(ts, tw, s, stride, all_channels)
    ref = stacked_windows(ts, tw, s, stride, all_channels)
    for name in ("inputs", "targets", "start_times"):
        got, want = getattr(ds, name), getattr(ref, name)
        assert got.shape == want.shape and np.array_equal(got, want), name
        assert np.shares_memory(got, ts.time if name == "start_times" else ts.features), name
        assert not got.flags.writeable, name
    batch = ds.inputs[np.random.default_rng(seed).permutation(len(ds))]
    assert batch.flags.c_contiguous and not np.shares_memory(batch, ts.features)
    assert (ds.lookback, ds.horizon, ds.stride) == (tw, s, stride)


# ---------------------------------------------------------------------------
# synthetic degradation


def test_synth_deterministic_per_seed():
    a = synth_degradation(9, 50.0, 4)
    b = synth_degradation(9, 50.0, 4)
    c = synth_degradation(10, 50.0, 4)
    assert np.array_equal(a.features, b.features)
    assert not np.array_equal(a.features, c.features)


def test_synth_noise_free_matches_curve():
    spec = DegradationSpec(noise_std_volts=0.0)
    ts = synth_degradation(5, 80.0, 3, spec)
    assert np.allclose(ts.target, degradation_curve(spec, ts.time), atol=1e-12)


def test_synth_default_spec_crosses_all_thresholds():
    spec = DegradationSpec()
    ts = synth_degradation(11, 1020.0, 4, spec)
    v0 = spec.initial_voltage
    for frac in (0.035, 0.040, 0.045, 0.050, 0.055):
        thr = v0 * (1.0 - frac)
        analytic = first_crossing_by_bisection(
            lambda tt: degradation_curve(spec, tt), thr, 0.0, 1020.0
        )
        assert analytic is not None and analytic < 1020.0
        # crossings are detected on the smoothed series (pipeline convention)
        smoothed = moving_average(ts, 15)
        measured = threshold_crossing(smoothed.time, smoothed.target, thr, 0.0)
        assert measured is not None
        assert abs(measured - analytic) < 10.0


def test_synth_validation():
    with pytest.raises(ParameterError):
        synth_degradation(0, -1.0, 3)
    with pytest.raises(ParameterError):
        synth_degradation(0, 10.0, 0)


def test_pipeline_never_reorders_time():
    ts = synth_degradation(12, 30.0, 3)
    for out in (condense(ts, 0.1), moving_average(ts, 5)):
        assert np.all(np.diff(out.time) > 0.0)
