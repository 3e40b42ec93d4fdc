"""Benchmark of the ``tst`` prognostics chain.

Run from the repository root:

    python3 perfbench/run.py --workload prognostics-h2000 --seed 7 --seconds 40 --trace 0

Without ``--workload`` every workload runs, each in its own Python
process. A run builds its inputs from ``--seed``, sets up several times
(``setup_s`` uses the median), then repeats passes of the workload's CLI
calls through ``tstransformer.cli.main`` as one closed-loop client
until ``--seconds`` have passed, and reports medians over the run's
samples. Every time is scaled to a reference machine speed with a
fixed calibration kernel run around and during it (see ``ScaledClock``).
Every output is checked outside the timed region, and every artifact
must be byte-identical to its first version.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes (see ``tracer.py``) and prints the per-layer
metrics of the traced ones, plus the tracing overhead. The last line of
standard output is the result object; the full record (environment,
per-pass times, artifact SHA-256 digests, every metric) is written to
``.perfbench_out/<workload>/seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from xml.etree import ElementTree as ET

# One BLAS thread, set before numpy loads. On a shared 2-vCPU VM, training
# with two OpenBLAS threads ran 2x slower (4.5 s -> 10 s per prognostics-h2000
# train call) for minutes at a time while the other vCPU was busy; one thread
# costs ~10 % when both are free. The value is recorded with every result.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench_out"

# The criterion-6 acceptance fixture (tests/helpers.py::degradation_fixture_spec):
# 46 000 raw rows at 0.025 h that condense to 11 500 rows at 0.1 h.
FIXTURE_HOURS = 1150.0
FIXTURE_CHANNELS = 5
FIXTURE_SPEC = dict(
    drift_per_hour=1.8e-4,
    recovery_step_volts=0.0,
    noise_std_volts=0.003,
    periodic_amp_volts=0.002,
    periodic_period_hours=45.0,
    covariate_wobble=0.02,
    covariate_lead_hours=4.0,
    sample_interval_hours=0.025,
)
INTERVAL_H = 0.1
SPLIT_HOURS = 500.0
LOOKBACK = 32
THRESHOLDS = (0.035, 0.04, 0.045, 0.05, 0.055)
SETUP_REPEATS = 5


# -- machine-speed calibration -----------------------------------------------
#
# On a shared 2-vCPU VM (Intel Xeon, 2.0 GHz) the same code ran up to 2.1x
# faster or slower in stretches of 1-60 s, with CPU time equal to wall
# time (no steal): the host, not the benchmark. A fixed kernel timed next
# to a 150-forward loop slowed with it; over 4 minutes the loop's time
# spread 46 % (quartiles over median) and the loop/kernel ratio 10 %.
# So ScaledClock samples a fixed kernel around and during every timed
# region and reports the region's time at the speed where one kernel run
# takes CAL_REF_S, about its time in that VM's faster stretches. The
# kernel mixes the kinds of work the program does: CSV text formatting
# and parsing, tiny-array numpy ops, a small matmul.

CAL_REF_S = 0.0025  # one kernel run at the reference speed
CAL_BRACKET_RUNS = 12  # kernel runs before and after a region
CAL_TICK_S = 0.2  # period of the kernel runs during a region

_cal_rng = np.random.default_rng(20250411)
_CAL_ROWS = _cal_rng.standard_normal((100, 6)).tolist()
_CAL_SMALL = (_cal_rng.standard_normal((5, 16)), _cal_rng.standard_normal((16, 16)))
_CAL_MID = (_cal_rng.standard_normal((100, 128)), _cal_rng.standard_normal((128, 128)))


def calibrate() -> float:
    """Wall time of one run of the fixed calibration kernel, with the
    garbage collector paused so objects the program left alive do not
    slow it."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        total = 0.0
        for row in _CAL_ROWS:
            line = ",".join(map(repr, row))
            total += sum(float(c) for c in line.split(","))
        x, w = _CAL_SMALL
        for _ in range(160):
            y = x @ w
            total += float(np.maximum(y - y.mean(axis=-1, keepdims=True), 0.0).sum())
        x, w = _CAL_MID
        for _ in range(3):
            total += float((x @ w).sum())
        seconds = time.perf_counter() - t0
    finally:
        if gc_was_enabled:
            gc.enable()
    if not np.isfinite(total):
        raise RuntimeError("calibration kernel gave a non-finite result")
    return seconds


def _bracket() -> float:
    return statistics.fmean(calibrate() for _ in range(CAL_BRACKET_RUNS))


class ScaledClock:
    """Times regions of work at the reference machine speed.

    A region is bracketed by CAL_BRACKET_RUNS kernel runs on each side
    (the bracket after one region serves as the bracket before the next
    while nothing runs between them), and a SIGALRM timer runs the
    kernel once every CAL_TICK_S inside it. The region's work
    time is its wall time minus those in-region kernel runs; the kernel
    time is the mean of the bracket before, each in-region run and the
    bracket after. Every region is logged as
    ``(label, wall, work, kernel before, [kernel during], kernel after)``.
    """

    def __init__(self):
        self.prev = None
        self.during = None  # (start, kernel time) of each in-region run, while a region runs
        self.ticked = 0.0  # total time of the tick handler so far
        self.log: list = []

    def _on_tick(self, *_):
        # A tick that arrives after its region ended finds None and is dropped.
        if self.during is not None:
            t0 = time.perf_counter()
            self.during.append((t0, calibrate()))
            self.ticked += time.perf_counter() - t0

    def work_clock(self) -> float:
        """``perf_counter`` less the in-region kernel runs so far, for the
        tracer: spans timed with it leave the kernel out."""
        while True:
            ticked = self.ticked
            now = time.perf_counter()
            if ticked == self.ticked:  # no tick ran between the two reads
                return now - ticked

    def forget(self) -> None:
        """Work ran outside the clock: the next region brackets afresh."""
        self.prev = None

    def time(self, label: str, fn):
        """Run ``fn()``; return its result and its scaled time."""
        before = self.prev if self.prev is not None else _bracket()
        self.prev = None
        self.during = runs = []
        signal.signal(signal.SIGALRM, self._on_tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_TICK_S, CAL_TICK_S)
        try:
            t0 = time.perf_counter()
            result = fn()
            t1 = time.perf_counter()
        finally:
            self.during = None
            signal.setitimer(signal.ITIMER_REAL, 0)
        # One thread: a kernel run that started before t1 also ended before it.
        during = [seconds for start, seconds in runs if start < t1]
        wall = t1 - t0
        work = wall - sum(during)
        after = self.prev = _bracket()
        self.log.append((label, wall, work, before, during, after))
        return result, work * CAL_REF_S / statistics.fmean([before, *during, after])


H2000_CONFIG = "split_hours=500\nlookback=32\nhorizon=2000\nforecast_step=500\nepochs=3\nseed=42\n"
H1_CONFIG = "split_hours=500\nlookback=32\nhorizon=1\nepochs=2\nseed=42\n"


@dataclass(frozen=True)
class Workload:
    config: str
    horizon: int
    epochs: int
    chain: tuple  # the CLI calls of one pass, in order
    # Short calls run again after each untraced chain: more samples of
    # them, spread over the whole run instead of bunched in set-up.
    rerun: tuple = ("preprocess",) * 2


WORKLOADS = {
    # preprocess (~0.5 s) and predict (~0.1 s) are short next to train.
    "prognostics-h2000": Workload(H2000_CONFIG, 2000, 3, ("preprocess", "train", "predict", "evaluate"),
                                  rerun=("preprocess", "predict") * 2),
    # predict (~4 s) and train (~1.5 s) span the machine's speed changes
    # and need more samples than one per pass: both run twice.
    "rollout-h1": Workload(H1_CONFIG, 1, 2, ("train", "predict"),
                           rerun=("preprocess", "predict", "train", "preprocess")),
}

END_TO_END = (
    ("setup_s", "s"),
    ("chain_s", "s"),
    ("preprocess_s", "s"),
    ("train_samples_per_s", "windows/s"),
    ("forecast_points_per_s", "points/s"),
    ("peak_rss_mb", "MB"),
)
# Reported with the per-layer metrics: they do not apply to every
# workload (0 where they do not), or are 0 when all is well.
OUTCOMES = (
    ("score_rul", "1"),
    ("forecast_rmse_v", "V"),
    ("failed_ops_pct", "%"),
    ("trace.overhead_pct", "%"),
)

ARTIFACTS = {
    "preprocess": ("pre.csv",),
    "train": ("model.ckpt", "model.ckpt.loss.csv"),
    "predict": ("forecast.csv",),
    "evaluate": ("report.csv", "report.svg"),
}


def _argv(call: str, work: Path) -> list:
    def f(name):
        return str(work / name)

    return {
        "preprocess": ["preprocess", "--in", f("raw.csv"), "--out", f("pre.csv"), "--config", f("run.cfg")],
        "train": ["train", "--data", f("pre.csv"), "--config", f("run.cfg"), "--out-checkpoint", f("model.ckpt")],
        "predict": ["predict", "--data", f("pre.csv"), "--checkpoint", f("model.ckpt"), "--out", f("forecast.csv")],
        "evaluate": ["evaluate", "--forecast", f("forecast.csv"), "--config", f("run.cfg"), "--out", f("report.csv")],
    }[call]


class CheckFailed(Exception):
    pass


def _require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _cells(path: Path, skip: int) -> list:
    return [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()[skip:]]


def _floats(rows) -> np.ndarray:
    return np.array([[float(c) for c in row] for row in rows])


class Run:
    """One benchmark run of one workload: calls, checks, failure counts."""

    def __init__(self, name: str, seed: int, work: Path):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failures: list = []
        self.samples: dict = {}  # call -> untraced scaled times, set-up included
        self.clock = ScaledClock()
        self.digests: dict = {}
        self.outputs: dict = {}
        self.pre = None  # (header, rows) of the preprocessed CSV

    def fail(self, what: str, message: str) -> None:
        self.failures.append(f"{what}: {message}")
        print(f"benchmark check failed: {what}: {message}", file=sys.stderr)

    # -- CLI calls and passes --------------------------------------------------

    def call(self, call: str):
        """Run one CLI call; return its scaled time, or None when it failed."""
        from tstransformer.cli import main

        self.attempted += 1
        argv = _argv(call, self.work)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc, scaled = self.clock.time(call, lambda: main(argv))
        except Exception:  # a crash is a failed operation, not the end of the run
            self.fail(call, traceback.format_exc())
            return None
        if rc != 0:
            self.fail(call, f"exit code {rc}")
            return None
        return scaled

    def _calls(self, calls, times: dict) -> bool:
        for call in calls:
            scaled = self.call(call)
            if scaled is None:
                return False
            times.setdefault(call, []).append(scaled)
        return True

    def _checked(self, calls) -> bool:
        self.clock.forget()
        return all([self.check(call) for call in dict.fromkeys(calls)])

    def run_pass(self, tracer=None):
        """One closed-loop pass; returns the chain's scaled time and its
        ratio to the chain's work time, or None when a call or check
        failed. Untraced call times go to samples."""
        w = self.workload
        times: dict = {}
        first = len(self.clock.log)
        with tracer or contextlib.nullcontext():
            ok = self._calls(w.chain, times)
        ok = ok and self._checked(w.chain)
        if not ok:
            return None
        scaled = sum(sum(values) for values in times.values())
        factor = scaled / sum(entry[2] for entry in self.clock.log[first:])
        if tracer is not None:
            return scaled, factor
        ok = self._calls(w.rerun, times) and self._checked(w.rerun)
        if not ok:
            return None
        for call, values in times.items():
            self.samples.setdefault(call, []).extend(values)
        return scaled, factor

    def setup(self):
        """Fixture, raw CSV and config (+ preprocess when not in the pass).

        Returns its scaled time, or None on failure.
        """
        from tstransformer.data import DegradationSpec, synth_degradation

        def inputs():
            raw = synth_degradation(
                self.seed, FIXTURE_HOURS, FIXTURE_CHANNELS, DegradationSpec(**FIXTURE_SPEC)
            )
            rows = np.column_stack([raw.time, raw.features]).tolist()
            lines = [",".join(("time_h",) + raw.channel_names)]
            lines += [",".join(map(repr, row)) for row in rows]
            (self.work / "raw.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
            (self.work / "run.cfg").write_text(self.workload.config, encoding="utf-8")

        _, seconds = self.clock.time("setup", inputs)
        if "preprocess" in self.workload.chain:
            return seconds
        pre_s = self.call("preprocess")
        self.clock.forget()
        if pre_s is None or not self.check("preprocess"):
            return None
        self.samples.setdefault("preprocess", []).append(pre_s)
        return seconds + pre_s

    # -- output checks -----------------------------------------------------------

    def check(self, call: str) -> bool:
        try:
            getattr(self, "_check_" + call.replace("-", "_"))()
            for name in ARTIFACTS[call]:
                digest = _sha256(self.work / name)
                first = self.digests.setdefault(name, digest)
                _require(digest == first, f"{name} is not byte-identical to its first version")
        except (CheckFailed, OSError, ValueError, IndexError) as exc:
            self.fail(call, f"{type(exc).__name__}: {exc}")
            return False
        return True

    def _check_preprocess(self):
        path = self.work / "pre.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        _require(lines and lines[0].startswith("#preprocessed"), "missing #preprocessed marker")
        header = lines[1].split(",")
        _require(header[0] == "time_h" and len(header) == 1 + FIXTURE_CHANNELS, f"bad header {header}")
        rows = _floats(line.split(",") for line in lines[2:])
        _require(len(rows) == round(FIXTURE_HOURS / INTERVAL_H), f"{len(rows)} condensed rows")
        _require(np.all(np.isfinite(rows)) and np.all(np.diff(rows[:, 0]) > 0),
                 "non-finite values or non-increasing time")
        self.pre = (header, rows)

    def _split(self):
        _, rows = self.pre
        n_train = int(np.searchsorted(rows[:, 0], SPLIT_HOURS, side="left"))
        return n_train, rows[n_train:, 0]

    def _check_train(self):
        ckpt = (self.work / "model.ckpt").read_bytes()
        _require(ckpt[:4] == b"TSTC", "checkpoint magic missing")
        loss = _cells(self.work / "model.ckpt.loss.csv", 0)
        _require(loss[0] == ["epoch", "mean_loss"], f"bad loss header {loss[0]}")
        values = _floats(loss[1:])
        _require(values.shape == (self.workload.epochs, 2), f"loss table shape {values.shape}")
        _require(np.all(np.isfinite(values)), "non-finite loss")

    def _check_predict(self):
        rows = _cells(self.work / "forecast.csv", 0)
        _require(rows[0] == ["time_h", "true_V", "pred_V"], f"bad forecast header {rows[0]}")
        values = _floats(rows[1:])
        _, test_time = self._split()
        _require(len(values) == len(test_time), f"{len(values)} forecast rows, {len(test_time)} test points")
        _require(np.array_equal(values[:, 0], test_time), "forecast times differ from the test timestamps")
        _require(np.all(np.isfinite(values)), "non-finite forecast")
        expected = self._first_prediction()
        _require(values[0, 2] == expected,
                 f"first prediction {values[0, 2]!r} != forward on the first window {expected!r}")
        err = values[:, 2] - values[:, 1]
        self.outputs.setdefault("forecast_rmse_v", float(np.sqrt(np.mean(err * err))))

    def _first_prediction(self) -> float:
        """Denormalised target of a no_grad forward of the reloaded
        checkpoint on the last lookback window before the split."""
        from tstransformer import autodiff as ad
        from tstransformer.training import load_checkpoint

        ckpt = load_checkpoint(self.work / "model.ckpt")
        header, rows = self.pre
        stats = ckpt.stats
        features = rows[:, [header.index(c) for c in stats.channel_names]]
        n_train, _ = self._split()
        normed = (features - stats.mean) / stats.std
        window = np.ascontiguousarray(normed[n_train - LOOKBACK : n_train])
        with ad.no_grad():
            out = ckpt.to_model().forward(window)
        ti = stats.channel_names.index(ckpt.header["stats.target"])
        return float(out.data[ti, 0] * float(stats.std[ti]) + float(stats.mean[ti]))

    def _check_evaluate(self):
        rows = _cells(self.work / "report.csv", 0)
        _require(rows[0] == ["ft", "rul_true_h", "rul_pred_h", "percent_error_pct", "accuracy"],
                 f"bad report header {rows[0]}")
        _require(len(rows) == 2 + len(THRESHOLDS), f"{len(rows)} report lines")
        for row, ft in zip(rows[1:-1], THRESHOLDS):
            _require(len(row) == 5 and float(row[0]) == ft, f"bad threshold row {row}")
            _floats([[c for c in row[1:] if c]])
        summary = rows[-1]
        _require(summary[0] == "summary", f"bad summary row {summary}")
        rmse, score = _floats([summary[1:3]])[0]
        _require(np.isfinite(rmse) and rmse > 0 and 0 < score <= 1, f"summary {summary}")
        self.outputs.update(score_rul=float(score), forecast_rmse_v=float(rmse))
        try:
            tree = ET.parse(self.work / "report.svg")
        except ET.ParseError as exc:
            raise CheckFailed(f"report SVG is not well-formed: {exc}") from None
        lines = [e for e in tree.iter() if e.tag.endswith("polyline")]
        _require(len(lines) == 2, f"report SVG has {len(lines)} polylines")

    # -- throughput denominators ---------------------------------------------------

    def train_samples(self) -> int:
        """Windows times epochs trained by one pass."""
        n_train, _ = self._split()
        w = self.workload
        return (n_train - LOOKBACK - w.horizon + 1) * w.epochs

    def forecast_points(self) -> int:
        """Test points forecast by one pass."""
        _, test_time = self._split()
        return len(test_time)


# ---------------------------------------------------------------------------
# environment record


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 only prints
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            np.show_config()
        return buf.getvalue()


def environment(seed: int, tst_threads_inherited) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "TST_THREADS": os.environ.get("TST_THREADS"),
        "TST_THREADS_inherited": tst_threads_inherited,
        "commit": _git_commit(),
        "seed": seed,
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# one run


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _scale_times(metrics: dict, factor: float, units) -> dict:
    """Scale the per-layer times of one traced pass like its calls."""
    timed = {key for key, unit in units if unit in ("s", "ms")}
    return {key: value * factor if key in timed else value for key, value in metrics.items()}


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    # TST_THREADS stays unset, as for a user who never sets it.
    tst_threads = os.environ.pop("TST_THREADS", None)
    if not (ROOT / "src" / "tstransformer" / "__init__.py").is_file():
        print(f"error: no tstransformer sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    clock = ScaledClock()
    # Import time is part of set-up.
    _, import_s = clock.time("import", lambda: importlib.import_module("tstransformer.cli"))
    import tstransformer
    if Path(tstransformer.__file__).resolve().parent != ROOT / "src" / "tstransformer":
        print(f"error: imported tstransformer from {tstransformer.__file__}", file=sys.stderr)
        return 2
    from tracer import LAYER_METRICS, Tracer, layer_metrics, nesting_violations

    out_dir = OUT / name
    work = out_dir / f"seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    record = {"workload": name, "seconds": seconds, "trace": int(trace),
              "environment": environment(seed, tst_threads)}
    run = Run(name, seed, work)
    untraced, traced, layers = [], [], []
    peak_rss_mb = 0.0
    try:
        setups = [run.setup() for _ in range(SETUP_REPEATS)]
        if all(setups):
            deadline = time.perf_counter() + seconds
            attempts = {False: 0, True: 0}
            while True:
                use_trace = trace and attempts[True] < attempts[False]
                attempts[use_trace] += 1
                tracer = Tracer(run.clock.work_clock) if use_trace else None
                timed = run.run_pass(tracer)
                if timed is not None and tracer is not None:
                    spans = tracer.spans()
                    bad = nesting_violations(spans)
                    if bad:
                        run.fail("trace", f"{bad} spans outside their parent")
                        timed = None
                    else:
                        layers.append(_scale_times(layer_metrics(spans), timed[1], LAYER_METRICS))
                        last_spans = spans
                if timed is not None:
                    (traced if use_trace else untraced).append(timed[0])
                if len(untraced) == 1 and not peak_rss_mb:
                    # Later passes only add allocator noise; one pass is
                    # what a user's single `tst` invocation would hold.
                    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                if time.perf_counter() >= deadline and attempts[True] >= int(trace):
                    break
            if layers:
                np.savez(out_dir / f"seed{seed}-spans.npz", **last_spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = not run.failures and bool(untraced) and (bool(layers) or not trace)
    samples = run.samples
    # End-to-end figures are medians over the run's scaled samples.
    e2e = {key: 0.0 for key, _ in END_TO_END}
    if untraced:
        e2e.update(
            setup_s=import_s + _median(setups),
            chain_s=_median(untraced),
            preprocess_s=_median(samples["preprocess"]),
            train_samples_per_s=run.train_samples() / _median(samples["train"]),
            forecast_points_per_s=run.forecast_points() / _median(samples["predict"]),
        )
    e2e["peak_rss_mb"] = peak_rss_mb

    per_layer = {key: _median([m[key] for m in layers]) for key, _ in LAYER_METRICS}
    per_layer.update(
        score_rul=run.outputs.get("score_rul", 0.0),
        forecast_rmse_v=run.outputs.get("forecast_rmse_v", 0.0),
        failed_ops_pct=100.0 * len(run.failures) / max(run.attempted, 1),
    )
    per_layer["trace.overhead_pct"] = (
        100.0 * (_median(traced) / _median(untraced) - 1.0) if traced and untraced else 0.0
    )

    units = dict(END_TO_END + OUTCOMES + tuple(LAYER_METRICS))
    shown = per_layer if trace else e2e
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in shown.items()},
    }
    record.update(
        result=result,
        end_to_end=e2e,
        per_layer=per_layer if trace else None,
        import_s=import_s,
        setups=setups,
        regions=[dict(zip(("label", "wall", "work", "kernel_before", "kernel_during", "kernel_after"), entry))
                 for entry in clock.log + run.clock.log],
        chains={"untraced": untraced, "traced": traced},
        call_samples=samples,
        artifacts_sha256=run.digests,
        failures=run.failures,
    )
    record_path = out_dir / f"seed{seed}-trace{int(trace)}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"environment: {json.dumps(record['environment'])}")
    print(f"artifacts sha256: {json.dumps(run.digests, sort_keys=True)}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload in this process (default: all, one process each)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload is not None:
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)])
        status = status or proc.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
