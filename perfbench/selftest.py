"""Tests of the benchmark itself (not collected by the repository suite).

Run from the repository root, about a minute on two cores:

    python3 -m pytest -q perfbench/selftest.py
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402

# Modules whose functions each workload calls, so the trace must show them.
TRACED_MODULES = {
    "prognostics-h2000": ("autodiff", "model", "training", "data", "metrics", "cli"),
    "rollout-h1": ("autodiff", "model", "training", "data", "cli"),
}


def test_benchmark_json_matches_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == (
        list(tracer.LAYER_METRICS) + list(run.OUTCOMES)
    )


def test_scaled_clock_leaves_its_kernel_runs_out_of_the_work_time():
    clock = run.ScaledClock()
    result, scaled = clock.time("sleep", lambda: time.sleep(0.5) or "done")
    label, wall, work, before, during, after = clock.log[-1]
    assert (label, result) == ("sleep", "done")
    assert len(during) >= 1
    assert work == pytest.approx(wall - sum(during)) and wall >= 0.5
    assert scaled == pytest.approx(work * run.CAL_REF_S / np.mean([before, *during, after]))
    # The tracer's clock leaves the kernel runs out of the spans too.
    spans = []
    clock.time("span", lambda: spans.extend([clock.work_clock(), time.sleep(0.5), clock.work_clock()]))
    label, wall, work, before, during, after = clock.log[-1]
    assert before == clock.log[-2][5] and len(during) >= 1
    assert spans[2] - spans[0] == pytest.approx(work, abs=1e-3)


def test_nesting_violations_counts_a_child_outside_its_parent():
    spans = {
        "parent": np.array([-1, 0, 0]),
        "start": np.array([0.0, 1.0, 3.0]),
        "end": np.array([5.0, 2.0, 6.0]),
    }
    assert tracer.nesting_violations(spans) == 1
    spans["end"][2] = 4.0
    assert tracer.nesting_violations(spans) == 0


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_traced_passes_repeat_counts_and_outputs(workload, tmp_path, monkeypatch):
    monkeypatch.delenv("TST_THREADS", raising=False)
    bench = run.Run(workload, seed=3, work=tmp_path)
    assert bench.setup() is not None
    assert bench.run_pass() is not None
    layers = []
    for _ in range(2):
        traced = tracer.Tracer()
        assert bench.run_pass(traced) is not None
        spans = traced.spans()
        assert tracer.nesting_violations(spans) == 0
        layers.append(tracer.layer_metrics(spans))
    # Every artifact of the traced passes matched the untraced pass byte for byte.
    assert bench.failures == []
    first, second = ({key: m[key] for key in tracer.EXACT_COUNTS} for m in layers)
    assert first == second
    assert sorted(layers[0]) == sorted(name for name, _ in tracer.LAYER_METRICS)
    for module in TRACED_MODULES[workload]:
        assert any(v > 0 for k, v in layers[0].items() if k.startswith(module + ".")), module


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rollout-h1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
