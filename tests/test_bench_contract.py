"""The benchmark's contract with the program it measures.

`bench/run.py` must end with one strict-JSON line that names exactly the
metrics `BENCHMARK.json` declares, all finite. `bench/child.py` wraps library
functions by module attribute and reads a few arguments by position; a
renamed function or a moved argument silently drops metrics, so those wrap
points are pinned here.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from smolora.harness import AdapterLayer, ToyModel, evaluate_task, train_stage
from smolora.tensor import Tape, backward

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _load_child():
    spec = importlib.util.spec_from_file_location("bench_child", ROOT / "bench" / "child.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _reject_constant(name):
    raise ValueError(f"non-finite constant {name} in benchmark output")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["smolora-recipe", "controls-eval"])
def test_run_prints_every_declared_metric_finite(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = proc.stdout.strip().splitlines()[-1]
    result = json.loads(last, parse_constant=_reject_constant)
    assert result["correct"] is True, proc.stdout[-2000:]
    assert result["failed"] == 0
    declared = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == declared
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool), name
        assert math.isfinite(value), name
    if trace and workload == "controls-eval":
        # A batch of 4 records 22 ops under seqlora and 18 under molora (per
        # layer: W0 @ x, one bank op, their sum), 5.0 per sample-step; the
        # count repeats exactly, so ops recorded per block would show here.
        assert result["metrics"]["tensor.tape_ops_per_sample_step"]["value"] <= 6


def test_wrap_points_resolve():
    child = _load_child()
    for _, module_name, attr in child._TRACE_SPANS + child._COARSE_SPANS + [
        (None, "smolora.tensor", "matmul")
    ]:
        target = importlib.import_module(module_name)
        for part in attr.split("."):
            target = getattr(target, part)
        assert callable(target), f"{module_name}.{attr}"


def test_wrapped_arguments_keep_their_positions():
    # child.py counts tape records from backward's first argument, tells
    # training from evaluation forwards by the tape's position, and reads
    # the split (and config) of train_stage and evaluate_task by position.
    assert isinstance(Tape()._ops, list)

    def position(fn, name):
        return list(inspect.signature(fn).parameters).index(name)

    assert position(backward, "tape") == 0
    assert position(ToyModel.forward, "tape") == 2
    assert position(AdapterLayer.forward, "tape") == 3
    assert position(train_stage, "train_set") == 1
    assert position(train_stage, "config") == 2
    assert position(evaluate_task, "test_set") == 1
