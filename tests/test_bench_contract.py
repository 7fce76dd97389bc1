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

from smolora import harness
from smolora.benchmark import generate_stream
from smolora.harness import (
    AdapterLayer,
    RunConfig,
    ToyModel,
    attach_embeddings,
    evaluate_task,
    run_cvit,
    train_stage,
)
from smolora.routing import HashingEmbedder
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
    if trace:
        # A batch of 4 records 6 ops under every method: one per adapter
        # layer, one for the ReLU with the pooling and one for the loss.
        # That is 1.5 per sample-step; the count repeats exactly, so ops
        # recorded per block or per gate would show here.
        assert result["metrics"]["tensor.tape_ops_per_sample_step"]["value"] <= 3


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


@pytest.mark.parametrize("method", ["seqlora", "molora", "smolora"])
def test_each_training_step_meets_the_wrap_points_once(monkeypatch, method):
    # child.py splits training into steps at the returns of `sgd_step`,
    # tells a training forward by its tape, and counts tape records at
    # `backward`: wrapped the same way, each step must call the model's
    # forward once with a tape, backward once with a list of records, and
    # sgd_step once, in that order.
    child = _load_child()
    calls = []
    for module_name, attr in [("smolora.harness", "ToyModel.forward"),
                              ("smolora.tensor", "backward"), ("smolora.tensor", "sgd_step")]:
        # Every attribute child.py will rebind is set to itself first, so
        # that monkeypatch restores it after the test.
        module = importlib.import_module(module_name)
        owner, _, name = attr.rpartition(".")
        if owner:
            cls = getattr(module, owner)
            monkeypatch.setattr(cls, name, getattr(cls, name))
        else:
            original = getattr(module, name)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "smolora":
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            monkeypatch.setattr(mod, key, value)

        def make_wrapper(fn, attr=attr):
            def wrapper(*args, **kwargs):
                calls.append((attr, args))
                return fn(*args, **kwargs)

            return wrapper

        assert child._patch(module_name, attr, make_wrapper)

    stream = generate_stream(0, task_count=2, train_per_task=12, test_per_task=4, d_v=8,
                             class_count=4)
    attach_embeddings(stream, HashingEmbedder(16))
    config = RunConfig(method=method, embed_dim=16, hidden=16, rank=4, batch_size=4, epochs=2)
    losses = train_stage(ToyModel(config, 8, 4, 3), stream[0][1], config)
    assert len(losses) == 6
    assert [attr for attr, _ in calls] == ["ToyModel.forward", "backward", "sgd_step"] * 6
    for attr, args in calls:
        if attr == "ToyModel.forward":
            assert len(args) > 2 and args[2] is not None
        elif attr == "backward":
            assert isinstance(args[0]._ops, list) and len(args[0]._ops) == 6


def test_evaluation_calls_hold_whole_tasks_and_every_record(monkeypatch):
    # child.py counts `eval_samples` as the summed `len(test_set)` of the
    # `evaluate_task` calls. Over a run that must be the records count, and
    # a call may pack several seen tasks but holds each task's whole split.
    calls = []

    def evaluate(model, test_set):
        calls.append(test_set.task_id.tolist())
        return evaluate_task(model, test_set)

    monkeypatch.setattr(harness, "evaluate_task", evaluate)
    stream = generate_stream(0, task_count=4, train_per_task=4, test_per_task=48, d_v=8,
                             class_count=4)
    config = RunConfig(method="smolora", embed_dim=16, hidden=16, rank=4, batch_size=4, epochs=1)
    _, report = run_cvit(config, stream)
    assert sum(map(len, calls)) == len(report.records) == 48 * (1 + 2 + 3 + 4)
    assert [list(dict.fromkeys(ids)) for ids in calls] == [[0], [0, 1], [0, 1], [2], [0, 1], [2, 3]]
    for ids in calls:
        assert ids == [t for t in dict.fromkeys(ids) for _ in range(48)]
