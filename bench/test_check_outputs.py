"""Tests of the output checker: real runs pass, corrupted outputs are caught.

Run from the repository root:  python3 -m pytest bench/test_check_outputs.py
"""

from __future__ import annotations

import shutil
import struct
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import check_outputs  # noqa: E402
from smolora import cli  # noqa: E402

METHODS = {"seqlora": 1, "molora": 2, "smolora": 2}  # method -> top-k


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("runs")
    stream = base / "stream.jsonl"
    assert cli.main(["generate", "--seed", "3", "--tasks", "3", "--mode", "multi",
                     "--train-per-task", "24", "--test-per-task", "16", "--dv", "16",
                     "--classes", "4", "--out", str(stream)]) == 0
    dirs = {}
    for method, top_k in METHODS.items():
        dirs[method] = base / method
        assert cli.main(["train", "--stream", str(stream), "--method", method,
                         "--out-dir", str(dirs[method]), "--lr", "0.25", "--batch-size", "4",
                         "--epochs", "2", "--seed", "3", "--hidden", "16", "--embed-dim", "16",
                         "--rank", "4", "--top-k", str(top_k)]) == 0
    return stream, dirs


@pytest.fixture
def smolora_copy(runs, tmp_path):
    stream, dirs = runs
    run_dir = tmp_path / "run"
    shutil.copytree(dirs["smolora"], run_dir)
    return stream, run_dir


def _check(stream, run_dir, method="smolora"):
    return check_outputs.check_run(run_dir, stream, method, METHODS[method])


@pytest.mark.parametrize("method", sorted(METHODS))
def test_real_runs_pass(runs, method):
    stream, dirs = runs
    assert _check(stream, dirs[method], method) == []
    _, tasks = check_outputs.read_stream(stream)
    records = check_outputs.read_records(dirs[method] / "records.jsonl")
    problems, exempt = check_outputs.check_forward(dirs[method], tasks, records, method,
                                                   METHODS[method])
    assert problems == [] and exempt == 0


def test_corrupted_accuracy_cell_is_caught(smolora_copy):
    stream, run_dir = smolora_copy
    path = run_dir / "accuracy.csv"
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[1] = repr(float(cells[1]) + 6.25)
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    problems = _check(stream, run_dir)
    assert any("accuracy.csv stage 2 task 1" in p for p in problems)
    assert any(p.startswith("metrics.json") for p in problems)


def test_flipped_record_is_caught(smolora_copy):
    stream, run_dir = smolora_copy
    path = run_dir / "records.jsonl"
    lines = path.read_text().splitlines()
    last = lines[-1]
    flipped = (last.replace('"content_correct": 1', '"content_correct": 0')
               if '"content_correct": 1' in last
               else last.replace('"content_correct": 0', '"content_correct": 1'))
    lines[-1] = flipped
    path.write_text("\n".join(lines) + "\n")
    problems = _check(stream, run_dir)
    assert any("independent forward" in p for p in problems)
    assert any("from records.jsonl" in p for p in problems)


def test_perturbed_checkpoint_matrix_is_caught(smolora_copy):
    stream, run_dir = smolora_copy
    weights = check_outputs.read_checkpoint(run_dir / "model.ckpt")
    with open(run_dir / "model.ckpt", "wb") as f:
        f.write(b"SMOL1")
        for name, m in weights.items():
            if name == "head_content.W0":
                m = -m
            encoded = name.encode("utf-8")
            f.write(struct.pack("<I", len(encoded)) + encoded + struct.pack("<II", *m.shape))
            f.write(m.astype("<f8").tobytes())
    problems = _check(stream, run_dir)
    assert problems and all("independent forward" in p or p.startswith("...")
                            for p in problems)


def test_loss_and_fusion_properties_are_checked(smolora_copy):
    stream, run_dir = smolora_copy
    _, tasks = check_outputs.read_stream(stream)
    steps = [[3.0] * 6 + [2.0] * 6 for _ in tasks]  # 24 train / batch 4 = 6 steps per epoch
    assert check_outputs.check_losses(steps, tasks, epochs=2, batch_size=4) == []
    steps[1] = [2.0] * 6 + [3.0] * 6
    steps[2][0] = float("nan")
    problems = check_outputs.check_losses(steps, tasks, epochs=2, batch_size=4)
    assert any("stage 2: last-epoch loss" in p for p in problems)
    assert any("stage 3: non-finite" in p for p in problems)
    exempt = check_outputs.check_losses(steps, tasks, epochs=2, batch_size=4, require_fall=False)
    assert exempt == ["stage 3: non-finite step loss"]
    assert check_outputs.loss_rises(steps[:2], epochs=2) == [
        "stage 2: last-epoch loss 3.000000 not below first 2.000000"]

    path = run_dir / "fusion.csv"
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[3] = repr(float(cells[3]) + 0.01)  # mean_beta
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    assert any("alpha + beta" in p for p in check_outputs.check_separable(run_dir))
