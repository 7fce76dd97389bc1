"""Corrupted run outputs: truncations and byte flips of a valid routing CSV,
fusion CSV and checkpoint.

`read_routing_csv` and `read_fusion_csv` either accept the file or raise
FormatError, and `smolora report` exits 0 on an accepted file and 3 with a
one-line message, no traceback, on a rejected one. `load_checkpoint` either
loads the file or raises FormatError or ContractError.
"""

import json
import shutil

import pytest

pytest.importorskip("hypothesis")
from _fuzz import assert_clean_exit, corrupt
from _oracles import load_checkpoint
from hypothesis import given, strategies as st

from smolora.benchmark import read_stream
from smolora.cli import EXIT_OK, main as cli_main
from smolora.errors import ContractError, FormatError
from smolora.harness import RunConfig, run_cvit
from smolora.routing import read_fusion_csv, read_routing_csv


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    stream, out_dir = root / "stream.jsonl", root / "run"
    assert cli_main(["generate", "--seed", "5", "--tasks", "2", "--dv", "4", "--classes", "2",
                     "--train-per-task", "3", "--test-per-task", "4", "--out", str(stream)]) == EXIT_OK
    assert cli_main(["train", "--stream", str(stream), "--out-dir", str(out_dir),
                     "--method", "smolora", "--vu-blocks", "3", "--if-blocks", "2", "--top-k", "2",
                     "--rank", "1", "--embed-dim", "4", "--hidden", "4", "--epochs", "1"]) == EXIT_OK
    return out_dir


@pytest.fixture(scope="module")
def report_dirs(run_dir, tmp_path_factory):
    """A copy of the run directory for each file that the report test corrupts."""
    return {name: shutil.copytree(run_dir, tmp_path_factory.mktemp("report") / "run")
            for name in ("routing.csv", "fusion.csv")}


def _accepted(reader, path) -> bool:
    try:
        reader(path)
    except FormatError:
        return False
    return True


@pytest.mark.parametrize("name, reader", [("routing.csv", read_routing_csv),
                                          ("fusion.csv", read_fusion_csv)])
@given(data=st.data())
def test_corrupted_routing_and_fusion_are_rejected_cleanly(run_dir, report_dirs, name, reader, data):
    path = report_dirs[name] / name
    path.write_bytes(corrupt(data, (run_dir / name).read_bytes()))
    assert_clean_exit(["report", str(path.parent)], _accepted(reader, path))


@pytest.fixture(scope="module")
def model(run_dir):
    """An untrained model of the run's shape."""
    manifest = json.loads((run_dir / "manifest.json").read_text())
    config = RunConfig(**{**manifest["config"], "epochs": 0})
    return run_cvit(config, read_stream(manifest["stream"])[1])[0]


@given(data=st.data())
def test_corrupted_checkpoint_loads_or_is_rejected(run_dir, model, data):
    path = run_dir / "corrupted.ckpt"
    path.write_bytes(corrupt(data, (run_dir / "model.ckpt").read_bytes()))
    try:
        load_checkpoint(path, model)
    except (FormatError, ContractError):
        pass
