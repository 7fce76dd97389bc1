"""Corrupted run outputs: truncations and byte flips of a valid records file
and accuracy CSV.

`read_records_jsonl` and `read_accuracy_csv` either accept the file or raise
FormatError, and `smolora metrics` exits 0 on an accepted file and 3 with a
one-line message, no traceback, on a rejected one, or when the accepted
table's last stage is not the records' latest, or its last row scores
another number of tasks than that stage's records hold.
"""

import pytest

pytest.importorskip("hypothesis")
from _fuzz import assert_clean_exit, corrupt
from hypothesis import given, strategies as st

from smolora.cli import EXIT_OK, main as cli_main
from smolora.errors import FormatError
from smolora.metrics import read_accuracy_csv, read_records_jsonl


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    stream, out_dir = root / "stream.jsonl", root / "run"
    assert cli_main(["generate", "--seed", "5", "--tasks", "2", "--dv", "4", "--classes", "2",
                     "--train-per-task", "3", "--test-per-task", "4", "--out", str(stream)]) == EXIT_OK
    assert cli_main(["train", "--stream", str(stream), "--out-dir", str(out_dir),
                     "--method", "seqlora", "--rank", "1", "--embed-dim", "4", "--hidden", "4",
                     "--epochs", "1"]) == EXIT_OK
    return out_dir


def _accepted(reader, path) -> bool:
    try:
        reader(path)
    except FormatError:
        return False
    return True


@given(data=st.data())
def test_corrupted_records_are_rejected_cleanly(run_dir, data):
    # Accepted records are still rejected if their latest stage is not the
    # table's last, or holds another number of tasks than that stage.
    path = run_dir / "corrupted.jsonl"
    path.write_bytes(corrupt(data, (run_dir / "records.jsonl").read_bytes()))
    accepted = _accepted(read_records_jsonl, path)
    if accepted and len(records := read_records_jsonl(path)):
        stages, latest = read_accuracy_csv(run_dir / "accuracy.csv").stages, records.stage.max()
        tasks = len(set(records.task_id[records.stage == latest].tolist()))
        accepted = latest == stages and tasks == stages
    assert_clean_exit(["metrics", "--accuracy", str(run_dir / "accuracy.csv"),
                       "--records", str(path)], accepted)


@given(data=st.data())
def test_corrupted_accuracy_csv_is_rejected_cleanly(run_dir, data):
    # A table the reader accepts is still rejected if its last stage is not
    # the records' latest.
    path = run_dir / "corrupted.csv"
    path.write_bytes(corrupt(data, (run_dir / "accuracy.csv").read_bytes()))
    stages = read_records_jsonl(run_dir / "records.jsonl").stage.max()
    accepted = _accepted(read_accuracy_csv, path) and read_accuracy_csv(path).stages == stages
    assert_clean_exit(["metrics", "--accuracy", str(path),
                       "--records", str(run_dir / "records.jsonl")], accepted)
