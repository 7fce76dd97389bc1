"""Corrupted stream files: truncations and byte flips of a valid file.

`read_stream` either accepts the file or raises FormatError, and `smolora
train` on a file it rejects exits 3 with a one-line message, no traceback.
"""

import pytest

pytest.importorskip("hypothesis")
from _fuzz import assert_clean_exit, corrupt
from hypothesis import given, strategies as st

from smolora.benchmark import read_stream
from smolora.cli import EXIT_OK, main as cli_main
from smolora.errors import FormatError


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    stream = root / "valid.jsonl"
    code = cli_main(["generate", "--seed", "3", "--tasks", "2", "--mode", "multi", "--dv", "4",
                     "--classes", "2", "--train-per-task", "3", "--test-per-task", "2",
                     "--out", str(stream)])
    assert code == EXIT_OK
    return root


@given(data=st.data())
def test_corrupted_stream_is_rejected_cleanly(workdir, data):
    path = workdir / "corrupted.jsonl"
    path.write_bytes(corrupt(data, (workdir / "valid.jsonl").read_bytes()))
    try:
        read_stream(path)
        accepted = True
    except FormatError:
        accepted = False
    assert_clean_exit(["train", "--stream", str(path), "--out-dir", str(workdir / "run"),
                       "--method", "smolora", "--vu-blocks", "2", "--if-blocks", "2",
                       "--rank", "1", "--embed-dim", "4", "--hidden", "4", "--epochs", "1"],
                      accepted)
