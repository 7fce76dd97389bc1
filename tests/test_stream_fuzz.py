"""Corrupted stream files: truncations and byte flips of a valid file.

`read_stream` either accepts the file or raises FormatError, and `smolora
train` on a file it rejects exits 3 with a one-line message, no traceback.
"""

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from smolora.benchmark import read_stream
from smolora.cli import EXIT_FORMAT, EXIT_OK, main as cli_main
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


def _train(path, out_dir) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(["train", "--stream", str(path), "--out-dir", str(out_dir),
                         "--method", "smolora", "--vu-blocks", "2", "--if-blocks", "2",
                         "--rank", "1", "--embed-dim", "4", "--hidden", "4", "--epochs", "1"])
    return code, err.getvalue()


@given(data=st.data())
def test_corrupted_stream_is_rejected_cleanly(workdir, data):
    raw = (workdir / "valid.jsonl").read_bytes()
    at = data.draw(st.integers(0, len(raw) - 1), label="offset")
    if data.draw(st.booleans(), label="truncate"):
        corrupted = raw[:at]
    else:
        flip = data.draw(st.integers(1, 255), label="xor")
        corrupted = raw[:at] + bytes([raw[at] ^ flip]) + raw[at + 1 :]
    path = workdir / "corrupted.jsonl"
    path.write_bytes(corrupted)
    try:
        read_stream(path)
        accepted = True
    except FormatError:
        accepted = False
    code, err = _train(path, workdir / "run")
    assert "Traceback" not in err
    assert code == (EXIT_OK if accepted else EXIT_FORMAT), err
    if not accepted:
        assert err.startswith("format error: ") and err.count("\n") == 1
