"""Shared pieces of the corrupted-input tests: one corruption and one CLI check.

Import after `pytest.importorskip("hypothesis")`.
"""

import contextlib
import io

from hypothesis import strategies as st

from smolora.cli import EXIT_FORMAT, EXIT_OK, main as cli_main


def corrupt(data, raw: bytes) -> bytes:
    """raw cut short at a drawn offset, or with the byte there XOR-flipped by a drawn mask."""
    at = data.draw(st.integers(0, len(raw) - 1), label="offset")
    if data.draw(st.booleans(), label="truncate"):
        return raw[:at]
    flip = data.draw(st.integers(1, 255), label="xor")
    return raw[:at] + bytes([raw[at] ^ flip]) + raw[at + 1 :]


def assert_clean_exit(argv: list[str], accepted: bool | None, rejected: int = EXIT_FORMAT,
                      prefixes: tuple[str, ...] = ("format error: ",)) -> None:
    """Run the CLI in process on a possibly corrupted input.

    It must exit 0 when the input's reader accepted it, and otherwise exit
    `rejected` with one line starting with one of `prefixes`; with
    `accepted` None either outcome is clean. It never shows a traceback.
    """
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(argv)
    err = err.getvalue()
    assert "Traceback" not in err
    if accepted is None:
        accepted = code == EXIT_OK
    assert code == (EXIT_OK if accepted else rejected), err
    if not accepted:
        assert err.startswith(prefixes) and err.count("\n") == 1, err
