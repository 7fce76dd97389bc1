"""Exception types shared across the package; the CLI maps them to exit codes.

`read_utf8` is the one way the readers load a text file, so that bad UTF-8
is a FormatError with a byte offset everywhere; `finite_float` parses their
float cells.
"""

import math
from pathlib import Path


class ShapeError(ValueError):
    """Operand dimensions are inconsistent with the operation's contract."""


class ContractError(RuntimeError):
    """An internal invariant or API precondition was violated."""


class FormatError(ValueError):
    """A file does not match its declared on-disk format."""

    def __init__(self, message: str, *, line: int | None = None, offset: int | None = None):
        if line is not None:
            message = f"{message} (line {line})"
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.line = line
        self.offset = offset


def read_utf8(path, data: bytes | None = None) -> str:
    """A file's text, from its bytes `data` where the caller read them, or
    FormatError at the byte offset of its first non-UTF-8 byte."""
    try:
        return (Path(path).read_bytes() if data is None else data).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not valid UTF-8", offset=exc.start) from None


def finite_float(text: str) -> float:
    """float(text), or ValueError where that is NaN or an infinity, which float() accepts."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


class ConfigError(ValueError):
    """A configuration is internally inconsistent or unsatisfiable."""


class MetricUndefinedError(ValueError):
    """The requested metric is undefined for the given inputs (e.g. BWT with one task)."""


class StageError(RuntimeError):
    """Wraps a failure inside the sequential loop with the stage index attached."""

    def __init__(self, stage: int, cause: BaseException):
        super().__init__(f"stage {stage}: {cause}")
        self.stage = stage


class UsageError(ValueError):
    """Bad command-line flags or flag combinations."""
