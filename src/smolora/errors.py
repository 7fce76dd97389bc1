"""Exception types shared across the package; the CLI maps them to exit codes.

Every run-file reader splits its file into values here, so that a fault is a
FormatError naming its line, or the byte offset of a byte that is not UTF-8:
`read_utf8` loads the text, `parse_json` parses it or one of its lines, and
`read_csv` and `finite_floats` split a CSV table into rows and value cells.
"""

import csv
import io
import json
import math
from pathlib import Path
from typing import Iterable, Iterator


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


def _unique_keys(pairs: list) -> dict:
    """A JSON object's (key, value) pairs as a dict; ValueError naming a key that repeats."""
    if len(obj := dict(pairs)) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"the key {next(key for key in keys if keys.count(key) > 1)!r} repeats")
    return obj


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)  # json.loads makes one per call given a hook


def parse_json(text: str, where, line: int | None = None):
    """The JSON value of `text`, a whole file or the file's line `line`. A fault is a
    FormatError whose message starts with `where`: a decode error names its line, and
    a repeated key, an int of too many digits or too deep a nesting names `line`."""
    try:
        return _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{where}: not valid JSON: {exc.msg} at column {exc.colno}",
                          line=(line or 1) + exc.lineno - 1) from None
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{where}: not valid JSON: {exc}", line=line) from None


def read_csv(path) -> tuple[list[str], Iterator[tuple[int, list[str]]]]:
    """The header of the CSV file `path`, and each later row as it is reached: the line
    it ends on and its cells, trailing blanks after the first dropped, so that a blank
    line is empty. A row wider than the header, or one csv rejects, is a FormatError."""
    rows = _csv_rows(path, csv.reader(io.StringIO(read_utf8(path), newline="")))
    return next(rows), rows


def _csv_rows(path, reader):
    """The header, then :func:`read_csv`'s rows."""
    try:
        yield (header := next(reader, []))
        for row in reader:
            if len(row) > len(header):
                raise FormatError(f"{path}: {len(row)} cells, more than the header's {len(header)} (a row "
                                  f"of {len(row)} cells, not {len(header)} or fewer)", line=reader.line_num)
            while len(row) > 1 and not row[-1]:
                row.pop()
            yield reader.line_num, row
    except csv.Error as exc:
        raise FormatError(f"{path}: {exc}", line=reader.line_num) from None


def finite_floats(cells: list[str], value: str, column: int) -> list[float]:
    """A row's value cells, the first in column `column`, as floats. A blank cell (which
    :func:`read_csv` leaves only before a `value`), text that is not a number, NaN or an
    infinity is a ValueError naming its column."""
    floats = []
    for col, cell in enumerate(cells, start=column):
        try:
            if not cell:
                raise ValueError(f"blank cell before a {value}")
            if not math.isfinite(x := float(cell)):
                raise ValueError(f"non-finite value {cell!r}")
        except ValueError as exc:
            raise ValueError(f"{exc} in column {col}") from None
        floats.append(x)
    return floats


def write_csv(path, header: list, rows: Iterable[list]) -> None:
    """The header, then each row, as csv.writer writes them."""
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows([header, *rows])


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
