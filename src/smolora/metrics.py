"""Forgetting metrics over stage-wise accuracy tables and per-sample records.

The accuracy table is lower-triangular: entry (k, j) with j <= k is the score
on task j after training stage k. Average performance (AP) averages the last
row seen so far, MAP averages the APs of all stages, backward transfer (BWT)
averages each task's drop between its own stage and the final stage, and mean
instruction following (MIF) averages per-task format-correctness rates.

Per-sample records are columnar: one `Records` table of five int arrays, built
from the evaluation's arrays, written to `records.jsonl` one JSON object per
line through a single template and read back into the same table.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ContractError, FormatError, MetricUndefinedError, read_utf8


class AccuracyMatrix:
    """Lower-triangular stage x task score table; row k holds k entries."""

    def __init__(self, rows: Sequence[Sequence[float]] | None = None):
        self.rows: list[list[float]] = []
        for row in rows or []:
            self.add_row(row)

    def add_row(self, row: Sequence[float]) -> None:
        row = [float(x) for x in row]
        if len(row) != len(self.rows) + 1:
            raise ContractError(
                f"row {len(self.rows) + 1} must have {len(self.rows) + 1} entries, got {len(row)}"
            )
        if any(not math.isfinite(x) for x in row):
            raise ContractError("scores must be finite")
        if any(x < 0 for x in row):
            raise ContractError("scores must be non-negative")
        self.rows.append(row)

    @property
    def stages(self) -> int:
        return len(self.rows)

    def score(self, k: int, j: int) -> float:
        """a[k][j], 1-based stage k and task j <= k."""
        return self.rows[k - 1][j - 1]

    def __eq__(self, other) -> bool:
        return isinstance(other, AccuracyMatrix) and self.rows == other.rows


def _check_stage(a: AccuracyMatrix, k: int) -> None:
    if not 1 <= k <= a.stages:
        raise ContractError(f"stage {k} out of range for {a.stages} recorded stages")


def ap(a: AccuracyMatrix, k: int) -> float:
    """Average performance after stage k: mean of row k."""
    _check_stage(a, k)
    row = a.rows[k - 1]
    return sum(row) / k


def mean_ap(a: AccuracyMatrix, k: int) -> float:
    """Mean average performance: mean of AP over stages 1..k."""
    _check_stage(a, k)
    return sum(ap(a, i) for i in range(1, k + 1)) / k


def bwt(a: AccuracyMatrix, k: int) -> float:
    """Backward transfer: mean of a[k][j] - a[j][j] over j < k. Negative = forgetting."""
    _check_stage(a, k)
    if k < 2:
        raise MetricUndefinedError("BWT is undefined for a single stage")
    return sum(a.score(k, j) - a.score(j, j) for j in range(1, k)) / (k - 1)


_INT64_MAX = 2**63 - 1
# Each record field with the least and greatest value a records file may hold.
_RECORD_RANGES = {
    "stage": (1, _INT64_MAX),
    "task_id": (0, _INT64_MAX),
    "instance_index": (0, _INT64_MAX),
    "content_correct": (0, 1),
    "format_correct": (0, 1),
}
# One records.jsonl line: json.dumps(record, sort_keys=True) for int values.
_RECORD_LINE = "{" + ", ".join(f'"{key}": %d' for key in sorted(_RECORD_RANGES)) + "}\n"


@dataclass(eq=False)
class Records:
    """Per-sample evaluation results as five int columns; entry i of each is sample i.

    Sample i is test instance `instance_index[i]` of task `task_id[i]`, scored
    after training stage `stage[i]`; the two correctness columns hold 0 or 1.
    """

    stage: np.ndarray
    task_id: np.ndarray
    instance_index: np.ndarray
    content_correct: np.ndarray
    format_correct: np.ndarray

    def __len__(self) -> int:
        return self.stage.shape[0]

    def __eq__(self, other) -> bool:
        return isinstance(other, Records) and all(
            np.array_equal(getattr(self, key), getattr(other, key)) for key in _RECORD_RANGES
        )


def mif(records: Records) -> float:
    """Mean instruction following (%) from the latest stage's per-sample records.

    For each task, the fraction of its samples whose format matched,
    averaged over tasks, x100. Per-task sample counts may differ; each task
    weighs equally.
    """
    if not len(records):
        raise ContractError("mif requires at least one record")
    at = records.stage == records.stage.max()
    tasks, task_of, counts = np.unique(records.task_id[at], return_inverse=True, return_counts=True)
    hits = np.zeros(tasks.size, dtype=np.int64)
    np.add.at(hits, task_of, records.format_correct[at])
    rates = [h / n for h, n in zip(hits.tolist(), counts.tolist())]
    return 100.0 * sum(rates) / len(rates)


@dataclass
class MetricReport:
    """Headline metrics of one run; bwt/mif are None when undefined/unavailable."""

    ap: float
    map: float
    bwt: float | None
    mif: float | None
    per_stage_ap: list[float] = field(default_factory=list)


def compute_report(a: AccuracyMatrix, records: Records | None = None) -> MetricReport:
    """Full MetricReport for the final stage of an accuracy table."""
    k = a.stages
    if k < 1:
        raise ContractError("accuracy matrix is empty")
    return MetricReport(
        ap=ap(a, k),
        map=mean_ap(a, k),
        bwt=bwt(a, k) if k >= 2 else None,
        mif=mif(records) if records else None,
        per_stage_ap=[ap(a, i) for i in range(1, k + 1)],
    )


def round_display(x: float, places: int = 2) -> float:
    """Round half away from zero, the convention used for printed tables."""
    scale = 10**places
    return math.copysign(math.floor(abs(x) * scale + 0.5) / scale, x)


# -- file formats ---------------------------------------------------------------


def write_accuracy_csv(path, a: AccuracyMatrix) -> None:
    """Header stage,task_1..task_T for T stages; row k lists scores for tasks 1..k, then blanks."""
    t = a.stages
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["stage"] + [f"task_{j}" for j in range(1, t + 1)])
        for k, row in enumerate(a.rows, start=1):
            w.writerow([k] + [repr(x) for x in row] + [""] * (t - len(row)))


def read_accuracy_csv(path) -> AccuracyMatrix:
    """The table of an accuracy file, as :func:`write_accuracy_csv` writes it.

    The header is stage,task_1,...,task_W. Data row k (blank lines skipped)
    is the stage number k, then k scores, then only blank cells, and no row
    has more cells than the header. Any fault raises FormatError naming its
    line.
    """
    reader = csv.reader(io.StringIO(read_utf8(path), newline=""))
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise FormatError(f"{path}: {exc}", line=reader.line_num) from None
    header = rows[0] if rows else []
    width = len(header)
    if header != ["stage"] + [f"task_{j}" for j in range(1, width)]:
        raise FormatError(f"{path}: header {','.join(header)!r} is not stage,task_1,...,task_W", line=1)
    a = AccuracyMatrix()
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        k = a.stages + 1
        if len(row) > width:
            raise FormatError(f"{path}: {len(row)} cells, more than the header's {width}", line=lineno)
        if row[0] != str(k):
            raise FormatError(f"{path}: stage cell {row[0]!r} in data row {k}", line=lineno)
        cells = row[1:]
        while cells and cells[-1] == "":
            cells.pop()
        scores = []
        for col, cell in enumerate(cells, start=2):
            try:
                scores.append(float(cell))
            except ValueError:
                what = "blank cell before a score" if cell == "" else f"non-numeric cell {cell!r}"
                raise FormatError(f"{path}: {what} in column {col}", line=lineno) from None
        try:
            a.add_row(scores)
        except ContractError as exc:
            raise FormatError(f"{path}: {exc}", line=lineno) from None
    if a.stages == 0:
        raise FormatError(f"{path}: no data rows", line=2)
    return a


def write_records_jsonl(path, records: Records) -> None:
    """One JSON object per sample and line, keys sorted, as json.dumps(sort_keys=True) writes it."""
    rows = zip(*(getattr(records, key).tolist() for key in sorted(_RECORD_RANGES)))
    with open(path, "w") as f:
        f.writelines(map(_RECORD_LINE.__mod__, rows))


def read_records_jsonl(path) -> Records:
    """The records of a records file, each checked as it fills the columns.

    A record is a JSON object with exactly the five fields, each an int (not
    a bool) within its range: stage >= 1, task_id and instance_index >= 0,
    both correctness fields 0 or 1; no two records share their stage, task_id
    and instance_index. Any fault raises FormatError naming its line, or the
    byte offset of a byte that is not UTF-8.
    """
    columns: dict[str, list[int]] = {key: [] for key in _RECORD_RANGES}
    seen: dict[tuple[int, int, int], int] = {}  # (stage, task_id, instance_index) -> line
    for lineno, line in enumerate(read_utf8(path).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:  # json.JSONDecodeError, or an int of too many digits
            raise FormatError(f"{path}: bad record: {exc}", line=lineno) from None
        if type(record) is not dict or record.keys() != columns.keys():
            raise FormatError(
                f"{path}: a record must be an object with the keys {', '.join(columns)}",
                line=lineno,
            )
        for key, (lo, hi) in _RECORD_RANGES.items():
            value = record[key]
            if type(value) is not int or not lo <= value <= hi:
                wanted = "0 or 1" if hi == 1 else f"an int64 >= {lo}"
                raise FormatError(f"{path}: {key} must be {wanted}, got {value!r}", line=lineno)
            columns[key].append(value)
        first = seen.setdefault((record["stage"], record["task_id"], record["instance_index"]), lineno)
        if first != lineno:
            raise FormatError(
                f"{path}: stage {record['stage']}, task {record['task_id']}, instance "
                f"{record['instance_index']} repeats the record of line {first}",
                line=lineno,
            )
    return Records(**{key: np.array(values, dtype=np.int64) for key, values in columns.items()})
