"""Dense float64 matrix engine with tape-based reverse-mode differentiation.

Everything is an explicit 2-D matrix (rows x cols). Operations are free
functions that take an optional :class:`Tape`; when a tape is passed the
operation is recorded so that :func:`backward` can push gradients into the
tape's watched parameters. Without a tape the same functions are pure and
cheap, which is the evaluation fast path.

Matrices and tapes are single-writer objects: they may move between threads
but must not be mutated concurrently. Tape-free operations on distinct or
read-only inputs are safe to call from multiple threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import ContractError, ShapeError

# Most-negative finite float64. topk_mask writes this where entries are
# dropped and softmax_columns maps it to an exact 0 by explicit masking, so
# gating is deterministic and platform-independent (no reliance on exp
# underflow).
SENTINEL = float(np.finfo(np.float64).min)

_F64 = np.dtype(np.float64)


class Matrix:
    """Dense 2-D float64 array with strictly positive dimensions."""

    __slots__ = ("a",)

    def __init__(self, data):
        arr = np.array(data, dtype=np.float64, order="C", ndmin=2)
        if arr.ndim != 2:
            raise ShapeError(f"matrix must be 2-D, got {arr.ndim}-D data")
        _validate(arr)
        self.a = arr

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Matrix":
        """Adopt an array computed internally (no copy when already contiguous)."""
        if arr.dtype is not _F64 or not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr, dtype=np.float64)
        _validate(arr)
        m = object.__new__(cls)
        m.a = arr
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        if rows < 1 or cols < 1:
            raise ShapeError(f"matrix dimensions must be positive, got {rows}x{cols}")
        return cls._wrap(np.zeros((rows, cols)))

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    def copy(self) -> "Matrix":
        return Matrix._wrap(self.a.copy())

    def tolist(self) -> list[list[float]]:
        return self.a.tolist()

    def item(self) -> float:
        if self.a.shape != (1, 1):
            raise ShapeError(f"item() requires a 1x1 matrix, got {_fmt(self.a)}")
        return float(self.a[0, 0])

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"


def _validate(arr: np.ndarray) -> None:
    rows, cols = arr.shape
    if rows < 1 or cols < 1:
        raise ShapeError(f"matrix dimensions must be positive, got {rows}x{cols}")
    if not np.isfinite(arr).all():
        raise ShapeError("matrix entries must all be finite")


def _fmt(arr: np.ndarray) -> str:
    return f"{arr.shape[0]}x{arr.shape[1]}"


class Tape:
    """Records operations and accumulates gradients for watched parameters.

    Gradient arrays are allocated on their first push and never updated in
    place afterwards, so an array handed out by :func:`backward` stays as it
    was returned.
    """

    def __init__(self):
        self._ops: list[tuple[int, Callable[[np.ndarray], None]]] = []
        self._recorded: set[int] = set()
        self._params: dict[int, Matrix] = {}
        self._acc: dict[int, np.ndarray] = {}
        flow: dict[int, np.ndarray] = {}
        self._flow = flow

        def push(m: Matrix, g: np.ndarray) -> None:
            key = id(m)
            cur = flow.get(key)
            # A pushed array may be shared with another input (add passes
            # one gradient to both), so sums are new arrays, never in place.
            flow[key] = g if cur is None else cur + g

        # Recorded closures hold this function, not the tape, so a tape and
        # its closures form no reference cycle: a dropped tape is freed at
        # once instead of waiting for the cyclic garbage collector.
        self._push = push

    def watch(self, *matrices: Matrix) -> None:
        """Flag matrices as trainable parameters of this tape."""
        for m in matrices:
            self._params.setdefault(id(m), m)

    # -- recording internals -------------------------------------------------

    def _record(self, out: Matrix, back: Callable[[np.ndarray], None]) -> None:
        self._ops.append((id(out), back))
        self._recorded.add(id(out))


def backward(tape: Tape, loss: Matrix) -> dict[Matrix, Matrix]:
    """Reverse sweep from a recorded scalar; returns parameter -> gradient.

    Gradients accumulate into the tape's parameters across calls; the
    returned map reflects the accumulated values, with zeros for a watched
    parameter that no gradient reached. Intermediate nodes carry no gradient
    once the sweep finishes.
    """
    if loss.shape != (1, 1):
        raise ContractError(f"loss must be a 1x1 scalar, got {_fmt(loss.a)}")
    if id(loss) not in tape._recorded:
        raise ContractError("loss was not recorded on this tape")
    flow, acc = tape._flow, tape._acc
    flow.clear()
    flow[id(loss)] = np.ones((1, 1))
    for out_id, back in reversed(tape._ops):
        g = flow.pop(out_id, None)
        if g is None:
            continue
        back(g)
    grads = {}
    for key, p in tape._params.items():
        fl = flow.pop(key, None)
        total = acc.get(key)
        if fl is not None:
            total = acc[key] = fl if total is None else total + fl
        elif total is None:
            total = np.zeros_like(p.a)
        grads[p] = Matrix._wrap(total)
    flow.clear()
    return grads


# -- core operations ---------------------------------------------------------


def matmul(a: Matrix, b: Matrix, tape: Tape | None = None) -> Matrix:
    """Matrix product a @ b."""
    if a.cols != b.rows:
        raise ShapeError(f"matmul shape mismatch: {_fmt(a.a)} @ {_fmt(b.a)}")
    out = Matrix._wrap(a.a @ b.a)
    if tape is not None:
        push = tape._push
        aa, bb = a.a, b.a

        def back(g):
            push(a, g @ bb.T)
            push(b, aa.T @ g)

        tape._record(out, back)
    return out


def add(a: Matrix, b: Matrix, tape: Tape | None = None) -> Matrix:
    if a.shape != b.shape:
        raise ShapeError(f"add shape mismatch: {_fmt(a.a)} vs {_fmt(b.a)}")
    out = Matrix._wrap(a.a + b.a)
    if tape is not None:
        push = tape._push

        def back(g):
            push(a, g)
            push(b, g)

        tape._record(out, back)
    return out


def scale_const(m: Matrix, c: float, tape: Tape | None = None) -> Matrix:
    """Multiply by a plain (non-differentiated) scalar constant."""
    if not math.isfinite(c):
        raise ValueError(f"scale constant must be finite, got {c}")
    out = Matrix._wrap(m.a * c)
    if tape is not None:
        push = tape._push

        def back(g):
            push(m, g * c)

        tape._record(out, back)
    return out


def scalar_mul(s: Matrix, m: Matrix, tape: Tape | None = None) -> Matrix:
    """Multiply a matrix by a differentiable 1x1 scalar."""
    if s.shape != (1, 1):
        raise ShapeError(f"scalar_mul scale must be 1x1, got {_fmt(s.a)}")
    val = s.a[0, 0]
    out = Matrix._wrap(m.a * val)
    if tape is not None:
        push = tape._push
        ma = m.a

        def back(g):
            push(s, np.array([[float(np.sum(g * ma))]]))
            push(m, g * val)

        tape._record(out, back)
    return out


def take_entry(v: Matrix, i: int, tape: Tape | None = None) -> Matrix:
    """Extract entry i of a column vector as a 1x1 matrix."""
    if v.cols != 1:
        raise ShapeError(f"take_entry expects a column vector, got {_fmt(v.a)}")
    if not 0 <= i < v.rows:
        raise ValueError(f"entry index {i} out of range for {v.rows} rows")
    out = Matrix._wrap(v.a[i : i + 1, :].copy())
    if tape is not None:
        push = tape._push
        shape = v.shape

        def back(g):
            z = np.zeros(shape)
            z[i, 0] = g[0, 0]
            push(v, z)

        tape._record(out, back)
    return out


def take_row(m: Matrix, i: int, tape: Tape | None = None) -> Matrix:
    """Extract row i as a 1 x cols matrix."""
    if not 0 <= i < m.rows:
        raise ValueError(f"row index {i} out of range for {m.rows} rows")
    out = Matrix._wrap(m.a[i : i + 1, :].copy())
    if tape is not None:
        push = tape._push
        shape = m.shape

        def back(g):
            z = np.zeros(shape)
            z[i, :] = g[0, :]
            push(m, z)

        tape._record(out, back)
    return out


def concat_rows(a: Matrix, b: Matrix, tape: Tape | None = None) -> Matrix:
    """Stack two matrices with equal column counts vertically."""
    return stack_rows([a, b], tape)


def stack_rows(parts: Sequence[Matrix], tape: Tape | None = None) -> Matrix:
    """Stack matrices with equal column counts vertically, in order."""
    if len({p.cols for p in parts}) != 1:
        raise ShapeError(f"stack_rows column mismatch: {[p.shape for p in parts]}")
    out = Matrix._wrap(np.vstack([p.a for p in parts]))
    if tape is not None:
        push = tape._push
        bounds = np.cumsum([0] + [p.rows for p in parts])

        def back(g):
            for p, lo, hi in zip(parts, bounds, bounds[1:]):
                push(p, g[lo:hi, :])

        tape._record(out, back)
    return out


def rowvec_mul(v: Matrix, m: Matrix, tape: Tape | None = None) -> Matrix:
    """Broadcast a 1 x s row vector elementwise down the rows of m (k x s)."""
    if v.rows != 1 or v.cols != m.cols:
        raise ShapeError(f"rowvec_mul expects 1x{m.cols} and {_fmt(m.a)}, got {_fmt(v.a)}")
    out = Matrix._wrap(v.a * m.a)
    if tape is not None:
        push = tape._push
        va, ma = v.a, m.a

        def back(g):
            push(v, np.sum(g * ma, axis=0, keepdims=True))
            push(m, g * va)

        tape._record(out, back)
    return out


def mean_over_columns(m: Matrix, tape: Tape | None = None, groups: int = 1) -> Matrix:
    """Row-wise mean over each of `groups` equal runs of consecutive columns.

    Returns rows x groups; with one group this is the mean across all columns.
    """
    if groups < 1 or m.cols % groups:
        raise ShapeError(f"cannot split {m.cols} columns into {groups} equal groups")
    s = m.cols // groups
    out = Matrix._wrap(m.a.reshape(m.rows, groups, s).mean(axis=2))
    if tape is not None:
        push = tape._push

        def back(g):
            push(m, np.repeat(g / s, s, axis=1))

        tape._record(out, back)
    return out


def relu(m: Matrix, tape: Tape | None = None) -> Matrix:
    out = Matrix._wrap(np.maximum(m.a, 0.0))
    if tape is not None:
        push = tape._push
        pos = m.a > 0

        def back(g):
            push(m, g * pos)

        tape._record(out, back)
    return out


def sum_all(m: Matrix, tape: Tape | None = None) -> Matrix:
    """Sum of all entries as a 1x1 scalar."""
    out = Matrix._wrap(np.array([[m.a.sum()]]))
    if tape is not None:
        push = tape._push
        shape = m.shape

        def back(g):
            push(m, np.full(shape, g[0, 0]))

        tape._record(out, back)
    return out


def softmax_columns(m: Matrix, tape: Tape | None = None) -> Matrix:
    """Column-wise softmax; entries equal to SENTINEL map to an exact 0."""
    x = m.a
    masked = x == SENTINEL
    if not masked.any():
        e = np.exp(x - x.max(axis=0, keepdims=True))
    else:
        if masked.all(axis=0).any():
            raise ValueError("softmax_columns: a column is fully masked")
        col_max = np.max(np.where(masked, -np.inf, x), axis=0, keepdims=True)
        e = np.where(masked, 0.0, np.exp(np.where(masked, 0.0, x - col_max)))
    y = e / e.sum(axis=0, keepdims=True)
    out = Matrix._wrap(y)
    if tape is not None:
        push = tape._push

        def back(g):
            push(m, softmax_back(y, g))

        tape._record(out, back)
    return out


def softmax_back(y: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Gradient of the logits of a column-wise softmax y, given dy.

    For a top-k gate, a dropped entry has y = 0 and gets exactly 0; at top-1
    the kept entry has y = 1 exactly, so its gradient is exactly 0 too.
    """
    return y * (dy - np.sum(dy * y, axis=0, keepdims=True))


def topk_mask(m: Matrix, k: int, tape: Tape | None = None) -> Matrix:
    """Keep the k largest entries of each column, replace the rest by SENTINEL.

    Ties break toward the lowest row index. Gradient passes through kept
    entries unchanged and is exactly zero elsewhere.
    """
    n = m.rows
    if not 1 <= k <= n:
        raise ValueError(f"top-k size k={k} out of range [1, {n}]")
    x = m.a
    order = np.argsort(-x, axis=0, kind="stable")
    keep = np.zeros(x.shape, dtype=bool)
    keep[order[:k, :], np.arange(x.shape[1])] = True
    out = Matrix._wrap(np.where(keep, x, SENTINEL))
    if tape is not None:
        push = tape._push

        def back(g):
            push(m, np.where(keep, g, 0.0))

        tape._record(out, back)
    return out


def cross_entropy(
    logits: Matrix, labels: int | Sequence[int], tape: Tape | None = None
) -> Matrix:
    """Summed negative log softmax probability of each column's label.

    logits is classes x n with one column per sample; `labels` holds n class
    indices (a bare int for n = 1). Returns the 1x1 sum over the columns.
    """
    labels = [labels] if isinstance(labels, (int, np.integer)) else list(labels)
    if len(labels) != logits.cols:
        raise ShapeError(f"{len(labels)} labels for {logits.cols} logit columns")
    for label in labels:
        if not 0 <= label < logits.rows:
            raise ValueError(f"label {label} out of range for {logits.rows} classes")
    cols = np.arange(logits.cols)
    z = logits.a
    zmax = z.max(axis=0)
    e = np.exp(z - zmax)
    denom = e.sum(axis=0)
    p = e / denom
    loss = float(np.sum(np.log(denom) - (z[labels, cols] - zmax)))
    out = Matrix._wrap(np.array([[loss]]))
    if tape is not None:
        push = tape._push

        def back(g):
            d = p.copy()
            d[labels, cols] -= 1.0
            push(logits, g[0, 0] * d)

        tape._record(out, back)
    return out


# -- optimizer ----------------------------------------------------------------


@dataclass
class CosineSchedule:
    """Half-cosine learning-rate decay from base_rate to 0 over total_steps."""

    base_rate: float
    total_steps: int
    current_step: int = 0

    def __post_init__(self):
        if self.base_rate <= 0:
            raise ValueError(f"base_rate must be positive, got {self.base_rate}")
        if self.total_steps < 1:
            raise ValueError(f"total_steps must be positive, got {self.total_steps}")
        if not 0 <= self.current_step <= self.total_steps:
            raise ValueError(
                f"current_step {self.current_step} out of range [0, {self.total_steps}]"
            )

    def rate(self) -> float:
        frac = self.current_step / self.total_steps
        return self.base_rate * 0.5 * (1.0 + math.cos(math.pi * frac))

    def advance(self) -> None:
        if self.current_step >= self.total_steps:
            raise ContractError("schedule advanced past total_steps")
        self.current_step += 1


def sgd_step(params: Iterable[Matrix], grads: Mapping[Matrix, Matrix], rate: float) -> None:
    """In-place p <- p - rate * g for each trainable parameter.

    Frozen matrices are simply never passed in, so they are untouched
    regardless of any gradient that may exist for them.
    """
    for p in params:
        g = grads.get(p)
        if g is None:
            continue
        if g.shape != p.shape:
            raise ShapeError(f"gradient shape {_fmt(g.a)} != parameter shape {_fmt(p.a)}")
        p.a -= rate * g.a
        _validate(p.a)
