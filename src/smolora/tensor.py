"""Dense float64 matrix engine with tape-based reverse-mode differentiation.

Everything is an explicit 2-D matrix (rows x cols). Operations are free
functions; the differentiable ones take an optional :class:`Tape`, and when
a tape is passed the operation is recorded so that :func:`backward` can
push gradients into the tape's watched parameters. Without a tape the same
functions are pure and cheap, which is the evaluation fast path.

Matrices and tapes are single-writer objects: they may move between threads
but must not be mutated concurrently. Tape-free operations on distinct or
read-only inputs are safe to call from multiple threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Mapping, Sequence
from typing import Callable, Iterable

import numpy as np

from .errors import ContractError, ShapeError

_F64 = np.dtype(np.float64)

# Flat parameter and gradient arrays start every matrix at a multiple of this
# many float64 entries: 64 bytes, one cache line.
_ALIGN = 8


class Matrix:
    """Dense 2-D float64 array with strictly positive dimensions.

    A matrix built from data or computed by an operation is C-contiguous; a
    :class:`SubMatrix` may be strided.
    """

    __slots__ = ("a",)

    def __init__(self, data):
        arr = np.array(data, dtype=np.float64, order="C", ndmin=2)
        if arr.ndim != 2:
            raise ShapeError(f"matrix must be 2-D, got {arr.ndim}-D data")
        _check_dims(arr)
        # Outside data is scanned entry by entry with no sum first: finite
        # entries may sum to an overflow.
        _scan_finite(arr)
        # ndmin may return a view; a matrix built from data owns its array,
        # so that FlatParameters can adopt it.
        self.a = arr if arr.base is None else arr.copy()

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Matrix":
        """Adopt an array computed internally (no copy when already contiguous)."""
        if arr.dtype is not _F64 or not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr, dtype=np.float64)
        _check_dims(arr)
        check_finite(arr)
        return cls._adopt(arr)

    @classmethod
    def _adopt(cls, arr: np.ndarray) -> "Matrix":
        """Adopt a float64 array already known to be finite."""
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


def _check_dims(arr: np.ndarray) -> None:
    rows, cols = arr.shape
    if rows < 1 or cols < 1:
        raise ShapeError(f"matrix dimensions must be positive, got {rows}x{cols}")


class SubMatrix(Matrix):
    """A block of another matrix, `base.a[index]`, that reads and writes through to it.

    A tape or a FlatParameters that is given a submatrix lays out its base,
    and the submatrix's gradient is the same block of the base's.
    """

    __slots__ = ("base", "index")

    def __init__(self, base: Matrix, index: tuple[slice, slice]):
        if isinstance(base, SubMatrix):
            raise ContractError("a submatrix's base must be a whole matrix")
        self.base, self.index = base, index
        _check_dims(self.a)

    @property
    def a(self) -> np.ndarray:
        # Read on every access, so it follows the base into a FlatParameters.
        return self.base.a[self.index]


def check_finite(arr: np.ndarray, what: str = "matrix entries") -> None:
    """Raise ShapeError unless every entry of arr is finite."""
    # A sum is finite only if every entry is, so the full scan runs only when
    # the sum is not (a NaN or an infinity, or finite entries that overflow).
    if not math.isfinite(arr.sum()):
        _scan_finite(arr, what)


def _scan_finite(arr: np.ndarray, what: str = "matrix entries") -> None:
    if not np.isfinite(arr).all():
        raise ShapeError(f"{what} must all be finite")


def _lay_out(matrices: Iterable[Matrix], slots: dict, size: int) -> int:
    """Give each matrix not in `slots` the next slot of a flat array; returns its new size.

    Slots map id(m) to (m, first entry, end entry, shape, index) and start at
    multiples of _ALIGN, in the order given. A whole matrix's index is `...`;
    a submatrix takes its base's slot, laid out first if it is new, and its
    own index within it.
    """
    for m in matrices:
        key = id(m)
        if key in slots:
            continue
        if isinstance(m, SubMatrix):
            size = _lay_out((m.base,), slots, size)
            slots[key] = (m, *slots[id(m.base)][1:4], m.index)
        else:
            a = m.a
            slots[key] = (m, size, size + a.size, a.shape, ...)
            size += -(-a.size // _ALIGN) * _ALIGN
    return size


def _aligned_zeros(n: int) -> np.ndarray:
    """A zero float64 array of n entries whose data starts at a 64-byte boundary."""
    raw = np.zeros(n + _ALIGN)
    start = (-raw.ctypes.data % (8 * _ALIGN)) // 8
    return raw[start : start + n]


def _fmt(arr: np.ndarray) -> str:
    return f"{arr.shape[0]}x{arr.shape[1]}"


class Tape:
    """Records operations and accumulates gradients for watched parameters.

    Gradients are laid out in one flat array, each watched parameter at its
    own 64-byte-aligned slot in watch order, and a watched submatrix within
    its base's. Every :func:`backward` call returns a new array, so an array
    it handed out stays as it was returned.
    """

    def __init__(self):
        self._ops: list[tuple[int, Callable[[np.ndarray], None]]] = []
        self._recorded: set[int] = set()
        self._slots: dict[int, tuple] = {}
        self._watched: tuple[Matrix, ...] = ()
        self._size = 0
        self._grads: np.ndarray | None = None
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

    def watch(self, *matrices: Matrix | FlatParameters) -> None:
        """Flag matrices as trainable parameters of this tape.

        A FlatParameters argument stands for its matrices; given to a tape
        that watches nothing yet, it lends its layout whole instead of laying
        them out one by one. Watch before recording: an op decides when it
        is recorded whether any gradient of its inputs is read.
        """
        for arg in matrices:
            group = arg.matrices if isinstance(arg, FlatParameters) else (arg,)
            if isinstance(arg, FlatParameters) and not self._slots:
                self._slots, self._size = dict(arg.slots), arg.flat.size
            else:
                self._size = _lay_out(group, self._slots, self._size)
            self._watched = tuple(dict.fromkeys(self._watched + group)) if self._watched else group

    # -- recording internals -------------------------------------------------

    def _record(self, out: Matrix, back: Callable[[np.ndarray], None]) -> None:
        self._ops.append((id(out), back))
        self._recorded.add(id(out))

    def _needs(self, m: Matrix) -> bool:
        """Whether a gradient of m is read: m is watched or a recorded op's output."""
        return id(m) in self._slots or id(m) in self._recorded


class Gradients(Mapping):
    """Parameter -> gradient, as views into one flat array, iterated in watch order.

    `flat` holds every watched parameter's gradient at the slot the tape
    gave it; a parameter that no gradient reached reads zero. The base of a
    watched submatrix can be looked up too, but iteration and len() cover
    only the watched matrices.
    """

    __slots__ = ("flat", "slots", "watched")

    def __init__(self, flat: np.ndarray, slots: dict, watched: tuple[Matrix, ...]):
        self.flat = flat
        self.slots = slots
        self.watched = watched

    def __getitem__(self, p: Matrix) -> Matrix:
        slot = self.slots.get(id(p))
        if slot is None or slot[0] is not p:
            raise KeyError(p)
        _, lo, hi, shape, index = slot
        return Matrix._adopt(self.flat[lo:hi].reshape(shape)[index])

    def __iter__(self):
        return iter(self.watched)

    def __len__(self) -> int:
        return len(self.watched)


def backward(tape: Tape, loss: Matrix) -> Gradients:
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
    flow = tape._flow
    flow.clear()
    flow[id(loss)] = np.ones((1, 1))
    for out_id, back in reversed(tape._ops):
        g = flow.pop(out_id, None)
        if g is None:
            continue
        back(g)
    flat = _aligned_zeros(tape._size)
    slots = tape._slots
    for key, g in flow.items():
        slot = slots.get(key)
        if slot is not None:
            # Added, not copied: a base and its submatrices may both get one.
            _, lo, hi, shape, index = slot
            flat[lo:hi].reshape(shape)[index] += g
    flow.clear()
    if tape._grads is not None:
        flat[: tape._grads.size] += tape._grads
    check_finite(flat)
    tape._grads = flat
    return Gradients(flat, dict(slots), tape._watched)


# -- core operations ---------------------------------------------------------


def matmul(a: Matrix, b: Matrix, tape: Tape | None = None) -> Matrix:
    """Matrix product a @ b."""
    if a.cols != b.rows:
        raise ShapeError(f"matmul shape mismatch: {_fmt(a.a)} @ {_fmt(b.a)}")
    out = Matrix._wrap(a.a @ b.a)
    if tape is not None:
        push = tape._push
        aa, bb = a.a, b.a
        # A frozen weight or the model input gets no gradient: nothing reads it.
        need_a, need_b = tape._needs(a), tape._needs(b)

        def back(g):
            if need_a:
                push(a, g @ bb.T)
            if need_b:
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


def run_means(a: np.ndarray, s: int) -> np.ndarray:
    """Row-wise means of each run of s consecutive columns of a.

    np.add.reduce and one division: the two ufunc calls `ndarray.mean`
    makes, bit for bit, without its Python-level wrapper.
    """
    return np.add.reduce(a.reshape(a.shape[0], -1, s), axis=2) / s


def mean_over_columns(m: Matrix, tape: Tape | None = None, groups: int = 1) -> Matrix:
    """Row-wise mean over each of `groups` equal runs of consecutive columns.

    Returns rows x groups; with one group this is the mean across all columns.
    """
    if groups < 1 or m.cols % groups:
        raise ShapeError(f"cannot split {m.cols} columns into {groups} equal groups")
    s = m.cols // groups
    out = Matrix._wrap(run_means(m.a, s))
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


def softmax_back(y: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Gradient of the logits of a column-wise softmax y, given dy.

    For a top-k gate, a dropped entry has y = 0 and gets exactly 0; at top-1
    the kept entry has y = 1 exactly, so its gradient is exactly 0 too.
    """
    return y * (dy - np.add.reduce(dy * y, axis=0, keepdims=True))


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


class FlatParameters(Sequence):
    """Trainable matrices whose arrays are views into one flat float64 array.

    Each matrix keeps its values and shape and starts at a 64-byte boundary,
    in the given order: the layout a tape that watches them in that order
    gives their gradients, so one subtraction updates them all. A submatrix
    moves with its base, which takes the slot of its first submatrix. Writes
    through a matrix's `.a` land in `flat`. Only matrices that own their
    arrays are adopted: a view (a matrix already in another buffer is one)
    is refused, so no matrix leaves a buffer that still updates it.
    """

    __slots__ = ("matrices", "slots", "flat")

    def __init__(self, matrices: Iterable[Matrix]):
        self.matrices = tuple(dict.fromkeys(matrices))
        self.slots: dict = {}
        size = _lay_out(self.matrices, self.slots, 0)
        whole = [slot for slot in self.slots.values() if slot[4] is ...]
        for m, *_ in whole:
            if m.a.base is not None:
                raise ContractError(
                    f"{m!r} is a view of another array, such as a FlatParameters; "
                    "pass that buffer instead of packing the matrix again"
                )
        self.flat = _aligned_zeros(size)
        for m, lo, hi, shape, _ in whole:
            view = self.flat[lo:hi].reshape(shape)
            view[...] = m.a
            m.a = view

    def __getitem__(self, i):
        return self.matrices[i]

    def __len__(self) -> int:
        return len(self.matrices)


def sgd_step(params: Iterable[Matrix], grads: Mapping[Matrix, Matrix], rate: float) -> None:
    """p <- p - rate * g for every parameter, as one update of a flat array.

    `params` is a FlatParameters, or loose matrices, which are packed into a
    new one here; a loop that steps the same matrices again packs them once
    with FlatParameters and passes that buffer.
    When `grads` comes from a tape that watched exactly those parameters in
    that order, its flat array is used as it is; otherwise it is laid out
    like the parameters first, a parameter without a gradient reading zero.
    Frozen matrices are simply never passed in, so they are untouched
    regardless of any gradient that may exist for them.
    """
    buf = params if isinstance(params, FlatParameters) else FlatParameters(params)
    if isinstance(grads, Gradients) and list(grads.slots) == list(buf.slots):
        g = grads.flat
    else:
        g = np.zeros_like(buf.flat)
        for p, lo, hi, shape, index in buf.slots.values():
            gp = grads.get(p)
            if gp is not None:
                if gp.shape != p.shape:
                    raise ShapeError(f"gradient shape {_fmt(gp.a)} != parameter shape {_fmt(p.a)}")
                g[lo:hi].reshape(shape)[index] = gp.a
    buf.flat -= rate * g
    check_finite(buf.flat)
