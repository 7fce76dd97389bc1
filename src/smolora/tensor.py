"""Model parameters, the backward chain of a training step, and SGD.

Kernels take and return plain 2-D float64 numpy arrays (rows x cols); they
are free functions and pure, and evaluation calls nothing else. A model's
trainable parameter is a :class:`Matrix`: an array it owns plus that
array's gradient. A training step records one backward rule per kernel on
a :class:`Tape`: each adapter layer (`lora`), the ReLU with the pooling,
and the loss (`harness`). The trainable matrices live in one flat array
with a gradient buffer of the same layout (:class:`FlatParameters`); each
rule writes its parameters' gradients straight into their views of that
buffer and returns its input's gradient, :func:`backward` calls the rules
in reverse, and :func:`sgd_step` applies the buffer with one subtraction.

Each instance's columns sit side by side in runs of s (two in the model:
visual, instruction). Pooling and expanding those runs goes through
:func:`run_sums`, :func:`run_means` and :func:`repeat_columns`, which touch
one strided slice `a[:, i::s]` per position in the run, one whole-array
operation each. numpy's own `reshape(..., s).sum(axis=-1)` and
`repeat(s, axis=1)` make one inner-loop call per output entry along an axis
that short, which costs several times more; the strided kernels give the
same bits.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

import numpy as np

from .errors import ContractError, ShapeError


class Matrix:
    """A trainable parameter: a C-contiguous float64 array `a` with positive dimensions.

    `grad` is the matrix's view of its FlatParameters' gradient buffer, None
    until it is packed in one.
    """

    __slots__ = ("a", "grad")

    def __init__(self, data):
        arr = np.array(data, dtype=np.float64, order="C", ndmin=2)
        if arr.ndim != 2 or 0 in arr.shape:
            raise ShapeError(f"a matrix must be 2-D with positive dimensions, got shape {arr.shape}")
        # Outside data is scanned entry by entry with no sum first: finite
        # entries may sum to an overflow.
        _scan_finite(arr)
        # ndmin may return a view; a matrix owns its array, so that
        # FlatParameters can adopt it.
        self.a = arr if arr.base is None else arr.copy()
        self.grad = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    def __repr__(self) -> str:
        return f"Matrix({_fmt(self.a)})"


def check_finite(arr: np.ndarray, what: str = "matrix entries") -> None:
    """Raise ShapeError unless every entry of arr is finite."""
    # A sum is finite only if every entry is, so the full scan runs only when
    # the sum is not (a NaN or an infinity, or finite entries that overflow).
    # np.add.reduce is the sum `arr.sum()` computes, without its Python wrapper.
    if not math.isfinite(np.add.reduce(arr, axis=None)):
        _scan_finite(arr, what)


def _scan_finite(arr: np.ndarray, what: str = "matrix entries") -> None:
    if not np.isfinite(arr).all():
        raise ShapeError(f"{what} must all be finite")


def _fmt(arr: np.ndarray) -> str:
    return f"{arr.shape[0]}x{arr.shape[1]}"


class Tape:
    """The backward rules of one training step, in the order their kernels ran.

    A kernel given a tape appends one rule. The rule takes the gradient of
    the kernel's output and, where a later kernel read the same input, the
    gradient already accumulated for it; it writes the gradients of the
    kernel's parameters into their views of the model's gradient buffer
    (see :class:`FlatParameters`) and returns its input's gradient, or a
    tuple of the arguments of the rule recorded before it. The first rule's
    input is the step's input, which takes no gradient, so a kernel recorded
    first computes none.
    """

    __slots__ = ("_ops",)

    def __init__(self):
        self._ops: list[Callable] = []


def require_grads(*params: Matrix) -> None:
    """Raise unless every matrix has a gradient view for a backward rule to write into."""
    for p in params:
        if p.grad is None:
            raise ContractError(
                f"{p!r} is not in a FlatParameters, so its gradient has nowhere to go"
            )


def backward(tape: Tape, loss: float) -> None:
    """Run a tape's rules in reverse, starting from d loss / d loss = 1.

    The last rule recorded must be the loss's, and `loss` its value, which
    must be finite. Every parameter gradient lands in its view of the
    gradient buffer, which :func:`sgd_step` checks and applies.
    """
    if not tape._ops:
        raise ContractError("loss was not recorded on this tape")
    if not math.isfinite(loss):
        raise ShapeError(f"loss must be finite, got {loss}")
    g = 1.0
    for rule in reversed(tape._ops):
        g = rule(*g) if type(g) is tuple else rule(g)


# -- core operations ---------------------------------------------------------


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product a @ b."""
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {_fmt(a)} @ {_fmt(b)}")
    out = a @ b
    check_finite(out)
    return out


def run_sums(a: np.ndarray, s: int) -> np.ndarray:
    """Row-wise sums of each run of s consecutive columns of a, added left to right.

    The strided slices a[:, i::s] are added in order of i; for s = 1 this
    is a itself, not a copy.
    """
    if s == 1:
        return a
    total = a[:, 0::s] + a[:, 1::s]
    for i in range(2, s):
        total += a[:, i::s]
    return total


def run_means(a: np.ndarray, s: int) -> np.ndarray:
    """Row-wise means of each run of s consecutive columns of a.

    Bit-equal to `ndarray.mean` over each run for s <= 7: numpy adds a run
    that short left to right, starting from +0.0, then divides by s. (It
    adds longer runs pairwise, in another order.) The +0.0 turns a run of
    -0.0 entries into +0.0, as numpy's sum does.
    """
    total = run_sums(a, s) + 0.0
    total /= s
    return total


def repeat_columns(a: np.ndarray, s: int) -> np.ndarray:
    """np.repeat(a, s, axis=1): each column of a copied into s consecutive columns.

    One strided copy per position in the run; for s = 1 this is a itself,
    not a copy.
    """
    if s == 1:
        return a
    out = np.empty((a.shape[0], a.shape[1] * s), dtype=a.dtype)
    for i in range(s):
        out[:, i::s] = a
    return out


def relu_pool(h: np.ndarray, groups: int, tape: Tape | None = None) -> np.ndarray:
    """Row-wise means of max(h, 0) over each of `groups` equal runs of consecutive
    columns (rows x groups), as one tape record."""
    if groups < 1 or h.shape[1] % groups:
        raise ShapeError(f"cannot split {h.shape[1]} columns into {groups} equal groups")
    s = h.shape[1] // groups
    out = run_means(np.maximum(h, 0.0), s)
    check_finite(out)
    if tape is not None:
        pos = h > 0
        tape._ops.append(lambda g: repeat_columns(g / s, s) * pos)
    return out


def softmax_back(y: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Gradient of the logits of a column-wise softmax y, given dy.

    For a top-k gate, a dropped entry has y = 0 and gets exactly 0; at top-1
    the kept entry has y = 1 exactly, so its gradient is exactly 0 too.
    """
    return y * (dy - np.add.reduce(dy * y, axis=0, keepdims=True))


def cross_entropy(logits: np.ndarray, labels) -> tuple[float, np.ndarray]:
    """Summed negative log softmax probability of each column's label, and its gradient.

    logits is classes x n with one column per sample; `labels` holds n class
    indices (an int array, or a bare int for n = 1). Returns the sum over
    the columns and its gradient with respect to the logits, p - onehot.
    """
    labels = np.asarray(labels).reshape(-1)
    rows, n = logits.shape
    if labels.size != n:
        raise ShapeError(f"{labels.size} labels for {n} logit columns")
    outside = (labels < 0) | (labels >= rows)
    if outside.any():
        raise ValueError(f"label {labels[outside.argmax()]} out of range for {rows} classes")
    cols = np.arange(n)
    z = logits
    zmax = z.max(axis=0)
    e = np.exp(z - zmax)
    denom = e.sum(axis=0)
    p = e / denom
    loss = float(np.sum(np.log(denom) - (z[labels, cols] - zmax)))
    if not math.isfinite(loss):
        raise ShapeError(f"cross-entropy must be finite, got {loss}")
    p[labels, cols] -= 1.0
    return loss, p


# -- optimizer ----------------------------------------------------------------


class FlatParameters:
    """Trainable matrices whose arrays are views into one flat float64 array.

    The matrices keep their values and shapes and sit back to back, in the
    given order. `grad` has the layout of `flat`, and each matrix's `.grad`
    is its view of it, so backward rules write gradients in place and one
    subtraction updates every matrix. Writes through a matrix's `.a`, or
    through a view of it taken after packing, land in `flat`. Only matrices
    that own their arrays are adopted: a view (a matrix already in another
    buffer is one) is refused, so no matrix leaves a buffer that still
    updates it.
    """

    __slots__ = ("matrices", "flat", "grad")

    def __init__(self, matrices: Iterable[Matrix]):
        self.matrices = tuple(matrices)
        for m in self.matrices:
            if m.a.base is not None:
                raise ContractError(
                    f"{m!r} is a view of another array, such as a FlatParameters; "
                    "pass that buffer instead of packing the matrix again"
                )
        self.flat = np.zeros(sum(m.a.size for m in self.matrices))
        self.grad = np.zeros_like(self.flat)
        lo = 0
        for m in self.matrices:
            hi = lo + m.a.size
            view = self.flat[lo:hi].reshape(m.shape)
            view[...] = m.a
            m.a, m.grad = view, self.grad[lo:hi].reshape(m.shape)
            lo = hi


def sgd_step(params: FlatParameters, rate: float) -> None:
    """p <- p - rate * g for every parameter, as one update of the flat array.

    The gradients are the buffer the last backward sweep wrote. Both the
    gradients and the updated parameters are checked for finiteness. Frozen
    matrices are never packed, so they are untouched.
    """
    check_finite(params.grad, "gradients")
    params.flat -= rate * params.grad
    check_finite(params.flat, "parameters")
