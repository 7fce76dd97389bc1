"""Router computations, the hashing instruction embedder, and routing analytics.

Two gating paths feed the adapter banks, both through one top-k softmax
gate: instance-based gates computed from the sequence-averaged layer input,
and instruction-based gates computed from an embedding of the task's
instruction text. The default embedder is a deterministic feature-hashing
bag of words standing in for a learned sentence encoder; precomputed vectors
can be supplied through the benchmark stream file instead.
"""

from __future__ import annotations

import csv
import hashlib
import io
import re
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import FormatError, ShapeError, finite_float, read_utf8
from .tensor import check_finite, run_means

# 64-bit token hash: blake2b keyed with an 8-byte zero seed, fixed for all
# runs and platforms.
_HASH_SEED = (0).to_bytes(8, "little")
_TOKEN_RE = re.compile(r"[^0-9a-z]+")


def token_hash(token: str) -> int:
    """Stable unsigned 64-bit hash of a token."""
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8, key=_HASH_SEED).digest()
    return int.from_bytes(digest, "big")


def tokenize(text: str) -> list[str]:
    """Lowercased runs of ASCII letters and digits, in order."""
    return [t for t in _TOKEN_RE.split(text.strip().lower()) if t]


def embed_text(text: str, e: int) -> np.ndarray:
    """Feature-hashing bag-of-words embedding, L2-normalized, as an e x 1 array.

    Tokens are lowercased and split on non-alphanumerics; each token lands in
    bucket hash % e with sign taken from hash bit 63. Text with no token,
    or whose token signs cancel to a zero vector, is a ValueError.
    """
    if e < 1:
        raise ValueError(f"embedding dimension must be positive, got {e}")
    stripped = text.strip()
    if not stripped:
        raise ValueError("cannot embed empty text")
    tokens = tokenize(stripped)
    if not tokens:
        raise ValueError(f"text has no alphanumeric tokens: {text!r}")
    v = np.zeros(e)
    for tok in tokens:
        h = token_hash(tok)
        sign = 1.0 if (h >> 63) & 1 else -1.0
        v[h % e] += sign
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise ValueError(f"token signs cancelled to a zero embedding: {text!r}")
    return (v / norm).reshape(-1, 1)


class HashingEmbedder:
    """Default embedder; memoizes per text since task templates repeat heavily."""

    def __init__(self, dimension: int):
        if dimension < 1:
            raise ValueError(f"embedding dimension must be positive, got {dimension}")
        self.dimension = dimension
        self._cache: dict[str, np.ndarray] = {}

    def embed(self, text: str) -> np.ndarray:
        hit = self._cache.get(text)
        if hit is None:
            hit = embed_text(text, self.dimension)
            self._cache[text] = hit
        return hit


def topk_softmax(logits: np.ndarray, top_k: int) -> np.ndarray:
    """Softmax over the top_k largest logits of each column; every other entry is exactly 0.

    Ties break toward the lowest row. The logits are checked for finiteness
    first, since the mask could otherwise drop a NaN or an infinity unseen.
    """
    rows, cols = logits.shape
    if not 1 <= top_k <= rows:
        raise ValueError(f"top-k size k={top_k} out of range [1, {rows}]")
    check_finite(logits, "router logits")
    if top_k == 1:
        # exp(0) / exp(0): the one kept entry is exactly 1.
        return np.eye(rows).take(logits.argmax(axis=0), axis=1)
    e = np.exp(logits - logits.max(axis=0))
    if top_k < rows:
        keep = np.zeros(logits.shape, dtype=bool)
        keep[np.argsort(-logits, axis=0, kind="stable")[:top_k], np.arange(cols)] = True
        e = np.where(keep, e, 0.0)
    return e / e.sum(axis=0)


def route_instruction(R: np.ndarray, z: np.ndarray, top_k: int) -> np.ndarray:
    """The top-k softmax gate of R @ z, one column per column of z.

    Each column has exactly top_k positive entries summing to 1. It gates
    the instruction-following bank on the instruction embeddings, and
    molora's blocks on each token.
    """
    return topk_softmax(R @ z, top_k)


def route_instance(R_vu: np.ndarray, x: np.ndarray, top_k: int, instances: int = 1) -> np.ndarray:
    """The gate of :func:`route_instruction` on each instance's averaged input.

    x holds `instances` equal runs of consecutive columns, one per instance;
    column j gates the visual-understanding bank on the mean of run j.
    """
    cols = x.shape[1]
    if instances < 1 or cols % instances:
        raise ShapeError(f"cannot split {cols} columns into {instances} equal groups")
    s = cols // instances
    return route_instruction(R_vu, x if s == 1 else run_means(x, s), top_k)


class LayerRouting(NamedTuple):
    """One separable layer forward's routing: the arrays the layer computed.

    The gates are blocks x instances, column j for instance j; alpha and beta
    are the fusion weights, 1 x columns, each instance's columns consecutive.
    """

    vu_gate: np.ndarray
    if_gate: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray

    def instances(self, start: int, stop: int) -> "LayerRouting":
        """The routing of instances start to stop - 1, as views of these arrays."""
        s = self.alpha.shape[1] // self.vu_gate.shape[1]
        gates, fusion = slice(start, stop), slice(start * s, stop * s)
        return self._replace(vu_gate=self.vu_gate[:, gates], if_gate=self.if_gate[:, gates],
                             alpha=self.alpha[:, fusion], beta=self.beta[:, fusion])


def routing_histogram(
    routing_by_task: Mapping[int, Sequence[LayerRouting]],
) -> dict[int, dict[str, np.ndarray]]:
    """Gate-weighted block-usage frequencies per task and bank; rows sum to 1.

    A block's usage is its gate weights added in forward order, layer by
    layer and then instance by instance: a cumulative sum, since numpy's
    pairwise sum would round differently above top-1.
    """
    if not routing_by_task:
        raise ValueError("routing_histogram requires at least one layer record")
    out: dict[int, dict[str, np.ndarray]] = {}
    for task_id in sorted(routing_by_task):
        layers = routing_by_task[task_id]
        if not layers:
            raise ValueError(f"task {task_id} has no layer records")
        usage = {
            "vu": np.cumsum(np.hstack([r.vu_gate for r in layers]), axis=1)[:, -1],
            "if": np.cumsum(np.hstack([r.if_gate for r in layers]), axis=1)[:, -1],
        }
        out[task_id] = {bank: u / u.sum() for bank, u in usage.items()}
    return out


def histogram_entropy(freq: np.ndarray) -> float:
    """Shannon entropy (nats) of a frequency vector."""
    p = freq[freq > 0]
    return float(-(p * np.log(p)).sum())


def write_routing_csv(path, hist: Mapping[int, Mapping[str, np.ndarray]]) -> None:
    """CSV rows (task, bank, block_0..block_{n-1}); short banks pad with blanks."""
    width = max(len(v) for banks in hist.values() for v in banks.values())
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["task", "bank"] + [f"block_{i}" for i in range(width)])
        for task_id in sorted(hist):
            for bank in ("vu", "if"):
                freq = hist[task_id][bank]
                row = [task_id, bank] + [repr(float(x)) for x in freq]
                row += [""] * (width - len(freq))
                w.writerow(row)


def read_routing_csv(path) -> dict[int, dict[str, np.ndarray]]:
    """Frequencies per task and bank, in file order.

    A row is a task id, a bank ('vu' or 'if'), then its frequencies, then
    only blank cells; no (task, bank) pair repeats. A malformed row raises
    FormatError naming its line.
    """
    out: dict[int, dict[str, np.ndarray]] = {}
    reader = csv.reader(io.StringIO(read_utf8(path), newline=""))
    try:
        next(reader, None)  # header
        for row in reader:
            task_id, bank, cells = int(row[0]), row[1], row[2:]
            if bank not in ("vu", "if"):
                raise ValueError(f"bank must be 'vu' or 'if', got {bank!r}")
            banks = out.setdefault(task_id, {})
            if bank in banks:
                raise ValueError(f"task {task_id} bank {bank!r} appears twice")
            while cells and cells[-1] == "":
                cells.pop()
            if "" in cells:
                raise ValueError("a blank cell before a frequency")
            banks[bank] = np.array([finite_float(x) for x in cells])
    except (csv.Error, IndexError, ValueError) as exc:
        raise FormatError(f"{path}: bad routing row: {exc!r}", line=reader.line_num) from None
    return out
