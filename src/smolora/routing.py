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
import re
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import ContractError, ShapeError
from .tensor import Matrix, check_finite

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


def embed_text(text: str, e: int) -> Matrix:
    """Feature-hashing bag-of-words embedding, L2-normalized, as an e x 1 matrix.

    Tokens are lowercased and split on non-alphanumerics; each token lands in
    bucket hash % e with sign taken from hash bit 63.
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
        raise ContractError(f"token signs cancelled to a zero embedding: {text!r}")
    return Matrix._wrap((v / norm).reshape(-1, 1))


class HashingEmbedder:
    """Default embedder; memoizes per text since task templates repeat heavily."""

    def __init__(self, dimension: int):
        if dimension < 1:
            raise ValueError(f"embedding dimension must be positive, got {dimension}")
        self.dimension = dimension
        self._cache: dict[str, Matrix] = {}

    def embed(self, text: str) -> Matrix:
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
        gate = np.zeros_like(logits)
        gate[logits.argmax(axis=0), np.arange(cols)] = 1.0
        return gate
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
    rows, cols = x.shape
    if instances < 1 or cols % instances:
        raise ShapeError(f"cannot split {cols} columns into {instances} equal groups")
    return route_instruction(R_vu, x.reshape(rows, instances, -1).mean(axis=2), top_k)


@dataclass
class RoutingTrace:
    """Routing of one instance through one layer: selected blocks, gate weights, fusion means."""

    layer_id: int
    vu_selected: list[tuple[int, float]] = field(default_factory=list)
    if_selected: list[tuple[int, float]] = field(default_factory=list)
    alpha_mean: float = 0.0
    beta_mean: float = 0.0


def selected_from_gate(col: np.ndarray) -> list[tuple[int, float]]:
    """Nonzero (block index, weight) pairs of one gate column."""
    return [(int(i), float(w)) for i, w in enumerate(col) if w > 0.0]


def routing_histogram(
    traces_by_task: Mapping[int, Sequence[RoutingTrace]],
    vu_blocks: int,
    if_blocks: int,
) -> dict[int, dict[str, np.ndarray]]:
    """Gate-weighted block-usage frequencies per task and bank; rows sum to 1."""
    if not traces_by_task:
        raise ValueError("routing_histogram requires at least one trace")
    out: dict[int, dict[str, np.ndarray]] = {}
    for task_id in sorted(traces_by_task):
        traces = traces_by_task[task_id]
        if not traces:
            raise ValueError(f"task {task_id} has no traces")
        vu = np.zeros(vu_blocks)
        if_ = np.zeros(if_blocks)
        for tr in traces:
            for i, w in tr.vu_selected:
                vu[i] += w
            for j, w in tr.if_selected:
                if_[j] += w
        out[task_id] = {"vu": vu / vu.sum(), "if": if_ / if_.sum()}
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
    out: dict[int, dict[str, np.ndarray]] = {}
    with open(path, newline="") as f:
        reader = csv.reader(f)
        next(reader)  # header
        for row in reader:
            task_id, bank = int(row[0]), row[1]
            freq = np.array([float(x) for x in row[2:] if x != ""])
            out.setdefault(task_id, {})[bank] = freq
    return out
