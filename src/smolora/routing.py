"""Router computations, the hashing instruction embedder, and routing analytics.

Two gating paths feed the adapter banks, both through one top-k softmax
gate: instance-based gates computed from the sequence-averaged layer input,
and instruction-based gates computed from an embedding of the task's
instruction text. The default embedder is a deterministic feature-hashing
bag of words standing in for a learned sentence encoder; precomputed vectors
can be supplied through the benchmark stream file instead.

A run's two routing summaries, `routing.csv` (:func:`routing_histogram`)
and `fusion.csv` (:func:`fusion_stats`), are computed, written and read here.
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


def routing_histogram(
    layers: Sequence[LayerRouting],
    tasks: Mapping[int, slice],
) -> dict[int, dict[str, np.ndarray]]:
    """Gate-weighted block-usage frequencies per task and bank, tasks sorted; rows sum to 1.

    `layers` holds one forward's routing per separable layer, and `tasks`
    maps each task id to its instances' slice of the gate columns. A block's
    usage is its gate weights added in forward order, layer by layer and
    then instance by instance: a cumulative sum, since numpy's pairwise sum
    would round differently above top-1.
    """
    out: dict[int, dict[str, np.ndarray]] = {}
    for task_id in sorted(tasks):
        cols = tasks[task_id]
        usage = {
            "vu": np.cumsum(np.hstack([r.vu_gate[:, cols] for r in layers]), axis=1)[:, -1],
            "if": np.cumsum(np.hstack([r.if_gate[:, cols] for r in layers]), axis=1)[:, -1],
        }
        out[task_id] = {bank: u / u.sum() for bank, u in usage.items()}
    return out


def fusion_stats(layers: Sequence[LayerRouting]) -> list[dict]:
    """Per layer, numbered by position, the mean and sd of the instances' mean alpha and beta."""
    stats = []
    for layer, r in enumerate(layers):
        row = {"layer": layer}
        for key in ("alpha", "beta"):
            means = run_means(getattr(r, key), r.alpha.shape[1] // r.vu_gate.shape[1])[0]
            row[f"mean_{key}"], row[f"std_{key}"] = float(means.mean()), float(means.std())
        stats.append(row)
    return stats


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

    The header is task,bank,block_0,...,block_{W-1} with W >= 1. A row is a
    task id, a bank ('vu' or 'if'), then its frequencies, then only blank
    cells, and no wider than the header; no (task, bank) pair repeats. The
    frequencies are non-negative and sum to 1 within 1e-9, a bank has as
    many at every task, and every task has both banks. Any fault raises
    FormatError naming its line, or the task that lacks a bank.
    """
    out: dict[int, dict[str, np.ndarray]] = {}
    widths: dict[str, int] = {}  # bank -> its block count at the first task
    reader = csv.reader(io.StringIO(read_utf8(path), newline=""))
    try:
        header = next(reader, [])
        width = len(header)
        if width < 3 or header != ["task", "bank"] + [f"block_{i}" for i in range(width - 2)]:
            raise ValueError(f"header {','.join(header)!r} is not task,bank,block_0,...,block_W")
        for row in reader:
            if len(row) > width:
                raise ValueError(f"{len(row)} cells, more than the header's {width}")
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
            freq = banks[bank] = np.array([finite_float(x) for x in cells])
            if (freq < 0).any() or abs(freq.sum() - 1.0) > 1e-9:
                raise ValueError(f"frequencies must be non-negative and sum to 1, got {freq.tolist()}")
            if widths.setdefault(bank, freq.size) != freq.size:
                raise ValueError(f"bank {bank!r} has {freq.size} blocks, not {widths[bank]} as above")
    except (csv.Error, IndexError, ValueError) as exc:
        raise FormatError(f"{path}: bad routing row: {exc!r}", line=reader.line_num or 1) from None
    for task_id, banks in out.items():
        if len(banks) < 2:
            raise FormatError(f"{path}: task {task_id} has no {'if' if 'vu' in banks else 'vu'} row")
    return out


_FUSION_FIELDS = ["layer", "mean_alpha", "std_alpha", "mean_beta", "std_beta"]


def write_fusion_csv(path, stats: Sequence[Mapping]) -> None:
    """One row per :func:`fusion_stats` row, under the header of its five fields."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(_FUSION_FIELDS)
        for row in stats:
            w.writerow([row["layer"]] + [repr(row[k]) for k in _FUSION_FIELDS[1:]])


def read_fusion_csv(path) -> list[dict]:
    """The rows of a fusion file: the header of :func:`write_fusion_csv` exactly, then
    rows of its five cells (blank lines skipped), finite floats after the layers
    0, 1, ... in file order, each mean in [0, 1] and each sd >= 0. Any fault
    raises FormatError naming its line.
    """
    reader = csv.reader(io.StringIO(read_utf8(path), newline=""))
    rows: list[dict] = []
    try:
        if next(reader, []) != _FUSION_FIELDS:
            raise ValueError(f"header is not {','.join(_FUSION_FIELDS)}")
        for cells in filter(None, reader):
            if len(cells) != len(_FUSION_FIELDS):
                raise ValueError(f"{len(cells)} cells, not {len(_FUSION_FIELDS)}")
            if int(cells[0]) != len(rows):
                raise ValueError(f"layer {cells[0]} where layer {len(rows)} is due")
            row = dict(zip(_FUSION_FIELDS[1:], map(finite_float, cells[1:])))
            for key, value in row.items():
                if value < 0 or value > 1 and key.startswith("mean"):
                    raise ValueError(f"{key} {value!r} is out of range")
            rows.append({"layer": len(rows), **row})
    except (csv.Error, ValueError) as exc:
        raise FormatError(f"{path}: bad fusion row: {exc!r}", line=reader.line_num or 1) from None
    return rows
