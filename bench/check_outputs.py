"""Output checker for `smolora train` run directories, written apart from the library.

Nothing here imports smolora. Every check recomputes from the files a run
writes, from the stream file it read, and from the documented formats:

* metrics: AP, MAP and BWT from `accuracy.csv` by their definitions; every
  accuracy cell (content and format) and MIF from `records.jsonl`; the
  record count, which is sum over stages k of the test instances of tasks
  1..k;
* independent forward: `model.ckpt` is parsed by its documented layout
  (`SMOL1`, then per matrix u32 name length, name, u32 rows, u32 cols, f64
  LE data), instructions are embedded by the documented blake2b feature
  hashing, and a plain-numpy forward of the final model must reproduce
  every final-stage `content_correct` and `format_correct`, except where
  the top two logits lie within `TIE_MARGIN` of each other;
* properties: every step loss is finite and, unless the caller exempts the
  method, each stage's last epoch has a lower mean loss than its first;
  `routing.csv` bank rows sum to 1 and `fusion.csv` has mean_alpha +
  mean_beta = 1.

Usage:
    python3 bench/check_outputs.py RUN_DIR --stream STREAM --method M --top-k K
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import re
import struct
import sys
from pathlib import Path

import numpy as np

# Logit gaps below this are near-ties whose argmax may flip with the
# summation order (the library forwards one instance at a time, this checker
# a whole split at once); such instances are exempt from the forward check.
TIE_MARGIN = 1e-9
# Metric and probability sums are compared to this absolute tolerance.
TOL = 1e-9

_TOKEN_RE = re.compile(r"[^0-9a-z]+")
_HASH_KEY = bytes(8)


# -- inputs -------------------------------------------------------------------


def read_stream(path: Path) -> tuple[dict, dict[int, dict[str, list[dict]]]]:
    """Manifest and per-task train/test records, in file order."""
    with open(path) as f:
        manifest = json.loads(f.readline())
        tasks: dict[int, dict[str, list[dict]]] = {
            t["task_id"]: {"train": [], "test": []} for t in manifest["tasks"]
        }
        for line in f:
            if line.strip():
                rec = json.loads(line)
                tasks[rec["task_id"]][rec["split"]].append(rec)
    return manifest, dict(sorted(tasks.items()))


def read_table(path: Path) -> list[list[float]]:
    """Lower-triangular stage x task table; row k holds k scores."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return [[float(c) for c in row[1:] if c != ""] for row in rows[1:] if row]


def read_records(path: Path) -> list[dict]:
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def read_checkpoint(path: Path) -> dict[str, np.ndarray]:
    data = Path(path).read_bytes()
    if data[:5] != b"SMOL1":
        raise ValueError(f"{path}: bad magic")
    pos, out = 5, {}
    while pos < len(data):
        (n,) = struct.unpack_from("<I", data, pos)
        name = data[pos + 4 : pos + 4 + n].decode("utf-8")
        pos += 4 + n
        rows, cols = struct.unpack_from("<II", data, pos)
        pos += 8
        size = rows * cols * 8
        if pos + size > len(data):
            raise ValueError(f"{path}: truncated in {name}")
        out[name] = np.frombuffer(data[pos : pos + size], dtype="<f8").reshape(rows, cols)
        pos += size
    return out


def embed(text: str, e: int) -> np.ndarray:
    """Signed feature hashing of lowercase alphanumeric tokens, L2-normalised."""
    v = np.zeros(e)
    for tok in filter(None, _TOKEN_RE.split(text.strip().lower())):
        h = int.from_bytes(
            hashlib.blake2b(tok.encode("utf-8"), digest_size=8, key=_HASH_KEY).digest(), "big"
        )
        v[h % e] += 1.0 if h >> 63 else -1.0
    return v / np.linalg.norm(v)


# -- independent forward ------------------------------------------------------


def _gate(logits: np.ndarray, k: int) -> np.ndarray:
    """Softmax over the k largest entries along axis 1 (ties to the lower
    index), exact zeros elsewhere."""
    order = np.argsort(-logits, axis=1, kind="stable")
    keep = np.zeros(logits.shape, dtype=bool)
    np.put_along_axis(keep, order[:, :k], True, axis=1)
    z = np.where(keep, logits, -np.inf)
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _blocks(w: dict, prefix: str) -> list[tuple[np.ndarray, np.ndarray]]:
    out, i = [], 0
    while f"{prefix}{i}.A" in w:
        out.append((w[f"{prefix}{i}.A"], w[f"{prefix}{i}.B"]))
        i += 1
    return out


def _layer(w: dict, name: str, method: str, top_k: int, x: np.ndarray, emb: np.ndarray):
    """One adapter-wrapped linear over a batch: x (n, d, s) -> (n, k_out, s)."""
    y = np.einsum("kd,nds->nks", w[f"{name}.W0"], x)
    if method == "seqlora":
        A, B = w[f"{name}.lora.A"], w[f"{name}.lora.B"]
        return y + np.einsum("kr,nrs->nks", B, np.einsum("rd,nds->nrs", A, x))
    if method == "molora":
        blocks = _blocks(w, f"{name}.block")
        logits = np.einsum("md,nds->nms", w[f"{name}.router"], x)
        # Token-wise gate: one top-k softmax per column.
        g = _gate(logits.transpose(0, 2, 1).reshape(-1, len(blocks)), top_k)
        g = g.reshape(x.shape[0], x.shape[2], len(blocks))
        for i, (A, B) in enumerate(blocks):
            delta = np.einsum("kr,nrs->nks", B, np.einsum("rd,nds->nrs", A, x))
            y = y + g[:, None, :, i] * delta
        return y
    g_vu = _gate(x.mean(axis=2) @ w[f"{name}.R_vu"].T, top_k)
    g_if = _gate(emb @ w[f"{name}.R_if"].T, top_k)
    banks = []
    for prefix, g in ((f"{name}.vu", g_vu), (f"{name}.if", g_if)):
        out = np.zeros_like(y)
        for i, (A, B) in enumerate(_blocks(w, prefix)):
            delta = np.einsum("kr,nrs->nks", B, np.einsum("rd,nds->nrs", A, x))
            out = out + g[:, i, None, None] * delta
        banks.append(out)
    x_vu, x_if = banks
    u = np.einsum("k,nks->ns", w[f"{name}.I_vu"][0], x_vu)
    v = np.einsum("k,nks->ns", w[f"{name}.I_if"][0], x_if)
    m = np.maximum(u, v)
    alpha = np.exp(u - m) / (np.exp(u - m) + np.exp(v - m))
    return y + alpha[:, None, :] * x_vu + (1.0 - alpha)[:, None, :] * x_if


def forward(w: dict, method: str, top_k: int, visual: np.ndarray, emb: np.ndarray):
    """Content and format logits (n, classes), (n, formats) for a batch.

    The input sequence has two positions: the visual vector and the
    instruction embedding projected by the frozen `instr_proj`.
    """
    x = np.stack([visual, emb @ w["instr_proj"].T], axis=2)
    h1 = _layer(w, "proj", method, top_k, x, emb)
    h2 = np.maximum(_layer(w, "hidden", method, top_k, h1, emb), 0.0)
    pooled = h2.mean(axis=2, keepdims=True)
    content = _layer(w, "head_content", method, top_k, pooled, emb)[:, :, 0]
    fmt = _layer(w, "head_format", method, top_k, pooled, emb)[:, :, 0]
    return content, fmt


def _decided(logits: np.ndarray) -> np.ndarray:
    top2 = np.sort(logits, axis=1)[:, -2:]
    return top2[:, 1] - top2[:, 0] >= TIE_MARGIN


# -- checks -------------------------------------------------------------------


def check_metrics(run_dir: Path, tasks: dict, records: list[dict]) -> list[str]:
    problems = []
    content = read_table(run_dir / "accuracy.csv")
    fmt = read_table(run_dir / "accuracy.format.csv")
    reported = json.loads((run_dir / "metrics.json").read_text())
    ids = list(tasks)
    t = len(ids)
    n_test = [len(tasks[i]["test"]) for i in ids]
    expected = sum(sum(n_test[:k]) for k in range(1, t + 1))
    if len(records) != expected:
        problems.append(f"records.jsonl has {len(records)} records, expected {expected}")
    if [len(r) for r in content] != list(range(1, t + 1)):
        return problems + ["accuracy.csv is not a lower-triangular table over all stages"]

    cells: dict[tuple[int, int], list[dict]] = {}
    for r in records:
        cells.setdefault((r["stage"], r["task_id"]), []).append(r)
    for k in range(1, t + 1):
        for j in range(1, k + 1):
            recs = cells.get((k, ids[j - 1]), [])
            if sorted(r["instance_index"] for r in recs) != list(range(n_test[j - 1])):
                problems.append(f"stage {k} task {j}: records do not cover the test split once")
                continue
            for table, field, label in ((content, "content_correct", "accuracy.csv"),
                                        (fmt, "format_correct", "accuracy.format.csv")):
                value = 100.0 * sum(r[field] for r in recs) / len(recs)
                if abs(value - table[k - 1][j - 1]) > TOL:
                    problems.append(
                        f"{label} stage {k} task {j}: {table[k - 1][j - 1]!r} != {value!r} "
                        "from records.jsonl")

    ap = [sum(row) / len(row) for row in content]
    want = {"ap": ap[-1], "map": sum(ap) / t, "per_stage_ap": ap}
    if t >= 2:
        want["bwt"] = sum(content[-1][j] - content[j][j] for j in range(t - 1)) / (t - 1)
    finals = [cells.get((t, i), []) for i in ids]
    if all(finals):
        want["mif"] = 100.0 * sum(
            sum(r["format_correct"] for r in c) / len(c) for c in finals) / t
    for key, value in want.items():
        got = reported.get(key)
        same = (
            got is not None and len(got) == len(value)
            and all(abs(a - b) <= TOL for a, b in zip(got, value))
            if isinstance(value, list) else got is not None and abs(got - value) <= TOL
        )
        if not same:
            problems.append(f"metrics.json {key}={got!r}, recomputed {value!r}")
    return problems


def check_forward(run_dir: Path, tasks: dict, records: list[dict], method: str,
                  top_k: int) -> tuple[list[str], int]:
    """Final-stage predictions against an independent forward; also returns
    how many instances were exempt as near-ties."""
    if not records:
        return ["records.jsonl is empty"], 0
    w = read_checkpoint(run_dir / "model.ckpt")
    e = w["instr_proj"].shape[1]
    final = max(r["stage"] for r in records)
    by_key = {(r["task_id"], r["instance_index"]): r for r in records if r["stage"] == final}
    tests = [(tid, i, rec) for tid in tasks for i, rec in enumerate(tasks[tid]["test"])]
    cache: dict[str, np.ndarray] = {}
    emb = np.array([
        np.asarray(rec["embedding"], dtype=float) if "embedding" in rec
        else cache.setdefault(rec["instruction"], embed(rec["instruction"], e))
        for _, _, rec in tests
    ])
    visual = np.array([rec["visual"] for _, _, rec in tests], dtype=float)
    content, fmt = forward(w, method, top_k, visual, emb)
    problems, exempt = [], 0
    decided = _decided(content) & _decided(fmt)
    for n, (tid, i, rec) in enumerate(tests):
        got = by_key.get((tid, i))
        if got is None:
            problems.append(f"no final-stage record for task {tid} instance {i}")
            continue
        if not decided[n]:
            exempt += 1
            continue
        want_c = int(np.argmax(content[n]) == rec["answer_class"])
        want_f = int(np.argmax(fmt[n]) == rec["format_id"])
        if (got["content_correct"], got["format_correct"]) != (want_c, want_f):
            problems.append(
                f"task {tid} instance {i}: record says content={got['content_correct']} "
                f"format={got['format_correct']}, independent forward gives {want_c}/{want_f}")
    if len(problems) > 5:
        problems = problems[:5] + [f"... {len(problems) - 5} more forward mismatches"]
    return problems, exempt


def _rise(losses: list[float], per_epoch: int) -> str | None:
    first = sum(losses[:per_epoch]) / per_epoch
    last = sum(losses[-per_epoch:]) / per_epoch
    return None if last < first else f"last-epoch loss {last:.6f} not below first {first:.6f}"


def loss_rises(step_losses: list[list[float]], epochs: int) -> list[str]:
    """Stages whose last epoch's mean step loss is not below their first's."""
    rises = ((k, _rise(losses, len(losses) // epochs))
             for k, losses in enumerate(step_losses, start=1))
    return [f"stage {k}: {r}" for k, r in rises if r]


def check_losses(step_losses: list[list[float]], tasks: dict, epochs: int,
                 batch_size: int, require_fall: bool = True) -> list[str]:
    """Step counts and finiteness; with `require_fall`, also that every
    stage's loss falls from its first epoch to its last."""
    problems = []
    if len(step_losses) != len(tasks):
        return [f"{len(step_losses)} stages of step losses for {len(tasks)} tasks"]
    for k, (losses, tid) in enumerate(zip(step_losses, tasks), start=1):
        per_epoch = math.ceil(len(tasks[tid]["train"]) / batch_size)
        if len(losses) != epochs * per_epoch:
            problems.append(f"stage {k}: {len(losses)} step losses, expected {epochs * per_epoch}")
        elif not all(math.isfinite(x) for x in losses):
            problems.append(f"stage {k}: non-finite step loss")
        elif require_fall and epochs >= 2 and (rise := _rise(losses, per_epoch)):
            problems.append(f"stage {k}: {rise}")
    return problems


def check_separable(run_dir: Path) -> list[str]:
    problems = []
    with open(run_dir / "routing.csv", newline="") as f:
        for row in list(csv.reader(f))[1:]:
            total = sum(float(c) for c in row[2:] if c != "")
            if abs(total - 1.0) > TOL:
                problems.append(f"routing.csv task {row[0]} bank {row[1]} sums to {total!r}")
    with open(run_dir / "fusion.csv", newline="") as f:
        for row in csv.DictReader(f):
            total = float(row["mean_alpha"]) + float(row["mean_beta"])
            if abs(total - 1.0) > TOL:
                problems.append(f"fusion.csv layer {row['layer']}: alpha + beta = {total!r}")
    return problems


def check_run(run_dir, stream, method: str, top_k: int, step_losses=None,
              epochs: int | None = None, batch_size: int | None = None,
              require_fall: bool = True) -> list[str]:
    """Every check above on one run directory; returns the problems found."""
    run_dir = Path(run_dir)
    _, tasks = read_stream(Path(stream))
    records = read_records(run_dir / "records.jsonl")
    problems = check_metrics(run_dir, tasks, records)
    problems += check_forward(run_dir, tasks, records, method, top_k)[0]
    if step_losses is not None:
        problems += check_losses(step_losses, tasks, epochs, batch_size, require_fall)
    if method == "smolora":
        problems += check_separable(run_dir)
    return problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("run_dir")
    p.add_argument("--stream", required=True)
    p.add_argument("--method", required=True, choices=["seqlora", "molora", "smolora"])
    p.add_argument("--top-k", type=int, default=1)
    args = p.parse_args(argv)
    problems = check_run(args.run_dir, args.stream, args.method, args.top_k)
    for line in problems:
        print(f"FAIL: {line}")
    print("ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
