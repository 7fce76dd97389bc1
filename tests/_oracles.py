"""Shared independent oracles for the test suite.

These deliberately avoid the library's backward rules: finite differences
probe gradients, and the straight-line forward below re-evaluates the
separable layer with plain numpy, step by step. The per-instance model input
and records rebuild, one instance at a time, what the harness builds from a
split's arrays. The dict-based records, their writer and MIF, the
double-repeat and out-of-place banks, the two-row fusion, the
per-instance routing traces and the per-task fusion statistics below are
earlier versions of the library's code, kept as bit-for-bit references for the array and in-place versions.
`with_grads` hands the finite-difference checks each block of a packed bank
as a parameter of its own. The checkpoint reader, the per-split accuracy
percentages and the nearest-cluster-mean classifier are called only by
tests, so they live here.
"""

from __future__ import annotations

import json
import struct
from types import SimpleNamespace

import numpy as np

from smolora.benchmark import TaskSpec, TaskSplit
from smolora.errors import ContractError, FormatError
from smolora.harness import _MAGIC, ToyModel
from smolora.tensor import Tape, run_means

FD_H = 1e-5


def central_diff(loss_fn, param: np.ndarray, i: int, j: int, h: float = FD_H) -> float:
    """Central finite difference of a scalar loss w.r.t. one parameter entry."""
    orig = param[i, j]
    param[i, j] = orig + h
    plus = loss_fn()
    param[i, j] = orig - h
    minus = loss_fn()
    param[i, j] = orig
    return (plus - minus) / (2.0 * h)


def rel_err(analytic: float, fd: float, floor: float = 1e-4) -> float:
    """Relative error with a floor so near-zero gradients compare on FD noise scale."""
    return abs(analytic - fd) / max(abs(analytic), abs(fd), floor)


def rule_fd_error(run, params, x, G, per_matrix=None, rng=None) -> tuple[float, int]:
    """Worst relative error of a kernel's backward rule against central differences.

    `run(tape)` evaluates a kernel f on the current values of `params`
    (each an array `a` with its `grad` view, such as the matrices of a
    FlatParameters) and of its input array `x`,
    recording its rule when given a tape. The rule gets the fixed output
    gradient G; each parameter gradient it writes and the input gradient it
    returns are compared with central differences of <G, f> = sum(G * f),
    entry by entry, or at `per_matrix` random entries of each matrix.
    Returns the worst error and the number of entries checked.
    """
    tape = Tape()
    tape._ops.append(None)  # x is an earlier rule's output, so the rule returns its gradient
    run(tape)
    dx = tape._ops[-1](G)

    def inner() -> float:
        return float(np.sum(G * run(None)))

    worst, n = 0.0, 0
    for values, grad in [(p.a, p.grad) for p in params] + [(x, dx)]:
        grad = grad.copy()
        rows, cols = values.shape
        if per_matrix is None or per_matrix >= rows * cols:
            entries = [(i, j) for i in range(rows) for j in range(cols)]
        else:
            entries = [(int(rng.integers(rows)), int(rng.integers(cols))) for _ in range(per_matrix)]
        for i, j in entries:
            worst = max(worst, rel_err(grad[i, j], central_diff(inner, values, i, j)))
            n += 1
    return worst, n


def with_grads(params, named: dict) -> list[SimpleNamespace]:
    """The arrays of `named` that lie in the flat parameters `params`, in order,
    each as a parameter (`a`, `grad`) with its view of the gradient buffer.

    A model's or layer's `named` arrays include each bank block by block, so
    a check that samples entries per parameter samples every block.
    """
    out = []
    for view in named.values():
        offset = view.ctypes.data - params.flat.ctypes.data
        if 0 <= offset < params.flat.nbytes:
            grad = np.ndarray(view.shape, buffer=params.grad, offset=offset, strides=view.strides)
            out.append(SimpleNamespace(a=view, grad=grad))
    return out


def scalar_softmax(values) -> list[float]:
    """Plain exp/sum softmax over a sequence of floats."""
    m = max(values)
    exps = [np.exp(v - m) for v in values]
    s = sum(exps)
    return [float(e / s) for e in exps]


def mask_then_softmax(values, k: int) -> list[float]:
    """Exhaustive-sort top-k mask (ties to lowest index) followed by softmax."""
    order = sorted(range(len(values)), key=lambda i: (-values[i], i))
    kept = set(order[:k])
    out = [0.0] * len(values)
    sub = scalar_softmax([values[i] for i in sorted(kept)])
    for pos, i in enumerate(sorted(kept)):
        out[i] = sub[pos]
    return out


def straight_line_smolora(
    W0: np.ndarray,
    vu_A: list[np.ndarray],
    vu_B: list[np.ndarray],
    if_A: list[np.ndarray],
    if_B: list[np.ndarray],
    R_vu: np.ndarray,
    R_if: np.ndarray,
    I_vu: np.ndarray,
    I_if: np.ndarray,
    top_k: int,
    x: np.ndarray,
    emb: np.ndarray,
    scale: float = 1.0,
) -> np.ndarray:
    """Separable-layer forward evaluated step by step with plain numpy."""
    avg = x.mean(axis=1, keepdims=True)
    vu_gate = np.array(mask_then_softmax(list((R_vu @ avg)[:, 0]), top_k))
    if_gate = np.array(mask_then_softmax(list((R_if @ emb)[:, 0]), top_k))
    x_vu = np.zeros((W0.shape[0], x.shape[1]))
    for g, A, B in zip(vu_gate, vu_A, vu_B):
        x_vu += g * scale * (B @ (A @ x))
    x_if = np.zeros((W0.shape[0], x.shape[1]))
    for g, A, B in zip(if_gate, if_A, if_B):
        x_if += g * scale * (B @ (A @ x))
    u = I_vu @ x_vu
    v = I_if @ x_if
    fused = np.zeros_like(x_vu)
    for t in range(x.shape[1]):
        alpha, beta = scalar_softmax([u[0, t], v[0, t]])
        fused[:, t] = alpha * x_vu[:, t] + beta * x_if[:, t]
    return W0 @ x + fused


def per_instance_input(
    instr_proj: np.ndarray, visuals: list[np.ndarray], embeddings: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Model input x (d_v x 2n) and embeddings (e x n) assembled one instance at a time.

    visuals holds one (d_v,) vector and embeddings one (e, 1) column per instance.
    """
    emb = np.hstack(embeddings)
    x = np.empty((instr_proj.shape[0], 2 * len(visuals)))
    x[:, 0::2] = np.column_stack(visuals)
    x[:, 1::2] = instr_proj @ emb
    return x, emb


def per_instance_records(
    content: np.ndarray, fmt: np.ndarray, labels: list[tuple[int, int, int]]
) -> tuple[float, float, list[dict]]:
    """Accuracies and records from logits, one instance at a time.

    labels holds (task_id, answer_class, format_id) per instance.
    """
    pred_class = np.argmax(content, axis=0)
    pred_format = np.argmax(fmt, axis=0)
    records = [
        {
            "task_id": task_id,
            "instance_index": i,
            "content_correct": int(pred_class[i] == answer_class),
            "format_correct": 1 if int(pred_format[i]) == format_id else 0,
        }
        for i, (task_id, answer_class, format_id) in enumerate(labels)
    ]
    content_acc = 100.0 * sum(r["content_correct"] for r in records) / len(records)
    format_acc = 100.0 * sum(r["format_correct"] for r in records) / len(records)
    return content_acc, format_acc, records


def stage_records(stage: int, task_ids, correct: np.ndarray) -> list[dict]:
    """One split's per-sample records of one stage, one dict per sample.

    correct is the split's 2 x n correctness array (content, then format).
    """
    records = [
        {"task_id": t, "instance_index": i, "content_correct": c, "format_correct": f}
        for i, (t, c, f) in enumerate(zip(list(task_ids), correct[0].tolist(), correct[1].tolist()))
    ]
    return [{"stage": stage, **r} for r in records]


def write_dict_records(path, records: list[dict]) -> None:
    """One json.dumps(record, sort_keys=True) line per record."""
    encode = json.JSONEncoder(sort_keys=True).encode
    with open(path, "w") as f:
        for r in records:
            f.write(encode(r) + "\n")


def dict_mif(records: list[dict]) -> float:
    """MIF over dict records of the latest stage: per-task format rates in task
    order, averaged, x100."""
    if not records:
        raise ContractError("mif requires at least one record")
    stage = max(r["stage"] for r in records)
    per_task: dict[int, list[int]] = {}
    for r in records:
        if r["stage"] == stage:
            per_task.setdefault(r["task_id"], []).append(int(r["format_correct"]))
    rates = [sum(v) / len(v) for _, v in sorted(per_task.items())]
    return 100.0 * sum(rates) / len(rates)


def double_repeat_bank(a_stack, b_cat, r: int, gate, x, s: int, g):
    """A bank's output and its gradients (A, B, x, gate) with the gate expanded twice.

    The gate is expanded by np.repeat over the rank rows and then over each
    instance's s columns, even where s = 1.
    """
    full = np.repeat(np.repeat(gate, r, axis=0), s, axis=1)
    z = a_stack @ x
    zg = full * z
    out = b_cat @ zg
    dzg = b_cat.T @ g
    dz = dzg * full
    d_gate = (dzg * z).reshape(gate.shape[0], r, gate.shape[1], s).sum(axis=(1, 3))
    return out, dz @ x.T, g @ zg.T, a_stack.T @ dz, d_gate


def out_of_place_bank(a_stack, b_cat, r: int, gate, x, s: int):
    """A bank's output with the gated product G * (A @ x) built as a new array,
    the reference for the untaped `lora._bank`, which gates A @ x in place."""
    full = gate.repeat(s, axis=1).repeat(r, axis=0)
    z = a_stack @ x
    zg = full * z
    return b_cat @ zg


def two_row_fusion(x_vu, x_if, I_vu, I_if):
    """adaptive_fusion with the pairwise softmax as a max and a sum over two rows."""
    uv = np.concatenate([I_vu @ x_vu, I_if @ x_if])
    e = np.exp(uv - uv.max(axis=0))
    ab = e / e.sum(axis=0)
    alpha, beta = ab[:1], ab[1:]
    return alpha * x_vu + beta * x_if, alpha, beta


def trace_routing(layers, tasks) -> tuple[dict, list[dict]]:
    """Routing histogram and fusion statistics through one trace per instance and layer.

    layers holds one LayerRouting per layer, in layer order, and tasks maps
    each task id to its instances' slice of the gate columns. Each trace
    holds its layer's position, an instance's nonzero (block, weight) pairs
    and its mean alpha and beta. A block's usage adds the weights trace by
    trace (layer by layer, then instance by instance) from 0.0, tasks
    sorted; the fusion statistics pool the instances' means per layer,
    tasks in dict order.
    """
    traces_by_task = {}
    for task_id, cols in tasks.items():
        traces = traces_by_task.setdefault(task_id, [])
        for layer, r in enumerate(layers):
            n = r.vu_gate.shape[1]
            s = r.alpha.shape[1] // n
            for j in range(n)[cols]:
                traces.append((
                    layer,
                    [(i, float(w)) for i, w in enumerate(r.vu_gate[:, j]) if w > 0.0],
                    [(i, float(w)) for i, w in enumerate(r.if_gate[:, j]) if w > 0.0],
                    float(r.alpha[0, j * s : (j + 1) * s].mean()),
                    float(r.beta[0, j * s : (j + 1) * s].mean()),
                ))
    hist = {}
    for task_id in sorted(traces_by_task):
        vu = np.zeros(layers[0].vu_gate.shape[0])
        if_ = np.zeros(layers[0].if_gate.shape[0])
        for _, vu_selected, if_selected, _, _ in traces_by_task[task_id]:
            for i, w in vu_selected:
                vu[i] += w
            for i, w in if_selected:
                if_[i] += w
        hist[task_id] = {"vu": vu / vu.sum(), "if": if_ / if_.sum()}
    by_layer = {}
    for traces in traces_by_task.values():
        for layer, _, _, alpha_mean, beta_mean in traces:
            by_layer.setdefault(layer, []).append((alpha_mean, beta_mean))
    fusion = []
    for layer in sorted(by_layer):
        alphas = np.array([a for a, _ in by_layer[layer]])
        betas = np.array([b for _, b in by_layer[layer]])
        fusion.append({
            "layer": layer,
            "mean_alpha": float(alphas.mean()),
            "std_alpha": float(alphas.std()),
            "mean_beta": float(betas.mean()),
            "std_beta": float(betas.std()),
        })
    return hist, fusion


def per_task_fusion_stats(layers, tasks) -> list[dict]:
    """The fusion statistics from each task's cut of the routing: per layer,
    the instances' mean alpha and beta, task by task in dict order and then
    concatenated, and the mean and sd of those."""
    stats = []
    for layer, r in enumerate(layers):
        s = r.alpha.shape[1] // r.vu_gate.shape[1]
        row = {"layer": layer}
        for key in ("alpha", "beta"):
            means = np.concatenate([run_means(getattr(r, key)[:, cols.start * s : cols.stop * s], s)[0]
                                    for cols in tasks.values()])
            row[f"mean_{key}"], row[f"std_{key}"] = float(means.mean()), float(means.std())
        stats.append(row)
    return stats


def percentages(correct: np.ndarray) -> tuple[float, float]:
    """Content and format accuracy in percent of a 2 x n correctness array,
    as 100 * hits / n."""
    n = correct.shape[1]
    content_hits, format_hits = correct.sum(axis=1).tolist()
    return 100.0 * content_hits / n, 100.0 * format_hits / n


def nearest_mean_accuracy(spec: TaskSpec, split: TaskSplit) -> float:
    """Accuracy (%) of a 1-nearest-cluster-mean classifier; separability oracle."""
    dists = np.linalg.norm(spec.visual_cluster_means[:, :, None] - split.visual[None], axis=1)
    return 100.0 * np.count_nonzero(dists.argmin(axis=0) == split.answer_class) / len(split)


def load_checkpoint(path, model: ToyModel) -> ToyModel:
    """Fill a freshly constructed model's weights from a checkpoint in place.

    The whole file is read and checked before any weight is written, so a
    rejected file leaves the model as it was. Blocks are written through
    their views of the banks, and so into the flat parameter array.
    """
    expected = model.named_matrices()
    loaded: dict[str, np.ndarray] = {}
    with open(path, "rb") as f:
        data = f.read()
    if data[: len(_MAGIC)] != _MAGIC:
        raise FormatError(f"{path}: bad magic bytes", offset=0)
    pos = len(_MAGIC)

    def take(n: int, what: str) -> bytes:
        nonlocal pos
        if pos + n > len(data):
            raise FormatError(f"{path}: truncated while reading {what}", offset=pos)
        chunk = data[pos : pos + n]
        pos += n
        return chunk

    while pos < len(data):
        (name_len,) = struct.unpack("<I", take(4, "name length"))
        name_at = pos
        try:
            name = take(name_len, "name").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(
                f"{path}: parameter name is not valid UTF-8", offset=name_at + exc.start
            ) from None
        if name in loaded:
            raise FormatError(f"{path}: parameter {name!r} appears twice", offset=name_at)
        rows, cols = struct.unpack("<II", take(8, "shape"))
        data_at = pos
        raw = take(rows * cols * 8, f"data of {name}")
        arr = np.frombuffer(raw, dtype="<f8").reshape(rows, cols)
        target = expected.get(name)
        if target is None:
            raise ContractError(f"checkpoint parameter {name!r} not present in model")
        if target.shape != (rows, cols):
            raise ContractError(
                f"checkpoint parameter {name!r} is {rows}x{cols}, model expects "
                f"{target.shape[0]}x{target.shape[1]}"
            )
        finite = np.isfinite(arr)
        if not finite.all():
            raise FormatError(
                f"{path}: parameter {name!r} holds a non-finite value",
                offset=data_at + 8 * int(finite.argmin()),
            )
        loaded[name] = arr
    missing = set(expected) - set(loaded)
    if missing:
        raise ContractError(f"checkpoint missing parameters: {sorted(missing)}")
    for name, arr in loaded.items():
        expected[name][...] = arr
    return model
