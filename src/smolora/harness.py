"""Sequential fine-tuning loop, the toy adapter-wrapped model, and checkpoints.

The model is a small feed-forward network whose every linear layer is a
frozen random base weight plus an adapter of the configured kind (single
LoRA, token-wise mixture, or separable mixture). Each instance is a
two-column sequence: the visual feature vector and a fixed random projection
of the instruction embedding. Two heads read a mean-pooled hidden state: one
predicts the content class, the other the answer-format tag. Only adapter
parameters ever receive updates; they live in one flat array, so a training
step updates and scans them once.

Task splits are columnar (`benchmark.TaskSplit`), and `attach_embeddings`
embeds each distinct text once. The model runs a whole split or
mini-batch at once: the instances' columns sit side by side, two per
instance, with one embedding column per instance, taken from the split's
arrays without a loop over instances. A training mini-batch is a column
selection of its stage's split and records one tape; evaluation runs one
tape-free forward per test split and compares the argmax predictions with
the label arrays, and the run stacks those correctness arrays into one
columnar `metrics.Records` table: no per-sample Python object is built
between the forward and `records.jsonl`. An evaluation forward also
returns one `routing.LayerRouting` per separable layer, and the run reduces
the last stage's to the routing histogram and fusion statistics.

Training is strictly sequential over tasks with no replay: each stage sees
only its own training split, and the cosine learning-rate schedule restarts
per stage.
"""

from __future__ import annotations

import math
import struct
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .benchmark import TaskSpec, TaskSplit
from .errors import ConfigError, ContractError, FormatError, ShapeError, StageError
from .lora import init_lora_block, init_molora, init_smolora, lora_apply, molora_forward, smolora_forward
from .metrics import AccuracyMatrix, MetricReport, Records, compute_report
from .routing import HashingEmbedder, LayerRouting, routing_histogram
from .tensor import (
    CosineSchedule,
    FlatParameters,
    Matrix,
    Tape,
    backward,
    cross_entropy,
    relu_pool,
    run_means,
    sgd_step,
)

METHODS = ("seqlora", "molora", "smolora")


@dataclass
class RunConfig:
    """One experiment's knobs; field names double as the config-file keys."""

    method: str = "smolora"
    vu_blocks: int = 4
    if_blocks: int = 4
    rank: int = 16
    top_k: int = 1
    embed_dim: int = 64
    hidden: int = 64
    learning_rate: float = 1e-4
    batch_size: int = 64
    epochs: int = 1
    seed: int = 0
    stream: str = ""
    out_dir: str = ""

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        for name in ("vu_blocks", "if_blocks", "rank", "embed_dim", "hidden", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be non-negative, got {self.epochs}")
        if not 1 <= self.top_k <= min(self.vu_blocks, self.if_blocks):
            raise ConfigError(
                f"top_k {self.top_k} out of range for banks of "
                f"{self.vu_blocks} and {self.if_blocks}"
            )
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")

    def to_dict(self) -> dict:
        return asdict(self)


def _effective_rank(rank: int, d_in: int, d_out: int) -> int:
    """Clamp the configured rank to the low-rank constraint of this layer."""
    cap = min(d_in, d_out) // 2
    if cap < 1:
        raise ConfigError(f"layer {d_out}x{d_in} too small for any LoRA rank")
    return min(rank, cap)


class AdapterLayer:
    """One linear layer: frozen base W0 (d_out x d_in) plus the adapter.

    `params` names every matrix, "W0" first and then the adapter's trainable
    matrices, in checkpoint order.
    """

    def __init__(
        self,
        name: str,
        kind: str,
        d_in: int,
        d_out: int,
        cfg: RunConfig,
        rng: np.random.Generator,
        layer_id: int,
    ):
        self.name = name
        self.kind = kind
        self.layer_id = layer_id
        r = _effective_rank(cfg.rank, d_in, d_out)
        if kind == "seqlora":
            self.W0 = Matrix._wrap(rng.normal(0.0, np.sqrt(1.0 / d_in), size=(d_out, d_in)))
            self.block = init_lora_block(d_in, d_out, r, rng)
            adapter = {"lora.A": self.block.A, "lora.B": self.block.B}
        else:
            if kind == "molora":
                self.layer = init_molora(d_in, d_out, cfg.vu_blocks + cfg.if_blocks, r, cfg.top_k, rng)
            elif kind == "smolora":
                self.layer = init_smolora(
                    d_in, d_out, cfg.vu_blocks, cfg.if_blocks, r, cfg.embed_dim, cfg.top_k, rng, layer_id
                )
            else:
                raise ConfigError(f"unknown adapter kind {kind!r}")
            self.W0, adapter = self.layer.W0, self.layer.named()
        self.params = {"W0": self.W0, **adapter}

    def forward(
        self,
        x: Matrix,
        instr_emb: Matrix,
        tape: Tape | None = None,
        routing: list[LayerRouting] | None = None,
    ) -> Matrix:
        if self.kind == "seqlora":
            return lora_apply(self.block, x, tape, self.W0)
        if self.kind == "molora":
            return molora_forward(self.layer, x, tape)
        return smolora_forward(self.layer, x, instr_emb, tape, routing)

    def trainable(self) -> list[Matrix]:
        return [m for key, m in self.params.items() if key != "W0"]

    def named_matrices(self) -> dict[str, Matrix]:
        return {f"{self.name}.{key}": m for key, m in self.params.items()}


class ToyModel:
    """Four adapter-wrapped linears: projector, hidden (ReLU), and two heads."""

    def __init__(self, config: RunConfig, d_v: int, class_count: int, format_count: int):
        if class_count < 2 or format_count < 2:
            raise ConfigError("need at least 2 content classes and 2 format families")
        self.config = config
        self.d_v = d_v
        self.class_count = class_count
        self.format_count = format_count
        rng = np.random.default_rng(config.seed)
        e, h = config.embed_dim, config.hidden
        self.instr_proj = Matrix._wrap(rng.normal(0.0, np.sqrt(1.0 / e), size=(d_v, e)))
        kind = config.method
        self.proj = AdapterLayer("proj", kind, d_v, h, config, rng, layer_id=0)
        self.hidden = AdapterLayer("hidden", kind, h, h, config, rng, layer_id=1)
        self.head_content = AdapterLayer("head_content", kind, h, class_count, config, rng, layer_id=2)
        self.head_format = AdapterLayer("head_format", kind, h, format_count, config, rng, layer_id=3)
        self.layers = [self.proj, self.hidden, self.head_content, self.head_format]
        self.params = FlatParameters(m for layer in self.layers for m in layer.trainable())

    def _input(self, batch: TaskSplit) -> tuple[Matrix, Matrix]:
        """Input columns (d_v x 2n, two per instance) and embeddings (e x n)."""
        if not len(batch):
            raise ValueError("forward requires at least one instance")
        emb = batch.embedding
        if emb is None or np.isnan(emb[0]).any():  # NaN marks a column read without one
            raise ContractError("instance has no instruction embedding attached")
        if emb.shape[0] != self.config.embed_dim:
            raise ContractError(
                f"embedding dim {emb.shape[0]} != configured {self.config.embed_dim}"
            )
        if batch.visual.shape[0] != self.d_v:
            raise ShapeError(f"visual dim {batch.visual.shape[0]} != model d_v {self.d_v}")
        x = np.empty((self.d_v, 2 * len(batch)))
        x[:, 0::2] = batch.visual
        x[:, 1::2] = self.instr_proj.a @ emb
        return Matrix._wrap(x), Matrix._wrap(emb)

    def forward(
        self,
        batch: TaskSplit,
        tape: Tape | None = None,
        routing: list[LayerRouting] | None = None,
    ) -> tuple[Matrix, Matrix]:
        """Content logits (class_count x n) and format logits (format_count x n).

        Column j belongs to instance j of the batch. Separable layers append
        one LayerRouting each to `routing`, in layer order. A tape gets one
        rule per layer and one for the ReLU with the pooling.
        """
        x, emb = self._input(batch)
        h1 = self.proj.forward(x, emb, tape, routing)
        pooled = relu_pool(self.hidden.forward(h1, emb, tape, routing), len(batch), tape)
        content = self.head_content.forward(pooled, emb, tape, routing)
        fmt = self.head_format.forward(pooled, emb, tape, routing)
        if tape is not None:
            # Both heads read `pooled`: the format head's rule hands the
            # content gradient on, with its own input gradient for the
            # content head's rule to add to.
            format_back = tape._ops[-1]
            tape._ops[-1] = lambda d_content, d_format: (d_content, format_back(d_format))
        return content, fmt

    @staticmethod
    def loss(batch: TaskSplit, content: Matrix, fmt: Matrix, tape: Tape | None = None) -> float:
        """The batch mean of the two heads' cross-entropies; a tape gets its rule."""
        content_loss, d_content = cross_entropy(content, batch.answer_class)
        format_loss, d_format = cross_entropy(fmt, batch.format_id)
        scale = 1.0 / len(batch)
        if tape is not None:
            tape._ops.append(lambda g: (g * scale * d_content, g * scale * d_format))
        return (content_loss + format_loss) * scale

    def trainable(self) -> FlatParameters:
        """Every adapter matrix, layer by layer, packed in one flat array."""
        return self.params

    def named_matrices(self) -> dict[str, Matrix]:
        out = {"instr_proj": self.instr_proj}
        for layer in self.layers:
            out.update(layer.named_matrices())
        return out

    def frozen_matrices(self) -> dict[str, Matrix]:
        out = {"instr_proj": self.instr_proj}
        for layer in self.layers:
            out[f"{layer.name}.W0"] = layer.W0
        return out


def attach_embeddings(
    stream: Sequence[tuple[TaskSpec, TaskSplit, TaskSplit]],
    embedder: HashingEmbedder,
) -> None:
    """Fill each split's embedding columns in place; precomputed vectors are kept.

    The embedder memoizes, so each distinct text is embedded once. An
    instruction with no embedding at the configured dimension (its token
    signs cancel to zero) is a FormatError naming it, its task and split.
    """
    for spec, train, test in stream:
        for name, split in (("train", train), ("test", test)):
            if split.embedding is None:
                split.embedding = np.full((embedder.dimension, len(split)), np.nan)
            elif split.embedding.shape[0] != embedder.dimension:
                raise ConfigError(
                    f"stream embedding dim {split.embedding.shape[0]} != "
                    f"configured {embedder.dimension}"
                )
            missing = np.isnan(split.embedding[0])
            if missing.any():
                try:
                    vectors = [embedder.embed(text).a for text in split.texts[missing]]
                except ValueError as exc:  # the message quotes the instruction
                    raise FormatError(
                        f"task {spec.task_id} {name} split, embed_dim {embedder.dimension}: {exc}"
                    ) from None
                split.embedding[:, missing] = np.hstack(vectors)


def train_stage(
    model: ToyModel,
    train_set: TaskSplit,
    config: RunConfig,
    stage_index: int = 0,
) -> list[float]:
    """One sequential stage: epochs x shuffled mini-batches of summed-head CE.

    Each mini-batch is a column selection of the split, run as one forward
    on one tape, then one backward sweep and one SGD step. The cosine
    schedule spans exactly this stage's step count.
    Returns the per-step batch losses.
    """
    n = len(train_set)
    if not n:
        raise ValueError("train_stage requires a non-empty train set")
    steps_per_epoch = math.ceil(n / config.batch_size)
    total_steps = config.epochs * steps_per_epoch
    if total_steps == 0:
        return []
    schedule = CosineSchedule(config.learning_rate, total_steps)
    rng = np.random.default_rng([config.seed, stage_index])
    params = model.trainable()
    losses: list[float] = []
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            batch = train_set.take(order[start : start + config.batch_size])
            tape = Tape()
            content, fmt = model.forward(batch, tape)
            loss = model.loss(batch, content, fmt, tape)
            backward(tape, loss)
            sgd_step(params, schedule.rate())
            schedule.advance()
            losses.append(loss)
    return losses


def evaluate_task(
    model: ToyModel, test_set: TaskSplit
) -> tuple[float, float, np.ndarray, list[LayerRouting]]:
    """Accuracy percentages, per-sample correctness and routing for a frozen model.

    The whole split runs as one tape-free forward, and the argmax predictions
    are compared with the label arrays at once. The correctness array is
    2 x n ints, content then format, column j for instance j. The routing
    holds one LayerRouting per separable layer (none for the other methods).
    """
    n = len(test_set)
    if not n:
        raise ValueError("evaluate_task requires a non-empty test set")
    routing: list[LayerRouting] = []
    content, fmt = model.forward(test_set, routing=routing)
    correct = np.empty((2, n), dtype=np.int64)
    correct[0] = np.argmax(content.a, axis=0) == test_set.answer_class
    correct[1] = np.argmax(fmt.a, axis=0) == test_set.format_id
    content_hits, format_hits = correct.sum(axis=1).tolist()
    return 100.0 * content_hits / n, 100.0 * format_hits / n, correct, routing


@dataclass
class RunReport:
    """Everything one sequential run produces, ready for serialization."""

    config: RunConfig
    content: AccuracyMatrix
    format: AccuracyMatrix
    records: Records
    metrics: MetricReport
    routing_hist: dict | None = None
    fusion_stats: list[dict] | None = None
    step_losses: list[list[float]] = field(default_factory=list)


def run_cvit(
    config: RunConfig,
    stream: Sequence[tuple[TaskSpec, TaskSplit, TaskSplit]],
) -> tuple[ToyModel, RunReport]:
    """Train sequentially over the stream, evaluating all seen tasks per stage."""
    if not stream:
        raise ValueError("run_cvit requires a non-empty stream")
    attach_embeddings(stream, HashingEmbedder(config.embed_dim))
    d_v = stream[0][1].visual.shape[0]
    class_count = max(spec.class_count for spec, _, _ in stream)
    format_count = max(2, max(spec.format_id for spec, _, _ in stream) + 1)
    model = ToyModel(config, d_v, class_count, format_count)

    content = AccuracyMatrix()
    fmt = AccuracyMatrix()
    evaluated: list[tuple[int, TaskSplit, np.ndarray]] = []  # (stage, test split, correctness)
    step_losses: list[list[float]] = []
    for k, (spec, train, test) in enumerate(stream, start=1):
        try:
            step_losses.append(train_stage(model, train, config, stage_index=k - 1))
            c_row, f_row = [], []
            # Reset per stage: the report keeps the last stage's routing.
            routing_by_task: dict[int, list[LayerRouting]] = {}
            for j in range(k):
                spec_j, _, test_j = stream[j]
                c_acc, f_acc, ok, routing = evaluate_task(model, test_j)
                c_row.append(c_acc)
                f_row.append(f_acc)
                evaluated.append((k, test_j, ok))
                routing_by_task.setdefault(spec_j.task_id, []).extend(routing)
            content.add_row(c_row)
            fmt.add_row(f_row)
        except Exception as exc:  # noqa: BLE001 - annotate with the stage index
            raise StageError(k, exc) from exc

    correct = np.concatenate([ok for _, _, ok in evaluated], axis=1)
    records = Records(
        stage=np.concatenate([np.full(len(split), k) for k, split, _ in evaluated]),
        task_id=np.concatenate([split.task_id for _, split, _ in evaluated]),
        instance_index=np.concatenate([np.arange(len(split)) for _, split, _ in evaluated]),
        content_correct=correct[0],
        format_correct=correct[1],
    )
    report = RunReport(
        config=config,
        content=content,
        format=fmt,
        records=records,
        metrics=compute_report(content, records),
        step_losses=step_losses,
    )
    if config.method == "smolora":
        report.routing_hist = routing_histogram(routing_by_task)
        report.fusion_stats = _fusion_stats(routing_by_task)
    return model, report


def _fusion_stats(routing_by_task: dict[int, list[LayerRouting]]) -> list[dict]:
    """Per layer, the mean and sd of the instances' mean alpha and beta, tasks in run order."""
    records = [r for routing in routing_by_task.values() for r in routing]
    stats = []
    for layer_id in sorted({r.layer_id for r in records}):
        row = {"layer": layer_id}
        for key in ("alpha", "beta"):
            means = np.concatenate([
                run_means(getattr(r, key), r.alpha.shape[1] // r.vu_gate.shape[1])[0]
                for r in records if r.layer_id == layer_id
            ])
            row[f"mean_{key}"], row[f"std_{key}"] = float(means.mean()), float(means.std())
        stats.append(row)
    return stats


# -- checkpoint format ----------------------------------------------------------

_MAGIC = b"SMOL1"


def save_checkpoint(model: ToyModel, path) -> None:
    """Binary dump: magic, then (u32 name len, name, u32 rows, u32 cols, f64 LE data)."""
    with open(path, "wb") as f:
        f.write(_MAGIC)
        for name, m in model.named_matrices().items():
            encoded = name.encode("utf-8")
            f.write(struct.pack("<I", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<II", m.rows, m.cols))
            f.write(m.a.astype("<f8", copy=False).tobytes())


def load_checkpoint(path, model: ToyModel) -> ToyModel:
    """Fill a freshly constructed model's matrices from a checkpoint in place.

    The whole file is read and checked before any matrix is written, so a
    rejected file leaves the model as it was.
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
                f"{target.rows}x{target.cols}"
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
        expected[name].a[...] = arr
    return model
