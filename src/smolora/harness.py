"""Sequential fine-tuning loop, the toy adapter-wrapped model, and checkpoints.

The model is a small feed-forward network whose every linear layer is a
frozen random base weight plus an adapter of the configured kind (single
LoRA, token-wise mixture, or separable mixture). Each instance is a
two-column sequence: the visual feature vector and a fixed random projection
of the instruction embedding. Two heads read a mean-pooled hidden state: one
predicts the content class, the other the answer-format tag. Only adapter
parameters ever receive updates; they live in one flat array, so a training
step updates and scans them once.

The model runs a whole mini-batch at once: the instances' columns sit side
by side, two per instance, with one embedding column per instance. Training
records one tape per mini-batch, and evaluation runs one tape-free forward
per test split.

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

from .benchmark import TaskInstance, TaskSpec, format_check
from .errors import ConfigError, ContractError, FormatError, ShapeError, StageError
from .lora import (
    LoRABlock,
    MoLoRALayer,
    SMoLoRALayer,
    init_lora_block,
    lora_apply,
    molora_forward,
    smolora_forward,
)
from .metrics import AccuracyMatrix, MetricReport, compute_report
from .routing import HashingEmbedder, RoutingTrace, routing_histogram
from .tensor import (
    CosineSchedule,
    FlatParameters,
    Matrix,
    Tape,
    add,
    backward,
    cross_entropy,
    matmul,
    mean_over_columns,
    relu,
    scale_const,
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
    """One linear layer: frozen base W0 (d_out x d_in) plus the adapter."""

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
        w0 = Matrix._wrap(rng.normal(0.0, np.sqrt(1.0 / d_in), size=(d_out, d_in)))
        if kind == "seqlora":
            self.W0 = w0
            self.block = init_lora_block(d_in, d_out, r, rng)
        elif kind == "molora":
            n = cfg.vu_blocks + cfg.if_blocks
            blocks = [init_lora_block(d_in, d_out, r, rng) for _ in range(n)]
            router = Matrix._wrap(rng.normal(0.0, np.sqrt(1.0 / d_in), size=(n, d_in)))
            self.layer = MoLoRALayer(W0=w0, blocks=blocks, router=router, top_k=cfg.top_k)
            self.W0 = w0
        elif kind == "smolora":
            vu = [init_lora_block(d_in, d_out, r, rng) for _ in range(cfg.vu_blocks)]
            if_ = [init_lora_block(d_in, d_out, r, rng) for _ in range(cfg.if_blocks)]
            self.layer = SMoLoRALayer(
                W0=w0,
                vu_blocks=vu,
                if_blocks=if_,
                R_vu=Matrix._wrap(rng.normal(0.0, np.sqrt(1.0 / d_in), size=(cfg.vu_blocks, d_in))),
                R_if=Matrix._wrap(
                    rng.normal(0.0, np.sqrt(1.0 / cfg.embed_dim), size=(cfg.if_blocks, cfg.embed_dim))
                ),
                I_vu=Matrix._wrap(rng.normal(0.0, 0.02, size=(1, d_out))),
                I_if=Matrix._wrap(rng.normal(0.0, 0.02, size=(1, d_out))),
                top_k=cfg.top_k,
                layer_id=layer_id,
            )
            self.W0 = w0
        else:
            raise ConfigError(f"unknown adapter kind {kind!r}")

    def forward(
        self,
        x: Matrix,
        instr_emb: Matrix,
        tape: Tape | None = None,
        traces: list[RoutingTrace] | None = None,
    ) -> Matrix:
        if self.kind == "seqlora":
            return add(matmul(self.W0, x, tape), lora_apply(self.block, x, tape), tape)
        if self.kind == "molora":
            return molora_forward(self.layer, x, tape)
        return smolora_forward(self.layer, x, instr_emb, tape, traces)

    def trainable(self) -> list[Matrix]:
        if self.kind == "seqlora":
            return [self.block.A, self.block.B]
        return self.layer.trainable()

    def named_matrices(self) -> dict[str, Matrix]:
        out = {f"{self.name}.W0": self.W0}
        if self.kind == "seqlora":
            out[f"{self.name}.lora.A"] = self.block.A
            out[f"{self.name}.lora.B"] = self.block.B
        elif self.kind == "molora":
            out[f"{self.name}.router"] = self.layer.router
            for i, b in enumerate(self.layer.blocks):
                out[f"{self.name}.block{i}.A"] = b.A
                out[f"{self.name}.block{i}.B"] = b.B
        else:
            lay = self.layer
            out[f"{self.name}.R_vu"] = lay.R_vu
            out[f"{self.name}.R_if"] = lay.R_if
            out[f"{self.name}.I_vu"] = lay.I_vu
            out[f"{self.name}.I_if"] = lay.I_if
            for i, b in enumerate(lay.vu_blocks):
                out[f"{self.name}.vu{i}.A"] = b.A
                out[f"{self.name}.vu{i}.B"] = b.B
            for j, b in enumerate(lay.if_blocks):
                out[f"{self.name}.if{j}.A"] = b.A
                out[f"{self.name}.if{j}.B"] = b.B
        return out


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

    def _input(self, batch: Sequence[TaskInstance]) -> tuple[Matrix, Matrix]:
        """Input columns (d_v x 2n, two per instance) and embeddings (e x n)."""
        if not batch:
            raise ValueError("forward requires at least one instance")
        for inst in batch:
            emb = inst.instruction_embedding
            if emb is None:
                raise ContractError("instance has no instruction embedding attached")
            if emb.rows != self.config.embed_dim:
                raise ContractError(
                    f"embedding dim {emb.rows} != configured {self.config.embed_dim}"
                )
            if inst.visual.shape[0] != self.d_v:
                raise ShapeError(f"visual dim {inst.visual.shape[0]} != model d_v {self.d_v}")
        emb = np.hstack([inst.instruction_embedding.a for inst in batch])
        x = np.empty((self.d_v, 2 * len(batch)))
        x[:, 0::2] = np.column_stack([inst.visual for inst in batch])
        x[:, 1::2] = self.instr_proj.a @ emb
        return Matrix._wrap(x), Matrix._wrap(emb)

    def forward(
        self,
        batch: Sequence[TaskInstance],
        tape: Tape | None = None,
        traces: list[RoutingTrace] | None = None,
    ) -> tuple[Matrix, Matrix]:
        """Content logits (class_count x n) and format logits (format_count x n).

        Column j belongs to batch[j]. Separable layers append one routing
        trace per instance to `traces`, layer by layer.
        """
        x, emb = self._input(batch)
        h1 = self.proj.forward(x, emb, tape, traces)
        h2 = relu(self.hidden.forward(h1, emb, tape, traces), tape)
        pooled = mean_over_columns(h2, tape, len(batch))
        content = self.head_content.forward(pooled, emb, tape, traces)
        fmt = self.head_format.forward(pooled, emb, tape, traces)
        return content, fmt

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
    stream: Sequence[tuple[TaskSpec, list[TaskInstance], list[TaskInstance]]],
    embedder: HashingEmbedder,
) -> None:
    """Fill instruction embeddings in place; precomputed vectors are kept."""
    for _, train, test in stream:
        for inst in list(train) + list(test):
            if inst.instruction_embedding is None:
                inst.instruction_embedding = embedder.embed(inst.instruction_text)
            elif inst.instruction_embedding.rows != embedder.dimension:
                raise ConfigError(
                    f"stream embedding dim {inst.instruction_embedding.rows} != "
                    f"configured {embedder.dimension}"
                )


def train_stage(
    model: ToyModel,
    train_set: Sequence[TaskInstance],
    config: RunConfig,
    stage_index: int = 0,
) -> list[float]:
    """One sequential stage: epochs x shuffled mini-batches of summed-head CE.

    Each mini-batch is one forward on one tape. The cosine schedule spans
    exactly this stage's step count. Returns the per-step batch losses.
    """
    if not train_set:
        raise ValueError("train_stage requires a non-empty train set")
    n = len(train_set)
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
            batch = [train_set[i] for i in order[start : start + config.batch_size]]
            tape = Tape()
            tape.watch(params)
            content, fmt = model.forward(batch, tape)
            total = add(
                cross_entropy(content, [inst.answer_class for inst in batch], tape),
                cross_entropy(fmt, [inst.format_id for inst in batch], tape),
                tape,
            )
            mean_loss = scale_const(total, 1.0 / len(batch), tape)
            grads = backward(tape, mean_loss)
            sgd_step(params, grads, schedule.rate())
            schedule.advance()
            losses.append(mean_loss.item())
    return losses


def evaluate_task(
    model: ToyModel,
    test_set: Sequence[TaskInstance],
    collect_traces: bool = False,
) -> tuple[float, float, list[dict], list[RoutingTrace]]:
    """Accuracy percentages plus per-sample records for a frozen model.

    The whole split runs as one tape-free forward. Records are ordered by
    instance index.
    """
    if not test_set:
        raise ValueError("evaluate_task requires a non-empty test set")
    traces: list[RoutingTrace] = []
    content, fmt = model.forward(test_set, traces=traces if collect_traces else None)
    pred_class = np.argmax(content.a, axis=0)
    pred_format = np.argmax(fmt.a, axis=0)
    records = [
        {
            "task_id": inst.task_id,
            "instance_index": i,
            "content_correct": int(pred_class[i] == inst.answer_class),
            "format_correct": format_check(int(pred_format[i]), inst.format_id),
        }
        for i, inst in enumerate(test_set)
    ]
    content_acc = 100.0 * sum(r["content_correct"] for r in records) / len(records)
    format_acc = 100.0 * sum(r["format_correct"] for r in records) / len(records)
    return content_acc, format_acc, records, traces


@dataclass
class RunReport:
    """Everything one sequential run produces, ready for serialization."""

    config: RunConfig
    content: AccuracyMatrix
    format: AccuracyMatrix
    records: list[dict]
    metrics: MetricReport
    routing_hist: dict | None = None
    fusion_stats: list[dict] | None = None
    step_losses: list[list[float]] = field(default_factory=list)


def run_cvit(
    config: RunConfig,
    stream: Sequence[tuple[TaskSpec, list[TaskInstance], list[TaskInstance]]],
) -> tuple[ToyModel, RunReport]:
    """Train sequentially over the stream, evaluating all seen tasks per stage."""
    if not stream:
        raise ValueError("run_cvit requires a non-empty stream")
    attach_embeddings(stream, HashingEmbedder(config.embed_dim))
    d_v = stream[0][1][0].visual.shape[0]
    class_count = max(spec.class_count for spec, _, _ in stream)
    format_count = max(2, max(spec.format_id for spec, _, _ in stream) + 1)
    model = ToyModel(config, d_v, class_count, format_count)

    content = AccuracyMatrix()
    fmt = AccuracyMatrix()
    records: list[dict] = []
    step_losses: list[list[float]] = []
    traces_by_task: dict[int, list[RoutingTrace]] = {}
    last_stage = len(stream)
    for k, (spec, train, test) in enumerate(stream, start=1):
        try:
            step_losses.append(train_stage(model, train, config, stage_index=k - 1))
            c_row, f_row = [], []
            collect = config.method == "smolora" and k == last_stage
            for j in range(k):
                _, _, test_j = stream[j]
                c_acc, f_acc, recs, traces = evaluate_task(model, test_j, collect_traces=collect)
                c_row.append(c_acc)
                f_row.append(f_acc)
                for r in recs:
                    records.append({"stage": k, **r})
                if collect and traces:
                    traces_by_task.setdefault(stream[j][0].task_id, []).extend(traces)
            content.add_row(c_row)
            fmt.add_row(f_row)
        except Exception as exc:  # noqa: BLE001 - annotate with the stage index
            raise StageError(k, exc) from exc

    report = RunReport(
        config=config,
        content=content,
        format=fmt,
        records=records,
        metrics=compute_report(content, records),
        step_losses=step_losses,
    )
    if config.method == "smolora" and traces_by_task:
        report.routing_hist = routing_histogram(
            traces_by_task, config.vu_blocks, config.if_blocks
        )
        report.fusion_stats = _fusion_stats(traces_by_task)
    return model, report


def _fusion_stats(traces_by_task: dict[int, list[RoutingTrace]]) -> list[dict]:
    by_layer: dict[int, list[tuple[float, float]]] = {}
    for traces in traces_by_task.values():
        for tr in traces:
            by_layer.setdefault(tr.layer_id, []).append((tr.alpha_mean, tr.beta_mean))
    stats = []
    for layer_id in sorted(by_layer):
        alphas = np.array([a for a, _ in by_layer[layer_id]])
        betas = np.array([b for _, b in by_layer[layer_id]])
        stats.append(
            {
                "layer": layer_id,
                "mean_alpha": float(alphas.mean()),
                "std_alpha": float(alphas.std()),
                "mean_beta": float(betas.mean()),
                "std_beta": float(betas.std()),
            }
        )
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
    """Fill a freshly constructed model's matrices from a checkpoint in place."""
    expected = model.named_matrices()
    seen: set[str] = set()
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
        if name in seen:
            raise FormatError(f"{path}: parameter {name!r} appears twice", offset=name_at)
        rows, cols = struct.unpack("<II", take(8, "shape"))
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
        target.a[...] = arr
        seen.add(name)
    missing = set(expected) - seen
    if missing:
        raise ContractError(f"checkpoint missing parameters: {sorted(missing)}")
    return model
