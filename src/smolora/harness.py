"""Sequential fine-tuning loop, the toy adapter-wrapped model, and the checkpoint writer.

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
selection of its stage's split and records one tape. Evaluation joins the
test splits once, side by side in stream order; after stage k the first k
tasks' instances run as tape-free forwards over consecutive windows of at
most `EVAL_WINDOW` instances, column views of the joined split, into one
table of their correctness side by side. The run cuts the columnar
`metrics.Records` from these tables, with no per-sample Python object, derives
both accuracy tables from the records, and joins the last stage's windows'
`routing.LayerRouting` per separable layer for `routing`'s two summaries.

Training is strictly sequential over tasks with no replay: each stage sees
only its own training split, and the cosine learning-rate schedule restarts
per stage.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .benchmark import TaskSpec, TaskSplit
from .errors import ConfigError, ContractError, FormatError, ShapeError, StageError
from .lora import init_lora, init_molora, init_smolora, lora_apply, molora_forward, smolora_forward
from .metrics import AccuracyMatrix, MetricReport, Records, accuracy_tables, compute_report
from .routing import HashingEmbedder, LayerRouting, fusion_stats, routing_histogram
from .tensor import (
    FlatParameters,
    Matrix,
    Tape,
    backward,
    check_finite,
    cross_entropy,
    relu_pool,
    sgd_step,
)

METHODS = ("seqlora", "molora", "smolora")

# Evaluation runs the joined test splits as one forward per this many
# consecutive instances: below it a forward's fixed cost dominates, and no
# wider forward runs faster per instance for every method (README,
# "Training and evaluation").
EVAL_WINDOW = 96

# An overflow is blamed on the input, not the learning rate, when the square
# of a visual value is beyond float64's range. A step changes a bank's B by
# about rate * |x|, and the next forward multiplies that by |x| again, so
# with such an input the overflow follows from its scale; an input near the
# float64 limit itself overflows before any step. Below the limit either
# may be at fault, and the message names both.
_INPUT_LIMIT = math.sqrt(sys.float_info.max)


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

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        for name in ("vu_blocks", "if_blocks", "rank", "top_k", "embed_dim", "hidden", "batch_size",
                     "epochs", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in ("vu_blocks", "if_blocks", "rank", "embed_dim", "hidden", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("epochs", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative, got {getattr(self, name)}")
        vu, if_ = self.vu_blocks, self.if_blocks
        if self.method == "molora":  # its one bank holds both counts of blocks
            bound, banks = vu + if_, f"molora's bank of {vu} + {if_} blocks"
        else:
            bound, banks = min(vu, if_), f"banks of {vu} and {if_}"
        if not 1 <= self.top_k <= bound:
            raise ConfigError(f"top_k {self.top_k} out of range for {banks}")
        lr = self.learning_rate
        if isinstance(lr, bool) or not isinstance(lr, (int, float)) or not 0 < lr <= sys.float_info.max:
            raise ConfigError(f"learning_rate must be a positive finite number, got {lr!r}")


def _effective_rank(rank: int, d_in: int, d_out: int) -> int:
    """Clamp the configured rank to the low-rank constraint of this layer."""
    cap = min(d_in, d_out) // 2
    if cap < 1:
        raise ConfigError(f"layer {d_out}x{d_in} too small for any LoRA rank")
    return min(rank, cap)


class AdapterLayer:
    """One linear layer: `layer`, the `lora` layer of `cfg.method`, with its frozen W0 (d_out x d_in)."""

    def __init__(self, name: str, d_in: int, d_out: int, cfg: RunConfig, rng: np.random.Generator):
        self.name = name
        self.kind = cfg.method
        r = _effective_rank(cfg.rank, d_in, d_out)
        if self.kind == "seqlora":
            self.layer = init_lora(d_in, d_out, r, rng)
        elif self.kind == "molora":
            self.layer = init_molora(d_in, d_out, cfg.vu_blocks + cfg.if_blocks, r, cfg.top_k, rng)
        else:
            self.layer = init_smolora(
                d_in, d_out, cfg.vu_blocks, cfg.if_blocks, r, cfg.embed_dim, cfg.top_k, rng
            )
        self.W0 = self.layer.W0

    def forward(
        self,
        x: np.ndarray,
        instr_emb: np.ndarray,
        tape: Tape | None = None,
        routing: list[LayerRouting] | None = None,
    ) -> np.ndarray:
        if self.kind == "seqlora":
            return lora_apply(self.layer.bank, x, self.W0, tape)
        if self.kind == "molora":
            return molora_forward(self.layer, x, tape)
        return smolora_forward(self.layer, x, instr_emb, tape, routing)

    def trainable(self) -> list[Matrix]:
        """The adapter's matrices, in the order the model packs them."""
        return self.layer.trainable()

    def named_matrices(self) -> dict[str, np.ndarray]:
        """W0, then the adapter's arrays, by checkpoint name; a block's are views of its bank's."""
        return {f"{self.name}.{key}": a for key, a in {"W0": self.W0, **self.layer.named()}.items()}


class ToyModel:
    """Four adapter-wrapped linears: projector, hidden (ReLU), and two heads.

    `params` packs every adapter matrix, layer by layer, in one flat array.
    """

    def __init__(self, config: RunConfig, d_v: int, class_count: int, format_count: int):
        if class_count < 2 or format_count < 2:
            raise ConfigError("need at least 2 content classes and 2 format families")
        self.config = config
        self.d_v = d_v
        self.class_count = class_count
        self.format_count = format_count
        rng = np.random.default_rng(config.seed)
        e, h = config.embed_dim, config.hidden
        self.instr_proj = rng.normal(0.0, np.sqrt(1.0 / e), size=(d_v, e))
        self.proj = AdapterLayer("proj", d_v, h, config, rng)
        self.hidden = AdapterLayer("hidden", h, h, config, rng)
        self.head_content = AdapterLayer("head_content", h, class_count, config, rng)
        self.head_format = AdapterLayer("head_format", h, format_count, config, rng)
        self.layers = [self.proj, self.hidden, self.head_content, self.head_format]
        self.params = FlatParameters(m for layer in self.layers for m in layer.trainable())

    def _input(self, batch: TaskSplit) -> tuple[np.ndarray, np.ndarray]:
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
        x[:, 1::2] = self.instr_proj @ emb
        check_finite(x)
        check_finite(emb)
        return x, emb

    def forward(
        self,
        batch: TaskSplit,
        tape: Tape | None = None,
        routing: list[LayerRouting] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Content logits (class_count x n) and format logits (format_count x n).

        Column j belongs to instance j of the batch. Separable layers append
        one LayerRouting each to `routing`, in layer order. A tape gets one
        rule per layer and one for the ReLU with the pooling.
        """
        x, emb = self._input(batch)
        h1 = self.proj.forward(x, emb, tape, routing)
        del x  # no later layer reads the input; a taped rule keeps its own reference
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
    def loss(batch: TaskSplit, content: np.ndarray, fmt: np.ndarray, tape: Tape | None = None) -> float:
        """The batch mean of the two heads' cross-entropies; a tape gets its rule."""
        content_loss, d_content = cross_entropy(content, batch.answer_class)
        format_loss, d_format = cross_entropy(fmt, batch.format_id)
        scale = 1.0 / len(batch)
        if tape is not None:
            tape._ops.append(lambda g: (g * scale * d_content, g * scale * d_format))
        return (content_loss + format_loss) * scale

    def named_matrices(self) -> dict[str, np.ndarray]:
        """Every weight array by checkpoint name: the instruction projection, then each
        layer's; reads and writes through them reach the model."""
        out = {"instr_proj": self.instr_proj}
        for layer in self.layers:
            out.update(layer.named_matrices())
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
                    vectors = [embedder.embed(text) for text in split.texts[missing]]
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
    on one tape, then one backward sweep and one SGD step. The learning
    rate decays along a half cosine from `config.learning_rate` at the
    stage's first step towards 0 after its last.
    Returns the per-step batch losses.
    """
    n = len(train_set)
    if not n:
        raise ValueError("train_stage requires a non-empty train set")
    steps_per_epoch = math.ceil(n / config.batch_size)
    total_steps = config.epochs * steps_per_epoch
    if total_steps == 0:
        return []
    rng = np.random.default_rng([config.seed, stage_index])
    params = model.params
    losses: list[float] = []
    step = 0
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            batch = train_set.take(order[start : start + config.batch_size])
            tape = Tape()
            content, fmt = model.forward(batch, tape)
            loss = model.loss(batch, content, fmt, tape)
            backward(tape, loss)
            rate = config.learning_rate * 0.5 * (1.0 + math.cos(math.pi * (step / total_steps)))
            sgd_step(params, rate)
            step += 1
            losses.append(loss)
    return losses


def evaluate_task(model: ToyModel, test_set: TaskSplit) -> tuple[np.ndarray, list[LayerRouting]]:
    """Per-sample correctness and routing of a frozen model on a split.

    The whole split runs as one tape-free forward, and the argmax predictions
    are compared with the label arrays at once. The correctness array is
    2 x n ints, content then format, column j for instance j. The routing
    holds one LayerRouting per separable layer (none for the other methods).
    """
    if not len(test_set):
        raise ValueError("evaluate_task requires a non-empty test set")
    routing: list[LayerRouting] = []
    content, fmt = model.forward(test_set, routing=routing)
    correct = np.array([np.argmax(content, axis=0) == test_set.answer_class,
                        np.argmax(fmt, axis=0) == test_set.format_id], dtype=np.int64)
    return correct, routing


@dataclass
class RunReport:
    """Everything one sequential run produces, ready for serialization."""

    content: AccuracyMatrix
    format: AccuracyMatrix
    records: Records
    metrics: MetricReport
    routing_hist: dict | None = None
    fusion_stats: list[dict] | None = None


def run_cvit(
    config: RunConfig,
    stream: Sequence[tuple[TaskSpec, TaskSplit, TaskSplit]],
) -> tuple[ToyModel, RunReport]:
    """Train sequentially over the stream, evaluating all seen tasks per stage."""
    if not stream:
        raise ValueError("run_cvit requires a non-empty stream")
    d_v = stream[0][1].visual.shape[0]
    class_count = max(spec.class_count for spec, _, _ in stream)
    format_count = max(2, max(spec.format_id for spec, _, _ in stream) + 1)
    try:
        attach_embeddings(stream, HashingEmbedder(config.embed_dim))
        model = ToyModel(config, d_v, class_count, format_count)
    except (ConfigError, FormatError):
        raise
    except (MemoryError, ValueError) as exc:  # numpy's message names the size it could not allocate
        raise ConfigError(f"the configured sizes cannot be allocated: {exc}") from None

    for spec, _, test in stream:
        if test.visual.shape[0] != d_v:
            raise ShapeError(f"task {spec.task_id} test visual dim {test.visual.shape[0]} != d_v {d_v}")
    sizes = [len(test) for _, _, test in stream]
    offsets = np.cumsum([0, *sizes]).tolist()
    # All test splits side by side, joined once; stage k evaluates the first
    # offsets[k] instances in windows of column views.
    tests = TaskSplit.concat([test for _, _, test in stream])
    instance_index = np.concatenate([np.arange(n) for n in sizes])

    tables: list[np.ndarray] = []  # per stage k, the correctness of tasks 1..k side by side
    # Weights that grow past float64 range end the run as a configuration
    # error at the first overflow, with no warning printed.
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for k, (spec, train, _) in enumerate(stream, start=1):
            try:
                train_stage(model, train, config, stage_index=k - 1)
                if not sizes[k - 1]:  # the task would have no records to score it by
                    raise ValueError(f"task {spec.task_id} has an empty test split")
                seen = [evaluate_task(model, tests.columns(a, min(a + EVAL_WINDOW, offsets[k])))
                        for a in range(0, offsets[k], EVAL_WINDOW)]
            except FloatingPointError as exc:
                largest = max(float(np.abs(split.visual).max(initial=0.0))
                              for _, train, test in stream[:k] for split in (train, test))
                if largest > _INPUT_LIMIT:
                    raise ConfigError(
                        f"stage {k}: the input is too large for the model: the largest |visual| "
                        f"value is {largest:.6g} ({exc})"
                    ) from None
                raise ConfigError(
                    f"stage {k}: training diverged at learning_rate {config.learning_rate!r}, "
                    f"with a largest |visual| value of {largest:.6g} ({exc})"
                ) from None
            except Exception as exc:  # noqa: BLE001 - annotate with the stage index
                raise StageError(k, exc) from exc
            tables.append(np.concatenate([ok for ok, _ in seen], axis=1))

    records = Records(
        np.repeat(np.arange(1, len(stream) + 1), offsets[1:]),
        np.concatenate([tests.task_id[:n] for n in offsets[1:]]),
        np.concatenate([instance_index[:n] for n in offsets[1:]]),
        *np.concatenate(tables, axis=1),  # content, then format correctness
    )
    content, fmt = accuracy_tables(records)
    report = RunReport(content, fmt, records, compute_report(content, records))
    if config.method == "smolora":
        # The last stage evaluated every test split: join its windows' routing per layer.
        layers = [LayerRouting(*map(np.hstack, zip(*windows)))
                  for windows in zip(*(routing for _, routing in seen))]
        tasks = {int(tests.task_id[a]): slice(a, b) for a, b in zip(offsets, offsets[1:])}
        report.routing_hist = routing_histogram(layers, tasks)
        report.fusion_stats = fusion_stats(layers)
    return model, report


# -- checkpoint format ----------------------------------------------------------

_MAGIC = b"SMOL1"


def save_checkpoint(model: ToyModel, path) -> None:
    """Binary dump: magic, then (u32 name len, name, u32 rows, u32 cols, f64 LE data)."""
    with open(path, "wb") as f:
        f.write(_MAGIC)
        for name, a in model.named_matrices().items():
            encoded = name.encode("utf-8")
            f.write(struct.pack("<I", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<II", *a.shape))
            f.write(a.astype("<f8", copy=False).tobytes())
