"""Separable mixture-of-LoRA adapters with a continual-tuning simulator."""

from .benchmark import TaskSpec, TaskSplit, generate_stream
from .errors import (
    ConfigError,
    ContractError,
    FormatError,
    MetricUndefinedError,
    ShapeError,
    StageError,
    UsageError,
)
from .harness import RunConfig, ToyModel, evaluate_task, run_cvit, train_stage
from .lora import (
    LoRABank,
    MoLoRALayer,
    SMoLoRALayer,
    adaptive_fusion,
    init_molora,
    init_smolora,
    lora_apply,
    molora_forward,
    smolora_forward,
)
from .metrics import AccuracyMatrix, MetricReport, Records, ap, bwt, compute_report, mean_ap, mif
from .routing import (
    HashingEmbedder,
    LayerRouting,
    embed_text,
    route_instance,
    route_instruction,
    routing_histogram,
)
from .tensor import CosineSchedule, FlatParameters, Matrix, Tape, backward, cross_entropy, sgd_step

__version__ = "0.1.0"
