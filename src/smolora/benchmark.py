"""Synthetic task streams for continual instruction tuning at desk scale.

Tasks differ along two axes so that both forms of forgetting are observable:
each task has its own Gaussian visual clusters (content axis) and an answer
format implied by its instruction templates (format axis). The model's answer
is split accordingly into a content class and a format tag, which keeps the
format checker exact.

Stream files are JSON Lines: a manifest header line followed by one object
per instance. In memory each task's train and test split is columnar: one
array per field, with instance j in column (or entry) j of each.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError, FormatError, read_utf8
from .routing import tokenize

FORMAT_WORD = 0  # single word / short phrase
FORMAT_SENTENCE = 1  # one full sentence
FORMAT_LETTER = 2  # option letter

FORMAT_NAMES = {FORMAT_WORD: "word", FORMAT_SENTENCE: "sentence", FORMAT_LETTER: "letter"}

# Template families per answer format. Same-format tasks share a family, as
# upstream instruction-tuned benchmarks do; tasks stay distinguishable through
# their visual clusters.
_TEMPLATES = {
    FORMAT_WORD: [
        "What is the main object present in the image? Answer using a single word or short phrase.",
        "Use one word or a concise phrase to respond to the question about the picture.",
        "Which category does the object in the image belong to? Reply with a brief phrase.",
        "Answer the visual question with just one word or a very short descriptive phrase.",
        "Name the object shown. Keep the reply to a single word or short phrase.",
    ],
    FORMAT_SENTENCE: [
        "What is depicted in the displayed picture? Summarize it using a single, concise sentence.",
        "Describe what is happening in the presented image in one complete sentence.",
        "Provide a full sentence explaining clearly what the image displays.",
        "Interpret the scene in the picture and express your answer in one informative sentence.",
        "Explain the captured scene in one simple, complete sentence.",
    ],
    FORMAT_LETTER: [
        "Answer with the option letter from the given choices directly.",
        "Select the correct answer by choosing the corresponding letter from the options provided.",
        "Pick the letter associated with the correct choice among the listed options.",
        "Identify the correct answer by its letter from the choices.",
        "Respond only with the letter of the right option.",
    ],
}

# Format assignment for a default stream, echoing a letter/word/sentence mix:
# task 0 multiple-choice, task 2 captioning, the rest short-answer.
_DEFAULT_FORMAT_CYCLE = [FORMAT_LETTER, FORMAT_WORD, FORMAT_SENTENCE, FORMAT_WORD, FORMAT_WORD, FORMAT_WORD]

_REJECTION_BUDGET = 10_000
_MIN_MEAN_DISTANCE = 0.5


@dataclass
class TaskSpec:
    """One task: its visual clusters, instruction templates, and answer format."""

    task_id: int
    class_count: int
    visual_cluster_means: np.ndarray  # (class_count, d_v), rows on the unit sphere
    cluster_stddev: float
    instruction_templates: list[str]
    format_id: int

    def __post_init__(self):
        if not self.instruction_templates:
            raise ValueError(f"task {self.task_id} has no instruction templates")
        if self.visual_cluster_means.shape[0] != self.class_count:
            raise ValueError(
                f"task {self.task_id}: {self.visual_cluster_means.shape[0]} means "
                f"for {self.class_count} classes"
            )
        if not math.isfinite(self.cluster_stddev) or self.cluster_stddev < 0:
            raise ValueError(f"cluster_stddev must be finite and non-negative, got {self.cluster_stddev}")


@dataclass
class TaskSplit:
    """One split of instances, stored by column: entry j of every field is instance j.

    `embedding` is None until `harness.attach_embeddings` fills it. A split
    read from a file in which only some records carry a precomputed vector
    holds NaN in the other columns until then.
    """

    visual: np.ndarray  # (d_v, n)
    texts: np.ndarray  # (n,) instruction texts, dtype object
    answer_class: np.ndarray  # (n,)
    format_id: np.ndarray  # (n,)
    task_id: np.ndarray  # (n,)
    embedding: np.ndarray | None = field(default=None, repr=False)  # (e, n)

    def __len__(self) -> int:
        return self.answer_class.shape[0]

    def take(self, index) -> "TaskSplit":
        """The instances at `index`, in that order: a selection of columns."""
        return TaskSplit(
            visual=self.visual.take(index, axis=1),
            texts=self.texts.take(index),
            answer_class=self.answer_class.take(index),
            format_id=self.format_id.take(index),
            task_id=self.task_id.take(index),
            embedding=None if self.embedding is None else self.embedding.take(index, axis=1),
        )

    def columns(self, start: int, stop: int) -> "TaskSplit":
        """Instances start to stop - 1 as views of this split's arrays."""
        cols = slice(start, stop)
        return TaskSplit(
            visual=self.visual[:, cols],
            texts=self.texts[cols],
            answer_class=self.answer_class[cols],
            format_id=self.format_id[cols],
            task_id=self.task_id[cols],
            embedding=None if self.embedding is None else self.embedding[:, cols],
        )

    @staticmethod
    def concat(splits: Sequence["TaskSplit"]) -> "TaskSplit":
        """The splits' instances side by side, in order, as one split; one split is returned as is."""
        if len(splits) == 1:
            return splits[0]
        embeddings = [s.embedding for s in splits]
        return TaskSplit(
            visual=np.hstack([s.visual for s in splits]),
            texts=np.concatenate([s.texts for s in splits]),
            answer_class=np.concatenate([s.answer_class for s in splits]),
            format_id=np.concatenate([s.format_id for s in splits]),
            task_id=np.concatenate([s.task_id for s in splits]),
            embedding=None if any(e is None for e in embeddings) else np.hstack(embeddings),
        )


def task_formats(task_count: int) -> list[int]:
    """Default format assignment; guarantees >= 2 distinct families for T >= 2."""
    return [_DEFAULT_FORMAT_CYCLE[i % len(_DEFAULT_FORMAT_CYCLE)] for i in range(task_count)]


def _draw_cluster_means(
    rng: np.random.Generator, total: int, d_v: int
) -> np.ndarray:
    """Unit-sphere points with pairwise distance >= 0.5 by rejection sampling."""
    means = np.zeros((total, d_v))
    accepted = 0
    draws = 0
    while accepted < total:
        if draws >= _REJECTION_BUDGET:
            raise ConfigError(
                f"could not place {total} cluster means in R^{d_v} with pairwise "
                f"distance >= {_MIN_MEAN_DISTANCE} within {_REJECTION_BUDGET} draws"
            )
        cand = rng.normal(size=d_v)
        draws += 1
        norm = np.linalg.norm(cand)
        if norm == 0.0:
            continue
        cand /= norm
        if accepted and np.linalg.norm(means[:accepted] - cand, axis=1).min() < _MIN_MEAN_DISTANCE:
            continue
        means[accepted] = cand
        accepted += 1
    return means


def _stack(spec: TaskSpec, visual: list, texts: list, classes, embeddings: list = ()) -> TaskSplit:
    """One task's instances as a split; an instance without an embedding gets NaN."""
    n = len(texts)
    given = [(j, e) for j, e in enumerate(embeddings) if e is not None]
    embedding = None
    if given:
        embedding = np.full((given[0][1].shape[0], n), np.nan)
        for j, e in given:
            embedding[:, j] = e
    return TaskSplit(
        visual=np.array(visual).T,
        texts=np.array(texts, dtype=object),
        answer_class=np.array(classes),
        format_id=np.full(n, spec.format_id),
        task_id=np.full(n, spec.task_id),
        embedding=embedding,
    )


def _sample_split(rng: np.random.Generator, spec: TaskSpec, n: int, d_v: int) -> TaskSplit:
    classes = np.tile(np.arange(spec.class_count), (n + spec.class_count - 1) // spec.class_count)[:n]
    rng.shuffle(classes)
    visual, texts = [], []
    # Per instance, a normal draw then a template draw: this order fixes the stream.
    for c in classes:
        visual.append(spec.visual_cluster_means[c] + rng.normal(0.0, spec.cluster_stddev, size=d_v))
        texts.append(spec.instruction_templates[int(rng.integers(len(spec.instruction_templates)))])
    return _stack(spec, visual, texts, classes)


def generate_stream(
    seed: int,
    task_count: int = 6,
    train_per_task: int = 512,
    test_per_task: int = 256,
    d_v: int = 32,
    class_count: int = 8,
    instruction_mode: str = "single",
    cluster_stddev: float = 0.15,
) -> list[tuple[TaskSpec, TaskSplit, TaskSplit]]:
    """Deterministic task stream: (spec, train split, test split) per task."""
    if task_count < 2:
        raise ValueError(f"need at least 2 tasks, got {task_count}")
    for name, val in (
        ("train_per_task", train_per_task),
        ("test_per_task", test_per_task),
        ("d_v", d_v),
        ("class_count", class_count),
    ):
        if val < 1:
            raise ValueError(f"{name} must be positive, got {val}")
    if instruction_mode not in ("single", "multi"):
        raise ValueError(f"instruction_mode must be 'single' or 'multi', got {instruction_mode!r}")

    rng = np.random.default_rng(seed)
    all_means = _draw_cluster_means(rng, task_count * class_count, d_v)
    formats = task_formats(task_count)
    stream = []
    for t in range(task_count):
        pool = _TEMPLATES[formats[t]]
        templates = [pool[0]] if instruction_mode == "single" else list(pool)
        spec = TaskSpec(
            task_id=t,
            class_count=class_count,
            visual_cluster_means=all_means[t * class_count : (t + 1) * class_count],
            cluster_stddev=cluster_stddev,
            instruction_templates=templates,
            format_id=formats[t],
        )
        train = _sample_split(rng, spec, train_per_task, d_v)
        test = _sample_split(rng, spec, test_per_task, d_v)
        stream.append((spec, train, test))
    return stream


def nearest_mean_accuracy(spec: TaskSpec, split: TaskSplit) -> float:
    """Accuracy (%) of a 1-nearest-cluster-mean classifier; separability oracle."""
    dists = np.linalg.norm(spec.visual_cluster_means[:, :, None] - split.visual[None], axis=1)
    return 100.0 * np.count_nonzero(dists.argmin(axis=0) == split.answer_class) / len(split)


# -- stream file format --------------------------------------------------------


def write_stream(
    path,
    stream: list[tuple[TaskSpec, TaskSplit, TaskSplit]],
    manifest: dict,
) -> None:
    """Write the JSONL stream file: manifest header, then one line per instance."""
    header = dict(manifest)
    header["tasks"] = [
        {
            "task_id": spec.task_id,
            "class_count": spec.class_count,
            "format_id": spec.format_id,
            "templates": spec.instruction_templates,
            "cluster_stddev": spec.cluster_stddev,
            "cluster_means": spec.visual_cluster_means.tolist(),
        }
        for spec, _, _ in stream
    ]
    with open(path, "w") as f:
        f.write(json.dumps(header, sort_keys=True) + "\n")
        for _, train, test in stream:
            for split, data in (("train", train), ("test", test)):
                emb = data.embedding
                vectors = [None] * len(data) if emb is None else emb.T.tolist()
                for task_id, visual, text, answer_class, format_id, vector in zip(
                    data.task_id.tolist(), data.visual.T.tolist(), data.texts.tolist(),
                    data.answer_class.tolist(), data.format_id.tolist(), vectors,
                ):
                    rec = {
                        "task_id": task_id,
                        "split": split,
                        "visual": visual,
                        "instruction": text,
                        "answer_class": answer_class,
                        "format_id": format_id,
                    }
                    if vector is not None and not math.isnan(vector[0]):
                        rec["embedding"] = vector
                    f.write(json.dumps(rec, sort_keys=True) + "\n")


_TASK_KEYS = ("task_id", "class_count", "format_id", "templates", "cluster_stddev", "cluster_means")
_RECORD_KEYS = ("task_id", "split", "visual", "instruction", "answer_class", "format_id")
_SPLITS = ("train", "test")


def _fields(obj, keys: tuple[str, ...], what: str) -> list:
    """The values of `keys` in a JSON object; ValueError if one is missing."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} is not a JSON object")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise ValueError(f"{what} lacks {', '.join(map(repr, missing))}")
    return [obj[k] for k in keys]


def _int(value, name: str, lo: int = 0, hi: int | None = None) -> int:
    """An integer in [lo, hi); ValueError otherwise."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < lo or (hi is not None and value >= hi):
        bound = f"[{lo}, {hi})" if hi is not None else f">= {lo}"
        raise ValueError(f"{name} {value} out of range {bound}")
    return value


def _finite(value, name: str, ndim: int) -> np.ndarray:
    """A non-empty array of finite numbers with `ndim` dimensions."""
    try:
        arr = np.array(value, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValueError(f"{name} is not an array of numbers") from None
    if arr.ndim != ndim or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty {ndim}-D array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} has non-finite values")
    return arr


def _task_spec(entry) -> TaskSpec:
    """One manifest task entry, type-checked."""
    task_id, class_count, format_id, templates, stddev, means = _fields(
        entry, _TASK_KEYS, "task entry"
    )
    task_id = _int(task_id, "task_id")
    if not (isinstance(templates, list) and templates
            and all(isinstance(t, str) and t.strip() for t in templates)):
        raise ValueError(f"task {task_id}: templates must be a non-empty list of texts")
    if isinstance(stddev, bool) or not isinstance(stddev, (int, float)) or not np.isfinite(stddev):
        raise ValueError(f"task {task_id}: cluster_stddev must be a finite number")
    return TaskSpec(
        task_id=task_id,
        class_count=_int(class_count, f"task {task_id}: class_count", lo=1),
        visual_cluster_means=_finite(means, f"task {task_id}: cluster_means", ndim=2),
        cluster_stddev=float(stddev),
        instruction_templates=list(templates),
        format_id=_int(format_id, f"task {task_id}: format_id"),
    )


def _instance(
    rec, specs: dict[int, TaskSpec], d_v: int, emb_dim: int | None
) -> tuple[tuple[int, str], np.ndarray, str, int, np.ndarray | None]:
    """One record checked against its task.

    Returns ((task_id, split), visual, instruction, answer_class, embedding or None).
    """
    task_id, split, visual, text, answer_class, format_id = _fields(rec, _RECORD_KEYS, "record")
    spec = specs.get(_int(task_id, "task_id"))
    if spec is None:
        raise ValueError(f"unknown task_id {task_id}")
    if split not in _SPLITS:
        raise ValueError(f"split must be 'train' or 'test', got {split!r}")
    visual = _finite(visual, "visual", ndim=1)
    if visual.shape[0] != d_v:
        raise ValueError(f"visual has {visual.shape[0]} entries, the task table has d_v {d_v}")
    if not isinstance(text, str):
        raise ValueError("instruction must be a text")
    if _int(format_id, "format_id") != spec.format_id:
        raise ValueError(f"format_id {format_id} != task {task_id}'s format_id {spec.format_id}")
    emb = rec.get("embedding")
    if emb is not None:
        emb = _finite(emb, "embedding", ndim=1)
        if emb_dim is not None and emb.shape[0] != emb_dim:
            raise ValueError(f"embedding has {emb.shape[0]} entries, earlier ones {emb_dim}")
    answer_class = _int(answer_class, "answer_class", hi=spec.class_count)
    return (task_id, split), visual, text, answer_class, emb


def read_stream(path) -> tuple[dict, list[tuple[TaskSpec, TaskSplit, TaskSplit]]]:
    """Read a stream file back into (manifest, [(spec, train, test), ...]).

    Every record is checked against the manifest's task table as it loads:
    known task, split, visual width, label ranges, format tag, finite values
    and one embedding width. Any fault raises FormatError naming its line.
    """
    lines = read_utf8(path).splitlines()
    if not lines:
        raise FormatError(f"{path}: empty stream file", line=1)
    try:
        manifest = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: manifest is not valid JSON: {exc}", line=1) from None
    if not isinstance(manifest, dict) or "tasks" not in manifest:
        raise FormatError(f"{path}: manifest has no task table", line=1)
    specs: dict[int, TaskSpec] = {}
    try:
        if not isinstance(manifest["tasks"], list) or not manifest["tasks"]:
            raise ValueError("the task table must be a non-empty list")
        for entry in manifest["tasks"]:
            spec = _task_spec(entry)
            if spec.task_id in specs:
                raise ValueError(f"task_id {spec.task_id} appears twice")
            specs[spec.task_id] = spec
        widths = {spec.visual_cluster_means.shape[1] for spec in specs.values()}
        if len(widths) != 1:
            raise ValueError(f"tasks disagree on the visual width: {sorted(widths)}")
    except ValueError as exc:
        raise FormatError(f"{path}: bad task table: {exc}", line=1) from None
    (d_v,) = widths
    emb_dim: int | None = None
    to_embed: dict[str, int] = {}  # instruction -> first line; texts repeat heavily
    # Per (task_id, split): the visual, instruction, answer_class and embedding columns.
    columns: dict[tuple[int, str], tuple[list, list, list, list]] = {
        (tid, split): ([], [], [], []) for tid in specs for split in _SPLITS
    }
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            key, visual, text, answer_class, emb = _instance(json.loads(line), specs, d_v, emb_dim)
        except ValueError as exc:  # json.JSONDecodeError included
            raise FormatError(f"{path}: bad instance record: {exc}", line=lineno) from None
        if emb is not None:
            emb_dim = emb.shape[0]
        else:
            to_embed.setdefault(text, lineno)
        for column, value in zip(columns[key], (visual, text, answer_class, emb)):
            column.append(value)
    for text, lineno in to_embed.items():
        if not tokenize(text):
            raise FormatError(
                f"{path}: instruction {text!r} has no letters or digits to embed", line=lineno
            )
    for tid in sorted(specs):
        for split in _SPLITS:
            if not columns[tid, split][1]:
                raise FormatError(f"{path}: task {tid} has no {split} records", line=1)
    return manifest, [
        (specs[tid], _stack(specs[tid], *columns[tid, "train"]), _stack(specs[tid], *columns[tid, "test"]))
        for tid in sorted(specs)
    ]
