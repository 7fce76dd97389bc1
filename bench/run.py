"""The smolora benchmark: time-to-result of `smolora train` on its workloads.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program is imported from its
`src/` directory. The command

1. times a fixed pure-numpy loop (`machine.ref_kernel_s`), so that a slow
   machine can be told apart from a slow program;
2. writes the workload's task stream with `smolora generate --seed N`,
   untimed;
3. runs rounds of `smolora train`, one fresh process per method, through
   the CLI entry point with `--threads` left at 1, until the next round
   would end after S seconds. With `--trace 0` each process wraps only
   `read_stream`, `train_stage` and `evaluate_task`; with `--trace 1`
   untraced rounds alternate with traced ones (see child.py);
4. checks the first round's outputs with check_outputs.py and every later
   round's `metrics.json`, `accuracy.csv`, `records.jsonl` and `model.ckpt`
   for byte equality with it;
5. prints a `# info` line and, last, one JSON object with `correct`,
   `attempted` (train commands), `failed` and the end-to-end metrics
   (`--trace 0`; built from the fastest time of each training step and
   evaluation call, see `_end_to_end`), or the per-layer metrics of the
   fastest traced round (`--trace 1`).

It exits 2 without a result when the checkout has no `src/smolora`.
"""

from __future__ import annotations

import argparse
import atexit
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import check_outputs
from child import STEPS

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "work"
# A train process that takes longer than this (or --seconds, if larger) is
# killed and counted as failed.
CHILD_TIMEOUT_S = 150
DIGESTED = ("metrics.json", "accuracy.csv", "records.jsonl", "model.ckpt")


@dataclass(frozen=True)
class Workload:
    """Stream flags for `smolora generate` and train flags for `smolora train`.

    `loss_may_rise` names methods exempt from the checker's loss-fall
    property; their rises are reported as notes in the `# info` line.
    """

    methods: tuple[str, ...]
    stream: dict
    train: dict
    loss_may_rise: tuple[str, ...] = ()

    @property
    def top_k(self) -> int:
        return self.train.get("top-k", 1)


WORKLOADS = {
    # Training dominates: tape recording, backward and SGD through both
    # routers, both banks and the fusion at the default 4 + 4 x rank-16 shape.
    # Batch 4 is small enough that every stage's loss falls.
    "smolora-recipe": Workload(
        methods=("smolora",),
        stream={"tasks": 6, "mode": "single", "train-per-task": 32, "test-per-task": 16},
        train={"lr": 0.25, "batch-size": 4, "epochs": 4},
    ),
    # The separable layer never runs; the tape-free evaluation of all seen
    # tasks (quadratic in the task count), reading the stream and writing a
    # large records.jsonl dominate. Under molora's top-1 gate the training
    # loss jumps within a stage on some seeds (at any learning rate tried),
    # so molora is exempt from the loss-fall property; seqlora is not.
    "controls-eval": Workload(
        methods=("seqlora", "molora"),
        stream={"tasks": 8, "mode": "single", "train-per-task": 32, "test-per-task": 96},
        train={"lr": 0.25, "batch-size": 4, "epochs": 3},
        loss_may_rise=("molora",),
    ),
    # Wide banks with top-2 gates: each instance uses 2 of 16 blocks per
    # bank, so dense gating would do 8x the useful work here. Multi-template
    # instructions exercise the diverse-instruction axis and the embedder cache.
    # Run by hand: BENCHMARK.json keeps two workloads, for 60 s runs (see
    # README.md).
    "smolora-wide": Workload(
        methods=("smolora",),
        stream={"tasks": 4, "mode": "multi", "train-per-task": 16, "test-per-task": 16},
        train={"lr": 0.25, "batch-size": 4, "epochs": 6, "vu-blocks": 16, "if-blocks": 16,
               "top-k": 2},
    ),
    # The full acceptance recipe (one seed), for relating the scaled
    # workloads to it in README.md; not part of BENCHMARK.json.
    "acceptance-recipe": Workload(
        methods=("seqlora", "smolora"),
        stream={"tasks": 6, "mode": "single", "train-per-task": 512, "test-per-task": 256},
        train={"lr": 0.25, "batch-size": 32, "epochs": 16},
    ),
}

def ref_kernel_s() -> float:
    """Best of five timings of a fixed loop of small numpy operations, like
    the program's own."""
    rng = np.random.default_rng(0)
    a = rng.normal(0.0, 0.125, size=(64, 64))
    best = math.inf
    for _ in range(5):
        x = np.ones((64, 2))
        t0 = time.perf_counter()
        for _ in range(4000):
            x = np.tanh(a @ x)
        best = min(best, time.perf_counter() - t0)
    return best


def _flags(d: dict) -> list[str]:
    return [s for k, v in d.items() for s in (f"--{k}", str(v))]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Run:
    """State of one benchmark invocation."""

    workload: Workload
    seed: int
    work: Path
    stream: Path
    timeout_s: float = CHILD_TIMEOUT_S
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    digests: dict[str, dict[str, str]] = field(default_factory=dict)
    reported: dict[str, dict] = field(default_factory=dict)

    def train(self, method: str, mode: str, tag: str) -> dict | None:
        """One fresh `smolora train` process; None if it failed."""
        out_dir = self.work / f"{tag}-{method}"
        result_path = self.work / f"{tag}-{method}.json"
        argv = [sys.executable, str(BENCH_DIR / "child.py"), str(result_path), mode, "--",
                "--stream", str(self.stream), "--method", method, "--out-dir", str(out_dir),
                "--seed", str(self.seed), *_flags(self.workload.train)]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        self.attempted += 1
        t0 = time.monotonic()
        try:
            proc = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=self.timeout_s)
            failure = "" if proc.returncode == 0 and result_path.exists() else (
                f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
        except subprocess.TimeoutExpired:
            failure = f"killed after {self.timeout_s} s"
        run_s = time.monotonic() - t0
        if failure:
            self.failed += 1
            print(f"# {method} failed: {failure}", file=sys.stderr)
            return None
        res = json.loads(result_path.read_text())
        res.update(run_s=run_s, setup_s=res["first_step"] - t0)
        self._verify(method, out_dir, res)
        shutil.rmtree(out_dir)
        return res

    def _verify(self, method: str, out_dir: Path, res: dict) -> None:
        digests = {name: _sha256(out_dir / name) for name in DIGESTED}
        first = self.digests.setdefault(method, digests)
        if first is digests:
            train = self.workload.train
            exempt = method in self.workload.loss_may_rise
            found = check_outputs.check_run(
                out_dir, self.stream, method, self.workload.top_k, res["step_losses"],
                train["epochs"], train["batch-size"], require_fall=not exempt)
            self.problems += [f"{method}: {p}" for p in found]
            if exempt:
                rises = check_outputs.loss_rises(res["step_losses"], train["epochs"])
                self.notes += [f"{method}: {r}" for r in rises]
            self.reported[method] = json.loads((out_dir / "metrics.json").read_text())
        elif digests != first:
            changed = sorted(n for n in DIGESTED if digests[n] != first[n])
            self.problems.append(f"{method}: outputs differ between rounds: {changed}")


def _round_s(results: list[dict]) -> float:
    return sum(r["run_s"] for r in results)


def _fastest_calls(runs: list[dict], name: str) -> float:
    """Sum over the calls of one process of each call's fastest time.

    A process makes the same calls in the same order in every round, so the
    k-th call of each round did the same work.
    """
    return sum(map(min, zip(*(r["durations"][name] for r in runs))))


def _end_to_end(rounds: list[list[dict]], epochs: int) -> dict[str, float]:
    """End-to-end metrics of a run from the fastest time of each piece.

    This machine's speed changes by up to 2.5x, in stretches from a fraction
    of a second to minutes, with CPU time equal to wall time. A median over
    rounds follows the share of slow time in the run, and so does the
    fastest whole process once slow stretches outlast it. Each training
    step (5-20 ms; whole `train_stage` calls if the steps are not marked)
    and each `evaluate_task` call (20-100 ms) is instead taken at its
    fastest over the run's rounds, per method; `run_s` adds the fastest
    remainder of a process (start-up, reading, writing) to those. Sums run
    over the workload's methods. `setup_s` is the median set-up of every
    process in the run, so that work moved into set-up shows even when it
    slows only some processes.
    """
    per_method = list(zip(*rounds))
    train = "harness.train_stage"
    evaluate = "harness.evaluate_task"
    pieces = STEPS if all(STEPS in r["durations"] for r in rounds[0]) else train
    train_s = sum(_fastest_calls(runs, pieces) for runs in per_method)
    eval_s = sum(_fastest_calls(runs, evaluate) for runs in per_method)
    rest_s = sum(min(r["run_s"] - r["total_s"][train] - r["total_s"][evaluate] for r in runs)
                 for runs in per_method)

    def last_epoch_loss(res):
        losses = res["step_losses"][-1]
        per_epoch = len(losses) // epochs
        return sum(losses[-per_epoch:]) / per_epoch

    first = rounds[0]
    return {
        "setup_s": statistics.median(r["setup_s"] for results in rounds for r in results),
        "run_s": rest_s + train_s + eval_s,
        "train_sample_steps_per_s": sum(r["sample_steps"] for r in first) / train_s,
        "eval_samples_per_s": sum(r["eval_samples"] for r in first) / eval_s,
        "peak_rss_mb": max(min(r["maxrss_kb"] for r in runs) for runs in per_method) / 1024.0,
        "final_loss": statistics.fmean(last_epoch_loss(r) for r in first),
    }


def _layer_metrics(results: list[dict], stream_lines: int) -> dict[str, float]:
    """Per-layer figures of one traced round, summed over its processes."""
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    wrapped = set.intersection(*(set(r["wrapped"]) for r in results))
    for r in results:
        for src, dst in ((r["self_s"], self_s), (r["total_s"], total_s), (r["calls"], calls),
                         (r["counts"], counts)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
    sample_steps = sum(r["sample_steps"] for r in results)
    out: dict[str, float] = {}

    def put(name, needs, value):
        if needs <= wrapped:
            try:
                out[name] = value()
            except ZeroDivisionError:
                pass

    def s(k):
        return lambda: self_s.get(k, 0.0)

    def n(k):
        return lambda: calls.get(k, 0)

    for name in ("tensor.backward", "tensor.sgd_step", "tensor.cross_entropy",
                 "lora.smolora_forward", "lora.molora_forward", "lora.adaptive_fusion",
                 "lora.lora_apply", "routing.route_instance", "routing.route_instruction",
                 "harness.attach_embeddings", "harness.model_init", "harness.save_checkpoint",
                 "metrics.compute_report", "metrics.write_records_jsonl"):
        put(f"{name}.s", {name}, s(name))
    put("harness.train_stage.s", set(), s("harness.train_stage"))
    put("harness.evaluate_task.s", set(), s("harness.evaluate_task"))
    put("benchmark.read_stream.s", set(), s("benchmark.read_stream"))
    put("benchmark.read_stream.lines_per_s", set(),
        lambda: stream_lines * len(results) / total_s["benchmark.read_stream"])
    put("tensor.backward.calls", {"tensor.backward"}, n("tensor.backward"))
    put("tensor.matmul.calls", {"tensor.matmul"}, lambda: counts.get("tensor.matmul", 0))
    if all(r["tape_ops"] is not None for r in results):
        put("tensor.tape_ops_per_sample_step", {"tensor.backward"},
            lambda: sum(r["tape_ops"] for r in results) / sample_steps)
    put("lora.lora_apply.calls", {"lora.lora_apply"}, n("lora.lora_apply"))
    layer_calls = sum(v for k, v in calls.items() if k.startswith("harness.layer."))
    put("lora.blocks_per_adapter_forward", {"lora.lora_apply", "harness.layer"},
        lambda: calls.get("lora.lora_apply", 0) / layer_calls)
    put("routing.embed.calls", {"routing.embed"}, n("routing.embed"))
    put("routing.embed.hit_ratio", {"routing.embed", "routing.embed_text"},
        lambda: 1.0 - calls.get("routing.embed_text", 0) / calls["routing.embed"])
    put("harness.forward.calls", {"harness.forward"},
        lambda: n("harness.forward.train")() + n("harness.forward.eval")())
    for mode in ("train", "eval"):
        put(f"harness.forward.{mode}_us", {"harness.forward"},
            lambda m=mode: 1e6 * total_s[f"harness.forward.{m}"] / calls[f"harness.forward.{m}"])
        for layer in ("proj", "hidden", "head_content", "head_format"):
            put(f"harness.layer.{layer}.fwd_{mode}_s", {"harness.layer"},
                lambda k=f"harness.layer.{layer}.{mode}": total_s.get(k, 0.0))
    put("metrics.records", set(), lambda: sum(r["eval_samples"] for r in results))
    if all("output_s" in r for r in results):
        out["cli.output_s"] = sum(r["output_s"] for r in results)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="smolora benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    # Unwind on SIGTERM so that a running train process is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "smolora" / "cli.py").is_file():
        print(f"bench: no program source at {SRC / 'smolora'}; run from a full checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    ref_s = ref_kernel_s()

    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    atexit.register(shutil.rmtree, work, ignore_errors=True)  # on every way out
    stream = work / "stream.jsonl"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-m", "smolora.cli", "generate", "--seed", str(args.seed),
                    "--out", str(stream), *_flags(workload.stream)],
                   env=env, check=True, stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
    with open(stream) as f:
        stream_lines = sum(1 for _ in f)

    run = Run(workload=workload, seed=args.seed, work=work, stream=stream,
              timeout_s=max(CHILD_TIMEOUT_S, args.seconds))
    kinds = ["coarse", "trace"] if args.trace else ["coarse"]
    rounds: dict[str, list[list[dict]]] = {k: [] for k in kinds}
    next_s = {k: 0.0 for k in kinds}  # expected length of the next round of a kind
    start = time.monotonic()
    for i in range(10_000):
        kind = kinds[i % len(kinds)]
        if ((all(rounds.values()) or run.failed)
                and time.monotonic() - start + next_s[kind] > args.seconds):
            break
        results = []
        for method in workload.methods:
            res = run.train(method, kind, f"r{i}")
            if res is None:
                break
            results.append(res)
        next_s[kind] = _round_s(results)
        if len(results) == len(workload.methods):
            rounds[kind].append(results)

    coarse = rounds["coarse"]
    if not args.trace:
        metrics = _end_to_end(coarse, workload.train["epochs"]) if coarse else {}
    else:
        # One traced round, the fastest, so that the per-layer split adds up.
        fastest = min(rounds["trace"], key=_round_s, default=None)
        metrics = _layer_metrics(fastest, stream_lines) if fastest else {}
        if fastest and coarse:
            metrics["trace.overhead_s"] = _round_s(fastest) - min(map(_round_s, coarse))
        for key in ("ap", "bwt", "mif"):
            values = [m[key] for m in run.reported.values() if key in m]
            if values:
                metrics[f"metrics.{key}"] = statistics.fmean(values)
        metrics["machine.ref_kernel_s"] = ref_s
    print("# info " + json.dumps({
        "workload": args.workload, "seed": args.seed, "ref_kernel_s": ref_s,
        "rounds": {k: len(v) for k, v in rounds.items()}, "digests": run.digests,
        "round_run_s": [_round_s(r) for r in coarse],
        "problems": run.problems, "notes": run.notes,
    }, sort_keys=True))
    correct = not run.problems and bool(rounds["coarse"])
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
