"""One measured `smolora train` process, started fresh by run.py.

Usage: python3 bench/child.py RESULT_JSON MODE -- <smolora train arguments>

MODE is `coarse` or `trace`. The child wraps library functions from the
outside, at the module attributes the program calls through, runs the CLI
entry point `smolora.cli.main`, and writes what it saw to RESULT_JSON:

* coarse: times of `benchmark.read_stream`, `harness.train_stage` and
  `harness.evaluate_task`, each call's in order and their totals, the time
  of each training step (split at the returns of `tensor.sgd_step`), the
  clock reading at the first training step,
  the step losses and the peak resident memory. These few calls are all
  that the untraced, end-to-end runs wrap.
* trace: additionally a span for every layer function listed in
  `_TRACE_SPANS`, from which self time (a span's duration minus the time
  its wrapped child spans cover) and call counts are derived.

A function that no longer exists is skipped, and the metrics that depend on
it are left out of the result instead of failing the run.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import time
from collections import defaultdict

# (metric name, module, attribute or "Class.method"); the metric name is
# extended by the key function in _SPAN_KEYS where the call's mode matters.
_TRACE_SPANS = [
    ("tensor.backward", "smolora.tensor", "backward"),
    ("tensor.sgd_step", "smolora.tensor", "sgd_step"),
    ("tensor.cross_entropy", "smolora.tensor", "cross_entropy"),
    ("lora.smolora_forward", "smolora.lora", "smolora_forward"),
    ("lora.molora_forward", "smolora.lora", "molora_forward"),
    ("lora.adaptive_fusion", "smolora.lora", "adaptive_fusion"),
    ("lora.lora_apply", "smolora.lora", "lora_apply"),
    ("routing.route_instance", "smolora.routing", "route_instance"),
    ("routing.route_instruction", "smolora.routing", "route_instruction"),
    ("routing.embed", "smolora.routing", "HashingEmbedder.embed"),
    ("routing.embed_text", "smolora.routing", "embed_text"),
    ("harness.attach_embeddings", "smolora.harness", "attach_embeddings"),
    ("harness.model_init", "smolora.harness", "ToyModel.__init__"),
    ("harness.forward", "smolora.harness", "ToyModel.forward"),
    ("harness.layer", "smolora.harness", "AdapterLayer.forward"),
    ("harness.save_checkpoint", "smolora.harness", "save_checkpoint"),
    ("metrics.compute_report", "smolora.metrics", "compute_report"),
    ("metrics.write_records_jsonl", "smolora.metrics", "write_records_jsonl"),
    ("harness.run_cvit", "smolora.harness", "run_cvit"),
    ("cli.cmd_train", "smolora.cli", "cmd_train"),
]

# Functions wrapped in both modes; their spans also feed the coarse timings.
# Per-step pieces of `harness.train_stage`, kept when `tensor.sgd_step` exists.
STEPS = "harness.train_stage.steps"

_COARSE_SPANS = [
    ("benchmark.read_stream", "smolora.benchmark", "read_stream"),
    ("harness.train_stage", "smolora.harness", "train_stage"),
    ("harness.evaluate_task", "smolora.harness", "evaluate_task"),
]


def _tape_arg(args, kwargs, position):
    return args[position] if len(args) > position else kwargs.get("tape")


def _mode(has_tape) -> str:
    return "train" if has_tape is not None else "eval"


# Span name refinements: a forward with a tape is a training forward.
_SPAN_KEYS = {
    "harness.forward": lambda a, k: f"harness.forward.{_mode(_tape_arg(a, k, 2))}",
    "harness.layer": lambda a, k: (
        f"harness.layer.{getattr(a[0], 'name', '?')}.{_mode(_tape_arg(a, k, 3))}"
    ),
}


class Tracer:
    """In-memory spans: inclusive and self seconds and call counts per name."""

    def __init__(self):
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.wrapped: set[str] = set()
        self.durations: dict[str, list[float]] = defaultdict(list)
        self._child_time: list[float] = []

    def span(self, name, fn, on_call=None, on_return=None, each=False):
        """Wrap fn; with `each`, also keep every call's duration in order."""
        key = _SPAN_KEYS.get(name)
        perf = time.perf_counter
        stack = self._child_time

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            stack.append(0.0)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                d = perf() - t0
                covered = stack.pop()
                k = key(args, kwargs) if key else name
                self.total_s[k] += d
                self.self_s[k] += d - covered
                self.calls[k] += 1
                if each:
                    self.durations[k].append(d)
                if stack:
                    stack[-1] += d
            if on_return is not None:
                on_return(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper


def _patch(module_name: str, attr: str, make_wrapper) -> bool:
    """Replace a function at every smolora module attribute bound to it.

    `attr` may be "Class.method". Returns False when the target is gone.
    """
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return False
    owner_name, _, method = attr.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name, None)
        original = getattr(owner, method, None) if owner is not None else None
        if original is None:
            return False
        setattr(owner, method, make_wrapper(original))
        return True
    original = getattr(module, attr, None)
    if original is None:
        return False
    wrapper = make_wrapper(original)
    for name, mod in list(sys.modules.items()):
        if name == "smolora" or name.startswith("smolora."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
    return True


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--" or argv[1] not in ("coarse", "trace"):
        print("usage: child.py RESULT_JSON coarse|trace -- <train args>", file=sys.stderr)
        return 1
    result_path, mode, train_args = argv[0], argv[1], argv[3:]
    import smolora.cli as cli

    tracer = Tracer()
    state = {"first_step": None, "mark": 0.0, "steps_marked": False, "sample_steps": 0,
             "eval_samples": 0, "losses": [],
             "tape_ops": 0, "run_cvit_end": None, "cmd_train_end": None}

    def on_train(args, kwargs):
        if state["first_step"] is None:
            state["first_step"] = time.monotonic()
        state["mark"] = time.perf_counter()
        train_set, config = args[1], args[2]
        state["sample_steps"] += len(train_set) * config.epochs

    def on_eval(args, kwargs):
        state["eval_samples"] += len(args[1])

    def on_backward(args, kwargs):
        ops = getattr(args[0], "_ops", None)
        if ops is None or state["tape_ops"] is None:
            state["tape_ops"] = None
        else:
            state["tape_ops"] += len(ops)

    def stamp(slot):
        return lambda out: state.__setitem__(slot, time.perf_counter())

    # Every training step ends in one `sgd_step` call, so its returns split
    # each `train_stage` call into steps: the smallest pieces of work that
    # repeat exactly from round to round. One timestamp per step (5-20 ms)
    # costs about a microsecond.
    def piece_done():
        now = time.perf_counter()
        tracer.durations[STEPS].append(now - state["mark"])
        state["mark"] = now

    def mark_steps(fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            piece_done()
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def on_train_end(out):
        state["losses"].append([float(x) for x in out])
        if state["steps_marked"]:
            piece_done()  # the rest of the stage after its last step

    on_call = {"harness.train_stage": on_train, "harness.evaluate_task": on_eval,
               "tensor.backward": on_backward}
    on_return = {"harness.train_stage": on_train_end,
                 "harness.run_cvit": stamp("run_cvit_end"), "cli.cmd_train": stamp("cmd_train_end")}

    def wrap(name, module, attr, each=False) -> bool:
        return _patch(module, attr, lambda fn: tracer.span(
            name, fn, on_call.get(name), on_return.get(name), each))

    for name, module, attr in _COARSE_SPANS:
        if not wrap(name, module, attr, each=True):
            print(f"bench: cannot wrap {module}.{attr}", file=sys.stderr)
            return 1
    state["steps_marked"] = _patch("smolora.tensor", "sgd_step", mark_steps)
    if mode == "trace":
        for name, module, attr in _TRACE_SPANS:
            if wrap(name, module, attr):
                tracer.wrapped.add(name)
        if _patch("smolora.tensor", "matmul", lambda fn: tracer.counter("tensor.matmul", fn)):
            tracer.wrapped.add("tensor.matmul")

    code = cli.main(["train", *train_args])
    result = {
        "first_step": state["first_step"],
        "sample_steps": state["sample_steps"],
        "eval_samples": state["eval_samples"],
        "step_losses": state["losses"],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "self_s": dict(tracer.self_s),
        "total_s": dict(tracer.total_s),
        "durations": dict(tracer.durations),
        "calls": dict(tracer.calls),
        "counts": dict(tracer.counts),
        "wrapped": sorted(tracer.wrapped),
        "tape_ops": state["tape_ops"],
    }
    if state["run_cvit_end"] is not None and state["cmd_train_end"] is not None:
        result["output_s"] = state["cmd_train_end"] - state["run_cvit_end"]
    with open(result_path, "w") as f:
        json.dump(result, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
