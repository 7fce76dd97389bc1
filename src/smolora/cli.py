"""Command-line front end: generate / train / metrics / report.

Exit codes: 0 success, 1 usage, 2 I/O, 3 data format, 4 internal contract
violation.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import benchmark, harness, metrics
from .errors import ConfigError, ContractError, FormatError, StageError, UsageError, read_utf8
from .metrics import round_display
from .routing import read_fusion_csv, read_routing_csv, write_fusion_csv, write_routing_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_FORMAT = 3
EXIT_CONTRACT = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _dump_json(path: Path, obj) -> None:
    with open(path, "w") as f:
        json.dump(obj, f, sort_keys=True, indent=2)
        f.write("\n")


def _read_json_object(path: Path) -> dict:
    try:
        obj = json.loads(read_utf8(path))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON: {exc.msg}", line=exc.lineno) from None
    except ValueError as exc:  # an int of too many digits
        raise FormatError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise FormatError(f"{path}: not a JSON object", line=1)
    return obj


def _report_dict(report: metrics.MetricReport) -> dict:
    """MetricReport as JSON keys, dropping entries that are undefined."""
    return {k: v for k, v in dataclasses.asdict(report).items() if v is not None}


# -- generate -------------------------------------------------------------------


def cmd_generate(args) -> int:
    if args.tasks < 2:
        raise UsageError(f"--tasks must be at least 2, got {args.tasks}")
    if args.seed < 0:
        raise UsageError(f"--seed must be non-negative, got {args.seed}")
    try:
        stream = benchmark.generate_stream(
            seed=args.seed,
            task_count=args.tasks,
            train_per_task=args.train_per_task,
            test_per_task=args.test_per_task,
            d_v=args.dv,
            class_count=args.classes,
            instruction_mode=args.mode,
            cluster_stddev=args.stddev,
        )
    except ConfigError:
        raise
    except ValueError as exc:  # a flag value out of its range
        raise UsageError(str(exc)) from None
    manifest = {
        "seed": args.seed,
        "task_count": args.tasks,
        "d_v": args.dv,
        "class_count": args.classes,
        "mode": args.mode,
        "cluster_stddev": args.stddev,
        "train_per_task": args.train_per_task,
        "test_per_task": args.test_per_task,
    }
    benchmark.write_stream(args.out, stream, manifest)
    print(json.dumps(manifest, sort_keys=True))
    return EXIT_OK


# -- train ----------------------------------------------------------------------


def _build_config(args) -> harness.RunConfig:
    """The --config file's fields, overridden by each train flag given: a
    flag's dest is the RunConfig field it sets."""
    fields = {f.name for f in dataclasses.fields(harness.RunConfig)}
    values: dict = {}
    if args.config:
        loaded = _read_json_object(Path(args.config))
        unknown = set(loaded) - fields
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        values.update(loaded)
    values.update((k, v) for k, v in vars(args).items() if k in fields and v is not None)
    if "method" not in values:
        raise UsageError("no method given: pass --method or set it in --config")
    return harness.RunConfig(**values)


def cmd_train(args) -> int:
    config = _build_config(args)
    stream_path = Path(args.stream)
    if not stream_path.exists():
        raise FileNotFoundError(f"stream file not found: {stream_path}")
    # An unusable output directory fails here, before any training; the
    # directories made for it are removed again if the run fails.
    out_dir = Path(args.out_dir)
    made = [p for p in (out_dir, *out_dir.parents) if not p.exists()]
    out_dir.mkdir(parents=True, exist_ok=True)
    started = datetime.now(timezone.utc).isoformat()
    try:
        # The stream is read once: the manifest hashes the bytes the run parsed.
        data = stream_path.read_bytes()
        stream_sha256 = hashlib.sha256(data).hexdigest()
        _, stream = benchmark.read_stream(stream_path, data)
        del data
        model, report = harness.run_cvit(config, stream)
    except BaseException:
        for p in made:  # innermost first, all still empty
            p.rmdir()
        raise

    outputs: list[Path] = []

    acc_path = out_dir / "accuracy.csv"
    metrics.write_accuracy_csv(acc_path, report.content)
    outputs.append(acc_path)
    fmt_path = out_dir / "accuracy.format.csv"
    metrics.write_accuracy_csv(fmt_path, report.format)
    outputs.append(fmt_path)
    rec_path = out_dir / "records.jsonl"
    metrics.write_records_jsonl(rec_path, report.records)
    outputs.append(rec_path)
    ckpt_path = out_dir / "model.ckpt"
    harness.save_checkpoint(model, ckpt_path)
    outputs.append(ckpt_path)
    metrics_path = out_dir / "metrics.json"
    _dump_json(metrics_path, _report_dict(report.metrics))
    outputs.append(metrics_path)
    routing_path, fusion_path = out_dir / "routing.csv", out_dir / "fusion.csv"
    if report.routing_hist is None:
        # An earlier separable run's files would be reported as this run's.
        routing_path.unlink(missing_ok=True)
        fusion_path.unlink(missing_ok=True)
    else:
        write_routing_csv(routing_path, report.routing_hist)
        write_fusion_csv(fusion_path, report.fusion_stats)
        outputs += [routing_path, fusion_path]

    for p in outputs:
        if not p.exists() or p.stat().st_size == 0:
            raise ContractError(f"output file missing or empty: {p}")
    manifest = {
        "config": dataclasses.asdict(config),
        "method": config.method,
        "seed": config.seed,
        "stream": str(stream_path),
        "stream_sha256": stream_sha256,
        "started_at": started,
        "finished_at": datetime.now(timezone.utc).isoformat(),
        "outputs": {p.name: {"bytes": p.stat().st_size, "sha256": _sha256(p)} for p in outputs},
    }
    _dump_json(out_dir / "manifest.json", manifest)
    print(json.dumps({"out_dir": str(out_dir), "metrics": _report_dict(report.metrics)}, sort_keys=True))
    return EXIT_OK


# -- metrics --------------------------------------------------------------------


def cmd_metrics(args) -> int:
    records = metrics.read_records_jsonl(args.records) if args.records else None
    a = metrics.accuracy_tables(records)[0] if records else metrics.read_accuracy_csv(args.accuracy)
    print(json.dumps(_report_dict(metrics.compute_report(a, records)), sort_keys=True, indent=2))
    return EXIT_OK


# -- report ---------------------------------------------------------------------


def _load_run(run_dir: Path) -> dict:
    """A run's scores, all from its records.jsonl, and its manifest where there is one."""
    records = metrics.read_records_jsonl(run_dir / "records.jsonl")
    content = metrics.accuracy_tables(records)[0]
    out = {"dir": run_dir, "content": content,
           "metrics": _report_dict(metrics.compute_report(content, records))}
    manifest_path = run_dir / "manifest.json"
    if manifest_path.exists():
        out["manifest"] = _read_json_object(manifest_path)
    return out


def _write_fig4_series(path: Path, a: metrics.AccuracyMatrix) -> None:
    """Per-task accuracy across stages: row per task, blank before it is learned."""
    t = a.stages
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["task"] + [f"stage_{k}" for k in range(1, t + 1)])
        for j in range(1, t + 1):
            row: list = [j] + [""] * (j - 1)
            row += [repr(a.score(k, j)) for k in range(j, t + 1)]
            w.writerow(row)


def cmd_report(args) -> int:
    runs = [_load_run(Path(d)) for d in args.run_dirs]
    lines: list[str] = []
    def fmt(value) -> str:
        return "n/a" if value is None else f"{round_display(value):.2f}"

    for run in runs:
        method = run.get("manifest", {}).get("method", "?")
        m = run["metrics"]
        _write_fig4_series(run["dir"] / "fig4_series.csv", run["content"])
        lines.append(f"run {run['dir']} (method={method})")
        lines.append(
            f"  AP={fmt(m['ap'])} MAP={fmt(m['map'])} "
            f"BWT={fmt(m.get('bwt'))} MIF={fmt(m.get('mif'))}"
        )
        routing_path = run["dir"] / "routing.csv"
        if routing_path.exists():
            lines.append("  routing frequencies (per task and bank):")
            for task_id, banks in sorted(read_routing_csv(routing_path).items()):
                for bank, freq in banks.items():
                    freqs = " ".join(f"{x:.3f}" for x in freq)
                    lines.append(f"    task {task_id} {bank}: {freqs}")
        fusion_path = run["dir"] / "fusion.csv"
        if fusion_path.exists():
            lines.append("  fusion weights per layer (mean alpha / mean beta):")
            for row in read_fusion_csv(fusion_path):
                lines.append(
                    f"    layer {row['layer']}: {row['mean_alpha']:.3f} "
                    f"(sd {row['std_alpha']:.3f}) / {row['mean_beta']:.3f}"
                )
    for key in ("bwt", "mif") if len(runs) >= 2 else ():
        base, other = runs[0], runs[1]
        if key in base["metrics"] and key in other["metrics"]:
            delta = other["metrics"][key] - base["metrics"][key]
            lines.append(f"{key.upper()} delta ({other['dir']} - {base['dir']}): {delta:+.2f} points")
    print("\n".join(lines))
    return EXIT_OK


# -- wiring ---------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="smolora", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    g = sub.add_parser("generate", help="write a synthetic task-stream file")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--tasks", type=int, default=6)
    g.add_argument("--mode", choices=["single", "multi"], default="single")
    g.add_argument("--out", required=True)
    g.add_argument("--train-per-task", type=int, default=512)
    g.add_argument("--test-per-task", type=int, default=256)
    g.add_argument("--dv", type=int, default=32)
    g.add_argument("--classes", type=int, default=8)
    g.add_argument("--stddev", type=float, default=0.15)
    g.set_defaults(func=cmd_generate)

    t = sub.add_parser("train", help="run sequential fine-tuning over a stream")
    t.add_argument("--stream", required=True)
    t.add_argument("--out-dir", required=True)
    t.add_argument("--config", help="JSON file with RunConfig fields; flags override")
    t.add_argument("--method", choices=list(harness.METHODS))
    t.add_argument("--vu-blocks", type=int, dest="vu_blocks")
    t.add_argument("--if-blocks", type=int, dest="if_blocks")
    t.add_argument("--rank", type=int)
    t.add_argument("--top-k", type=int, dest="top_k")
    t.add_argument("--embed-dim", type=int, dest="embed_dim")
    t.add_argument("--hidden", type=int)
    t.add_argument("--lr", type=float, dest="learning_rate")
    t.add_argument("--batch-size", type=int, dest="batch_size")
    t.add_argument("--epochs", type=int)
    t.add_argument("--seed", type=int)
    t.set_defaults(func=cmd_train)

    m = sub.add_parser("metrics", help="recompute metrics from output files")
    source = m.add_mutually_exclusive_group(required=True)
    source.add_argument("--records", help="a run's records.jsonl: AP, MAP, BWT and MIF")
    source.add_argument("--accuracy", help="an accuracy CSV alone: AP, MAP and BWT")
    m.set_defaults(func=cmd_metrics)

    r = sub.add_parser("report", help="summarize one or more run directories")
    r.add_argument("run_dirs", nargs="+")
    r.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except (ContractError, StageError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
