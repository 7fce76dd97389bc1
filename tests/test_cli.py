import dataclasses
import hashlib
import json
import re

import pytest
from _reference_tables import TABLES

from smolora import benchmark, harness
from smolora.cli import build_parser, main
from smolora.harness import RunConfig
from smolora.metrics import (
    AccuracyMatrix,
    accuracy_tables,
    ap,
    bwt,
    compute_report,
    mif,
    read_accuracy_csv,
    read_records_jsonl,
    round_display,
    write_accuracy_csv,
)


def run_cli(*argv):
    return main(list(argv))


def generate_args(out, seed=0, tasks=2, mode="single"):
    return [
        "generate",
        "--seed", str(seed),
        "--tasks", str(tasks),
        "--mode", mode,
        "--out", str(out),
        "--train-per-task", "32",
        "--test-per-task", "16",
        "--dv", "8",
        "--classes", "4",
    ]


def train_args(stream, out_dir, method="seqlora", seed="0"):
    return [
        "train",
        "--stream", str(stream),
        "--out-dir", str(out_dir),
        "--method", method,
        "--seed", seed,
        "--embed-dim", "16",
        "--hidden", "16",
        "--rank", "4",
        "--lr", "0.8",
        "--batch-size", "16",
        "--epochs", "2",
    ]


@pytest.fixture
def stream_file(tmp_path):
    path = tmp_path / "stream.jsonl"
    assert run_cli(*generate_args(path)) == 0
    return path


class TestGenerate:
    def test_byte_identical_across_calls(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run_cli(*generate_args(p1, seed=7)) == 0
        assert run_cli(*generate_args(p2, seed=7)) == 0
        assert p1.read_bytes() == p2.read_bytes()
        manifest_line = capsys.readouterr().out.strip().splitlines()[-1]
        assert json.loads(manifest_line)["seed"] == 7

    def test_single_task_is_usage_error(self, tmp_path):
        assert run_cli(*generate_args(tmp_path / "s.jsonl", tasks=1)) == 1

    def test_multi_mode_lists_multiple_templates(self, tmp_path):
        path = tmp_path / "multi.jsonl"
        assert run_cli(*generate_args(path, mode="multi")) == 0
        header = json.loads(path.read_text().splitlines()[0])
        assert all(len(t["templates"]) >= 2 for t in header["tasks"])

    def test_unwritable_path_is_io_error(self, tmp_path):
        target = tmp_path / "no" / "such" / "dir" / "s.jsonl"
        assert run_cli(*generate_args(target)) == 2

    def test_unknown_flag_is_usage_error(self, tmp_path):
        assert run_cli("generate", "--bogus", "1", "--out", str(tmp_path / "s.jsonl")) == 1


class TestTrain:
    def test_output_inventory(self, stream_file, tmp_path):
        out_dir = tmp_path / "run"
        assert run_cli(*train_args(stream_file, out_dir)) == 0
        for name in ("accuracy.csv", "accuracy.format.csv", "records.jsonl",
                     "metrics.json", "manifest.json", "model.ckpt"):
            assert (out_dir / name).stat().st_size > 0
        assert not (out_dir / "routing.csv").exists()
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["method"] == "seqlora"
        assert set(manifest["outputs"]) >= {"accuracy.csv", "metrics.json", "model.ckpt"}

    def test_smolora_emits_routing_and_fusion(self, stream_file, tmp_path):
        out_dir = tmp_path / "run"
        assert run_cli(*train_args(stream_file, out_dir, method="smolora")) == 0
        assert (out_dir / "routing.csv").stat().st_size > 0
        assert (out_dir / "fusion.csv").stat().st_size > 0

    def test_run_without_routing_removes_an_earlier_runs_files(self, stream_file, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert run_cli(*train_args(stream_file, out_dir, method="smolora")) == 0
        assert run_cli(*train_args(stream_file, out_dir)) == 0
        assert not (out_dir / "routing.csv").exists()
        assert not (out_dir / "fusion.csv").exists()
        capsys.readouterr()
        assert run_cli("report", str(out_dir)) == 0
        out = capsys.readouterr().out
        assert "(method=seqlora)" in out
        assert "routing frequencies" not in out and "fusion weights" not in out

    def test_identical_invocations_identical_artifacts(self, stream_file, tmp_path):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        assert run_cli(*train_args(stream_file, d1, method="smolora")) == 0
        assert run_cli(*train_args(stream_file, d2, method="smolora")) == 0
        for name in ("metrics.json", "accuracy.csv", "accuracy.format.csv",
                     "records.jsonl", "model.ckpt", "routing.csv", "fusion.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name

    def test_missing_stream_is_io_error(self, tmp_path):
        assert run_cli(*train_args(tmp_path / "nope.jsonl", tmp_path / "run")) == 2

    def test_missing_method_is_usage_error(self, stream_file, tmp_path):
        code = run_cli("train", "--stream", str(stream_file), "--out-dir", str(tmp_path / "r"))
        assert code == 1

    def test_config_file_with_flag_override(self, stream_file, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "method": "seqlora", "embed_dim": 16, "hidden": 16, "rank": 4,
            "learning_rate": 0.8, "batch_size": 16, "epochs": 2, "seed": 3,
        }))
        out_dir = tmp_path / "run"
        code = run_cli("train", "--stream", str(stream_file), "--out-dir", str(out_dir),
                       "--config", str(cfg_path), "--epochs", "1", "--lr", "0.5")
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["config"]["epochs"] == 1  # flag wins
        assert manifest["config"]["learning_rate"] == 0.5  # --lr sets learning_rate
        assert manifest["config"]["seed"] == 3  # file value kept

    def test_every_config_field_is_a_train_flag(self):
        # A flag left out parses as None, so that it overrides no file value.
        args = build_parser().parse_args(["train", "--stream", "s", "--out-dir", "o"])
        for field in dataclasses.fields(RunConfig):
            assert getattr(args, field.name) is None, field.name

    def test_stream_and_out_dir_are_no_config_keys(self, stream_file, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"method": "seqlora", "stream": str(stream_file)}))
        err = one_line_error(capsys, 1, "usage error: ", "train", "--stream", str(stream_file),
                             "--out-dir", str(tmp_path / "r"), "--config", str(cfg_path))
        assert "'stream'" in err

    def test_manifest_hashes_the_stream_the_run_read(self, stream_file, tmp_path, monkeypatch):
        # A stream file rewritten while the run trains is not the file it read.
        read = stream_file.read_bytes()
        run_cvit = harness.run_cvit

        def rewrite_then_run(config, stream):
            out = run_cvit(config, stream)
            stream_file.write_bytes(read + b"\n")
            return out

        monkeypatch.setattr(harness, "run_cvit", rewrite_then_run)
        out_dir = tmp_path / "run"
        assert run_cli(*train_args(stream_file, out_dir)) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["stream"] == str(stream_file)
        assert manifest["stream_sha256"] == hashlib.sha256(read).hexdigest()
        assert "stream" not in manifest["config"] and "out_dir" not in manifest["config"]

    def test_molora_top_k_is_bounded_by_its_one_bank(self, stream_file, tmp_path, capsys):
        flags = ["--vu-blocks", "1", "--if-blocks", "1", "--top-k", "2"]
        assert run_cli(*train_args(stream_file, tmp_path / "mo", method="molora"), *flags) == 0
        err = one_line_error(capsys, 1, "configuration error: ",
                             *train_args(stream_file, tmp_path / "smo", method="smolora"), *flags)
        assert "top_k 2 out of range for banks of 1 and 1" in err

    def test_unknown_config_key_is_usage_error(self, stream_file, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"method": "seqlora", "optimizer": "adam"}))
        code = run_cli("train", "--stream", str(stream_file),
                       "--out-dir", str(tmp_path / "r"), "--config", str(cfg_path))
        assert code == 1

    @pytest.mark.parametrize("text, where", [('{"method": "seqlora",\n oops}', "(line 2)"),
                                             ('["seqlora"]', "(line 1)"),
                                             (b'{"method": "seq\xfflora"}', "(byte offset 15)")])
    def test_malformed_config_is_format_error(self, stream_file, tmp_path, capsys, text, where):
        cfg_path = tmp_path / "cfg.json"
        if isinstance(text, bytes):
            cfg_path.write_bytes(text)
        else:
            cfg_path.write_text(text)
        err = format_error(capsys, "train", "--stream", str(stream_file),
                           "--out-dir", str(tmp_path / "r"), "--config", str(cfg_path))
        assert "cfg.json" in err and where in err


def one_line_error(capsys, code, prefix, *argv) -> str:
    """Run the CLI, expect exit `code` with one line starting `prefix`, and return that line."""
    capsys.readouterr()
    assert run_cli(*argv) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1, err
    return err


class TestBadValuesExitBeforeAnyWork:
    """A bad config value exits 1, and an unusable --out-dir 2, before the stream is read."""

    @pytest.fixture(autouse=True)
    def stream_unread(self, monkeypatch):
        def read_stream(path, data=None):
            raise AssertionError("the stream was read")

        monkeypatch.setattr(benchmark, "read_stream", read_stream)

    @pytest.mark.parametrize("flag, value, field", [("--seed", "-1", "seed"),
                                                    ("--lr", "nan", "learning_rate"),
                                                    ("--lr", "inf", "learning_rate")])
    def test_bad_flag_value(self, stream_file, tmp_path, capsys, flag, value, field):
        err = one_line_error(capsys, 1, "configuration error: ",
                             *train_args(stream_file, tmp_path / "r"), flag, value)
        assert field in err

    @pytest.mark.parametrize("key, value", [("learning_rate", float("nan")), ("epochs", "3"),
                                            ("rank", 2.5), ("batch_size", True), ("seed", -2)])
    def test_bad_config_file_value(self, stream_file, tmp_path, capsys, key, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"method": "seqlora", key: value}))
        err = one_line_error(capsys, 1, "configuration error: ", "train", "--stream", str(stream_file),
                             "--out-dir", str(tmp_path / "r"), "--config", str(cfg_path))
        assert key in err

    def test_out_dir_that_is_a_file(self, stream_file, tmp_path, capsys):
        target = tmp_path / "taken"
        target.write_text("not a directory\n")
        one_line_error(capsys, 2, "I/O error: ", *train_args(stream_file, target))
        assert target.read_text() == "not a directory\n"

    def test_negative_generate_seed(self, tmp_path, capsys):
        path = tmp_path / "s.jsonl"
        assert "--seed" in one_line_error(capsys, 1, "usage error: ", *generate_args(path, seed=-1))
        assert not path.exists()

    @pytest.mark.parametrize("flag, value, named", [("--classes", "1", "class_count"),
                                                    ("--stddev", "1e308", "non-finite")])
    def test_generate_flag_that_writes_an_untrainable_stream(self, tmp_path, capsys, flag, value, named):
        path = tmp_path / "s.jsonl"
        assert named in one_line_error(capsys, 1, "usage error: ", *generate_args(path), flag, value)
        assert not path.exists()


def _largest_visual(path) -> float:
    """The largest |visual| value of stage 1's splits in a stream file."""
    _, stream = benchmark.read_stream(path)
    return max(float(abs(split.visual).max()) for split in stream[0][1:])


def test_diverging_learning_rate_is_a_configuration_error(stream_file, tmp_path, capsys):
    argv = train_args(stream_file, tmp_path / "r")
    err = one_line_error(capsys, 1, "configuration error: ", *argv, "--lr", "1e300")
    assert err.startswith("configuration error: stage 1: training diverged at learning_rate 1e+300, "
                          f"with a largest |visual| value of {_largest_visual(stream_file):.6g} (")
    assert "too large for the model" not in err
    assert not (tmp_path / "r").exists()


def test_divergence_below_the_input_limit_names_both_suspects(tmp_path, capsys):
    # Visual values near 1e100 square to well inside float64's range, so the
    # input is not blamed alone, yet training at the default learning rate
    # overflows: the message gives the rate and the largest |visual| value.
    path = tmp_path / "s.jsonl"
    assert run_cli("generate", "--tasks", "2", "--train-per-task", "8", "--test-per-task", "4",
                   "--stddev", "1e100", "--out", str(path)) == 0
    argv = ["train", "--stream", str(path), "--out-dir", str(tmp_path / "r"), "--method", "smolora"]
    err = one_line_error(capsys, 1, "configuration error: ", *argv)
    assert err.startswith(
        f"configuration error: stage 1: training diverged at learning_rate {RunConfig().learning_rate!r}, "
        f"with a largest |visual| value of {_largest_visual(path):.6g} (overflow"
    )
    assert "too large for the model" not in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("method", ["seqlora", "smolora"])
def test_input_too_large_for_the_model_is_blamed_not_the_learning_rate(tmp_path, capsys, method):
    # Visual values near 1e200 are finite and pass the reader, but the first
    # step's update times the next forward's input is out of float64 range.
    path = tmp_path / "s.jsonl"
    assert run_cli("generate", "--tasks", "2", "--train-per-task", "8", "--test-per-task", "4",
                   "--stddev", "1e200", "--out", str(path)) == 0
    argv = ["train", "--stream", str(path), "--out-dir", str(tmp_path / "r"), "--method", method]
    err = one_line_error(capsys, 1, "configuration error: ", *argv)
    assert err.startswith("configuration error: stage 1: the input is too large for the model: "
                          f"the largest |visual| value is {_largest_visual(path):.6g} (overflow")
    assert "learning_rate" not in err
    assert not (tmp_path / "r").exists()


def _edit_line(path, lineno, change):
    """Apply `change` to the JSON object on a 1-based line of a stream file."""
    lines = path.read_text().splitlines()
    obj = json.loads(lines[lineno - 1])
    change(obj)
    lines[lineno - 1] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n")


# Line layout of `stream_file`: manifest on line 1, then per task 32 train
# and 16 test records (task 0: train 2-33, test 34-49; task 1: 50-97).
STREAM_FAULTS = {
    "no-cluster-stddev": (1, lambda m: m["tasks"][1].pop("cluster_stddev")),
    "huge-format-id": (1, lambda m: m["tasks"][1].update(format_id=1_000_000_000_000)),
    "short-visual": (5, lambda r: r["visual"].pop()),
    "train-class-out-of-range": (6, lambda r: r.update(answer_class=99)),
    "test-class-out-of-range": (40, lambda r: r.update(answer_class=4)),
    "unknown-split": (7, lambda r: r.update(split="dev")),
    "format-id-mismatch": (8, lambda r: r.update(format_id=r["format_id"] + 1)),
    "nan-visual": (9, lambda r: r["visual"].__setitem__(0, float("nan"))),
    "tokenless-instruction": (10, lambda r: r.update(instruction="?! ...")),
}


class TestStreamValidation:
    @pytest.mark.parametrize("fault", sorted(STREAM_FAULTS))
    def test_fault_is_format_error_naming_line(self, fault, stream_file, tmp_path, capsys):
        lineno, change = STREAM_FAULTS[fault]
        _edit_line(stream_file, lineno, change)
        capsys.readouterr()
        assert run_cli(*train_args(stream_file, tmp_path / "run")) == 3
        assert f"(line {lineno})" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_empty_split_is_format_error(self, stream_file, tmp_path, capsys):
        lines = stream_file.read_text().splitlines()
        stream_file.write_text("\n".join(lines[:81]) + "\n")  # drop task 1's test split
        capsys.readouterr()
        assert run_cli(*train_args(stream_file, tmp_path / "run")) == 3
        err = capsys.readouterr().err
        assert "task 1 has no test records" in err and "(line 1)" in err

    def test_cancelling_instruction_is_format_error(self, stream_file, tmp_path, capsys):
        lines = [json.loads(line) for line in stream_file.read_text().splitlines()]
        for record in lines[1:]:
            record["instruction"] = "alpha beta"  # token signs cancel at dimension 1
        stream_file.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
        args = train_args(stream_file, tmp_path / "run")
        args[args.index("--embed-dim") + 1] = "1"
        capsys.readouterr()
        assert run_cli(*args) == 3
        err = capsys.readouterr().err
        assert "task 0 train split" in err and "'alpha beta'" in err and "embed_dim 1" in err
        assert not (tmp_path / "run").exists()


class TestMetrics:
    def test_published_table(self, tmp_path, capsys):
        path = tmp_path / "accuracy.csv"
        write_accuracy_csv(path, AccuracyMatrix(TABLES["smolora_single"]))
        assert run_cli("metrics", "--accuracy", str(path)) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ap"] == pytest.approx(83.44, abs=0.005)
        assert out["map"] == pytest.approx(84.85, abs=0.005)
        assert out["bwt"] == pytest.approx(-3.23, abs=0.005)
        assert "mif" not in out

    def test_single_stage_has_no_bwt(self, tmp_path, capsys):
        path = tmp_path / "accuracy.csv"
        write_accuracy_csv(path, AccuracyMatrix([[55.5]]))
        assert run_cli("metrics", "--accuracy", str(path)) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ap"] == 55.5
        assert "bwt" not in out

    def test_non_numeric_cell_is_format_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("stage,task_1\n1,abc\n")
        assert run_cli("metrics", "--accuracy", str(path)) == 3

    @pytest.mark.parametrize("text", [
        # Rows that once shifted scores between tasks and stages.
        "stage,task_1,task_2\n1,50.0,\n2,,60.0,70.0\n",
        "stage,task_1,task_2\n1,,50.0\n2,60.0,70.0\n",
        "stage,task_1,task_2\n5,50.0,\n1,60.0,70.0\n",
    ])
    def test_score_shifting_row_is_format_error(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        assert run_cli("metrics", "--accuracy", str(path)) == 3

    def test_records_give_mif(self, stream_file, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert run_cli(*train_args(stream_file, out_dir)) == 0
        capsys.readouterr()
        assert run_cli("metrics", "--records", str(out_dir / "records.jsonl")) == 0
        printed = json.loads(capsys.readouterr().out)
        stored = json.loads((out_dir / "metrics.json").read_text())
        assert printed == stored

    @pytest.mark.parametrize("argv", [("--accuracy", "accuracy.csv", "--records", "records.jsonl"), ()],
                             ids=["both", "neither"])
    def test_metrics_takes_exactly_one_source(self, capsys, argv):
        err = one_line_error(capsys, 1, "usage error: ", "metrics", *argv)
        assert "--accuracy" in err and "--records" in err

    def test_records_cut_after_a_stage_score_that_stage(self, tmp_path, capsys):
        # AP, BWT and MIF all come from stage 2, as a two-task run would give them.
        stream, out_dir = tmp_path / "stream.jsonl", tmp_path / "run"
        assert run_cli(*generate_args(stream, tasks=3)) == 0
        assert run_cli(*train_args(stream, out_dir)) == 0
        path = out_dir / "records.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(line for line in lines if '"stage": 3' not in line))
        capsys.readouterr()
        assert run_cli("metrics", "--records", str(path)) == 0
        printed = json.loads(capsys.readouterr().out)
        table = read_accuracy_csv(out_dir / "accuracy.csv")
        cut = AccuracyMatrix(table.rows[:2])
        assert (printed["ap"], printed["bwt"]) == (ap(cut, 2), bwt(cut, 2))
        assert printed["mif"] == mif(read_records_jsonl(path))

    @pytest.mark.parametrize("edit, message", [
        # Each of the first two once printed the whole run's AP, BWT and MIF with exit 0.
        (lambda r: r if (r["stage"], r["instance_index"]) != (1, 0) else None,
         r"stage 2, task 0: instance 0 is scored at only one of stages 1 and 2 \(line 4\)"),
        (lambda r: r if (r["stage"], r["task_id"]) != (2, 0) else None,
         r"stage 2, task 0: instance 0 is scored at only one of stages 1 and 2\n"),
        (lambda r: {**r, "stage": 4} if r["stage"] == 3 else r,
         r"stage 3, task 0: instance 0 is scored at only one of stages 2 and 3\n"),
        (lambda r: {**r, "instance_index": 7} if (r["stage"], r["task_id"], r["instance_index"]) == (3, 1, 2)
         else r, r"stage 3, task 1: instance 7 is scored at only one of stages 2 and 3 \(line 19\)"),
        (lambda r: None if r["stage"] == 2 else {**r, "stage": 2} if r["stage"] == 3 else r,
         r"stage 2 adds the tasks \[1, 2\], not exactly one \(line 13\)"),
        (lambda r: r if (r["stage"], r["task_id"]) != (3, 2) else None,
         r"stage 3 adds the tasks \[\], not exactly one"),
    ], ids=["first-record", "task-at-stage-2", "stage-gap", "other-instance", "two-new-tasks",
            "no-new-task"])
    def test_incomplete_records_exit_3_naming_stage_and_task(self, tmp_path, capsys, edit, message):
        stream, out_dir = tmp_path / "stream.jsonl", tmp_path / "run"
        assert run_cli("generate", "--seed", "5", "--tasks", "3", "--dv", "4", "--classes", "2",
                       "--train-per-task", "3", "--test-per-task", "4", "--out", str(stream)) == 0
        assert run_cli("train", "--stream", str(stream), "--out-dir", str(out_dir), "--method",
                       "seqlora", "--rank", "1", "--embed-dim", "4", "--hidden", "4", "--epochs", "1") == 0
        path = out_dir / "records.jsonl"
        records = [edit(json.loads(line)) for line in path.read_text().splitlines()]
        path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records if r))
        err = format_error(capsys, "metrics", "--records", str(path))
        assert re.search(message, err), err

    @pytest.mark.parametrize("method, top_k", [("seqlora", "1"), ("molora", "2"), ("smolora", "2")])
    def test_records_give_both_accuracy_tables_byte_for_byte(self, tmp_path, method, top_k):
        # Four 40-instance test splits: the last stage's second 96-wide window starts inside task 3.
        stream, out_dir = tmp_path / "stream.jsonl", tmp_path / "run"
        assert run_cli("generate", "--seed", "2", "--tasks", "4", "--mode", "multi", "--dv", "8",
                       "--classes", "4", "--train-per-task", "16", "--test-per-task", "40",
                       "--out", str(stream)) == 0
        args = train_args(stream, out_dir, method=method)
        assert run_cli(*args, "--vu-blocks", "2", "--if-blocks", "2", "--top-k", top_k) == 0
        content, fmt = accuracy_tables(read_records_jsonl(out_dir / "records.jsonl"))
        write_accuracy_csv(tmp_path / "content.csv", content)
        write_accuracy_csv(tmp_path / "format.csv", fmt)
        assert (tmp_path / "content.csv").read_bytes() == (out_dir / "accuracy.csv").read_bytes()
        assert (tmp_path / "format.csv").read_bytes() == (out_dir / "accuracy.format.csv").read_bytes()


class TestReport:
    def test_single_run_summary_matches_metrics(self, stream_file, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert run_cli(*train_args(stream_file, out_dir, method="smolora")) == 0
        capsys.readouterr()
        assert run_cli("report", str(out_dir)) == 0
        text = capsys.readouterr().out
        stored = json.loads((out_dir / "metrics.json").read_text())
        assert f"AP={stored['ap']:.2f}" in text
        assert "method=smolora" in text
        assert (out_dir / "fig4_series.csv").stat().st_size > 0

    def test_two_runs_include_bwt_delta(self, stream_file, tmp_path, capsys):
        d1, d2 = tmp_path / "seq", tmp_path / "smo"
        assert run_cli(*train_args(stream_file, d1, method="seqlora")) == 0
        assert run_cli(*train_args(stream_file, d2, method="smolora")) == 0
        capsys.readouterr()
        assert run_cli("report", str(d1), str(d2)) == 0
        assert "BWT delta" in capsys.readouterr().out

    def test_fusion_rows_sum_to_one(self, stream_file, tmp_path):
        from smolora.routing import read_fusion_csv

        out_dir = tmp_path / "run"
        assert run_cli(*train_args(stream_file, out_dir, method="smolora")) == 0
        lines = (out_dir / "fusion.csv").read_text().splitlines()
        assert lines[0] == "layer,mean_alpha,std_alpha,mean_beta,std_beta"
        rows = read_fusion_csv(out_dir / "fusion.csv")
        assert [r["layer"] for r in rows] == [0, 1, 2, 3]
        for row in rows:
            assert row["mean_alpha"] + row["mean_beta"] == pytest.approx(1.0, abs=1e-9)

    def test_missing_dir_is_io_error(self, tmp_path):
        assert run_cli("report", str(tmp_path / "missing")) == 2


class TestFig4Series:
    def test_series_transposes_accuracy(self, stream_file, tmp_path):
        out_dir = tmp_path / "run"
        assert run_cli(*train_args(stream_file, out_dir)) == 0
        assert run_cli("report", str(out_dir)) == 0
        import csv

        with open(out_dir / "accuracy.csv", newline="") as f:
            acc_rows = list(csv.reader(f))[1:]
        with open(out_dir / "fig4_series.csv", newline="") as f:
            series = list(csv.reader(f))
        assert series[0] == ["task", "stage_1", "stage_2"]
        # Entry (task 1, stage 2) must equal accuracy.csv entry (stage 2, task 1).
        assert series[1][2] == acc_rows[1][1]


_GOOD_RECORD = ('{"content_correct": 1, "format_correct": 0, "instance_index": 0, "stage": 1, '
                '"task_id": 0}\n')


def format_error(capsys, *argv) -> str:
    """Run the CLI, expect exit 3 with one `format error:` line, and return that line."""
    return one_line_error(capsys, 3, "format error: ", *argv)


class TestMalformedRecords:
    @pytest.mark.parametrize(
        "second_line, where",
        [
            (b'{"content_correct": 1, "instance_index": 0, "stage": 1, "task_id": 0}', "(line 2)"),
            (b"[1,2]", "(line 2)"),
            (b'{"content_correct": 1, "format_correct": 0, "instance_index": 0, "stage": "x", '
             b'"task_id": 0}', "(line 2)"),
            (b'{"content_correct": 1, "format_correct": 0, "instance_index": 0, "stage": 1, '
             b'"task_id": 0\xff}', f"(byte offset {2 * len(_GOOD_RECORD) - 2})"),
            (_GOOD_RECORD.strip().encode(), "repeats the record of line 1 (line 2)"),
        ],
        ids=["missing-key", "array", "string-stage", "non-utf8", "repeated"],
    )
    def test_bad_records_exit_3_naming_the_place(self, tmp_path, capsys, second_line, where):
        path = tmp_path / "records.jsonl"
        path.write_bytes(_GOOD_RECORD.encode() + second_line + b"\n")
        err = format_error(capsys, "metrics", "--records", str(path))
        assert "records.jsonl" in err and where in err

    def test_record_past_the_last_stage_exits_3(self, tmp_path, capsys):
        # A stage that scores no task beyond the last one's is no stage of the run.
        path = tmp_path / "records.jsonl"
        path.write_text(_GOOD_RECORD + _GOOD_RECORD.replace('"stage": 1', '"stage": 2'))
        err = format_error(capsys, "metrics", "--records", str(path))
        assert "stage 2 adds the tasks [], not exactly one" in err

    def test_non_utf8_accuracy_exits_3_with_offset(self, tmp_path, capsys):
        path = tmp_path / "accuracy.csv"
        path.write_bytes(b"stage,task_1\n1,5\xe95\n")
        err = format_error(capsys, "metrics", "--accuracy", str(path))
        assert "accuracy.csv" in err and "(byte offset 16)" in err


class TestMalformedRunDirectory:
    @pytest.fixture
    def run_dir(self, stream_file, tmp_path):
        out_dir = tmp_path / "run"
        assert run_cli(*train_args(stream_file, out_dir, method="smolora")) == 0
        return out_dir

    @pytest.mark.parametrize("name", ["manifest.json"])
    def test_json_that_does_not_parse(self, run_dir, capsys, name):
        (run_dir / name).write_text('{\n  "ap": 1.0,\n  oops\n}\n')
        err = format_error(capsys, "report", str(run_dir))
        assert name in err and "(line 3)" in err

    def test_int_too_long_to_convert(self, run_dir, capsys):
        (run_dir / "manifest.json").write_text('{"method": ' + "9" * 5000 + "}\n")
        assert "manifest.json: not valid JSON" in format_error(capsys, "report", str(run_dir))

    def test_records_that_do_not_parse(self, run_dir, capsys):
        path = run_dir / "records.jsonl"
        lines = path.read_text().splitlines()
        lines[2] = lines[2][:-1]
        path.write_text("\n".join(lines) + "\n")
        err = format_error(capsys, "report", str(run_dir))
        assert "records.jsonl" in err and "(line 3)" in err

    def test_missing_records_is_io_error(self, run_dir):
        (run_dir / "records.jsonl").unlink()
        assert run_cli("report", str(run_dir)) == 2

    def test_scores_come_from_the_records_alone(self, run_dir, capsys):
        # A one-stage accuracy.csv and a metrics.json of other figures beside
        # the two-stage run's records: report prints the records' AP, MAP, BWT
        # and MIF and writes their series, as it did before the swap.
        capsys.readouterr()
        assert run_cli("report", str(run_dir)) == 0
        before = capsys.readouterr().out
        series = (run_dir / "fig4_series.csv").read_bytes()
        records = read_records_jsonl(run_dir / "records.jsonl")
        content = accuracy_tables(records)[0]
        want = compute_report(content, records)
        shown = [f"{round_display(v):.2f}" for v in (want.ap, want.map, want.bwt, want.mif)]
        assert "AP={} MAP={} BWT={} MIF={}".format(*shown) in before
        (run_dir / "accuracy.csv").write_text("stage,task_1\n1,99.0\n")
        (run_dir / "metrics.json").write_text('{"map": "none"}\n')
        assert run_cli("report", str(run_dir)) == 0
        assert capsys.readouterr().out == before
        assert (run_dir / "fig4_series.csv").read_bytes() == series
        rows = (run_dir / "fig4_series.csv").read_text().splitlines()
        assert rows[0] == "task,stage_1,stage_2" and len(rows) == 3
        assert rows[1] == f"1,{content.score(1, 1)!r},{content.score(2, 1)!r}"

    def test_fusion_layer_not_an_integer(self, run_dir, capsys):
        path = run_dir / "fusion.csv"
        lines = path.read_text().splitlines()
        lines[2] = "one" + lines[2][1:]
        path.write_text("\n".join(lines) + "\n")
        err = format_error(capsys, "report", str(run_dir))
        assert "fusion.csv" in err and "(line 3)" in err

    def test_fusion_layers_not_numbered_in_order(self, run_dir, capsys):
        path = run_dir / "fusion.csv"
        lines = path.read_text().splitlines()
        rows = [layer + line[1:] for layer, line in zip("007", lines[1:])]
        path.write_text("\n".join([lines[0], *rows]) + "\n")
        err = format_error(capsys, "report", str(run_dir))
        assert "fusion.csv" in err and "layer 0 where layer 1 is due" in err and "(line 3)" in err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name, line, column", [("routing.csv", 3, 4), ("fusion.csv", 2, 2)])
    def test_non_finite_cell(self, run_dir, capsys, cell, name, line, column):
        path = run_dir / name
        lines = path.read_text().splitlines()
        cells = lines[line - 1].split(",")
        cells[column] = cell
        lines[line - 1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        err = format_error(capsys, "report", str(run_dir))
        assert name in err and f"(line {line})" in err and "non-finite" in err

    @pytest.mark.parametrize("name, line, edit", [
        ("routing.csv", 1, lambda row: "garbage"),
        ("routing.csv", 2, lambda row: row + ",0.25"),  # task 0's vu row
        ("fusion.csv", 1, lambda row: row + ",note"),
        ("fusion.csv", 2, lambda row: row + ",99"),  # layer 0's row
    ], ids=["routing-header", "routing-wide-row", "fusion-header", "fusion-wide-row"])
    def test_header_or_row_width_unlike_the_writer(self, run_dir, capsys, name, line, edit):
        path = run_dir / name
        lines = path.read_text().splitlines()
        lines[line - 1] = edit(lines[line - 1])
        path.write_text("\n".join(lines) + "\n")
        err = format_error(capsys, "report", str(run_dir))
        assert name in err and f"(line {line})" in err

    def test_routing_row_too_short(self, run_dir, capsys):
        path = run_dir / "routing.csv"
        lines = path.read_text().splitlines()
        lines[4] = "1"
        path.write_text("\n".join(lines) + "\n")
        err = format_error(capsys, "report", str(run_dir))
        assert "routing.csv" in err and "(line 5)" in err

    @pytest.mark.parametrize("name, line, edit, fault", [
        ("routing.csv", 2, lambda cells: [*cells[:2], "-0.25", "1.25", *["0.0"] * (len(cells) - 4)],
         "non-negative"),
        ("routing.csv", 3, lambda cells: [*cells[:3], "0.75", *cells[4:]], "sum to 1"),
        ("routing.csv", 4, lambda cells: [*cells[:2], "0.5", "0.5", *[""] * (len(cells) - 4)],
         "'vu' has 2 blocks, not 4"),
        ("fusion.csv", 3, lambda cells: [*cells[:2], "-0.001", *cells[3:]], "std_alpha -0.001"),
        ("fusion.csv", 2, lambda cells: [*cells[:3], "1.5", *cells[4:]], "mean_beta 1.5"),
        ("fusion.csv", 2, lambda cells: [cells[0], "-0.5", *cells[2:]], "mean_alpha -0.5"),
    ], ids=["negative-frequency", "sum", "width", "negative-sd", "mean-above-1", "mean-below-0"])
    def test_value_out_of_range(self, run_dir, capsys, name, line, edit, fault):
        path = run_dir / name
        lines = path.read_text().splitlines()
        lines[line - 1] = ",".join(edit(lines[line - 1].split(",")))
        path.write_text("\n".join(lines) + "\n")
        err = format_error(capsys, "report", str(run_dir))
        assert name in err and fault in err and f"(line {line})" in err

    @pytest.mark.parametrize("line, bank", [(3, "if"), (4, "vu")])
    def test_task_without_a_bank(self, run_dir, capsys, line, bank):
        path = run_dir / "routing.csv"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[: line - 1] + lines[line:]) + "\n")
        err = format_error(capsys, "report", str(run_dir))
        task = (line - 2) // 2
        assert f"routing.csv: task {task} has no {bank} row" in err
