"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. The
forgetting experiment (three seeded runs of two methods on the default
six-task stream) is shared by the last three criteria through a module-scoped
fixture and dominates the runtime.
"""

import json
import time

import numpy as np
import pytest
from _oracles import central_diff, rel_err, rule_fd_error, with_grads
from _reference_tables import TABLES

from smolora.benchmark import TaskSplit, generate_stream
from smolora.cli import main as cli_main
from smolora.harness import RunConfig, ToyModel, attach_embeddings, run_cvit
from smolora.lora import (
    init_lora_bank,
    init_molora,
    init_smolora,
    lora_apply,
    molora_forward,
    smolora_forward,
)
from smolora.metrics import AccuracyMatrix, write_accuracy_csv
from smolora.routing import HashingEmbedder, histogram_entropy
from smolora.tensor import FlatParameters, Tape, backward, relu_pool

SEEDS = (1, 2, 3)
# Desk-scale training recipe for the forgetting experiment (plain SGD needs a
# far larger rate and more passes than the full-scale reference defaults).
RECIPE = dict(learning_rate=0.25, batch_size=32, epochs=16)
CHANCE = 100.0 / 8.0  # default streams have 8 content classes


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def forgetting_runs():
    """Three seeded (stream, seqlora report, smolora report) triples."""
    t0 = time.time()
    runs = []
    for seed in SEEDS:
        stream = generate_stream(seed=seed, task_count=6)
        reports = {}
        for method in ("seqlora", "smolora"):
            cfg = RunConfig(method=method, seed=seed, **RECIPE)
            _, reports[method] = run_cvit(cfg, stream)
        runs.append((stream, reports))
    return runs, time.time() - t0


class TestMetricOracle:
    def test_metric_oracle_vs_published_tables(self, tmp_path, capsys):
        t0 = time.time()

        path = tmp_path / "smolora_single.csv"
        write_accuracy_csv(path, AccuracyMatrix(TABLES["smolora_single"]), 6)
        assert cli_main(["metrics", "--accuracy", str(path)]) == 0
        smo = json.loads(capsys.readouterr().out)

        path = tmp_path / "seqlora_single.csv"
        write_accuracy_csv(path, AccuracyMatrix(TABLES["seqlora_single"]), 6)
        assert cli_main(["metrics", "--accuracy", str(path)]) == 0
        seq = json.loads(capsys.readouterr().out)

        elapsed = time.time() - t0
        ok = (
            abs(smo["ap"] - 83.44) <= 0.01
            and abs(smo["map"] - 84.85) <= 0.01
            and abs(smo["bwt"] - (-3.23)) <= 0.01
            # Documented exclusion: the printed final-row VQAv2 value (64.37)
            # differs from the headline AP's implied 64.61, so AP is matched
            # at the looser +/-0.25 envelope; BWT never reads that cell.
            and abs(seq["ap"] - 46.21) <= 0.25
            and abs(seq["bwt"] - (-48.10)) <= 0.25
            and elapsed < 1.0
        )
        _report(
            "metric oracle vs published tables",
            ok,
            f"smolora ap={smo['ap']:.4f} map={smo['map']:.4f} bwt={smo['bwt']:.4f}; "
            f"seqlora ap={seq['ap']:.4f} bwt={seq['bwt']:.4f}; {elapsed:.3f}s",
        )


class TestGradientSuite:
    """Every backward rule of a training step, and one whole step, against central differences.

    A rule is checked on <G, f(x)> for a fixed random G: the parameter
    gradients it writes and the input gradient it returns.
    """

    h = 1e-5
    bound = 1e-4

    def _step_check(self, rng):
        # A whole step of the smallest model: the flat gradient buffer
        # against the batch's mean loss, over every trainable array, each
        # bank block by block.
        stream = generate_stream(4, task_count=2, train_per_task=6, test_per_task=4, d_v=6,
                                 class_count=4)
        attach_embeddings(stream, HashingEmbedder(8))
        batch = stream[0][1]
        cfg = RunConfig(method="smolora", embed_dim=8, hidden=8, rank=2, vu_blocks=3,
                        if_blocks=3, top_k=2, seed=4)
        model = ToyModel(cfg, 6, 4, 3)
        params = with_grads(model.params, model.named_matrices())
        for m in params:
            m.a[...] = rng.normal(0.0, 0.5, size=m.a.shape)
        tape = Tape()
        backward(tape, model.loss(batch, *model.forward(batch, tape), tape))
        assert len(tape._ops) == 6

        def loss():
            return model.loss(batch, *model.forward(batch))

        worst, n = 0.0, 0
        for m in params:
            grad = m.grad.copy()
            for _ in range(3):
                i, j = int(rng.integers(m.a.shape[0])), int(rng.integers(m.a.shape[1]))
                worst = max(worst, rel_err(grad[i, j], central_diff(loss, m.a, i, j, self.h)))
                n += 1
        return worst, n

    def test_gradient_suite_all_layer_types(self):
        t0 = time.time()
        rng = np.random.default_rng(8)
        results = {}

        def layer_check(name, layer, run, x, rows):
            # Every entry of each array by checkpoint name, block by block.
            params = with_grads(FlatParameters(layer.trainable()), layer.named())
            G = rng.normal(size=(rows, x.shape[1]))
            results[name] = rule_fd_error(run, params, x, G)

        def fill_blocks(layer):
            for name, a in layer.named().items():
                if name.endswith(".B"):
                    a[...] = rng.normal(size=a.shape)

        # Plain LoRA: one block behind a frozen base.
        bank = init_lora_bank(12, 10, 1, 5, rng)
        bank.B.a[...] = rng.normal(size=bank.B.shape)
        w0 = rng.normal(size=(10, 12))
        x = rng.normal(size=(12, 3))
        params = [bank.A, bank.B]
        FlatParameters(params)
        results["seqlora"] = rule_fd_error(
            lambda tape: lora_apply(bank, x, w0, tape), params, x, rng.normal(size=(10, 3))
        )

        # Token-wise mixture, and the separable mixture over two instances
        # of two columns, at top-1 and top-2.
        for top_k in (1, 2):
            mo = init_molora(d=6, k_out=5, N=4, r=2, top_k=top_k, seed=9)
            fill_blocks(mo)
            x_mo = rng.normal(size=(6, 3))
            layer_check(f"molora@{top_k}", mo, lambda tape: molora_forward(mo, x_mo, tape), x_mo, 5)

            smo = init_smolora(d=8, k_out=8, M=3, N_minus_M=3, r=2, e=6, top_k=top_k, seed=10)
            fill_blocks(smo)
            x_smo = rng.normal(size=(8, 4))
            emb = rng.normal(size=(6, 2))
            emb = emb / np.linalg.norm(emb, axis=0)
            layer_check(f"smolora@{top_k}", smo,
                        lambda tape: smolora_forward(smo, x_smo, emb, tape), x_smo, 8)

        # ReLU with the pooling, over three instances of four columns.
        x_pool = rng.normal(size=(10, 12))
        results["relu+pool"] = rule_fd_error(
            lambda tape: relu_pool(x_pool, 3, tape), [], x_pool, rng.normal(size=(10, 3))
        )

        # The loss: the batch mean of both heads' cross-entropies, whose
        # rule returns the gradients of the two logit matrices.
        batch = TaskSplit(visual=np.zeros((1, 12)), texts=np.full(12, "", dtype=object),
                          answer_class=np.array([3, 0, 9, 3, 5, 1, 7, 2, 8, 4, 6, 0]),
                          format_id=np.array([0, 5, 2, 2, 1, 4, 3, 0, 5, 1, 2, 4]),
                          task_id=np.zeros(12, dtype=np.int64))
        content, fmt = rng.normal(size=(10, 12)), rng.normal(size=(6, 12))
        tape = Tape()
        ToyModel.loss(batch, content, fmt, tape)
        grads = tape._ops[-1](1.0)
        worst, n = 0.0, 0
        for m, grad in zip((content, fmt), grads):
            for i in range(m.shape[0]):
                for j in range(m.shape[1]):
                    fd = central_diff(lambda: ToyModel.loss(batch, content, fmt), m, i, j, self.h)
                    worst = max(worst, rel_err(grad[i, j], fd))
                    n += 1
        results["loss"] = (worst, n)

        results["whole step"] = self._step_check(rng)

        elapsed = time.time() - t0
        ok = elapsed < 30.0 and all(
            worst < self.bound and n >= 100 for worst, n in results.values()
        )
        detail = "; ".join(
            f"{k}: n={n} max_rel_err={worst:.2e}" for k, (worst, n) in results.items()
        )
        _report("gradient suite (FD, h=1e-5)", ok, f"{detail}; {elapsed:.1f}s")


class TestDegeneracySuite:
    def test_degeneracy_suite(self):
        rng = np.random.default_rng(12)

        # (a) single-block mixture equals plain LoRA on 100 random inputs.
        mo = init_molora(d=8, k_out=6, N=1, r=3, top_k=1, seed=13)
        mo.bank.B.a[...] = rng.normal(size=mo.bank.B.shape)
        max_dev = 0.0
        for _ in range(100):
            x = rng.normal(size=(8, 2))
            plain = mo.W0 @ x + mo.bank.B.a @ (mo.bank.A.a @ x)
            max_dev = max(max_dev, float(np.max(np.abs(molora_forward(mo, x) - plain))))
        a_ok = max_dev <= 1e-12

        # (b) zero-initialized separable layer is exactly the base map.
        b_ok = True
        for seed in range(10):
            smo = init_smolora(d=8, k_out=8, M=4, N_minus_M=4, r=2, e=6, top_k=1, seed=seed)
            x = rng.normal(size=(8, 3))
            emb = rng.normal(size=(6, 1))
            y = smolora_forward(smo, x, emb)
            b_ok = b_ok and np.array_equal(y, smo.W0 @ x)

        # (c) top-1 gates are one-hot; (d) fusion weights sum to 1 everywhere.
        c_ok = d_ok = True
        smo = init_smolora(d=8, k_out=8, M=4, N_minus_M=4, r=2, e=6, top_k=1, seed=21)
        for name, a in smo.named().items():
            if name.endswith(".B"):
                a[...] = rng.normal(size=a.shape)
        for _ in range(50):
            x = rng.normal(size=(8, 3))
            emb = rng.normal(size=(6, 1))
            routing = []
            smolora_forward(smo, x, emb, routing=routing)
            [r] = routing
            for gate in (r.vu_gate, r.if_gate):
                c_ok = c_ok and np.count_nonzero(gate) == 1 and gate.max() == 1.0
            d_ok = d_ok and np.abs(r.alpha + r.beta - 1.0).max() <= 1e-12

        _report(
            "degeneracy suite",
            a_ok and b_ok and c_ok and d_ok,
            f"molora-vs-lora max_dev={max_dev:.1e}; zero-init exact={b_ok}; "
            f"top1 one-hot={c_ok}; alpha+beta=1={d_ok}",
        )


class TestDualForgetting:
    def test_dual_forgetting_ordering(self, forgetting_runs):
        runs, elapsed = forgetting_runs
        seq_bwt = [r["seqlora"].metrics.bwt for _, r in runs]
        smo_bwt = [r["smolora"].metrics.bwt for _, r in runs]
        seq_mif = [r["seqlora"].metrics.mif for _, r in runs]
        smo_mif = [r["smolora"].metrics.mif for _, r in runs]

        a_ok = float(np.mean(seq_bwt)) < -5.0
        b_ok = float(np.mean(smo_bwt)) - float(np.mean(seq_bwt)) >= 5.0
        c_ok = float(np.mean(smo_mif)) - float(np.mean(seq_mif)) >= 5.0

        # Precondition for the comparison to mean anything: every stage of
        # every run actually learned its task (diagonal above chance + 20).
        diag_ok = True
        for _, reports in runs:
            for rep in reports.values():
                diag = [rep.content.score(k, k) for k in range(1, 7)]
                diag_ok = diag_ok and min(diag) >= CHANCE + 20.0
        time_ok = elapsed < 600.0

        _report(
            "dual-forgetting reproduction (3 seeds)",
            a_ok and b_ok and c_ok and diag_ok and time_ok,
            f"seqlora BWT={np.round(seq_bwt, 2).tolist()} mean={np.mean(seq_bwt):.2f}; "
            f"smolora BWT={np.round(smo_bwt, 2).tolist()} mean={np.mean(smo_bwt):.2f}; "
            f"seqlora MIF={np.round(seq_mif, 2).tolist()}; "
            f"smolora MIF={np.round(smo_mif, 2).tolist()}; "
            f"stages learn={diag_ok}; {elapsed:.0f}s",
        )


class TestRoutingSpecialization:
    def test_routing_specialization(self, forgetting_runs):
        runs, _ = forgetting_runs
        stream, reports = runs[0]
        hist = reports["smolora"].routing_hist
        formats = {spec.task_id: spec.format_id for spec, _, _ in stream}

        # Dominant IF block per format family (tasks of a family pooled).
        fam_freq: dict[int, list] = {}
        for task_id, banks in hist.items():
            fam_freq.setdefault(formats[task_id], []).append(banks["if"])
        dominants = {
            fam: int(np.argmax(np.mean(rows, axis=0))) for fam, rows in fam_freq.items()
        }
        distinct_ok = len(set(dominants.values())) >= 2

        within = float(np.mean([histogram_entropy(b["if"]) for b in hist.values()]))
        pooled = histogram_entropy(np.mean([b["if"] for b in hist.values()], axis=0))
        entropy_ok = pooled - within >= 0.2

        _report(
            "routing specialization (IF bank)",
            distinct_ok or entropy_ok,
            f"dominant blocks per format family={dominants}; "
            f"within={within:.3f} pooled={pooled:.3f} gap={pooled - within:.3f} nats",
        )


class TestDeterminism:
    def test_byte_identical_repeat(self, tmp_path):
        def pipeline(root):
            root.mkdir()
            stream = root / "stream.jsonl"
            assert (
                cli_main(
                    ["generate", "--seed", "5", "--tasks", "3", "--mode", "multi",
                     "--out", str(stream), "--train-per-task", "64",
                     "--test-per-task", "32", "--dv", "16", "--classes", "4"]
                )
                == 0
            )
            out = root / "run"
            assert (
                cli_main(
                    ["train", "--stream", str(stream), "--out-dir", str(out),
                     "--method", "smolora", "--seed", "5", "--embed-dim", "16",
                     "--hidden", "16", "--rank", "4", "--lr", "0.5",
                     "--batch-size", "16", "--epochs", "2"]
                )
                == 0
            )
            return out

        d1 = pipeline(tmp_path / "first")
        d2 = pipeline(tmp_path / "second")
        same_metrics = (d1 / "metrics.json").read_bytes() == (d2 / "metrics.json").read_bytes()
        same_accuracy = (d1 / "accuracy.csv").read_bytes() == (d2 / "accuracy.csv").read_bytes()
        _report(
            "determinism (byte-identical metrics.json and accuracy.csv)",
            same_metrics and same_accuracy,
            f"metrics.json equal={same_metrics}, accuracy.csv equal={same_accuracy}",
        )
