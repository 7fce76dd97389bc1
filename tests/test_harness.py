import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from _oracles import (
    central_diff,
    dict_mif,
    load_checkpoint,
    per_instance_input,
    per_instance_records,
    per_task_fusion_stats,
    percentages,
    rel_err,
    stage_records,
    trace_routing,
    with_grads,
    write_dict_records,
)
from smolora import harness
from smolora.benchmark import TaskSplit, generate_stream, read_stream, write_stream
from smolora.errors import ConfigError, ContractError, FormatError, ShapeError, StageError
from smolora.harness import (
    METHODS,
    RunConfig,
    ToyModel,
    attach_embeddings,
    evaluate_task,
    run_cvit,
    save_checkpoint,
    train_stage,
)
from smolora.metrics import AccuracyMatrix, Records, write_records_jsonl
from smolora.routing import HashingEmbedder, LayerRouting
from smolora.tensor import Tape, backward, relu_pool, sgd_step


def small_stream(seed=0, tasks=2, train=48, test=32):
    return generate_stream(
        seed, task_count=tasks, train_per_task=train, test_per_task=test, d_v=8, class_count=4
    )


def small_config(method="seqlora", **kw):
    defaults = dict(
        method=method,
        embed_dim=16,
        hidden=16,
        rank=4,
        learning_rate=0.8,
        batch_size=16,
        epochs=2,
        seed=0,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


def prepared(seed=0, tasks=2, e=16, **kw):
    stream = small_stream(seed, tasks, **kw)
    attach_embeddings(stream, HashingEmbedder(e))
    return stream


class TestRunConfig:
    def test_defaults_match_reference_recipe(self):
        cfg = RunConfig()
        assert cfg.vu_blocks == 4 and cfg.if_blocks == 4
        assert cfg.rank == 16
        assert cfg.top_k == 1
        assert cfg.learning_rate == 1e-4
        assert cfg.batch_size == 64
        assert cfg.epochs == 1

    def test_invalid_method(self):
        with pytest.raises(ConfigError):
            RunConfig(method="adapterfusion")

    def test_top_k_bound(self):
        with pytest.raises(ConfigError):
            RunConfig(vu_blocks=2, if_blocks=4, top_k=3)


class TestToyModel:
    @pytest.mark.parametrize("method", ["seqlora", "molora", "smolora"])
    def test_fresh_model_logits_are_base_only(self, method):
        # All adapters start at zero, so heads see pure frozen-base features.
        stream = prepared()
        cfg = small_config(method)
        model = ToyModel(cfg, d_v=8, class_count=4, format_count=3)
        one = stream[0][1].take([0])
        content, fmt = model.forward(one)
        x, _ = model._input(one)
        h1 = model.proj.W0 @ x
        h2 = np.maximum(model.hidden.W0 @ h1, 0.0)
        pooled = h2.mean(axis=1, keepdims=True)
        assert np.allclose(content, model.head_content.W0 @ pooled, atol=1e-12)
        assert np.allclose(fmt, model.head_format.W0 @ pooled, atol=1e-12)

    def test_same_seed_same_model(self):
        cfg = small_config("smolora")
        a = ToyModel(cfg, 8, 4, 3).named_matrices()
        b = ToyModel(cfg, 8, 4, 3).named_matrices()
        assert a.keys() == b.keys()
        for name in a:
            assert np.array_equal(a[name], b[name])

    @pytest.mark.parametrize(
        "method, adapter",
        [
            ("seqlora", ["lora.A", "lora.B"]),
            ("molora", ["router", "block0.A", "block0.B", "block1.A", "block1.B", "block2.A", "block2.B"]),
            ("smolora", ["R_vu", "R_if", "I_vu", "I_if", "vu0.A", "vu0.B", "vu1.A", "vu1.B", "if0.A", "if0.B"]),
        ],
    )
    def test_checkpoint_layout(self, method, adapter):
        # Checkpoints are written in this order, and readers of model.ckpt
        # parse it; the arrays other than the frozen ones are views of the
        # flat parameters, which they cover exactly.
        model = ToyModel(small_config(method, vu_blocks=2, if_blocks=1), 8, 4, 3)
        names = list(model.named_matrices())
        assert names == ["instr_proj"] + [
            f"{layer}.{key}"
            for layer in ("proj", "hidden", "head_content", "head_format")
            for key in ["W0"] + adapter
        ]
        named = model.named_matrices()
        frozen = [n for n in names if n == "instr_proj" or n.endswith(".W0")]
        assert not any(np.shares_memory(named[n], model.params.flat) for n in frozen)
        adapter = [named[n] for n in names if n not in frozen]
        assert all(np.shares_memory(a, model.params.flat) for a in adapter)
        assert sum(a.size for a in adapter) == model.params.flat.size

    def test_head_rank_is_clamped(self):
        cfg = small_config("seqlora", rank=16)
        model = ToyModel(cfg, 8, 4, 3)
        assert model.head_content.layer.bank.rank == 2  # min(16, 4) // 2
        assert model.head_format.layer.bank.rank == 1

    def test_missing_embedding_rejected(self):
        stream = small_stream()
        model = ToyModel(small_config(), 8, 4, 3)
        with pytest.raises(ContractError):
            model.forward(stream[0][1].take([0]))

    def test_precomputed_embeddings_are_kept_and_the_rest_filled(self, tmp_path):
        # A stream file may carry a vector on some records only: the others
        # read as NaN columns, which a forward rejects until they are filled.
        stream = small_stream()
        train = stream[0][1]
        train.embedding = np.full((16, len(train)), np.nan)
        train.embedding[:, ::2] = np.random.default_rng(5).normal(size=(16, (len(train) + 1) // 2))
        path = tmp_path / "stream.jsonl"
        write_stream(path, stream, {"seed": 0})
        _, back = read_stream(path)
        got = back[0][1]
        assert np.isnan(got.embedding[:, 1::2]).all()
        with pytest.raises(ContractError):
            ToyModel(small_config(), 8, 4, 3).forward(got)
        embedder = HashingEmbedder(16)
        attach_embeddings(back, embedder)
        assert np.array_equal(got.embedding[:, ::2], train.embedding[:, ::2])
        for j in range(1, len(got), 2):
            assert np.array_equal(got.embedding[:, j : j + 1], embedder.embed(got.texts[j]))

    def test_cancelling_instruction_is_format_error_naming_it(self):
        stream = small_stream()
        test = stream[1][2]
        test.texts = test.texts.copy()
        test.texts[3] = "alpha beta"  # token signs cancel at dimension 1
        with pytest.raises(FormatError) as info:
            attach_embeddings(stream, HashingEmbedder(1))
        message = str(info.value)
        assert "task 1 test split" in message and "'alpha beta'" in message
        assert "embed_dim 1" in message


class TestTrainStage:
    def test_empty_train_set_rejected(self):
        model = ToyModel(small_config(), 8, 4, 3)
        with pytest.raises(ValueError):
            train_stage(model, small_stream()[0][1].take([]), small_config())

    def test_zero_epochs_leaves_model_unchanged(self):
        stream = prepared()
        cfg = small_config(epochs=0)
        model = ToyModel(cfg, 8, 4, 3)
        before = {k: a.copy() for k, a in model.named_matrices().items()}
        assert train_stage(model, stream[0][1], cfg) == []
        for k, a in model.named_matrices().items():
            assert np.array_equal(before[k], a)

    @pytest.mark.parametrize("method", ["seqlora", "molora", "smolora"])
    def test_base_weights_frozen(self, method):
        stream = prepared()
        cfg = small_config(method)
        model = ToyModel(cfg, 8, 4, 3)
        frozen_before = {k: a.copy() for k, a in _frozen(model).items()}
        train_stage(model, stream[0][1], cfg)
        for k, a in _frozen(model).items():
            assert np.array_equal(frozen_before[k], a), f"{k} changed"

    def test_stage_learns_its_task(self):
        stream = prepared()
        cfg = small_config("seqlora", epochs=8)
        model = ToyModel(cfg, 8, 4, 3)
        train_stage(model, stream[0][1], cfg)
        content_acc, _ = percentages(evaluate_task(model, stream[0][2])[0])
        assert content_acc >= 25.0 + 20.0  # chance for 4 classes plus margin

    def test_learning_rate_is_a_half_cosine_restarted_each_stage(self, monkeypatch):
        # 40 instances in batches of 8 over 2 epochs: 10 steps per stage.
        rates = []

        def record(params, rate):
            rates.append(rate)
            sgd_step(params, rate)

        monkeypatch.setattr(harness, "sgd_step", record)
        stream = prepared(train=40)
        cfg = small_config(learning_rate=0.3, batch_size=8, epochs=2)
        model = ToyModel(cfg, 8, 4, 3)
        for k in range(2):
            train_stage(model, stream[k][1], cfg, stage_index=k)
        assert len(rates) == 20
        for stage in (rates[:10], rates[10:]):
            assert stage[0] == 0.3
            assert stage == [0.3 * 0.5 * (1.0 + math.cos(math.pi * (i / 10))) for i in range(10)]
            assert all(a > b > 0.0 for a, b in zip(stage, stage[1:]))

    def test_loss_finite_and_median_non_increasing(self):
        # First 10 steps at default generation scale, median across 5 seeds.
        all_losses = []
        for seed in range(5):
            stream = generate_stream(seed, task_count=2)
            attach_embeddings(stream, HashingEmbedder(64))
            cfg = RunConfig(method="seqlora", learning_rate=0.5, epochs=2, seed=seed)
            model = ToyModel(cfg, 32, 8, 3)
            losses = train_stage(model, stream[0][1], cfg)[:10]
            assert len(losses) == 10
            assert all(np.isfinite(losses))
            all_losses.append(losses)
        med = np.median(np.array(all_losses), axis=0)
        assert all(b <= a + 1e-9 for a, b in zip(med, med[1:]))


def _frozen(model):
    """The model's frozen arrays by checkpoint name: the instruction projection and each W0."""
    return {k: a for k, a in model.named_matrices().items() if k == "instr_proj" or k.endswith(".W0")}


def _live_model_and_batch(method):
    """A model whose B matrices are nonzero, and a batch of six instances of two formats."""
    stream = prepared()
    assert stream[0][0].format_id != stream[1][0].format_id
    model = ToyModel(small_config(method), 8, 4, 3)
    rng = np.random.default_rng(3)
    for name, a in model.named_matrices().items():
        if name.endswith(".B"):
            a[...] = rng.normal(size=a.shape)
    return model, TaskSplit.concat([stream[0][1].take(np.arange(3)), stream[1][1].take(np.arange(3))])


def _backward(model, batch, routing=None):
    """One backward sweep of the batch's mean loss; the gradients land in `model.params.grad`."""
    tape = Tape()
    content, fmt = model.forward(batch, tape, routing)
    backward(tape, model.loss(batch, content, fmt, tape))
    return content, fmt


def _rel_close(got, want, rel=1e-12):
    return np.abs(got - want).max() <= rel * np.abs(want).max()


class TestBatchedForward:
    @pytest.mark.parametrize("method", ["seqlora", "molora", "smolora"])
    def test_batch_matches_sum_of_single_instances(self, method):
        model, batch = _live_model_and_batch(method)
        # The batch loss is the mean of the instances' losses, so n times
        # its gradient is the sum of theirs, block by block.
        params = with_grads(model.params, model.named_matrices())
        content, fmt = _backward(model, batch)
        grads = [len(batch) * p.grad for p in params]

        summed = [np.zeros_like(p.a) for p in params]
        for j in range(len(batch)):
            c1, f1 = _backward(model, batch.take([j]))
            assert _rel_close(content[:, j : j + 1], c1)
            assert _rel_close(fmt[:, j : j + 1], f1)
            for total, p in zip(summed, params):
                total += p.grad
        for grad, total in zip(grads, summed):
            if np.any(total != 0.0):
                assert _rel_close(grad, total)
            else:
                assert np.all(grad == 0.0)

    @pytest.mark.parametrize("method", ["smolora", "molora"])
    def test_block_no_instance_selected_gets_zero_gradient(self, method):
        model, batch = _live_model_and_batch(method)
        routing = []
        _backward(model, batch, routing)
        n = len(batch)
        if method == "smolora":
            banks = []
            assert len(routing) == len(model.layers)  # one record per layer, in order
            for layer, r in zip(model.layers, routing):
                assert r.vu_gate.shape[1] == n
                for bank, gate in ((layer.layer.vu_bank, r.vu_gate),
                                   (layer.layer.if_bank, r.if_gate)):
                    banks.append((bank, set(np.flatnonzero(gate.any(axis=1)).tolist())))
        else:
            # Top-1 token-wise routing: each column picks its largest router logit.
            x, emb = model._input(batch)
            h1 = model.proj.forward(x, emb)
            pooled = relu_pool(model.hidden.forward(h1, emb), n)
            inputs = [x, h1, pooled, pooled]
            banks = [
                (layer.layer.bank, set(np.argmax(layer.layer.router.a @ inp, axis=0)))
                for layer, inp in zip(model.layers, inputs)
            ]
        unselected = 0
        for bank, chosen in banks:
            for i in range(len(bank)):
                block = slice(i * bank.rank, (i + 1) * bank.rank)
                if i in chosen:
                    assert np.any(bank.B.grad[:, block] != 0.0)
                else:
                    unselected += 1
                    assert np.all(bank.A.grad[block] == 0.0)
                    assert np.all(bank.B.grad[:, block] == 0.0)
        assert unselected > 0


class TestBankMajorStorage:
    @pytest.mark.parametrize("method", ["smolora", "molora"])
    def test_block_no_instance_selects_keeps_B_at_positive_zero(self, method):
        # A bank's gradient is written whole, so an unselected block's share
        # of it may be -0.0; its B must still stay +0.0 bit for bit. Each
        # router's last row copies its first, so the two tie on every input
        # and the last block never wins (ties go to the lower row, and
        # routers do not train at top-1).
        stream = prepared()
        cfg = small_config(method)
        model = ToyModel(cfg, 8, 4, 3)
        banks = []
        for adapter in model.layers:
            layer = adapter.layer
            if method == "molora":
                pairs = [(layer.router, layer.bank)]
            else:
                pairs = [(layer.R_vu, layer.vu_bank), (layer.R_if, layer.if_bank)]
            for router, bank in pairs:
                router.a[-1] = router.a[0]
                banks.append(bank)
        train_stage(model, stream[0][1], cfg)
        for bank in banks:
            assert np.any(bank.B.a != 0.0)
            B = bank.B.a[:, -bank.rank :]
            assert np.all(B == 0.0) and not np.signbit(B).any()
            assert np.shares_memory(B, model.params.flat)


class TestTopOneRouting:
    def test_routers_get_exactly_zero_gradient_at_top_one(self):
        # A softmax over one kept logit is constantly 1, so at top-1 no
        # router gradient reaches R_vu, R_if or the molora router, and
        # routing stays at its random initialization.
        stream = prepared()
        train, batch = stream[0][1], stream[1][1].take(np.arange(6))
        for method in ("molora", "smolora"):
            config = small_config(method)
            assert config.top_k == 1
            model = ToyModel(config, 8, 4, 3)
            if method == "molora":
                routers = [layer.layer.router for layer in model.layers]
            else:
                routers = [r for layer in model.layers for r in (layer.layer.R_vu, layer.layer.R_if)]
            before = [r.a.copy() for r in routers]
            train_stage(model, train, config)
            assert all(np.array_equal(r.a, b) for r, b in zip(routers, before))
            _backward(model, batch)
            assert np.any(model.params.grad != 0.0)
            for router in routers:
                assert np.all(router.grad == 0.0)


class TestWholeStep:
    @pytest.mark.parametrize("method", METHODS)
    def test_flat_gradient_matches_finite_differences(self, method):
        # One step's six rules fill the whole gradient buffer; every
        # trainable array's view of it, each block's, matches central
        # differences of the batch's mean loss.
        model, batch = _live_model_and_batch(method)
        content, fmt = _backward(model, batch)
        rng = np.random.default_rng(5)

        def loss():
            return model.loss(batch, *model.forward(batch))

        worst = 0.0
        for m in with_grads(model.params, model.named_matrices()):
            grad = m.grad.copy()
            for _ in range(3):
                i, j = int(rng.integers(m.a.shape[0])), int(rng.integers(m.a.shape[1]))
                worst = max(worst, rel_err(grad[i, j], central_diff(loss, m.a, i, j)))
        assert worst < 1e-4


class TestFiniteness:
    @pytest.mark.parametrize("method", METHODS)
    def test_overflowing_blocks_fail_the_taped_forward(self, method):
        model, batch = _live_model_and_batch(method)
        for name, a in model.proj.named_matrices().items():
            if name.endswith((".A", ".B")):
                a[...] = 1e200
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ShapeError):
            model.forward(batch, Tape())


class _OracleModel:
    """Stand-in model that answers every instance perfectly."""

    def __init__(self, class_count=4, format_count=3):
        self.class_count = class_count
        self.format_count = format_count

    def forward(self, batch, tape=None, routing=None):
        columns = np.arange(len(batch))
        content = np.zeros((self.class_count, len(batch)))
        fmt = np.zeros((self.format_count, len(batch)))
        content[batch.answer_class, columns] = 1.0
        fmt[batch.format_id, columns] = 1.0
        return content, fmt


class _ConstantModel:
    """Stand-in model that always answers class 0 / format 0."""

    def forward(self, batch, tape=None, routing=None):
        content = np.zeros((4, len(batch)))
        content[0, :] = 1.0
        fmt = np.zeros((3, len(batch)))
        fmt[0, :] = 1.0
        return content, fmt


class TestEvaluateTask:
    def test_constant_model_scores_chance_on_balanced_task(self):
        stream = small_stream(test=32)  # 32 samples over 4 classes, balanced
        content_acc, _ = percentages(evaluate_task(_ConstantModel(), stream[0][2])[0])
        assert content_acc == pytest.approx(25.0)

    def test_oracle_model_scores_100(self):
        stream = small_stream()
        correct, _ = evaluate_task(_OracleModel(), stream[0][2])
        c, f = percentages(correct)
        assert c == 100.0 and f == 100.0
        assert (correct == 1).all()

    def test_deterministic_and_thread_invariant(self):
        stream = prepared()
        cfg = small_config("smolora")
        model = ToyModel(cfg, 8, 4, 3)
        train_stage(model, stream[0][1], cfg)
        a, _ = evaluate_task(model, stream[0][2])
        b, _ = evaluate_task(model, stream[0][2])
        assert percentages(a) == percentages(b) and np.array_equal(a, b)
        assert a.shape == (2, len(stream[0][2]))

    def test_empty_test_set_rejected(self):
        with pytest.raises(ValueError):
            evaluate_task(_OracleModel(), small_stream()[0][2].take([]))


class TestUntapedForward:
    """An untaped forward keeps nothing for a backward and writes into nothing it was given."""

    @pytest.mark.parametrize("n", [1, 4, 96])
    @pytest.mark.parametrize("top_k", [1, 2])
    @pytest.mark.parametrize("method", METHODS)
    def test_same_bits_as_taped_and_nothing_given_is_written(self, method, top_k, n):
        stream = prepared(train=1, test=48)
        split = TaskSplit.concat([stream[0][2], stream[1][2]]).take(np.arange(n))
        model = ToyModel(small_config(method, top_k=top_k), 8, 4, 3)
        rng = np.random.default_rng(n + top_k)
        for name, a in model.named_matrices().items():
            if name.endswith(".B"):
                a[...] = rng.normal(size=a.shape)

        def given():
            return [a.copy() for a in (model.params.flat, split.visual, split.embedding,
                                       split.answer_class, split.format_id, split.task_id)]

        def outputs(content, fmt, routing):
            return [content, fmt] + [a for r in routing for a in r[1:]]

        before = given()
        routing = []
        got = outputs(*model.forward(split, routing=routing), routing)
        held = [a.copy() for a in got]
        taped_routing = []
        want = outputs(*model.forward(split, Tape(), taped_routing), taped_routing)
        assert len(routing) == len(taped_routing) == (4 if method == "smolora" else 0)
        assert len(got) == len(want)
        for have, ref in zip(got, want):
            assert np.array_equal(have, ref)
        model.forward(split, routing=[])
        for have, ref in zip(got + given(), held + before):
            assert np.array_equal(have, ref)


class TestEvaluationAllocations:
    """The tracemalloc peak of one evaluation forward, in hidden activations (hidden x 2n
    float64s): the untaped kernels allocate only what they return."""

    @pytest.mark.parametrize("method, budget", [("seqlora", 4.25), ("molora", 6.4), ("smolora", 5.45)])
    def test_peak_of_a_96_instance_evaluation(self, method, budget):
        stream = generate_stream(1, task_count=2, train_per_task=1, test_per_task=96)
        attach_embeddings(stream, HashingEmbedder(64))
        split = stream[0][2]
        config = RunConfig(method=method)
        model = ToyModel(config, 32, 8, 3)
        evaluate_task(model, split)  # first-call set-up is not the forward's
        tracemalloc.start()
        try:
            evaluate_task(model, split)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (config.hidden * 2 * len(split) * 8) <= budget


def _joined(per_task):
    """The routing of one forward per task, joined per layer, and each task's
    slice of its columns, tasks in the given order."""
    layers = [LayerRouting(*map(np.hstack, zip(*records))) for records in zip(*per_task.values())]
    sizes = [records[0].vu_gate.shape[1] for records in per_task.values()]
    offsets = np.cumsum([0, *sizes]).tolist()
    return layers, {t: slice(a, b) for t, a, b in zip(per_task, offsets, offsets[1:])}


def _trained_smolora():
    stream = prepared()
    cfg = small_config("smolora")
    model = ToyModel(cfg, 8, 4, 3)
    train_stage(model, stream[0][1], cfg)
    return model


class TestColumnarPaths:
    """The array paths against per-instance references, bit for bit."""

    @pytest.mark.parametrize("method", METHODS)
    def test_input_matches_per_instance_assembly(self, method):
        model, batch = _live_model_and_batch(method)
        assert len(set(batch.task_id.tolist())) == 2
        embedder = HashingEmbedder(16)
        want_x, want_emb = per_instance_input(
            model.instr_proj,
            [batch.visual[:, j] for j in range(len(batch))],
            [embedder.embed(text) for text in batch.texts],
        )
        x, emb = model._input(batch)
        assert np.array_equal(x, want_x)
        assert np.array_equal(emb, want_emb)

    @pytest.mark.parametrize("make_model", [_trained_smolora, _OracleModel, _ConstantModel])
    def test_records_match_per_instance_records(self, make_model):
        model = make_model()
        _, batch = _live_model_and_batch("smolora")
        for split in (batch, prepared()[1][2]):
            content, fmt = model.forward(split)
            labels = list(zip(split.task_id.tolist(), split.answer_class.tolist(), split.format_id.tolist()))
            correct, _ = evaluate_task(model, split)
            c_acc, f_acc = percentages(correct)
            want_c, want_f, want = per_instance_records(content, fmt, labels)
            assert (c_acc, f_acc) == (want_c, want_f)
            assert stage_records(1, split.task_id.tolist(), correct) == [{"stage": 1, **r} for r in want]
            assert correct.dtype == np.int64

    @pytest.mark.parametrize("method", METHODS)
    def test_run_records_match_dict_assembly(self, monkeypatch, tmp_path, method):
        # Eleven tasks, so that stage, task and index values reach two digits.
        # Eight 12-instance test splits fill a window, so stages 9 to 11 run two.
        evaluated = []

        def evaluate(model, test_set):
            out = evaluate_task(model, test_set)
            evaluated.append((test_set.task_id.tolist(), out[0]))
            return out

        monkeypatch.setattr(harness, "evaluate_task", evaluate)
        _, report = run_cvit(small_config(method, epochs=1), prepared(tasks=11, train=8, test=12))
        windows = [(k, list(range(k))) for k in range(1, 9)] + [
            (k, tasks) for k in range(9, 12) for tasks in (list(range(8)), list(range(8, k)))]
        assert [tasks for tasks, _ in evaluated] == [[t for t in w for _ in range(12)] for _, w in windows]
        dicts = [r for (k, window), (_, ok) in zip(windows, evaluated) for i, t in enumerate(window)
                 for r in stage_records(k, [t] * 12, ok[:, 12 * i : 12 * (i + 1)])]
        write_records_jsonl(tmp_path / "got.jsonl", report.records)
        write_dict_records(tmp_path / "want.jsonl", dicts)
        assert (tmp_path / "got.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()
        assert report.metrics.mif == dict_mif(dicts)
        # Both accuracy tables are the records counted per (stage, task).
        counts = {}  # (stage, task) -> [samples, content hits, format hits]
        columns = ("stage", "task_id", "content_correct", "format_correct")
        for stage, task, c, f in zip(*(getattr(report.records, key).tolist() for key in columns)):
            n = counts.setdefault((stage, task), [0, 0, 0])
            n[0] += 1
            n[1] += c
            n[2] += f
        for axis, table in ((1, report.content), (2, report.format)):
            rows = {}
            for (stage, _), n in counts.items():
                rows.setdefault(stage, []).append(100.0 * n[axis] / n[0])
            assert table == AccuracyMatrix(list(rows.values()))

    @pytest.mark.parametrize("blocks, top_k, mode", [(4, 1, "single"), (16, 2, "multi")])
    def test_routing_outputs_match_per_instance_traces(self, blocks, top_k, mode):
        # Top-2 is where the order of the usage sum shows: a pairwise sum
        # over the gate columns rounds differently from the trace sum.
        stream = generate_stream(1, task_count=3, train_per_task=8, test_per_task=16, d_v=8,
                                 class_count=4, instruction_mode=mode)
        cfg = small_config("smolora", vu_blocks=blocks, if_blocks=blocks, top_k=top_k, epochs=2)
        model, report = run_cvit(cfg, stream)
        # The last stage's evaluation ran this final model over every test split.
        routing = {spec.task_id: evaluate_task(model, test)[1] for spec, _, test in stream}
        hist, fusion = trace_routing(*_joined(routing))
        assert list(report.routing_hist) == list(hist)
        for task_id, banks in hist.items():
            assert report.routing_hist[task_id].keys() == banks.keys()
            for bank, freq in banks.items():
                assert freq.shape == (blocks,)
                assert np.array_equal(report.routing_hist[task_id][bank], freq)
        assert report.fusion_stats == fusion


class TestWindowedEvaluation:
    """Seen tasks evaluated in windows give what each split evaluated alone gives.

    That holds bit for bit only where BLAS rounds a column's product the same
    at the window's width and the split's: OpenBLAS moved logits in their
    last bits for splits of 1, 2, 4, 6, 10 or 12 instances joined four wide,
    and not for multiples of 8. Every split and window width here is a multiple of 8.
    """

    @pytest.mark.parametrize("top_k", [1, 2])
    def test_run_matches_each_split_evaluated_alone(self, monkeypatch, top_k):
        # Test splits of 16, 16, 200 and 16: from stage 3 on, windows cut
        # the 200-instance split, and the last window holds two tasks.
        stream = [(spec, train, test if j == 2 else test.take(np.arange(16)))
                  for j, (spec, train, test) in enumerate(generate_stream(
                      2, task_count=4, train_per_task=8, test_per_task=200, d_v=8, class_count=4))]
        offsets = np.cumsum([0] + [len(test) for _, _, test in stream]).tolist()
        cfg = small_config("smolora", top_k=top_k, vu_blocks=3, if_blocks=3, epochs=1)
        stages, calls = [], []  # per stage: each seen task evaluated alone; the window calls
        train_stage_ = harness.train_stage

        def train(*args, **kwargs):
            stages.append({})
            calls.append([])
            return train_stage_(*args, **kwargs)

        def evaluate(model, test_set):
            a = sum(map(len, calls[-1]))  # the window's first column in the joined splits
            b = a + len(test_set)
            calls[-1].append(test_set.task_id.tolist())
            windowed = model.forward(test_set, routing=(window_routing := []))
            for j, (spec, _, test) in enumerate(stream):
                lo, hi = max(a, offsets[j]), min(b, offsets[j + 1])
                if lo >= hi:
                    continue
                alone = model.forward(test, routing=(alone_routing := []))
                got_cols, want_cols = (lo - a, hi - a), (lo - offsets[j], hi - offsets[j])
                for got, want in zip(windowed, alone):
                    assert np.array_equal(got[:, slice(*got_cols)], want[:, slice(*want_cols)])
                for got, want in zip(window_routing, alone_routing, strict=True):
                    for g, w in zip(got, want):  # c columns per instance
                        c = w.shape[1] // len(test)
                        assert np.array_equal(g[:, c * got_cols[0] : c * got_cols[1]],
                                              w[:, c * want_cols[0] : c * want_cols[1]])
                if spec.task_id not in stages[-1]:
                    stages[-1][spec.task_id] = evaluate_task(model, test)
            return evaluate_task(model, test_set)

        monkeypatch.setattr(harness, "train_stage", train)
        monkeypatch.setattr(harness, "evaluate_task", evaluate)
        _, report = run_cvit(cfg, stream)
        head = [0] * 16 + [1] * 16 + [2] * 64
        assert calls == [[[0] * 16], [[0] * 16 + [1] * 16], [head, [2] * 96, [2] * 40],
                         [head, [2] * 96, [2] * 40 + [3] * 16]]
        for k, row in enumerate(stages, start=1):
            assert list(row) == list(range(k))
            accuracies = [percentages(ok) for ok, _ in row.values()]
            assert [report.content.score(k, j) for j in range(1, k + 1)] == [c for c, _ in accuracies]
            assert [report.format.score(k, j) for j in range(1, k + 1)] == [f for _, f in accuracies]
        pieces = [(k, t, out[0]) for k, row in enumerate(stages, start=1) for t, out in row.items()]
        assert report.records == Records(
            stage=np.concatenate([np.full(ok.shape[1], k) for k, _, ok in pieces]),
            task_id=np.concatenate([np.full(ok.shape[1], t) for _, t, ok in pieces]),
            instance_index=np.concatenate([np.arange(ok.shape[1]) for *_, ok in pieces]),
            content_correct=np.concatenate([ok[0] for *_, ok in pieces]),
            format_correct=np.concatenate([ok[1] for *_, ok in pieces]),
        )
        layers, tasks = _joined({t: out[1] for t, out in stages[-1].items()})
        hist, _ = trace_routing(layers, tasks)
        assert list(report.routing_hist) == list(hist)
        for t, banks in hist.items():
            assert all(np.array_equal(report.routing_hist[t][b], banks[b]) for b in ("vu", "if"))
        assert report.fusion_stats == per_task_fusion_stats(layers, tasks)


class TestRunCvit:
    def test_single_task_stream(self):
        stream = prepared(tasks=2)[:1]
        cfg = small_config("seqlora")
        _, report = run_cvit(cfg, stream)
        assert report.content.stages == 1
        assert report.metrics.bwt is None

    def test_rerun_identical(self):
        cfg = small_config("smolora", epochs=1)
        a = run_cvit(cfg, prepared(tasks=2))[1]
        b = run_cvit(cfg, prepared(tasks=2))[1]
        assert a.content == b.content
        assert a.format == b.format
        assert a.records == b.records

    def test_matrices_are_lower_triangular_over_stages(self):
        cfg = small_config("seqlora", epochs=1)
        _, report = run_cvit(cfg, prepared(tasks=3))
        assert [len(r) for r in report.content.rows] == [1, 2, 3]
        assert [len(r) for r in report.format.rows] == [1, 2, 3]

    def test_frozen_bases_survive_whole_run(self):
        stream = prepared(tasks=2)
        cfg = small_config("smolora", epochs=1)
        model, _ = run_cvit(cfg, stream)
        reference = ToyModel(cfg, 8, 4, 3)
        for name, a in _frozen(model).items():
            assert np.array_equal(a, _frozen(reference)[name])

    def test_each_stage_sees_only_its_own_task(self, monkeypatch):
        calls = []
        original = harness.train_stage

        def spy(model, train_set, config, stage_index=0):
            calls.append(set(train_set.task_id.tolist()))
            return original(model, train_set, config, stage_index)

        monkeypatch.setattr(harness, "train_stage", spy)
        run_cvit(small_config("seqlora", epochs=1), prepared(tasks=3))
        assert calls == [{0}, {1}, {2}]

    def test_smolora_run_reports_routing_and_fusion(self):
        cfg = small_config("smolora", epochs=1)
        _, report = run_cvit(cfg, prepared(tasks=2))
        assert set(report.routing_hist.keys()) == {0, 1}
        for banks in report.routing_hist.values():
            assert abs(banks["vu"].sum() - 1.0) <= 1e-9
            assert abs(banks["if"].sum() - 1.0) <= 1e-9
        assert len(report.fusion_stats) == 4  # one row per adapter layer
        for row in report.fusion_stats:
            assert row["mean_alpha"] + row["mean_beta"] == pytest.approx(1.0, abs=1e-9)

    def test_stage_errors_carry_stage_index(self):
        stream = prepared(tasks=3)
        broken = [stream[0], (stream[1][0], stream[1][1], stream[1][2].take([])), stream[2]]
        with pytest.raises(StageError, match="stage 2"):
            run_cvit(small_config("seqlora", epochs=1), broken)

    def test_wrong_visual_width_carries_stage_index(self):
        stream = prepared(tasks=3)
        spec, train, test = stream[1]
        narrow = dataclasses.replace(train, visual=train.visual[:-1])
        broken = [stream[0], (spec, narrow, test), stream[2]]
        with pytest.raises(StageError, match="stage 2") as caught:
            run_cvit(small_config("seqlora", epochs=1), broken)
        assert isinstance(caught.value.__cause__, ShapeError)

    def test_seqlora_forgets_on_small_stream(self):
        cfg = small_config("seqlora", epochs=8)
        _, report = run_cvit(cfg, prepared(tasks=3))
        assert report.metrics.bwt < 0

    def test_if_routing_specializes_for_token_disjoint_tasks(self):
        # Two tasks whose instruction templates share no tokens: after a run,
        # their dominant IF blocks differ, or per-task IF histogram entropy
        # sits below the pooled-stream entropy.
        from smolora.routing import histogram_entropy

        stream = small_stream(tasks=2)
        texts = ["alpha bravo charlie delta echo", "zulu yankee xray whiskey victor"]
        assert not set(texts[0].split()) & set(texts[1].split())
        for (spec, train, test), text in zip(stream, texts):
            spec.instruction_templates = [text]
            train.texts[:] = text
            test.texts[:] = text
        cfg = small_config("smolora", epochs=4)
        _, report = run_cvit(cfg, stream)
        hist = report.routing_hist
        dominant = {t: int(np.argmax(hist[t]["if"])) for t in hist}
        within = np.mean([histogram_entropy(hist[t]["if"]) for t in hist])
        pooled = histogram_entropy(np.mean([hist[t]["if"] for t in hist], axis=0))
        assert dominant[0] != dominant[1] or within < pooled


class TestCheckpoint:
    def _trained_model(self, method="smolora"):
        stream = prepared()
        cfg = small_config(method, epochs=1)
        model = ToyModel(cfg, 8, 4, 3)
        train_stage(model, stream[0][1], cfg)
        return cfg, model

    def test_save_load_save_identical_bytes(self, tmp_path):
        cfg, model = self._trained_model()
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(model, p1)
        clone = ToyModel(dataclasses.replace(cfg, seed=123), 8, 4, 3)
        load_checkpoint(p1, clone)
        save_checkpoint(clone, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file_is_format_error(self, tmp_path):
        cfg, model = self._trained_model("seqlora")
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(FormatError, match="byte offset"):
            load_checkpoint(path, ToyModel(cfg, 8, 4, 3))

    def test_bad_magic_is_format_error(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"NOPE!" + b"\x00" * 16)
        cfg = small_config()
        with pytest.raises(FormatError, match="offset 0"):
            load_checkpoint(path, ToyModel(cfg, 8, 4, 3))

    def test_repeated_name_is_format_error(self, tmp_path):
        cfg, model = self._trained_model("seqlora")
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        data = path.read_bytes()
        # The first record (instr_proj): name length, name, shape, data.
        name_len = int.from_bytes(data[5:9], "little")
        rows = int.from_bytes(data[9 + name_len : 13 + name_len], "little")
        cols = int.from_bytes(data[13 + name_len : 17 + name_len], "little")
        first = data[5 : 17 + name_len + 8 * rows * cols]
        path.write_bytes(data + first)
        with pytest.raises(FormatError, match=f"appears twice .*byte offset {len(data) + 4}"):
            load_checkpoint(path, ToyModel(cfg, 8, 4, 3))

    def test_name_not_utf8_is_format_error(self, tmp_path):
        cfg, model = self._trained_model("seqlora")
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        data = bytearray(path.read_bytes())
        data[11] = 0xFF  # third byte of the first name, after magic and length
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="not valid UTF-8 .*byte offset 11"):
            load_checkpoint(path, ToyModel(cfg, 8, 4, 3))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_is_format_error_at_its_offset(self, tmp_path, value):
        cfg, model = self._trained_model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        data = bytearray(path.read_bytes())
        # Walk to the data of the second matrix and spoil its fourth entry.
        pos = 5
        for _ in range(2):
            name_len = int.from_bytes(data[pos : pos + 4], "little")
            name = data[pos + 4 : pos + 4 + name_len].decode()
            rows = int.from_bytes(data[pos + 4 + name_len : pos + 8 + name_len], "little")
            cols = int.from_bytes(data[pos + 8 + name_len : pos + 12 + name_len], "little")
            data_at = pos + 12 + name_len
            pos = data_at + 8 * rows * cols
        at = data_at + 8 * 3
        data[at : at + 8] = np.array([value], dtype="<f8").tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=f"{name!r} holds a non-finite value .*byte offset {at}"):
            load_checkpoint(path, ToyModel(cfg, 8, 4, 3))

    @pytest.mark.parametrize("spoil", ["truncated", "non_finite_last", "missing_parameter"])
    def test_rejected_file_leaves_the_model_unchanged(self, tmp_path, spoil):
        # The file is checked whole before any matrix is written.
        cfg, model = self._trained_model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        data = path.read_bytes()
        name, last = list(model.named_matrices().items())[-1]
        if spoil == "truncated":
            data, error = data[:-7], FormatError
        elif spoil == "non_finite_last":
            data, error = data[:-8] + np.array([np.nan], dtype="<f8").tobytes(), FormatError
        else:
            data, error = data[: data.rindex(name.encode()) - 4], ContractError
            assert len(path.read_bytes()) - len(data) == 4 + len(name) + 8 + 8 * last.size
        path.write_bytes(data)
        target = ToyModel(dataclasses.replace(cfg, seed=7), 8, 4, 3)
        flat = target.params.flat.tobytes()
        frozen = {k: a.tobytes() for k, a in _frozen(target).items()}
        with pytest.raises(error):
            load_checkpoint(path, target)
        assert target.params.flat.tobytes() == flat
        assert {k: a.tobytes() for k, a in _frozen(target).items()} == frozen

    def test_shape_mismatch_is_contract_error(self, tmp_path):
        cfg, model = self._trained_model("seqlora")
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        other = ToyModel(dataclasses.replace(cfg, hidden=8), 8, 4, 3)
        with pytest.raises(ContractError):
            load_checkpoint(path, other)

    @pytest.mark.parametrize("method", METHODS)
    def test_trained_and_loaded_matrices_stay_in_the_flat_buffer(self, tmp_path, method):
        # A matrix whose array was rebound would silently drop out of the
        # flat update, so training after a load must still move the values.
        cfg, model = self._trained_model(method)
        for m in model.params.matrices:
            assert np.shares_memory(m.a, model.params.flat)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        clone = load_checkpoint(path, ToyModel(dataclasses.replace(cfg, seed=7), 8, 4, 3))
        flat = clone.params.flat
        for m in clone.params.matrices:
            assert np.shares_memory(m.a, flat)
        loaded = {name: a.copy() for name, a in clone.named_matrices().items()}
        train_stage(clone, prepared()[1][1], cfg)
        moved = {n for n, a in clone.named_matrices().items() if not np.array_equal(a, loaded[n])}
        assert moved
        assert all(not n.endswith("W0") and n != "instr_proj" for n in moved)

    @pytest.mark.parametrize("method", METHODS)
    def test_load_writes_through_block_views_into_the_flat_buffer(self, tmp_path, method):
        # A differently seeded model loaded from a checkpoint is the source
        # model bit for bit: the blocks are written through their views of
        # the banks, which alias the flat parameters. So a step moves what
        # the views hold.
        cfg, model = self._trained_model(method)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        clone = ToyModel(dataclasses.replace(cfg, seed=7), 8, 4, 3)
        assert clone.params.flat.tobytes() != model.params.flat.tobytes()
        load_checkpoint(path, clone)
        assert clone.params.flat.tobytes() == model.params.flat.tobytes()
        split = prepared()[1][2]
        for got, want in zip(clone.forward(split), model.forward(split)):
            assert got.tobytes() == want.tobytes()
        held = clone.named_matrices()
        before = {n: a.copy() for n, a in held.items()}
        _backward(clone, split)
        sgd_step(clone.params, cfg.learning_rate)
        moved = {n for n, a in held.items() if not np.array_equal(a, before[n])}
        assert {n for n in moved if n.endswith(".A")} and {n for n in moved if n.endswith(".B")}
        assert not moved & set(_frozen(clone))
        for name, a in clone.named_matrices().items():
            assert np.array_equal(held[name], a), name

    def test_zero_init_checkpoint_restores_base_forward(self, tmp_path):
        stream = prepared()
        cfg = small_config("smolora")
        fresh = ToyModel(cfg, 8, 4, 3)
        path = tmp_path / "fresh.ckpt"
        save_checkpoint(fresh, path)
        target = ToyModel(dataclasses.replace(cfg, seed=999), 8, 4, 3)
        load_checkpoint(path, target)
        one = stream[0][1].take([0])
        content, _ = target.forward(one)
        x, _ = target._input(one)
        h1 = fresh.proj.W0 @ x
        h2 = np.maximum(fresh.hidden.W0 @ h1, 0.0)
        expected = fresh.head_content.W0 @ h2.mean(axis=1, keepdims=True)
        assert np.allclose(content, expected, atol=1e-12)
