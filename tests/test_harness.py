import numpy as np
import pytest

from smolora import harness
from smolora.benchmark import generate_stream
from smolora.errors import ConfigError, ContractError, FormatError, ShapeError, StageError
from smolora.harness import (
    METHODS,
    RunConfig,
    ToyModel,
    attach_embeddings,
    evaluate_task,
    load_checkpoint,
    run_cvit,
    save_checkpoint,
    train_stage,
)
from smolora.routing import HashingEmbedder
from smolora.tensor import Matrix, Tape, add, backward, cross_entropy, mean_over_columns, relu


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
        inst = stream[0][1][0]
        content, fmt = model.forward([inst])
        x, _ = model._input([inst])
        h1 = model.proj.W0.a @ x.a
        h2 = np.maximum(model.hidden.W0.a @ h1, 0.0)
        pooled = h2.mean(axis=1, keepdims=True)
        assert np.allclose(content.a, model.head_content.W0.a @ pooled, atol=1e-12)
        assert np.allclose(fmt.a, model.head_format.W0.a @ pooled, atol=1e-12)

    def test_same_seed_same_model(self):
        cfg = small_config("smolora")
        a = ToyModel(cfg, 8, 4, 3).named_matrices()
        b = ToyModel(cfg, 8, 4, 3).named_matrices()
        assert a.keys() == b.keys()
        for name in a:
            assert np.array_equal(a[name].a, b[name].a)

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
        # parse it; the trainable matrices are the same ones, less the frozen.
        model = ToyModel(small_config(method, vu_blocks=2, if_blocks=1), 8, 4, 3)
        names = list(model.named_matrices())
        assert names == ["instr_proj"] + [
            f"{layer}.{key}"
            for layer in ("proj", "hidden", "head_content", "head_format")
            for key in ["W0"] + adapter
        ]
        named = model.named_matrices()
        expected = [named[n] for n in names if n != "instr_proj" and not n.endswith(".W0")]
        assert [id(m) for m in model.trainable()] == [id(m) for m in expected]

    def test_head_rank_is_clamped(self):
        cfg = small_config("seqlora", rank=16)
        model = ToyModel(cfg, 8, 4, 3)
        assert model.head_content.block.rank == 2  # min(16, 4) // 2
        assert model.head_format.block.rank == 1

    def test_missing_embedding_rejected(self):
        stream = small_stream()
        model = ToyModel(small_config(), 8, 4, 3)
        with pytest.raises(ContractError):
            model.forward([stream[0][1][0]])


class TestTrainStage:
    def test_empty_train_set_rejected(self):
        model = ToyModel(small_config(), 8, 4, 3)
        with pytest.raises(ValueError):
            train_stage(model, [], small_config())

    def test_zero_epochs_leaves_model_unchanged(self):
        stream = prepared()
        cfg = small_config(epochs=0)
        model = ToyModel(cfg, 8, 4, 3)
        before = {k: m.a.copy() for k, m in model.named_matrices().items()}
        assert train_stage(model, stream[0][1], cfg) == []
        for k, m in model.named_matrices().items():
            assert np.array_equal(before[k], m.a)

    @pytest.mark.parametrize("method", ["seqlora", "molora", "smolora"])
    def test_base_weights_frozen(self, method):
        stream = prepared()
        cfg = small_config(method)
        model = ToyModel(cfg, 8, 4, 3)
        frozen_before = {k: m.a.copy() for k, m in model.frozen_matrices().items()}
        train_stage(model, stream[0][1], cfg)
        for k, m in model.frozen_matrices().items():
            assert np.array_equal(frozen_before[k], m.a), f"{k} changed"

    def test_stage_learns_its_task(self):
        stream = prepared()
        cfg = small_config("seqlora", epochs=8)
        model = ToyModel(cfg, 8, 4, 3)
        train_stage(model, stream[0][1], cfg)
        content_acc, _, _, _ = evaluate_task(model, stream[0][2])
        assert content_acc >= 25.0 + 20.0  # chance for 4 classes plus margin

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


def _live_model_and_batch(method):
    """A model whose B matrices are nonzero, and six instances of two formats."""
    stream = prepared()
    assert stream[0][0].format_id != stream[1][0].format_id
    model = ToyModel(small_config(method), 8, 4, 3)
    rng = np.random.default_rng(3)
    for name, m in model.named_matrices().items():
        if name.endswith(".B"):
            m.a[...] = rng.normal(size=m.shape)
    return model, stream[0][1][:3] + stream[1][1][:3]


def _batch_loss(model, batch, tape=None, traces=None):
    content, fmt = model.forward(batch, tape, traces)
    loss = add(
        cross_entropy(content, [inst.answer_class for inst in batch], tape),
        cross_entropy(fmt, [inst.format_id for inst in batch], tape),
        tape,
    )
    return content, fmt, loss


def _rel_close(got, want, rel=1e-12):
    return np.abs(got - want).max() <= rel * np.abs(want).max()


class TestBatchedForward:
    @pytest.mark.parametrize("method", ["seqlora", "molora", "smolora"])
    def test_batch_matches_sum_of_single_instances(self, method):
        model, batch = _live_model_and_batch(method)
        params = model.trainable()
        tape = Tape()
        tape.watch(*params)
        content, fmt, loss = _batch_loss(model, batch, tape)
        grads = backward(tape, loss)

        summed = {p: np.zeros_like(p.a) for p in params}
        for j, inst in enumerate(batch):
            single = Tape()
            single.watch(*params)
            c1, f1, loss1 = _batch_loss(model, [inst], single)
            assert _rel_close(content.a[:, j : j + 1], c1.a)
            assert _rel_close(fmt.a[:, j : j + 1], f1.a)
            for p, g in backward(single, loss1).items():
                summed[p] += g.a
        for p in params:
            if np.any(summed[p] != 0.0):
                assert _rel_close(grads[p].a, summed[p])
            else:
                assert np.all(grads[p].a == 0.0)

    @pytest.mark.parametrize("method", ["smolora", "molora"])
    def test_block_no_instance_selected_gets_zero_gradient(self, method):
        model, batch = _live_model_and_batch(method)
        tape = Tape()
        tape.watch(*model.trainable())
        traces = []
        grads = backward(tape, _batch_loss(model, batch, tape, traces)[2])
        n = len(batch)
        if method == "smolora":
            banks = []
            for k, layer in enumerate(model.layers):
                layer_traces = traces[k * n : (k + 1) * n]  # one per instance, layer by layer
                for bank, blocks in (("vu", layer.layer.vu_blocks), ("if", layer.layer.if_blocks)):
                    chosen = {i for tr in layer_traces for i, _ in getattr(tr, f"{bank}_selected")}
                    banks.append((blocks, chosen))
        else:
            # Top-1 token-wise routing: each column picks its largest router logit.
            x, emb = model._input(batch)
            h1 = model.proj.forward(x, emb)
            pooled = mean_over_columns(relu(model.hidden.forward(h1, emb)), None, n)
            inputs = [x, h1, pooled, pooled]
            banks = [
                (layer.layer.blocks, set(np.argmax(layer.layer.router.a @ inp.a, axis=0)))
                for layer, inp in zip(model.layers, inputs)
            ]
        unselected = 0
        for blocks, chosen in banks:
            for i, block in enumerate(blocks):
                if i in chosen:
                    assert np.any(grads[block.B].a != 0.0)
                else:
                    unselected += 1
                    assert np.all(grads[block.A].a == 0.0)
                    assert np.all(grads[block.B].a == 0.0)
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
            B = bank.blocks[-1].B.a
            assert np.all(B == 0.0) and not np.signbit(B).any()
            assert np.shares_memory(B, model.trainable().flat)


class TestTopOneRouting:
    def test_routers_get_exactly_zero_gradient_at_top_one(self):
        # A softmax over one kept logit is constantly 1, so at top-1 no
        # router gradient reaches R_vu, R_if or the molora router, and
        # routing stays at its random initialization.
        stream = prepared()
        train, batch = stream[0][1], stream[1][1][:6]
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
            tape = Tape()
            tape.watch(*model.trainable())
            grads = backward(tape, _batch_loss(model, batch, tape)[2])
            assert any(np.any(g.a != 0.0) for g in grads.values())
            for router in routers:
                assert np.all(grads[router].a == 0.0)


class TestFiniteness:
    @pytest.mark.parametrize("method", METHODS)
    def test_overflowing_blocks_fail_the_taped_forward(self, method):
        model, batch = _live_model_and_batch(method)
        adapter = model.proj
        if method == "seqlora":
            blocks = [adapter.block]
        elif method == "molora":
            blocks = adapter.layer.blocks
        else:
            blocks = adapter.layer.vu_blocks + adapter.layer.if_blocks
        for block in blocks:
            block.A.a[...] = 1e200
            block.B.a[...] = 1e200
        tape = Tape()
        tape.watch(*model.trainable())
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ShapeError):
            model.forward(batch, tape)


class _OracleModel:
    """Stand-in model that answers every instance perfectly."""

    def __init__(self, class_count=4, format_count=3):
        self.class_count = class_count
        self.format_count = format_count

    def forward(self, batch, tape=None, traces=None):
        content = np.zeros((self.class_count, len(batch)))
        fmt = np.zeros((self.format_count, len(batch)))
        for j, inst in enumerate(batch):
            content[inst.answer_class, j] = 1.0
            fmt[inst.format_id, j] = 1.0
        return Matrix(content), Matrix(fmt)


class _ConstantModel:
    """Stand-in model that always answers class 0 / format 0."""

    def forward(self, batch, tape=None, traces=None):
        content = np.zeros((4, len(batch)))
        content[0, :] = 1.0
        fmt = np.zeros((3, len(batch)))
        fmt[0, :] = 1.0
        return Matrix(content), Matrix(fmt)


class TestEvaluateTask:
    def test_constant_model_scores_chance_on_balanced_task(self):
        stream = small_stream(test=32)  # 32 samples over 4 classes, balanced
        content_acc, _, _, _ = evaluate_task(_ConstantModel(), stream[0][2])
        assert content_acc == pytest.approx(25.0)

    def test_oracle_model_scores_100(self):
        stream = small_stream()
        c, f, records, _ = evaluate_task(_OracleModel(), stream[0][2])
        assert c == 100.0 and f == 100.0
        assert all(r["content_correct"] == 1 and r["format_correct"] == 1 for r in records)

    def test_deterministic_and_thread_invariant(self):
        stream = prepared()
        cfg = small_config("smolora")
        model = ToyModel(cfg, 8, 4, 3)
        train_stage(model, stream[0][1], cfg)
        a = evaluate_task(model, stream[0][2])
        b = evaluate_task(model, stream[0][2])
        assert a[:3] == b[:3]
        assert [r["instance_index"] for r in a[2]] == list(range(len(stream[0][2])))

    def test_empty_test_set_rejected(self):
        with pytest.raises(ValueError):
            evaluate_task(_OracleModel(), [])


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
        for name, m in model.frozen_matrices().items():
            assert np.array_equal(m.a, reference.frozen_matrices()[name].a)

    def test_each_stage_sees_only_its_own_task(self, monkeypatch):
        calls = []
        original = harness.train_stage

        def spy(model, train_set, config, stage_index=0):
            calls.append({inst.task_id for inst in train_set})
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
        broken = [stream[0], (stream[1][0], stream[1][1], []), stream[2]]
        with pytest.raises(StageError, match="stage 2"):
            run_cvit(small_config("seqlora", epochs=1), broken)

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
            for inst in train + test:
                inst.instruction_text = text
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
        clone = ToyModel(RunConfig(**{**cfg.to_dict(), "seed": 123}), 8, 4, 3)
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

    def test_shape_mismatch_is_contract_error(self, tmp_path):
        cfg, model = self._trained_model("seqlora")
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        other = ToyModel(RunConfig(**{**cfg.to_dict(), "hidden": 8}), 8, 4, 3)
        with pytest.raises(ContractError):
            load_checkpoint(path, other)

    @pytest.mark.parametrize("method", METHODS)
    def test_trained_and_loaded_matrices_stay_in_the_flat_buffer(self, tmp_path, method):
        # A matrix whose array was rebound would silently drop out of the
        # flat update, so training after a load must still move the values.
        cfg, model = self._trained_model(method)
        for m in model.trainable():
            assert np.shares_memory(m.a, model.trainable().flat)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        clone = load_checkpoint(path, ToyModel(RunConfig(**{**cfg.to_dict(), "seed": 7}), 8, 4, 3))
        flat = clone.trainable().flat
        for m in clone.trainable():
            assert np.shares_memory(m.a, flat)
        loaded = {name: m.a.copy() for name, m in clone.named_matrices().items()}
        train_stage(clone, prepared()[1][1], cfg)
        moved = {n for n, m in clone.named_matrices().items() if not np.array_equal(m.a, loaded[n])}
        assert moved
        assert all(not n.endswith("W0") and n != "instr_proj" for n in moved)

    def test_zero_init_checkpoint_restores_base_forward(self, tmp_path):
        stream = prepared()
        cfg = small_config("smolora")
        fresh = ToyModel(cfg, 8, 4, 3)
        path = tmp_path / "fresh.ckpt"
        save_checkpoint(fresh, path)
        target = ToyModel(RunConfig(**{**cfg.to_dict(), "seed": 999}), 8, 4, 3)
        load_checkpoint(path, target)
        inst = stream[0][1][0]
        content, _ = target.forward([inst])
        x, _ = target._input([inst])
        h1 = fresh.proj.W0.a @ x.a
        h2 = np.maximum(fresh.hidden.W0.a @ h1, 0.0)
        expected = fresh.head_content.W0.a @ h2.mean(axis=1, keepdims=True)
        assert np.allclose(content.a, expected, atol=1e-12)
