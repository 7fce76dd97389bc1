import numpy as np
import pytest
from _oracles import central_diff, rel_err, scalar_softmax, straight_line_smolora

from smolora.errors import ShapeError
from smolora.harness import AdapterLayer, RunConfig
from smolora.lora import (
    LoRABank,
    LoRABlock,
    MoLoRALayer,
    adaptive_fusion,
    init_lora_block,
    init_molora,
    init_smolora,
    lora_apply,
    molora_forward,
    smolora_forward,
)
from smolora.tensor import (
    Matrix,
    Tape,
    add,
    backward,
    cross_entropy,
    matmul,
    mean_over_columns,
    scale_const,
    sum_all,
)


def _seeded_smolora(seed=0, d=8, k_out=8, M=4, nm=4, r=2, e=6, top_k=1):
    return init_smolora(d=d, k_out=k_out, M=M, N_minus_M=nm, r=r, e=e, top_k=top_k, seed=seed)


def _fill_blocks(layer, rng):
    """Give every B matrix nonzero entries so updates actually fire."""
    blocks = getattr(layer, "blocks", None)
    if blocks is None:
        blocks = layer.vu_blocks + layer.if_blocks
    for b in blocks:
        b.B.a[...] = rng.normal(size=b.B.shape)


class TestLoRABlock:
    def test_zero_init_output(self):
        rng = np.random.default_rng(0)
        block = init_lora_block(6, 4, 2, rng)
        x = Matrix(rng.normal(size=(6, 3)))
        assert np.all(lora_apply(block, x).a == 0.0)

    def test_hand_expansion(self):
        block = LoRABlock(A=Matrix([[1.0, 0.0]]), B=Matrix([[2.0], [0.0]]), rank=1)
        out = lora_apply(block, Matrix([[3.0], [5.0]]))
        assert out.tolist() == [[6.0], [0.0]]

    def test_rank_bound_enforced(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ShapeError):
            init_lora_block(4, 4, 3, rng)  # max allowed is 2

    def test_shape_mismatch(self):
        rng = np.random.default_rng(0)
        block = init_lora_block(6, 4, 2, rng)
        with pytest.raises(ShapeError):
            lora_apply(block, Matrix(np.zeros((5, 2))))


class TestMoLoRAForward:
    def test_single_expert_degeneracy(self):
        layer = init_molora(d=6, k_out=4, N=1, r=2, top_k=1, seed=3)
        rng = np.random.default_rng(4)
        _fill_blocks(layer, rng)
        x = Matrix(rng.normal(size=(6, 3)))
        expected = add(matmul(layer.W0, x), lora_apply(layer.blocks[0], x))
        assert np.allclose(molora_forward(layer, x).a, expected.a, atol=1e-12)

    def test_zero_init_is_base_only(self):
        layer = init_molora(d=6, k_out=4, N=3, r=2, top_k=2, seed=5)
        x = Matrix(np.random.default_rng(6).normal(size=(6, 2)))
        assert np.array_equal(molora_forward(layer, x).a, (layer.W0.a @ x.a))

    def test_token_wise_routing_brute_force(self):
        # Token 0 routes to block 0, token 1 to block 1, by construction.
        rng = np.random.default_rng(7)
        layer = init_molora(d=2, k_out=3, N=2, r=1, top_k=1, seed=8)
        _fill_blocks(layer, rng)
        layer.router.a[...] = [[10.0, 0.0], [0.0, 10.0]]
        x = Matrix([[1.0, 0.0], [0.0, 1.0]])
        out = molora_forward(layer, x)
        for t, block in ((0, layer.blocks[0]), (1, layer.blocks[1])):
            col = Matrix(x.a[:, t : t + 1])
            expected = layer.W0.a @ col.a + lora_apply(block, col).a
            assert np.allclose(out.a[:, t : t + 1], expected, atol=1e-12)

    def test_top_two_matches_per_token_loop(self):
        # Reference: each token's two largest router logits, softmaxed,
        # weight those blocks' own updates; the bank sums in another order.
        layer = init_molora(d=6, k_out=5, N=4, r=2, top_k=2, seed=13)
        rng = np.random.default_rng(14)
        _fill_blocks(layer, rng)
        x = Matrix(rng.normal(size=(6, 5)))
        out = molora_forward(layer, x).a
        for t in range(x.cols):
            col = Matrix(x.a[:, t : t + 1])
            logits = (layer.router.a @ col.a)[:, 0]
            top = np.argsort(-logits, kind="stable")[:2]
            w = np.exp(logits[top] - logits[top].max())
            expected = layer.W0.a @ col.a
            for i, wi in zip(top, w / w.sum()):
                expected = expected + wi * lora_apply(layer.blocks[i], col).a
            assert np.abs(out[:, t : t + 1] - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_equals_plain_lora_when_single_block(self):
        # Degenerate equivalence on a batch of random inputs.
        layer = init_molora(d=8, k_out=6, N=1, r=3, top_k=1, seed=11)
        rng = np.random.default_rng(12)
        _fill_blocks(layer, rng)
        for _ in range(100):
            x = Matrix(rng.normal(size=(8, 2)))
            plain = layer.W0.a @ x.a + lora_apply(layer.blocks[0], x).a
            assert np.max(np.abs(molora_forward(layer, x).a - plain)) <= 1e-12


class TestAdaptiveFusion:
    def test_equal_scores_average(self):
        x_vu = np.array([[2.0, 4.0], [0.0, 2.0]])
        x_if = np.array([[0.0, 2.0], [2.0, 0.0]])
        # Zero importances give u == v == 0 everywhere.
        y, alpha, beta = adaptive_fusion(x_vu, x_if, np.zeros((1, 2)), np.zeros((1, 2)))
        assert np.allclose(alpha, 0.5) and np.allclose(beta, 0.5)
        assert np.allclose(y, 0.5 * (x_vu + x_if))

    def test_large_gap_saturates(self):
        x_vu = np.array([[1.0], [2.0]])
        x_if = np.array([[-3.0], [5.0]])
        # u - v = 50 >= 40 at the single position.
        y, alpha, beta = adaptive_fusion(x_vu, x_if, np.array([[50.0, 0.0]]), np.zeros((1, 2)))
        assert alpha[0, 0] > 1.0 - 1e-12
        assert np.max(np.abs(y - x_vu)) < 1e-12

    def test_scalar_softmax_oracle(self):
        # Importances picked so u = [1.5], v = [0.9].
        x_vu = np.array([[1.5]])
        x_if = np.array([[0.9]])
        y, alpha, beta = adaptive_fusion(x_vu, x_if, np.array([[1.0]]), np.array([[1.0]]))
        expected = scalar_softmax([1.5, 0.9])
        assert alpha[0, 0] == pytest.approx(expected[0], abs=1e-12)
        assert alpha[0, 0] == pytest.approx(0.6457, abs=1e-4)
        assert beta[0, 0] == pytest.approx(0.3543, abs=1e-4)

    def test_fusion_simplex(self):
        rng = np.random.default_rng(13)
        x_vu = rng.normal(size=(5, 7))
        x_if = rng.normal(size=(5, 7))
        _, alpha, beta = adaptive_fusion(x_vu, x_if, rng.normal(size=(1, 5)), rng.normal(size=(1, 5)))
        assert np.all(alpha > 0) and np.all(alpha < 1)
        assert np.all(np.abs(alpha + beta - 1.0) <= 1e-12)


class TestSMoLoRAForward:
    def test_zero_init_neutrality(self):
        for seed in range(5):
            layer = _seeded_smolora(seed=seed)
            rng = np.random.default_rng(seed + 100)
            x = Matrix(rng.normal(size=(8, 3)))
            emb = Matrix(rng.normal(size=(6, 1)))
            y = smolora_forward(layer, x, emb)
            assert np.array_equal(y.a, layer.W0.a @ x.a)

    def test_single_block_banks_gate_to_one(self):
        layer = _seeded_smolora(M=1, nm=1, top_k=1)
        rng = np.random.default_rng(14)
        _fill_blocks(layer, rng)
        x = Matrix(rng.normal(size=(8, 2)))
        emb = Matrix(rng.normal(size=(6, 1)))
        traces = []
        y = smolora_forward(layer, x, emb, traces=traces)
        [trace] = traces
        assert trace.vu_selected == [(0, 1.0)]
        assert trace.if_selected == [(0, 1.0)]
        x_vu = lora_apply(layer.vu_blocks[0], x).a
        x_if = lora_apply(layer.if_blocks[0], x).a
        fused, _, _ = adaptive_fusion(x_vu, x_if, layer.I_vu.a, layer.I_if.a)
        assert np.allclose(y.a, layer.W0.a @ x.a + fused, atol=1e-12)

    def test_straight_line_oracle(self):
        layer = _seeded_smolora(seed=21, top_k=2)
        rng = np.random.default_rng(22)
        _fill_blocks(layer, rng)
        x = rng.normal(size=(8, 3))
        emb = rng.normal(size=(6, 1))
        emb /= np.linalg.norm(emb)
        y = smolora_forward(layer, Matrix(x), Matrix(emb))
        expected = straight_line_smolora(
            W0=layer.W0.a,
            vu_A=[b.A.a for b in layer.vu_blocks],
            vu_B=[b.B.a for b in layer.vu_blocks],
            if_A=[b.A.a for b in layer.if_blocks],
            if_B=[b.B.a for b in layer.if_blocks],
            R_vu=layer.R_vu.a,
            R_if=layer.R_if.a,
            I_vu=layer.I_vu.a,
            I_if=layer.I_if.a,
            top_k=2,
            x=x,
            emb=emb,
        )
        assert np.allclose(y.a, expected, rtol=1e-12, atol=1e-12)

    def test_linearity_in_base_weight(self):
        # The output is W0 @ x plus an update that does not read W0: the
        # update is the output of the same layer with W0 zeroed.
        layer = _seeded_smolora(seed=30)
        rng = np.random.default_rng(31)
        _fill_blocks(layer, rng)
        x = Matrix(rng.normal(size=(8, 4)))
        emb = Matrix(rng.normal(size=(6, 1)))
        y = smolora_forward(layer, x, emb)
        W0 = layer.W0.a.copy()
        layer.W0.a[...] = 0.0
        delta = smolora_forward(layer, x, emb)
        assert np.array_equal(y.a, add(matmul(Matrix(W0), x), delta).a)

    def test_gate_and_fusion_simplex_on_trace(self):
        layer = _seeded_smolora(seed=40, top_k=2)
        rng = np.random.default_rng(41)
        _fill_blocks(layer, rng)
        x = Matrix(rng.normal(size=(8, 3)))
        emb = Matrix(rng.normal(size=(6, 1)))
        traces = []
        smolora_forward(layer, x, emb, traces=traces)
        [trace] = traces
        for selected in (trace.vu_selected, trace.if_selected):
            assert len(selected) == 2
            assert all(w > 0 for _, w in selected)
            assert abs(sum(w for _, w in selected) - 1.0) <= 1e-12
        assert abs(trace.alpha_mean + trace.beta_mean - 1.0) <= 1e-9

    def test_mixed_ranks_in_a_bank_rejected(self):
        # A bank is stored as one stacked A and one B of whole rank-r blocks:
        # three rows at rank 2 would be a rank-2 block and a rank-1 block.
        with pytest.raises(ShapeError):
            LoRABank(A=Matrix(np.ones((3, 8))), B=Matrix.zeros(8, 3), rank=2)
        with pytest.raises(ShapeError):
            LoRABank(A=Matrix(np.ones((4, 8))), B=Matrix.zeros(8, 2), rank=2)
        bank = LoRABank(A=Matrix(np.ones((4, 8))), B=Matrix.zeros(8, 4), rank=2)
        assert [b.A.shape for b in bank.blocks] == [(2, 8), (2, 8)]
        assert [b.B.shape for b in bank.blocks] == [(8, 2), (8, 2)]

    def test_embedding_shape_checked(self):
        layer = _seeded_smolora()
        x = Matrix(np.zeros((8, 2)))
        with pytest.raises(ShapeError):
            smolora_forward(layer, x, Matrix(np.zeros((5, 1))))


class TestInitSMoLoRA:
    def test_same_seed_bitwise_identical(self):
        a = init_smolora(d=16, k_out=16, M=4, N_minus_M=4, r=4, e=8, top_k=1, seed=77)
        b = init_smolora(d=16, k_out=16, M=4, N_minus_M=4, r=4, e=8, top_k=1, seed=77)
        for ma, mb in (
            (a.W0, b.W0),
            (a.R_vu, b.R_vu),
            (a.R_if, b.R_if),
            (a.I_vu, b.I_vu),
            (a.I_if, b.I_if),
        ):
            assert np.array_equal(ma.a, mb.a)
        for ba, bb in zip(a.vu_blocks + a.if_blocks, b.vu_blocks + b.if_blocks):
            assert np.array_equal(ba.A.a, bb.A.a)
            assert np.array_equal(ba.B.a, bb.B.a)

    def test_reference_defaults_constructible(self):
        layer = init_smolora(d=64, k_out=64, M=4, N_minus_M=4, r=16, e=64, top_k=1, seed=0)
        assert len(layer.vu_blocks) == 4
        assert len(layer.if_blocks) == 4
        assert all(b.rank == 16 for b in layer.vu_blocks + layer.if_blocks)
        assert layer.top_k == 1
        assert all(np.all(b.B.a == 0.0) for b in layer.vu_blocks + layer.if_blocks)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            init_smolora(d=8, k_out=8, M=0, N_minus_M=4, r=2, e=4, top_k=1, seed=0)
        with pytest.raises(ValueError):
            init_smolora(d=8, k_out=8, M=2, N_minus_M=2, r=2, e=4, top_k=3, seed=0)


class TestGradients:
    def _loss_through_layer(self, layer, x, emb, tape=None):
        y = smolora_forward(layer, x, emb, tape)
        pooled = mean_over_columns(y, tape, emb.cols)
        return add(
            cross_entropy(pooled, list(range(1, 1 + emb.cols)), tape),
            scale_const(sum_all(y, tape), 0.1, tape),
            tape,
        )

    def _check_composition(self, seed, cols, instances):
        layer = _seeded_smolora(seed=seed, top_k=2)
        rng = np.random.default_rng(seed + 1)
        _fill_blocks(layer, rng)
        x = Matrix(rng.normal(size=(8, cols)))
        emb = Matrix(rng.normal(size=(6, instances)))

        tape = Tape()
        params = layer.trainable()
        tape.watch(*params)
        grads = backward(tape, self._loss_through_layer(layer, x, emb, tape))

        traces = []
        smolora_forward(layer, x, emb, traces=traces)
        vu_sel = {i for trace in traces for i, _ in trace.vu_selected}
        if_sel = {j for trace in traces for j, _ in trace.if_selected}

        rng_pick = np.random.default_rng(seed + 2)
        checked = 0
        worst = 0.0
        for param in params:
            g = grads[param].a
            n_checks = min(10, param.rows * param.cols)
            for _ in range(n_checks):
                i = int(rng_pick.integers(param.rows))
                j = int(rng_pick.integers(param.cols))
                fd = central_diff(
                    lambda: self._loss_through_layer(layer, x, emb).item(), param.a, i, j
                )
                worst = max(worst, rel_err(g[i, j], fd))
                checked += 1
        assert checked >= 100
        assert worst < 1e-4

        # Blocks that no instance selected must receive exactly zero gradient.
        for i, block in enumerate(layer.vu_blocks):
            if i not in vu_sel:
                assert np.all(grads[block.A].a == 0.0)
                assert np.all(grads[block.B].a == 0.0)
        for j, block in enumerate(layer.if_blocks):
            if j not in if_sel:
                assert np.all(grads[block.A].a == 0.0)
                assert np.all(grads[block.B].a == 0.0)

    def test_full_composition_matches_finite_differences(self):
        self._check_composition(seed=50, cols=3, instances=1)

    def test_batched_composition_matches_finite_differences(self):
        # Three instances of two columns each, top-2 gates in both banks.
        self._check_composition(seed=70, cols=6, instances=3)

    def test_molora_gradients_match_finite_differences(self):
        layer = init_molora(d=6, k_out=5, N=4, r=2, top_k=2, seed=60)
        rng = np.random.default_rng(61)
        _fill_blocks(layer, rng)
        x = Matrix(rng.normal(size=(6, 3)))

        def loss(tape=None):
            y = molora_forward(layer, x, tape)
            return add(
                cross_entropy(mean_over_columns(y, tape), 0, tape),
                scale_const(sum_all(y, tape), 0.1, tape),
                tape,
            )

        tape = Tape()
        params = layer.trainable()
        tape.watch(*params)
        grads = backward(tape, loss(tape))
        worst = 0.0
        for param in params:
            g = grads[param].a
            for i in range(param.rows):
                for j in range(param.cols):
                    fd = central_diff(lambda: loss().item(), param.a, i, j)
                    worst = max(worst, rel_err(g[i, j], fd))
        assert worst < 1e-4

    def test_seqlora_layer_gradients_match_finite_differences(self):
        # The layer is one tape record; its input comes from a watched P, so
        # the gradient pushed into the input is checked as well.
        rng = np.random.default_rng(80)
        layer = AdapterLayer("hidden", "seqlora", 6, 5, RunConfig(method="seqlora", rank=2), rng, 1)
        layer.block.B.a[...] = rng.normal(size=layer.block.B.shape)
        P = Matrix(rng.normal(size=(6, 4)))
        x0 = Matrix(rng.normal(size=(4, 3)))
        emb = Matrix(rng.normal(size=(64, 1)))

        def loss(tape=None):
            y = layer.forward(matmul(P, x0, tape), emb, tape)
            return add(
                cross_entropy(mean_over_columns(y, tape), 0, tape),
                scale_const(sum_all(y, tape), 0.1, tape),
                tape,
            )

        tape = Tape()
        params = [*layer.trainable(), P]
        tape.watch(*params)
        grads = backward(tape, loss(tape))
        worst = 0.0
        for param in params:
            g = grads[param].a
            for i in range(param.rows):
                for j in range(param.cols):
                    fd = central_diff(lambda: loss().item(), param.a, i, j)
                    worst = max(worst, rel_err(g[i, j], fd))
        assert worst < 1e-4


class TestRouterLogits:
    @pytest.mark.parametrize("bad", [-np.inf, np.inf, np.nan])
    @pytest.mark.parametrize("router", ["R_vu", "R_if", "molora"])
    def test_non_finite_logit_rejected_even_where_top_k_drops_it(self, router, bad):
        # Positive inputs make a row of -inf a logit of -inf, which top-1
        # drops; the logits are checked before the mask.
        rng = np.random.default_rng(90)
        x = Matrix(rng.uniform(0.5, 1.5, size=(8, 2)))
        emb = Matrix(rng.uniform(0.5, 1.5, size=(6, 1)))
        if router == "molora":
            layer = init_molora(d=8, k_out=8, N=4, r=2, top_k=1, seed=91)
            R = layer.router

            def run():
                return molora_forward(layer, x, Tape())
        else:
            layer = _seeded_smolora(seed=92)
            R = getattr(layer, router)

            def run():
                return smolora_forward(layer, x, emb, Tape())

        run()
        R.a[2, :] = bad
        # A matmul kernel may meet inf * 0 on the way and say so.
        with np.errstate(invalid="ignore"), pytest.raises(ShapeError, match="router logits"):
            run()
