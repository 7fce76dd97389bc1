import numpy as np
import pytest
from _oracles import (
    double_repeat_bank,
    out_of_place_bank,
    rule_fd_error,
    scalar_softmax,
    straight_line_smolora,
    two_row_fusion,
    with_grads,
)

from smolora.errors import ShapeError
from smolora.harness import AdapterLayer, RunConfig
from smolora.lora import (
    LoRABank,
    SMoLoRALayer,
    _bank,
    adaptive_fusion,
    init_lora,
    init_lora_bank,
    init_molora,
    init_smolora,
    lora_apply,
    molora_forward,
    smolora_forward,
)
from smolora.routing import topk_softmax
from smolora.tensor import FlatParameters, Matrix, Tape, softmax_back


def _seeded_smolora(seed=0, d=8, k_out=8, M=4, nm=4, r=2, e=6, top_k=1):
    return init_smolora(d=d, k_out=k_out, M=M, N_minus_M=nm, r=r, e=e, top_k=top_k, seed=seed)


def _fill_blocks(layer, rng):
    """Give every block's B nonzero entries, block by block, so updates actually fire."""
    for name, view in layer.named().items():
        if name.endswith(".B"):
            view[...] = rng.normal(size=view.shape)


def _blocks(bank):
    """Each block's (A, B), as views of the bank's."""
    views = list(bank.named("").values())
    return list(zip(views[0::2], views[1::2]))


def _block_update(bank, i, x):
    """Block i's update B_i @ (A_i @ x), from its own A and B."""
    A, B = _blocks(bank)[i]
    return B @ (A @ x)


class TestOneBlockBank:
    def test_zero_init_output(self):
        rng = np.random.default_rng(0)
        bank = init_lora_bank(6, 4, 1, 2, rng)
        x = rng.normal(size=(6, 3))
        w0 = rng.normal(size=(4, 6))
        assert np.array_equal(lora_apply(bank, x, w0), w0 @ x)

    def test_hand_expansion(self):
        bank = LoRABank(A=Matrix([[1.0, 0.0]]), B=Matrix([[2.0], [0.0]]), rank=1)
        out = lora_apply(bank, np.array([[3.0], [5.0]]), np.zeros((2, 2)))
        assert out.tolist() == [[6.0], [0.0]]

    def test_rank_bound_enforced(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ShapeError):
            init_lora_bank(4, 4, 1, 3, rng)  # max allowed is 2

    def test_shape_mismatch(self):
        rng = np.random.default_rng(0)
        bank = init_lora_bank(6, 4, 1, 2, rng)
        with pytest.raises(ShapeError):
            lora_apply(bank, np.zeros((5, 2)), np.zeros((4, 6)))
        with pytest.raises(ShapeError):
            lora_apply(bank, np.zeros((6, 2)), np.zeros((4, 5)))

    def test_one_block_names_its_whole_matrices(self):
        bank = init_lora_bank(6, 4, 1, 2, np.random.default_rng(0))
        assert len(bank) == 1
        named = bank.named("lora")
        assert list(named) == ["lora0.A", "lora0.B"]
        assert np.shares_memory(named["lora0.A"], bank.A.a) and named["lora0.A"].shape == bank.A.shape
        assert np.shares_memory(named["lora0.B"], bank.B.a) and named["lora0.B"].shape == bank.B.shape


class TestLoRALayer:
    def test_init_draws_what_the_adapter_layer_drew(self):
        # W0 and then the block's A, from one generator: the order in which
        # seqlora's checkpoints have always been drawn.
        layer = init_lora(d=6, k_out=4, r=2, seed=11)
        rng = np.random.default_rng(11)
        W0 = rng.normal(0.0, np.sqrt(1.0 / 6), size=(4, 6))
        A = rng.normal(0.0, np.sqrt(1.0 / 6), size=(2, 6))
        assert np.array_equal(layer.W0, W0)
        assert np.array_equal(layer.bank.A.a, A)
        assert np.array_equal(layer.bank.B.a, np.zeros((4, 2)))

    def test_named_gives_views_of_the_bank(self):
        layer = init_lora(d=6, k_out=4, r=2, seed=0)
        FlatParameters(layer.trainable())
        named = layer.named()
        assert list(named) == ["lora.A", "lora.B"]
        for name, m in (("lora.A", layer.bank.A), ("lora.B", layer.bank.B)):
            assert named[name].shape == m.shape and np.shares_memory(named[name], m.a)
            named[name][...] = 2.0
            assert np.all(m.a == 2.0)

    def test_trainable_packs_A_then_B(self):
        layer = init_lora(d=6, k_out=4, r=2, seed=0)
        A, B = layer.trainable()
        assert A is layer.bank.A and B is layer.bank.B
        params = FlatParameters([A, B])
        assert np.shares_memory(params.flat[:12], A.a) and np.shares_memory(params.flat[12:], B.a)


class TestMoLoRAForward:
    def test_single_expert_degeneracy(self):
        layer = init_molora(d=6, k_out=4, N=1, r=2, top_k=1, seed=3)
        rng = np.random.default_rng(4)
        _fill_blocks(layer, rng)
        x = rng.normal(size=(6, 3))
        expected = layer.W0 @ x + _block_update(layer.bank, 0, x)
        assert np.allclose(molora_forward(layer, x), expected, atol=1e-12)

    def test_zero_init_is_base_only(self):
        layer = init_molora(d=6, k_out=4, N=3, r=2, top_k=2, seed=5)
        x = np.random.default_rng(6).normal(size=(6, 2))
        assert np.array_equal(molora_forward(layer, x), (layer.W0 @ x))

    def test_token_wise_routing_brute_force(self):
        # Token 0 routes to block 0, token 1 to block 1, by construction.
        rng = np.random.default_rng(7)
        layer = init_molora(d=2, k_out=3, N=2, r=1, top_k=1, seed=8)
        _fill_blocks(layer, rng)
        layer.router.a[...] = [[10.0, 0.0], [0.0, 10.0]]
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        out = molora_forward(layer, x)
        for t in (0, 1):
            col = x[:, t : t + 1]
            expected = layer.W0 @ col + _block_update(layer.bank, t, col)
            assert np.allclose(out[:, t : t + 1], expected, atol=1e-12)

    def test_top_two_matches_per_token_loop(self):
        # Reference: each token's two largest router logits, softmaxed,
        # weight those blocks' own updates; the bank sums in another order.
        layer = init_molora(d=6, k_out=5, N=4, r=2, top_k=2, seed=13)
        rng = np.random.default_rng(14)
        _fill_blocks(layer, rng)
        x = rng.normal(size=(6, 5))
        out = molora_forward(layer, x)
        for t in range(x.shape[1]):
            col = x[:, t : t + 1]
            logits = (layer.router.a @ col)[:, 0]
            top = np.argsort(-logits, kind="stable")[:2]
            w = np.exp(logits[top] - logits[top].max())
            expected = layer.W0 @ col
            for i, wi in zip(top, w / w.sum()):
                expected = expected + wi * _block_update(layer.bank, i, col)
            assert np.abs(out[:, t : t + 1] - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_equals_plain_lora_when_single_block(self):
        # Degenerate equivalence on a batch of random inputs.
        layer = init_molora(d=8, k_out=6, N=1, r=3, top_k=1, seed=11)
        rng = np.random.default_rng(12)
        _fill_blocks(layer, rng)
        for _ in range(100):
            x = rng.normal(size=(8, 2))
            plain = layer.W0 @ x + _block_update(layer.bank, 0, x)
            assert np.max(np.abs(molora_forward(layer, x) - plain)) <= 1e-12


class TestBankGateExpansion:
    """`lora._bank` against the gate expanded by two np.repeat calls, bit for bit,
    with the router's gradients built from that oracle's gate gradient; untaped,
    against the out-of-place bank, leaving its inputs as they were."""

    # Blocks, rank, input and output widths, instances; the second shape is
    # smolora-wide's proj layer (16 blocks of rank 16).
    @pytest.mark.parametrize("shape", [(4, 3, 8, 6, 5), (16, 16, 32, 64, 16)], ids=["4x3", "16x16"])
    @pytest.mark.parametrize("s", [1, 2, 3])
    @pytest.mark.parametrize("top_k", [1, 2, 3])
    def test_output_and_gradients_match(self, shape, s, top_k):
        rng = np.random.default_rng(10 * s + top_k)
        n, r, d, k_out, instances = shape
        bank = LoRABank(Matrix(rng.normal(size=(n * r, d))), Matrix(rng.normal(size=(k_out, n * r))), r)
        router = Matrix(rng.normal(size=(n, 5)))
        router_in = rng.normal(size=(5, instances))
        gate = topk_softmax(router.a @ router_in, top_k)
        x = rng.normal(size=(d, instances * s))
        g = rng.normal(size=(k_out, instances * s))
        FlatParameters([bank.A, bank.B, router])
        routed_in = router_in if top_k > 1 else None
        inputs = [a.copy() for a in (bank.A.a, bank.B.a, router.a, gate, x, router_in)]
        out, back = _bank(bank, gate, x, s, router, routed_in, False)
        assert back is None
        assert np.array_equal(out, out_of_place_bank(bank.A.a, bank.B.a, r, gate, x, s))
        for have, want in zip((bank.A.a, bank.B.a, router.a, gate, x, router_in), inputs):
            assert np.array_equal(have, want)
        out, back = _bank(bank, gate, x, s, router, routed_in, True)
        router.grad[...] = np.nan  # the top-1 rule must leave it alone
        dx, d_in = back(g, True, True)
        *want, d_gate = double_repeat_bank(bank.A.a, bank.B.a, r, gate, x, s, g)
        for have, ref in zip((out, bank.A.grad, bank.B.grad, dx), want):
            assert np.array_equal(have, ref)
        if top_k == 1:
            assert d_in is None
            assert np.isnan(router.grad).all()
        else:
            dl = softmax_back(gate, d_gate)
            assert np.array_equal(router.grad, dl @ router_in.T)
            assert np.array_equal(d_in, router.a.T @ dl)
        # A rule recorded first computes neither input gradient, and writes the same.
        grads = [a.copy() for a in (bank.A.grad, bank.B.grad, router.grad)]
        assert back(g, False, False) == (None, None)
        for have, ref in zip((bank.A.grad, bank.B.grad, router.grad), grads):
            assert np.array_equal(have, ref, equal_nan=top_k == 1)


def _fuse(x_vu, x_if, I_vu, I_if):
    """adaptive_fusion of two separate bank outputs: the result, alpha and beta."""
    fused, ab = adaptive_fusion(np.stack([x_vu, x_if]), np.vstack([I_vu, I_if]))
    return fused, ab[:1], ab[1:]


class TestAdaptiveFusion:
    @pytest.mark.parametrize("cols", [1, 8, 192])
    @pytest.mark.parametrize("overwrite", [False, True])
    def test_matches_two_row_max_and_sum(self, cols, overwrite):
        # The stacked scores, weights and sums against the two rows fused one
        # by one, bit for bit; with `overwrite`, both rows of the stacked
        # input are scaled in place and the result is its first row.
        rng = np.random.default_rng(21 + cols)
        x_vu, x_if = rng.normal(size=(6, cols)), rng.normal(size=(6, cols))
        I = 3.0 * rng.normal(size=(2, 6))
        want, alpha, beta = two_row_fusion(x_vu, x_if, I[:1], I[1:])
        x_banks = np.stack([x_vu, x_if])
        fused, ab = adaptive_fusion(x_banks, I, overwrite=overwrite)
        assert np.array_equal(fused, want)
        assert np.array_equal(ab, np.vstack([alpha, beta]))
        if overwrite:
            assert fused.base is x_banks and np.shares_memory(fused, x_banks[0])
            assert np.array_equal(x_banks[1], beta * x_if)
        else:
            assert np.array_equal(x_banks, np.stack([x_vu, x_if]))

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ShapeError):
            adaptive_fusion(np.zeros((2, 6, 3)), np.zeros((2, 5)))
        with pytest.raises(ShapeError):
            adaptive_fusion(np.zeros((3, 6, 3)), np.zeros((3, 6)))

    def test_equal_scores_average(self):
        x_vu = np.array([[2.0, 4.0], [0.0, 2.0]])
        x_if = np.array([[0.0, 2.0], [2.0, 0.0]])
        # Zero importances give u == v == 0 everywhere.
        y, alpha, beta = _fuse(x_vu, x_if, np.zeros((1, 2)), np.zeros((1, 2)))
        assert np.allclose(alpha, 0.5) and np.allclose(beta, 0.5)
        assert np.allclose(y, 0.5 * (x_vu + x_if))

    def test_large_gap_saturates(self):
        x_vu = np.array([[1.0], [2.0]])
        x_if = np.array([[-3.0], [5.0]])
        # u - v = 50 >= 40 at the single position.
        y, alpha, beta = _fuse(x_vu, x_if, np.array([[50.0, 0.0]]), np.zeros((1, 2)))
        assert alpha[0, 0] > 1.0 - 1e-12
        assert np.max(np.abs(y - x_vu)) < 1e-12

    def test_scalar_softmax_oracle(self):
        # Importances picked so u = [1.5], v = [0.9].
        x_vu = np.array([[1.5]])
        x_if = np.array([[0.9]])
        y, alpha, beta = _fuse(x_vu, x_if, np.array([[1.0]]), np.array([[1.0]]))
        expected = scalar_softmax([1.5, 0.9])
        assert alpha[0, 0] == pytest.approx(expected[0], abs=1e-12)
        assert alpha[0, 0] == pytest.approx(0.6457, abs=1e-4)
        assert beta[0, 0] == pytest.approx(0.3543, abs=1e-4)

    def test_fusion_simplex(self):
        rng = np.random.default_rng(13)
        x_vu = rng.normal(size=(5, 7))
        x_if = rng.normal(size=(5, 7))
        _, alpha, beta = _fuse(x_vu, x_if, rng.normal(size=(1, 5)), rng.normal(size=(1, 5)))
        assert np.all(alpha > 0) and np.all(alpha < 1)
        assert np.all(np.abs(alpha + beta - 1.0) <= 1e-12)


class TestSMoLoRAForward:
    def test_zero_init_neutrality(self):
        for seed in range(5):
            layer = _seeded_smolora(seed=seed)
            rng = np.random.default_rng(seed + 100)
            x = rng.normal(size=(8, 3))
            emb = rng.normal(size=(6, 1))
            y = smolora_forward(layer, x, emb)
            assert np.array_equal(y, layer.W0 @ x)

    def test_single_block_banks_gate_to_one(self):
        layer = _seeded_smolora(M=1, nm=1, top_k=1)
        rng = np.random.default_rng(14)
        _fill_blocks(layer, rng)
        x = rng.normal(size=(8, 2))
        emb = rng.normal(size=(6, 1))
        routing = []
        y = smolora_forward(layer, x, emb, routing=routing)
        [r] = routing
        assert r.vu_gate.tolist() == [[1.0]]
        assert r.if_gate.tolist() == [[1.0]]
        x_vu = _block_update(layer.vu_bank, 0, x)
        x_if = _block_update(layer.if_bank, 0, x)
        fused, _ = adaptive_fusion(np.stack([x_vu, x_if]), layer.I.a)
        assert np.allclose(y, layer.W0 @ x + fused, atol=1e-12)

    def test_straight_line_oracle(self):
        layer = _seeded_smolora(seed=21, top_k=2)
        rng = np.random.default_rng(22)
        _fill_blocks(layer, rng)
        x = rng.normal(size=(8, 3))
        emb = rng.normal(size=(6, 1))
        emb /= np.linalg.norm(emb)
        y = smolora_forward(layer, x, emb)
        expected = straight_line_smolora(
            W0=layer.W0,
            vu_A=[A for A, _ in _blocks(layer.vu_bank)],
            vu_B=[B for _, B in _blocks(layer.vu_bank)],
            if_A=[A for A, _ in _blocks(layer.if_bank)],
            if_B=[B for _, B in _blocks(layer.if_bank)],
            R_vu=layer.R_vu.a,
            R_if=layer.R_if.a,
            I_vu=layer.I.a[:1],
            I_if=layer.I.a[1:],
            top_k=2,
            x=x,
            emb=emb,
        )
        assert np.allclose(y, expected, rtol=1e-12, atol=1e-12)

    def test_linearity_in_base_weight(self):
        # The output is W0 @ x plus an update that does not read W0: the
        # update is the output of the same layer with W0 zeroed.
        layer = _seeded_smolora(seed=30)
        rng = np.random.default_rng(31)
        _fill_blocks(layer, rng)
        x = rng.normal(size=(8, 4))
        emb = rng.normal(size=(6, 1))
        y = smolora_forward(layer, x, emb)
        W0 = layer.W0.copy()
        layer.W0[...] = 0.0
        delta = smolora_forward(layer, x, emb)
        assert np.array_equal(y, W0 @ x + delta)

    def test_gate_and_fusion_simplex_on_routing(self):
        layer = _seeded_smolora(seed=40, top_k=2)
        rng = np.random.default_rng(41)
        _fill_blocks(layer, rng)
        x = rng.normal(size=(8, 3))
        emb = rng.normal(size=(6, 1))
        routing = []
        smolora_forward(layer, x, emb, routing=routing)
        [r] = routing
        for gate in (r.vu_gate, r.if_gate):
            assert gate.shape[1] == 1
            assert np.count_nonzero(gate) == 2 and (gate >= 0).all()
            assert abs(gate.sum() - 1.0) <= 1e-12
        assert r.alpha.shape == r.beta.shape == (1, 3)
        assert np.all(np.abs(r.alpha + r.beta - 1.0) <= 1e-12)

    def test_mixed_ranks_in_a_bank_rejected(self):
        # A bank is stored as one stacked A and one B of whole rank-r blocks:
        # three rows at rank 2 would be a rank-2 block and a rank-1 block.
        with pytest.raises(ShapeError):
            LoRABank(A=Matrix(np.ones((3, 8))), B=Matrix(np.zeros((8, 3))), rank=2)
        with pytest.raises(ShapeError):
            LoRABank(A=Matrix(np.ones((4, 8))), B=Matrix(np.zeros((8, 2))), rank=2)
        bank = LoRABank(A=Matrix(np.ones((4, 8))), B=Matrix(np.zeros((8, 4))), rank=2)
        assert len(bank) == 2
        assert [A.shape for A, _ in _blocks(bank)] == [(2, 8), (2, 8)]
        assert [B.shape for _, B in _blocks(bank)] == [(8, 2), (8, 2)]

    def test_embedding_shape_checked(self):
        layer = _seeded_smolora()
        x = np.zeros((8, 2))
        with pytest.raises(ShapeError):
            smolora_forward(layer, x, np.zeros((5, 1)))


class TestInitSMoLoRA:
    def test_same_seed_bitwise_identical(self):
        a = init_smolora(d=16, k_out=16, M=4, N_minus_M=4, r=4, e=8, top_k=1, seed=77)
        b = init_smolora(d=16, k_out=16, M=4, N_minus_M=4, r=4, e=8, top_k=1, seed=77)
        assert np.array_equal(a.W0, b.W0)
        named_a, named_b = a.named(), b.named()
        assert list(named_a) == list(named_b)
        for name, view in named_a.items():
            assert np.array_equal(view, named_b[name]), name

    def test_importance_rows_are_two_successive_draws(self):
        # One 2 x k_out draw gives the values of a 1 x k_out draw for each
        # row, made one after the other from the same generator state.
        layer = init_smolora(d=8, k_out=6, M=3, N_minus_M=2, r=2, e=4, top_k=1, seed=9)
        rng = np.random.default_rng(9)
        rng.normal(size=(6, 8))  # W0
        rng.normal(size=(3 * 2, 8)), rng.normal(size=(2 * 2, 8))  # the banks' A
        rng.normal(size=(3, 8)), rng.normal(size=(2, 4))  # the routers
        I_vu, I_if = rng.normal(0.0, 0.02, size=(1, 6)), rng.normal(0.0, 0.02, size=(1, 6))
        assert np.array_equal(layer.I.a, np.vstack([I_vu, I_if]))

    def test_named_importance_rows_are_views_of_I(self):
        layer = _seeded_smolora(k_out=6)
        FlatParameters(layer.trainable())
        named = layer.named()
        assert list(named)[:4] == ["R_vu", "R_if", "I_vu", "I_if"]
        for row, name in enumerate(("I_vu", "I_if")):
            view = named[name]
            assert view.shape == (1, 6) and view.base is not None
            assert np.shares_memory(view, layer.I.a)
            view[...] = row + 1.0
            assert np.all(layer.I.a[row] == row + 1.0)
        # The two rows sit back to back, so the flat layout is that of two 1 x 6 matrices.
        assert named["I_if"].ctypes.data - named["I_vu"].ctypes.data == 6 * 8

    def test_importance_shape_checked(self):
        layer = _seeded_smolora(k_out=8)
        with pytest.raises(ShapeError, match="importance matrix must be 2x8"):
            SMoLoRALayer(layer.W0, layer.vu_bank, layer.if_bank, layer.R_vu, layer.R_if,
                         Matrix(np.zeros((1, 8))), 1)

    def test_reference_defaults_constructible(self):
        layer = init_smolora(d=64, k_out=64, M=4, N_minus_M=4, r=16, e=64, top_k=1, seed=0)
        assert len(layer.vu_bank) == 4
        assert len(layer.if_bank) == 4
        assert layer.vu_bank.rank == layer.if_bank.rank == 16
        assert layer.top_k == 1
        assert all(np.all(B == 0.0) for _, B in _blocks(layer.vu_bank) + _blocks(layer.if_bank))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            init_smolora(d=8, k_out=8, M=0, N_minus_M=4, r=2, e=4, top_k=1, seed=0)
        with pytest.raises(ValueError):
            init_smolora(d=8, k_out=8, M=2, N_minus_M=2, r=2, e=4, top_k=3, seed=0)


class TestGradients:
    """Each layer's backward rule against central differences of <G, layer output>."""

    def _check_smolora(self, seed, cols, instances, top_k=2):
        layer = _seeded_smolora(seed=seed, top_k=top_k)
        rng = np.random.default_rng(seed + 1)
        _fill_blocks(layer, rng)
        # Random entries of each array by checkpoint name: every block's own.
        params = with_grads(FlatParameters(layer.trainable()), layer.named())
        x = rng.normal(size=(8, cols))
        emb = rng.normal(size=(6, instances))
        G = rng.normal(size=(8, cols))
        worst, checked = rule_fd_error(
            lambda tape: smolora_forward(layer, x, emb, tape), params, x, G,
            per_matrix=10, rng=np.random.default_rng(seed + 2),
        )
        assert checked >= 100
        assert worst < 1e-4

        # Blocks that no instance selected must receive exactly zero gradient.
        routing = []
        smolora_forward(layer, x, emb, routing=routing)
        [r] = routing
        for bank, gate in ((layer.vu_bank, r.vu_gate), (layer.if_bank, r.if_gate)):
            for i in range(len(bank)):
                if not gate[i].any():
                    block = slice(i * bank.rank, (i + 1) * bank.rank)
                    assert np.all(bank.A.grad[block] == 0.0)
                    assert np.all(bank.B.grad[:, block] == 0.0)
        if top_k == 1:
            assert np.all(layer.R_vu.grad == 0.0) and np.all(layer.R_if.grad == 0.0)

    def test_full_composition_matches_finite_differences(self):
        self._check_smolora(seed=50, cols=3, instances=1)

    def test_batched_composition_matches_finite_differences(self):
        # Three instances of two columns each, top-2 gates in both banks.
        self._check_smolora(seed=70, cols=6, instances=3)

    def test_top_one_rule_matches_finite_differences(self):
        self._check_smolora(seed=75, cols=6, instances=3, top_k=1)

    def _check_molora(self, top_k):
        layer = init_molora(d=6, k_out=5, N=4, r=2, top_k=top_k, seed=60)
        rng = np.random.default_rng(61)
        _fill_blocks(layer, rng)
        params = FlatParameters(layer.trainable()).matrices
        x = rng.normal(size=(6, 3))
        G = rng.normal(size=(5, 3))
        worst, checked = rule_fd_error(lambda tape: molora_forward(layer, x, tape), params, x, G)
        assert checked == 6 * 4 + 2 * 6 * 4 + 5 * 2 * 4 + 6 * 3
        assert worst < 1e-4
        if top_k == 1:
            assert np.all(layer.router.grad == 0.0)

    def test_molora_gradients_match_finite_differences(self):
        self._check_molora(top_k=2)

    def test_molora_top_one_gradients_match_finite_differences(self):
        self._check_molora(top_k=1)

    def test_seqlora_layer_gradients_match_finite_differences(self):
        # The rule returns the input's gradient, W0's term included.
        rng = np.random.default_rng(80)
        layer = AdapterLayer("hidden", 6, 5, RunConfig(method="seqlora", rank=2), rng)
        layer.layer.bank.B.a[...] = rng.normal(size=layer.layer.bank.B.shape)
        params = FlatParameters(layer.trainable()).matrices
        x = rng.normal(size=(6, 3))
        emb = rng.normal(size=(64, 1))
        G = rng.normal(size=(5, 3))
        worst, checked = rule_fd_error(lambda tape: layer.forward(x, emb, tape), params, x, G)
        assert checked == 2 * 6 + 5 * 2 + 6 * 3
        assert worst < 1e-4

    @pytest.mark.parametrize("kind", ["seqlora", "molora", "smolora"])
    def test_input_gradient_adds_to_a_later_readers(self, kind):
        # A later reader's gradient of the same input comes in as dx and is
        # added first, as a generic accumulation would add it.
        rng = np.random.default_rng(85)
        cfg = RunConfig(method=kind, rank=2, vu_blocks=2, if_blocks=2, embed_dim=4)
        layer = AdapterLayer("hidden", 6, 6, cfg, rng)
        FlatParameters(layer.trainable())
        x, emb = rng.normal(size=(6, 2)), rng.normal(size=(4, 1))
        tape = Tape()
        tape._ops.append(None)
        layer.forward(x, emb, tape)
        g, earlier = rng.normal(size=(6, 2)), rng.normal(size=(6, 2))
        alone = tape._ops[-1](g)
        assert np.allclose(tape._ops[-1](g, earlier), earlier + alone, rtol=1e-14, atol=1e-15)
        first = Tape()
        layer.forward(x, emb, first)
        assert first._ops[-1](g) is None  # a first rule's input takes no gradient


class TestRouterLogits:
    @pytest.mark.parametrize("bad", [-np.inf, np.inf, np.nan])
    @pytest.mark.parametrize("router", ["R_vu", "R_if", "molora"])
    def test_non_finite_logit_rejected_even_where_top_k_drops_it(self, router, bad):
        # Positive inputs make a row of -inf a logit of -inf, which top-1
        # drops; the logits are checked before the mask.
        rng = np.random.default_rng(90)
        x = rng.uniform(0.5, 1.5, size=(8, 2))
        emb = rng.uniform(0.5, 1.5, size=(6, 1))
        if router == "molora":
            layer = init_molora(d=8, k_out=8, N=4, r=2, top_k=1, seed=91)
            R = layer.router

            def run():
                return molora_forward(layer, x, Tape())

            FlatParameters(layer.trainable())
        else:
            layer = _seeded_smolora(seed=92)
            R = getattr(layer, router)

            def run():
                return smolora_forward(layer, x, emb, Tape())

            FlatParameters(layer.trainable())

        run()
        R.a[2, :] = bad
        # A matmul kernel may meet inf * 0 on the way and say so.
        with np.errstate(invalid="ignore"), pytest.raises(ShapeError, match="router logits"):
            run()
