import math

import numpy as np
import pytest
from _oracles import mask_then_softmax, rule_fd_error, scalar_softmax

from smolora.errors import ContractError, ShapeError
from smolora.lora import LoRABank, init_lora_bank, lora_apply
from smolora import routing
from smolora.routing import topk_softmax
from smolora.tensor import (
    FlatParameters,
    Matrix,
    Tape,
    backward,
    cross_entropy,
    matmul,
    relu_pool,
    run_means,
    sgd_step,
    softmax_back,
)

# The most negative finite float64.
LOWEST = float(np.finfo(np.float64).min)


class TestMatrix:
    def test_rejects_degenerate_dimensions(self):
        with pytest.raises(ShapeError):
            Matrix(np.zeros((1, 0)))
        with pytest.raises(ShapeError):
            Matrix(np.zeros((0, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ShapeError):
            Matrix([[1.0, np.nan]])
        with pytest.raises(ShapeError):
            Matrix([[np.inf]])
        with pytest.raises(ShapeError):
            Matrix([[2.0], [-np.inf]])

    def test_finite_entries_with_overflowing_sum_accepted(self):
        # Outside data is scanned entry by entry: finite entries whose sum
        # overflows are accepted, with no overflow warning.
        assert Matrix([[1e308, 1e308]]).a.tolist() == [[1e308, 1e308]]
        assert Matrix([[-1e308], [-1e308]]).shape == (2, 1)

    def test_data_layout(self):
        m = Matrix([[1, 2], [3, 4]])
        assert m.shape == (2, 2)
        assert m.a.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert m.a.flags.c_contiguous and m.a.flags.owndata


class TestMatmul:
    def test_identity(self):
        out = matmul(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([[3.0], [4.0]]))
        assert out.tolist() == [[3.0], [4.0]]

    def test_hand_expansion(self):
        out = matmul(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[5.0], [6.0]]))
        assert out.tolist() == [[17.0], [39.0]]

    def test_dimension_mismatch_names_shapes(self):
        with pytest.raises(ShapeError, match="2x2 @ 3x1"):
            matmul(np.ones((2, 2)), np.ones((3, 1)))

    def test_associativity_property(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.normal(size=(4, 5))
            b = rng.normal(size=(5, 3))
            c = rng.normal(size=(3, 6))
            left = matmul(matmul(a, b), c)
            right = matmul(a, matmul(b, c))
            assert np.allclose(left, right, rtol=1e-9, atol=1e-12)


class TestSoftmaxColumns:
    """The softmax half of the router gate, `routing.topk_softmax`, keeping every row."""

    def test_symmetry(self):
        out = topk_softmax(np.array([[0.0], [0.0]]), 2)
        assert out.tolist() == [[0.5], [0.5]]

    def test_scalar_oracle(self):
        expected = scalar_softmax([1.5, 0.9])
        out = topk_softmax(np.array([[1.5], [0.9]]), 2)
        assert out[0, 0] == pytest.approx(expected[0], abs=1e-4)
        assert out[1, 0] == pytest.approx(expected[1], abs=1e-4)
        assert out[0, 0] == pytest.approx(0.6457, abs=1e-4)
        assert out[1, 0] == pytest.approx(0.3543, abs=1e-4)

    def test_sentinel_maps_to_exact_zero(self):
        # A dropped entry is an exact 0, not an underflowed exp.
        for k in (1, 2):
            out = topk_softmax(np.array([[3.0], [LOWEST], [2.0]]), k)
            assert out[1, 0] == 0.0 and not np.signbit(out[1, 0])
        assert topk_softmax(np.array([[3.0], [-3.0]]), 1).tolist() == [[1.0], [0.0]]

    def test_columns_sum_to_one(self):
        rng = np.random.default_rng(5)
        out = topk_softmax(rng.normal(scale=10.0, size=(7, 9)), 7)
        assert np.all(np.abs(out.sum(axis=0) - 1.0) <= 1e-12)

    def test_fully_masked_column_rejected(self):
        # A column of -inf logits, all masked, has nothing to normalize; it
        # is rejected at every k, beside a column that is fine.
        for k in (1, 2):
            with pytest.raises(ShapeError):
                topk_softmax(np.array([[1.0, -np.inf], [2.0, -np.inf]]), k)


class TestRunMeans:
    def test_arithmetic_mean(self):
        assert run_means(np.array([[1.0, 3.0], [2.0, 4.0]]), 2).tolist() == [[2.0], [3.0]]

    def test_single_column_identity(self):
        col = np.array([[1.5], [-2.0], [7.0]])
        assert run_means(col, 1).tolist() == col.tolist()

    def test_zero_case(self):
        assert run_means(np.zeros((1, 3)), 3).tolist() == [[0.0]]

    @pytest.mark.parametrize("s", [1, 2, 3, 7])
    def test_bit_equal_to_ndarray_mean(self, s):
        a = 1e3 * np.random.default_rng(s).normal(size=(9, 4 * s))
        want = a.reshape(9, 4, s).mean(axis=2)
        assert np.array_equal(run_means(a, s), want)
        assert np.array_equal(relu_pool(a, 4), np.maximum(a, 0.0).reshape(9, 4, s).mean(axis=2))

    def test_bit_equal_to_ndarray_mean_at_the_hidden_width(self):
        # The hidden layer's output over a 96-instance test split.
        a = np.random.default_rng(64).normal(size=(64, 192))
        assert run_means(a, 2).tobytes() == a.reshape(64, 96, 2).mean(axis=2).tobytes()

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_signed_zeros_as_ndarray_mean(self, s):
        # numpy's sum starts from +0.0, so a run of -0.0 means +0.0.
        rng = np.random.default_rng(70 + s)
        a = rng.choice([-0.0, 0.0, 1.5, -1.5], size=(8, 6 * s))
        a[0] = -0.0
        assert run_means(a, s).tobytes() == a.reshape(8, 6, s).mean(axis=2).tobytes()


class TestReluPool:
    @pytest.mark.parametrize("groups", [2, 3, 12])
    def test_relu_pool_rule_as_np_repeat(self, groups):
        rng = np.random.default_rng(90 + groups)
        m = rng.normal(size=(10, 12))
        g = rng.normal(size=(10, groups))
        tape = Tape()
        relu_pool(m, groups, tape)
        s = 12 // groups
        want = np.repeat(g / s, s, axis=1) * (m > 0)
        assert tape._ops[0](g).tobytes() == want.tobytes()

    def test_relu_pool_rejects_uneven_groups(self):
        for groups in (0, 5):
            with pytest.raises(ShapeError, match="equal groups"):
                relu_pool(np.ones((3, 12)), groups)


def test_softmax_back_matches_np_sum():
    rng = np.random.default_rng(8)
    y = topk_softmax(rng.normal(size=(5, 6)), 3)
    dy = rng.normal(size=(5, 6))
    assert np.array_equal(softmax_back(y, dy), y * (dy - np.sum(dy * y, axis=0, keepdims=True)))


class TestTopkMask:
    """The top-k half of the router gate, `routing.topk_softmax`."""

    def test_exhaustive_sort_oracle(self):
        # Top-1, which writes its one-hot gate directly, and top-2, through
        # the softmax, against the same oracle.
        vals = [0.2, 1.5, -0.3, 0.9]
        order = sorted(range(4), key=lambda i: (-vals[i], i))
        for k, kept in ((1, [1]), (2, [1, 3])):
            out = topk_softmax(np.array([[v] for v in vals]), k)
            assert [i for i in range(4) if out[i, 0] > 0.0] == sorted(order[:k]) == kept
            assert out[:, 0].tolist() == pytest.approx(mask_then_softmax(vals, k), abs=1e-15)

    def test_full_selection_is_identity(self):
        # Keeping every row is the plain softmax of the column.
        v = [0.3, -1.0, 2.2]
        out = topk_softmax(np.array([[x] for x in v]), 3)
        assert out[:, 0].tolist() == pytest.approx(scalar_softmax(v), abs=1e-15)

    def test_tie_breaks_to_lowest_index(self):
        for k in (1, 2):
            out = topk_softmax(np.array([[7.0], [7.0], [7.0]]), k)
            assert [i for i in range(3) if out[i, 0] > 0.0] == list(range(k))

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            topk_softmax(np.array([[1.0], [2.0]]), 3)
        with pytest.raises(ValueError):
            topk_softmax(np.array([[1.0], [2.0]]), 0)

    def test_exactly_k_finite_survivors(self):
        rng = np.random.default_rng(3)
        for k in (1, 2, 5, 9):
            out = topk_softmax(rng.normal(size=(9, 1)), k)
            assert int((out != 0.0).sum()) == k


    def test_top_one_gate_is_a_fresh_writable_array(self):
        # The one-hot columns come from a cached identity, which stays
        # read-only; each gate is a new array that owns its entries.
        logits = np.array([[0.1, 2.0, -1.0], [1.0, 0.0, -2.0], [0.5, 0.3, 3.0]])
        first, second = topk_softmax(logits, 1), topk_softmax(logits, 1)
        assert first.tolist() == [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
        assert first.flags.writeable and first.flags.owndata
        assert not np.shares_memory(first, second)
        first[...] = 7.0
        assert topk_softmax(logits, 1).tolist() == second.tolist()
        eye = routing._identity(3)
        assert eye is routing._identity(3) and not eye.flags.writeable
        assert np.array_equal(eye, np.eye(3))


class TestBackward:
    def test_rules_run_in_reverse_and_tuples_spread_over_arguments(self):
        # The last rule gets d loss / d loss = 1; a rule that returns a
        # tuple passes the rule before it several arguments.
        calls = []
        tape = Tape()
        tape._ops.append(lambda g: calls.append(("first", g)))
        tape._ops.append(lambda a, b: calls.append(("second", a, b)) or a + b)
        tape._ops.append(lambda g: (2.0 * g, 3.0 * g))
        backward(tape, 0.5)
        assert calls == [("second", 2.0, 3.0), ("first", 5.0)]

    def test_non_finite_loss_rejected(self):
        tape = Tape()
        tape._ops.append(lambda g: None)
        for loss in (np.nan, np.inf):
            with pytest.raises(ShapeError):
                backward(tape, loss)

    def test_block_views_are_blocks_of_the_packed_bank(self):
        # A packed bank's named blocks are views of its A and B in the flat
        # array: each is its block of the bank, and one update of the flat
        # array moves them by their blocks of the bank's gradients.
        rng = np.random.default_rng(2)
        bank = LoRABank(Matrix(rng.normal(size=(4, 6))), Matrix(rng.normal(size=(6, 4))), 2)
        assert bank.A.grad is None and bank.B.grad is None
        params = FlatParameters([bank.A, bank.B])
        assert params.matrices == (bank.A, bank.B)
        views = bank.named("vu")
        assert list(views) == ["vu0.A", "vu0.B", "vu1.A", "vu1.B"]
        assert np.array_equal(views["vu1.A"], bank.A.a[2:])
        assert np.array_equal(views["vu1.B"], bank.B.a[:, 2:])
        assert all(np.shares_memory(v, params.flat) for v in views.values())
        bank.A.grad[...] = rng.normal(size=(4, 6))
        bank.B.grad[...] = rng.normal(size=(6, 4))
        want = {"vu0.A": views["vu0.A"] - 0.5 * bank.A.grad[:2],
                "vu0.B": views["vu0.B"] - 0.5 * bank.B.grad[:, :2],
                "vu1.A": views["vu1.A"] - 0.5 * bank.A.grad[2:],
                "vu1.B": views["vu1.B"] - 0.5 * bank.B.grad[:, 2:]}
        sgd_step(params, 0.5)
        for name, view in views.items():
            assert np.array_equal(view, want[name]), name

    def test_unrecorded_loss_rejected(self):
        tape = Tape()
        with pytest.raises(ContractError):
            backward(tape, 1.0)

    def test_unpacked_parameters_rejected_by_a_taped_kernel(self):
        # A rule writes its parameters' gradients into their FlatParameters
        # views; a kernel whose parameters have none refuses to record.
        rng = np.random.default_rng(3)
        bank = init_lora_bank(6, 4, 1, 2, rng)
        x = rng.normal(size=(6, 2))
        w0 = rng.normal(size=(4, 6))
        with pytest.raises(ContractError, match="FlatParameters"):
            lora_apply(bank, x, w0, Tape())
        FlatParameters([bank.A, bank.B])
        tape = Tape()
        lora_apply(bank, x, w0, tape)
        assert len(tape._ops) == 1

    @pytest.mark.parametrize("groups", [1, 3])
    def test_relu_pool_rule_matches_finite_differences(self, groups):
        rng = np.random.default_rng(40 + groups)
        x = rng.normal(size=(10, 12))
        G = rng.normal(size=(10, groups))
        worst, n = rule_fd_error(lambda tape: relu_pool(x, groups, tape), [], x, G)
        assert n == 120 and worst < 1e-4


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss, _ = cross_entropy(np.zeros((4, 1)), 1)
        assert loss == pytest.approx(math.log(4.0), abs=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy(np.zeros((2, 1)), 2)

    def test_label_arrays_checked_at_once(self):
        logits = np.zeros((3, 4))
        loss, d = cross_entropy(logits, np.array([0, 2, 1, 2]))
        assert loss == pytest.approx(4.0 * math.log(3.0), abs=1e-12)
        assert d.shape == (3, 4)
        with pytest.raises(ShapeError, match="3 labels for 4 logit columns"):
            cross_entropy(logits, np.array([0, 1, 2]))
        for bad in (-1, 3):
            with pytest.raises(ValueError, match=f"label {bad} out of range for 3 classes"):
                cross_entropy(logits, np.array([0, bad, 1, bad]))

    def test_range_error_names_the_first_bad_label(self):
        logits = np.zeros((3, 5))
        for labels, first in (([0, 5, -1, 1, 2], 5), ([-2, 1, 7, 0, 0], -2), ([0, 1, 2, 2, 3], 3)):
            with pytest.raises(ValueError, match=rf"^label {first} out of range for 3 classes$"):
                cross_entropy(logits, np.array(labels))

    def test_bare_int_label_is_one_column(self):
        logits = np.array([[0.2], [-1.0], [0.5]])
        for label in range(3):
            loss, d = cross_entropy(logits, label)
            want_loss, want_d = cross_entropy(logits, np.array([label]))
            assert loss == want_loss and np.array_equal(d, want_d)
            assert loss == pytest.approx(-math.log(scalar_softmax([0.2, -1.0, 0.5])[label]), abs=1e-12)

    def test_gradient_is_probability_minus_onehot(self):
        logits = np.array([[0.2], [-1.0], [0.5]])
        _, d = cross_entropy(logits, 0)
        p = np.array(scalar_softmax([0.2, -1.0, 0.5]))
        p[0] -= 1.0
        assert np.allclose(d[:, 0], p, atol=1e-12)


class TestSgdStep:
    def test_single_step(self):
        p = Matrix([[1.0]])
        params = FlatParameters([p])
        p.grad[...] = 2.0
        sgd_step(params, 0.5)
        assert p.a.tolist() == [[0.0]]

    def test_zero_rate_is_identity(self):
        p = Matrix([[1.0, -2.0]])
        params = FlatParameters([p])
        p.grad[...] = 5.0
        sgd_step(params, 0.0)
        assert p.a.tolist() == [[1.0, -2.0]]

    def test_frozen_parameter_untouched(self):
        frozen = Matrix([[3.0]])
        trainable = Matrix([[1.0]])
        params = FlatParameters([trainable])
        trainable.grad[...] = 1.0
        sgd_step(params, 1.0)
        assert frozen.a.tolist() == [[3.0]]
        assert trainable.a.tolist() == [[0.0]]

    def test_flat_update_matches_per_parameter_reference(self):
        rng = np.random.default_rng(2)
        params = FlatParameters(Matrix(rng.normal(size=shape)) for shape in [(3, 5), (1, 7), (2, 3)])
        a, b, c = params.matrices
        a.grad[...] = rng.normal(size=a.shape)
        c.grad[...] = rng.normal(size=c.shape)
        expected = [p.a - 0.1 * p.grad for p in params.matrices]
        sgd_step(params, 0.1)
        for p, want in zip(params.matrices, expected):
            assert np.array_equal(p.a, want)
            assert np.shares_memory(p.a, params.flat)
            assert np.shares_memory(p.grad, params.grad)
        assert params.flat.size == params.grad.size == 15 + 7 + 6  # back to back
        assert np.array_equal(b.a, expected[1])  # no gradient reached b

    def test_packed_matrix_cannot_be_packed_again(self):
        p = Matrix([[1.0, 2.0]])
        FlatParameters([p])
        with pytest.raises(ContractError):
            FlatParameters([p])

    def test_non_finite_gradient_rejected_before_the_update(self):
        p = Matrix([[1.0, 2.0]])
        params = FlatParameters([p])
        p.grad[0, 1] = np.inf
        with pytest.raises(ShapeError, match="gradients"):
            sgd_step(params, 0.1)
        assert p.a.tolist() == [[1.0, 2.0]]
