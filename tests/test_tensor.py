import math

import numpy as np
import pytest
from _oracles import central_diff, mask_then_softmax, rel_err, scalar_softmax

from smolora.errors import ContractError, ShapeError
from smolora.routing import topk_softmax
from smolora.tensor import (
    CosineSchedule,
    FlatParameters,
    Matrix,
    SubMatrix,
    Tape,
    add,
    backward,
    cross_entropy,
    matmul,
    mean_over_columns,
    relu,
    scale_const,
    sgd_step,
    sum_all,
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
        assert Matrix([[1e308, 1e308]]).tolist() == [[1e308, 1e308]]
        assert Matrix([[-1e308], [-1e308]]).cols == 1

    def test_data_layout(self):
        m = Matrix([[1, 2], [3, 4]])
        assert (m.rows, m.cols) == (2, 2)
        assert m.tolist() == [[1.0, 2.0], [3.0, 4.0]]


class TestMatmul:
    def test_identity(self):
        out = matmul(Matrix([[1, 0], [0, 1]]), Matrix([[3], [4]]))
        assert out.tolist() == [[3.0], [4.0]]

    def test_hand_expansion(self):
        out = matmul(Matrix([[1, 2], [3, 4]]), Matrix([[5], [6]]))
        assert out.tolist() == [[17.0], [39.0]]

    def test_dimension_mismatch_names_shapes(self):
        with pytest.raises(ShapeError, match="2x2 @ 3x1"):
            matmul(Matrix([[1, 2], [3, 4]]), Matrix([[1], [2], [3]]))

    def test_associativity_property(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = Matrix(rng.normal(size=(4, 5)))
            b = Matrix(rng.normal(size=(5, 3)))
            c = Matrix(rng.normal(size=(3, 6)))
            left = matmul(matmul(a, b), c).a
            right = matmul(a, matmul(b, c)).a
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


class TestMeanOverColumns:
    def test_arithmetic_mean(self):
        assert mean_over_columns(Matrix([[1, 3], [2, 4]])).tolist() == [[2.0], [3.0]]

    def test_single_column_identity(self):
        col = Matrix([[1.5], [-2.0], [7.0]])
        assert mean_over_columns(col).tolist() == col.tolist()

    def test_zero_case(self):
        assert mean_over_columns(Matrix([[0.0, 0.0, 0.0]])).tolist() == [[0.0]]


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


class TestBackward:
    def test_linear_map_gradient(self):
        # loss = sum(W @ x): dL/dW has each row equal to the row sums of x.
        rng = np.random.default_rng(0)
        W = Matrix(rng.normal(size=(3, 4)))
        x = Matrix(rng.normal(size=(4, 2)))
        tape = Tape()
        tape.watch(W)
        loss = sum_all(matmul(W, x, tape), tape)
        grads = backward(tape, loss)
        expected = np.tile(x.a.sum(axis=1), (3, 1))
        assert np.allclose(grads[W].a, expected, atol=1e-12)

    def test_constant_loss_zero_gradient(self):
        W = Matrix([[1.0, 2.0]])
        x = Matrix([[3.0], [4.0]])
        tape = Tape()
        tape.watch(W)
        loss = sum_all(matmul(Matrix([[1.0, 1.0]]), x, tape), tape)
        grads = backward(tape, loss)
        assert np.all(grads[W].a == 0.0)

    def test_non_scalar_loss_rejected(self):
        tape = Tape()
        m = Matrix([[1.0, 2.0]])
        tape.watch(m)
        out = add(m, m, tape)
        with pytest.raises(ContractError):
            backward(tape, out)

    def test_gradients_accumulate_and_returned_arrays_stay(self):
        rng = np.random.default_rng(1)
        W = Matrix(rng.normal(size=(3, 4)))
        unused = Matrix(rng.normal(size=(2, 5)))
        x = Matrix(rng.normal(size=(4, 2)))
        tape = Tape()
        tape.watch(W, unused)
        loss = sum_all(matmul(W, x, tape), tape)
        first = backward(tape, loss)
        kept = first[W].a.copy()
        second = backward(tape, loss)
        assert np.array_equal(first[W].a, kept)
        assert np.array_equal(second[W].a, 2.0 * kept)
        assert np.all(second[unused].a == 0.0) and second[unused].shape == (2, 5)
        assert set(second) == {W, unused}

    def test_submatrix_gradient_is_a_block_of_its_base(self):
        # W is read whole and its top rows again through a watched view:
        # the two pushes add up in the base's slot.
        rng = np.random.default_rng(2)
        W = Matrix(rng.normal(size=(4, 3)))
        top, bottom = SubMatrix(W, np.s_[:2, :]), SubMatrix(W, np.s_[2:, :])
        x = Matrix(rng.normal(size=(3, 2)))
        tape = Tape()
        tape.watch(top, bottom)
        whole = sum_all(matmul(W, x, tape), tape)
        loss = add(whole, sum_all(matmul(top, x, tape), tape), tape)
        grads = backward(tape, loss)
        expected = np.tile(x.a.sum(axis=1), (4, 1))
        expected[:2] *= 2.0
        assert np.array_equal(grads[top].a, expected[:2])
        assert np.array_equal(grads[bottom].a, expected[2:])
        # The base can be looked up, but only what was watched is iterated.
        assert W in grads and np.array_equal(grads[W].a, expected)
        assert list(grads) == [top, bottom] and len(grads) == 2

    def test_unrecorded_loss_rejected(self):
        tape = Tape()
        with pytest.raises(ContractError):
            backward(tape, Matrix([[1.0]]))

    def test_composite_loss_matches_finite_differences(self):
        # A deep chain exercising every taped op's backward rule at once; W
        # is read twice, so its gradient accumulates over two paths.
        rng = np.random.default_rng(42)
        W = Matrix(rng.normal(size=(8, 6)))
        R = Matrix(rng.normal(size=(6, 6)))
        I1 = Matrix(rng.normal(size=(1, 8)))
        I2 = Matrix(rng.normal(size=(1, 8)))
        x = Matrix(rng.normal(size=(6, 4)))

        def run(tape=None):
            g = relu(matmul(R, x, tape), tape)
            y = add(
                relu(matmul(W, x, tape), tape),
                scale_const(matmul(W, g, tape), 0.5, tape),
                tape,
            )
            uv = add(matmul(I1, y, tape), matmul(I2, relu(y, tape), tape), tape)
            pooled = mean_over_columns(y, tape, groups=2)
            return add(
                cross_entropy(pooled, [2, 5], tape),
                scale_const(sum_all(uv, tape), 0.05, tape),
                tape,
            )

        tape = Tape()
        tape.watch(W, R, I1, I2)
        grads = backward(tape, run(tape))

        checked = 0
        worst = 0.0
        for param in (W, R, I1, I2):
            g = grads[param].a
            for i in range(param.rows):
                for j in range(param.cols):
                    fd = central_diff(lambda: run().item(), param.a, i, j)
                    worst = max(worst, rel_err(g[i, j], fd))
                    checked += 1
        assert checked >= 100
        assert worst < 1e-4


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss = cross_entropy(Matrix([[0.0], [0.0], [0.0], [0.0]]), 1)
        assert loss.item() == pytest.approx(math.log(4.0), abs=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy(Matrix([[0.0], [0.0]]), 2)

    def test_gradient_is_probability_minus_onehot(self):
        logits = Matrix([[0.2], [-1.0], [0.5]])
        tape = Tape()
        tape.watch(logits)
        loss = cross_entropy(logits, 0, tape)
        grads = backward(tape, loss)
        p = np.array(scalar_softmax([0.2, -1.0, 0.5]))
        p[0] -= 1.0
        assert np.allclose(grads[logits].a[:, 0], p, atol=1e-12)


class TestCosineSchedule:
    def test_endpoints_and_midpoint(self):
        s = CosineSchedule(base_rate=0.1, total_steps=10)
        assert s.rate() == pytest.approx(0.1)
        s.current_step = 10
        assert s.rate() == pytest.approx(0.0, abs=1e-18)
        s.current_step = 5
        assert s.rate() == pytest.approx(0.05)

    def test_monotone_non_increasing(self):
        s = CosineSchedule(base_rate=1e-4, total_steps=37)
        rates = []
        for step in range(38):
            s.current_step = step
            rates.append(s.rate())
        assert all(b <= a for a, b in zip(rates, rates[1:]))
        assert all(0.0 <= r <= 1e-4 for r in rates)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            CosineSchedule(base_rate=0.0, total_steps=5)
        with pytest.raises(ValueError):
            CosineSchedule(base_rate=0.1, total_steps=5, current_step=6)


class TestSgdStep:
    def test_single_step(self):
        p = Matrix([[1.0]])
        sgd_step([p], {p: Matrix([[2.0]])}, 0.5)
        assert p.tolist() == [[0.0]]

    def test_zero_rate_is_identity(self):
        p = Matrix([[1.0, -2.0]])
        sgd_step([p], {p: Matrix([[5.0, 5.0]])}, 0.0)
        assert p.tolist() == [[1.0, -2.0]]

    def test_frozen_parameter_untouched(self):
        frozen = Matrix([[3.0]])
        trainable = Matrix([[1.0]])
        grads = {frozen: Matrix([[100.0]]), trainable: Matrix([[1.0]])}
        sgd_step([trainable], grads, 1.0)
        assert frozen.tolist() == [[3.0]]
        assert trainable.tolist() == [[0.0]]

    def test_flat_update_matches_per_parameter_reference(self):
        rng = np.random.default_rng(2)
        params = FlatParameters(Matrix(rng.normal(size=shape)) for shape in [(3, 5), (1, 7), (2, 3)])
        a, b, c = params
        x = Matrix(rng.normal(size=(5, 2)))

        def grads_of(*watched):
            tape = Tape()
            tape.watch(*watched)
            ax = matmul(a, x, tape)
            return backward(tape, add(sum_all(ax, tape), sum_all(matmul(c, ax, tape), tape), tape))

        grads = grads_of(params)  # the buffer lends the tape its layout
        one_by_one = grads_of(*params)
        assert np.array_equal(grads.flat, one_by_one.flat)
        expected = [p.a - 0.1 * grads[p].a for p in params]
        sgd_step(params, grads, 0.1)
        for p, want in zip(params, expected):
            assert np.array_equal(p.a, want)
            assert np.shares_memory(p.a, params.flat)
            assert p.a.ctypes.data % 64 == 0
        assert np.array_equal(b.a, expected[1])  # no gradient reached b

    def test_packed_matrix_cannot_be_packed_again(self):
        p = Matrix([[1.0, 2.0]])
        FlatParameters([p])
        with pytest.raises(ContractError):
            FlatParameters([p])

    def test_shape_mismatch(self):
        p = Matrix([[1.0, 2.0]])
        with pytest.raises(ShapeError):
            sgd_step([p], {p: Matrix([[1.0]])}, 0.1)
