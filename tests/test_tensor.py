"""Autodiff core: forward semantics, tape replay, gradient checks."""

import math
import re

import numpy as np
import pytest

from sarl import tensor as T
from sarl.gradcheck import check_gradients
from sarl.tensor import DimensionError, Tape, Tensor


def matmul_oracle(a, b):
    """Triple-loop matrix product."""
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for l in range(k):
                out[i, j] += a[i, l] * b[l, j]
    return out


def conv2d_oracle(x, kernel, bias):
    """Four explicit loops over output pixels and window taps, zero padding."""
    ks, stride, pad = T.CONV_KERNEL, T.CONV_STRIDE, T.CONV_PADDING
    h, w, cin = x.shape
    k = kernel.reshape(ks, ks, cin, -1)
    hout = len(range(0, h + 2 * pad - ks + 1, stride))
    wout = len(range(0, w + 2 * pad - ks + 1, stride))
    out = np.tile(bias, (hout, wout, 1))
    for i in range(hout):
        for j in range(wout):
            for dy in range(ks):
                for dx in range(ks):
                    row, col = i * stride + dy - pad, j * stride + dx - pad
                    if 0 <= row < h and 0 <= col < w:
                        out[i, j] += x[row, col] @ k[dy, dx]
    return out


class TestMatmul:
    def test_identity(self):
        eye = Tensor(np.eye(2))
        out = T.matmul(eye, eye)
        np.testing.assert_array_equal(out.data, np.eye(2))

    def test_identity_right(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = T.matmul(a, Tensor(np.eye(2)))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_against_triple_loop(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        out = T.matmul(Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.data, matmul_oracle(a, b), atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    @pytest.mark.parametrize("shape_a,shape_b", [
        ((2, 3, 4), (3, 4, 5)),
        ((2, 3, 4), (3, 5)),
        ((3, 4), (2, 4, 5)),
        ((2, 3, 4), (2, 5, 6)),
    ], ids=["unequal-leading-dims", "3d-by-2d", "2d-by-3d", "stacked-inner-dims"])
    def test_stacked_shapes_must_match(self, shape_a, shape_b):
        # a right operand has a's leading axes or none, and the inner
        # dims agree; a (2, 3, 4) x (4, 5) product is legal (see below)
        with pytest.raises(DimensionError, match=re.escape(f"{shape_a} x {shape_b}")):
            T.matmul(Tensor(np.ones(shape_a)), Tensor(np.ones(shape_b)))

    @pytest.mark.parametrize("shape_b", [(4, 2), (3, 4, 2)], ids=["shared", "stacked"])
    def test_leading_axis_matches_loop(self, shape_b):
        rng = np.random.default_rng(4)
        a = Tensor(rng.normal(size=(3, 5, 4)))
        b = Tensor(rng.normal(size=shape_b))
        before = [a.data.copy(), b.data.copy()]
        out = T.matmul(a, b).data
        assert out.shape == (3, 5, 2)
        for i in range(3):
            b_i = b.data if b.data.ndim == 2 else b.data[i]
            np.testing.assert_allclose(out[i], matmul_oracle(a.data[i], b_i),
                                       rtol=0, atol=1e-12)
        np.testing.assert_array_equal(a.data, before[0])
        np.testing.assert_array_equal(b.data, before[1])
        assert check_gradients(
            lambda: T.sum_(T.pow_const(T.matmul(a, b), 2)), [a, b]) < 1e-4


class TestSoftmax:
    def test_equal_entries_are_uniform(self):
        out = T.softmax(Tensor([5.0, 5.0, 5.0, 5.0]), axis=0)
        np.testing.assert_allclose(out.data, 0.25, atol=1e-15)

    def test_closed_form(self):
        out = T.softmax(Tensor([0.0, math.log(3.0)]), axis=0)
        np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 3))
        a = T.softmax(Tensor(x), axis=1)
        b = T.softmax(Tensor(x + 17.5), axis=1)
        np.testing.assert_allclose(a.data, b.data, atol=1e-12)

    def test_slices_sum_to_one(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(5, 4)) * 10
        out = T.softmax(Tensor(x), axis=1)
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(out.data > 0) and np.all(out.data < 1)

    def test_input_and_upstream_gradient_untouched(self):
        # the op works in place, but only on buffers it allocated
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(2, 3, 4)))
        before = x.data.copy()
        upstream = rng.normal(size=(2, 3, 4))
        with Tape() as tape:
            out = T.softmax(x, axis=2)
            loss = T.sum_(T.mul(out, upstream))
            tape.backward(loss)
        np.testing.assert_array_equal(x.data, before)
        np.testing.assert_array_equal(out.grad, upstream)


class TestAttention:
    @pytest.mark.parametrize("num_p,n_heads", [(5, 1), (5, 4), (1, 4)])
    def test_gradients(self, num_p, n_heads):
        rng = np.random.default_rng(40 + num_p + n_heads)
        q, k, v = (Tensor(rng.normal(size=(num_p, 8))) for _ in range(3))
        assert check_gradients(
            lambda: T.sum_(T.pow_const(T.attention(q, k, v, n_heads), 2)),
            [q, k, v]) < 1e-4

    def test_inputs_and_upstream_gradient_untouched(self):
        # the op works in place, but only on buffers it allocated
        rng = np.random.default_rng(51)
        q, k, v = (Tensor(rng.normal(size=(6, 8))) for _ in range(3))
        before = [t.data.copy() for t in (q, k, v)]
        upstream = rng.normal(size=(6, 8))
        with Tape() as tape:
            out = T.attention(q, k, v, 4)
            loss = T.sum_(T.mul(out, upstream))
            tape.backward(loss)
        for t, data in zip((q, k, v), before):
            np.testing.assert_array_equal(t.data, data)
        np.testing.assert_array_equal(out.grad, upstream)

    @pytest.mark.parametrize("shapes,n_heads", [
        (((4, 8), (4, 8), (3, 8)), 2),
        (((4, 8), (4, 6), (4, 8)), 2),
        (((2, 4, 8), (3, 4, 8), (2, 4, 8)), 2),
        (((4, 8), (4, 8), (4, 8)), 3),
        (((4, 8), (4, 8), (4, 8)), 0),
    ], ids=["rows", "width", "stacked", "heads-divide", "no-heads"])
    def test_bad_shapes_rejected(self, shapes, n_heads):
        # mismatched leading axes are refused like any other mismatch
        q, k, v = (Tensor(np.ones(s)) for s in shapes)
        with pytest.raises(DimensionError, match=re.escape(
                ", ".join(map(str, shapes)) if n_heads == 2 else "n_heads")):
            T.attention(q, k, v, n_heads)

    def test_stack_of_three(self):
        # each leading index attends over its own rows: a per-sample loop
        # is the oracle, gradients pass, inputs and upstream stay intact
        rng = np.random.default_rng(52)
        q, k, v = (Tensor(rng.normal(size=(3, 5, 8))) for _ in range(3))
        before = [t.data.copy() for t in (q, k, v)]
        upstream = rng.normal(size=(3, 5, 8))
        with Tape() as tape:
            out = T.attention(q, k, v, 4)
            tape.backward(T.sum_(T.mul(out, upstream)))
        for i in range(3):
            one = T.attention(q.data[i], k.data[i], v.data[i], 4).data
            np.testing.assert_allclose(out.data[i], one, rtol=0, atol=1e-12)
        for t, data in zip((q, k, v), before):
            np.testing.assert_array_equal(t.data, data)
        np.testing.assert_array_equal(out.grad, upstream)
        assert check_gradients(
            lambda: T.sum_(T.pow_const(T.attention(q, k, v, 4), 2)),
            [q, k, v]) < 1e-4


class TestBilinearScores:
    @pytest.mark.parametrize("num_p,num_c", [(5, 3), (1, 3), (5, 1)])
    def test_gradients(self, num_p, num_c):
        rng = np.random.default_rng(60 + num_p + num_c)
        fu, sv, w = (Tensor(rng.normal(size=s))
                     for s in ((num_p, 4), (num_c, 4), (4, 1)))
        assert check_gradients(
            lambda: T.sum_(T.pow_const(T.bilinear_scores(fu, sv, w), 2)),
            [fu, sv, w]) < 1e-4

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(61)
        fu, sv, w = rng.normal(size=(6, 5)), rng.normal(size=(4, 5)), rng.normal(size=(5, 1))
        out = T.bilinear_scores(Tensor(fu), Tensor(sv), Tensor(w)).data
        for p in range(6):
            for c in range(4):
                assert abs(out[p, c] - np.tanh(fu[p] * sv[c]) @ w[:, 0]) < 1e-12

    def test_inputs_and_upstream_gradient_untouched(self):
        # the op works in place, but only on buffers it allocated
        rng = np.random.default_rng(62)
        fu, sv, w = (Tensor(rng.normal(size=s)) for s in ((6, 5), (4, 5), (5, 1)))
        before = [t.data.copy() for t in (fu, sv, w)]
        upstream = rng.normal(size=(6, 4))
        with Tape() as tape:
            out = T.bilinear_scores(fu, sv, w)
            tape.backward(T.sum_(T.mul(out, upstream)))
        for t, data in zip((fu, sv, w), before):
            np.testing.assert_array_equal(t.data, data)
        np.testing.assert_array_equal(out.grad, upstream)

    @pytest.mark.parametrize("shapes", [
        ((4, 5), (3, 6), (5, 1)),
        ((4, 5), (3, 5), (5, 2)),
        ((4, 5), (3, 5), (5,)),
        ((2, 4, 5), (3, 5), (5, 1)),
        ((2, 4, 5), (3, 3, 5), (5, 1)),
    ], ids=["width", "w-columns", "w-vector", "stacked", "unequal-leading-dims"])
    def test_bad_shapes_rejected(self, shapes):
        fu, sv, w = (Tensor(np.ones(s)) for s in shapes)
        with pytest.raises(DimensionError, match=re.escape(
                ", ".join(map(str, shapes)))):
            T.bilinear_scores(fu, sv, w)

    def test_stack_of_three(self):
        rng = np.random.default_rng(63)
        fu, sv, w = (Tensor(rng.normal(size=s))
                     for s in ((3, 5, 4), (3, 2, 4), (4, 1)))
        before = [t.data.copy() for t in (fu, sv, w)]
        upstream = rng.normal(size=(3, 5, 2))
        with Tape() as tape:
            out = T.bilinear_scores(fu, sv, w)
            tape.backward(T.sum_(T.mul(out, upstream)))
        for i in range(3):
            one = T.bilinear_scores(fu.data[i], sv.data[i], w.data).data
            np.testing.assert_allclose(out.data[i], one, rtol=0, atol=1e-12)
        for t, data in zip((fu, sv, w), before):
            np.testing.assert_array_equal(t.data, data)
        np.testing.assert_array_equal(out.grad, upstream)
        assert check_gradients(
            lambda: T.sum_(T.pow_const(T.bilinear_scores(fu, sv, w), 2)),
            [fu, sv, w]) < 1e-4


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        with Tape() as tape:
            loss = T.sum_(x)
            tape.backward(loss)
        np.testing.assert_array_equal(x.grad, np.ones((2, 2)))

    def test_square_sum(self):
        x = Tensor([1.0, 2.0])
        with Tape() as tape:
            loss = T.sum_(T.mul(x, x))
            tape.backward(loss)
        np.testing.assert_allclose(x.grad, [2.0, 4.0], atol=1e-15)

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0])
        with Tape() as tape:
            y = T.mul(x, x)
            with pytest.raises(ValueError):
                tape.backward(y)

    def test_unrecorded_loss_rejected(self):
        with Tape() as tape:
            loose = Tensor(1.0)
            with pytest.raises(ValueError):
                tape.backward(loose)

    def test_reused_tensor_accumulates(self):
        x = Tensor([3.0])
        with Tape() as tape:
            loss = T.sum_(T.add(T.mul(x, x), x))  # x^2 + x -> 2x + 1
            tape.backward(loss)
        np.testing.assert_allclose(x.grad, [7.0], atol=1e-15)

    def test_composite_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        a = Tensor(rng.normal(size=(4, 3)))
        b = Tensor(rng.normal(size=(3, 5)))
        c = Tensor(rng.normal(size=(5,)))

        def build():
            h = T.tanh(T.matmul(a, b))
            s = T.softmax(T.add(h, c), axis=1)
            return T.mean(T.mul(s, h))

        assert check_gradients(build, [a, b, c]) < 1e-4


class TestPrimitiveGradients:
    """Every differentiable primitive passes a finite-difference check."""

    @pytest.mark.parametrize("name,builder", [
        ("add", lambda a, b: T.sum_(T.pow_const(T.add(a, b), 2))),
        ("sub", lambda a, b: T.sum_(T.pow_const(T.sub(a, b), 2))),
        ("mul", lambda a, b: T.sum_(T.mul(a, b))),
        ("concat", lambda a, b: T.sum_(T.pow_const(T.concat([a, b], axis=0), 2))),
    ])
    def test_binary(self, name, builder):
        rng = np.random.default_rng(hash(name) % 2**32)
        a = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=(3, 4)))
        assert check_gradients(lambda: builder(a, b), [a, b]) < 1e-4

    @pytest.mark.parametrize("name,builder", [
        ("tanh", lambda x: T.sum_(T.tanh(x))),
        ("sigmoid", lambda x: T.sum_(T.sigmoid(x))),
        ("softmax", lambda x: T.sum_(T.pow_const(T.softmax(x, axis=1), 2))),
        ("mean_axis", lambda x: T.sum_(T.pow_const(T.mean(x, axis=0), 2))),
        ("transpose", lambda x: T.sum_(T.pow_const(T.transpose(x), 2))),
        ("reshape", lambda x: T.sum_(T.pow_const(T.reshape(x, (4, 3)), 2))),
    ])
    def test_unary(self, name, builder):
        rng = np.random.default_rng(hash(name) % 2**32)
        x = Tensor(rng.normal(size=(3, 4)))
        assert check_gradients(lambda: builder(x), [x]) < 1e-4

    def test_positive_domain_ops(self):
        rng = np.random.default_rng(21)
        x = Tensor(rng.uniform(0.2, 2.0, size=(3, 4)))
        assert check_gradients(lambda: T.sum_(T.log(x)), [x]) < 1e-4
        assert check_gradients(lambda: T.sum_(T.sqrt(x)), [x]) < 1e-4
        assert check_gradients(lambda: T.sum_(T.pow_const(x, 1.7)), [x]) < 1e-4

    def test_div(self):
        rng = np.random.default_rng(22)
        a = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.uniform(0.5, 2.0, size=(3, 4)))
        assert check_gradients(lambda: T.sum_(T.div(a, b)), [a, b]) < 1e-4

    def test_broadcast_vector_over_rows(self):
        rng = np.random.default_rng(23)
        m = Tensor(rng.normal(size=(4, 3)))
        v = Tensor(rng.normal(size=(3,)))
        out = T.add(m, v)
        np.testing.assert_allclose(out.data, m.data + v.data, atol=1e-15)
        assert check_gradients(lambda: T.sum_(T.pow_const(T.add(m, v), 2)),
                               [m, v]) < 1e-4

    def test_relu_away_from_kink(self):
        rng = np.random.default_rng(24)
        x = Tensor(np.where(np.abs(z := rng.normal(size=(3, 4))) < 0.1, 0.5, z))
        assert check_gradients(lambda: T.sum_(T.relu(x)), [x]) < 1e-4

    def test_clamp_interior(self):
        x = Tensor([[-2.0, 0.3], [0.9, 4.0]])
        out = T.clamp(x, 0.0, 1.0)
        np.testing.assert_array_equal(out.data, [[0.0, 0.3], [0.9, 1.0]])
        with Tape() as tape:
            loss = T.sum_(T.clamp(x, 0.0, 1.0))
            tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [[0.0, 1.0], [1.0, 0.0]])

    def test_conv2d(self):
        rng = np.random.default_rng(25)
        img = Tensor(rng.normal(size=(6, 6, 2)))
        kern = Tensor(rng.normal(size=(18, 3)) * 0.5)
        bias = Tensor(rng.normal(size=(3,)) * 0.1)
        assert check_gradients(
            lambda: T.sum_(T.pow_const(T.conv2d(img, kern, bias), 2)),
            [img, kern, bias]) < 1e-4


class TestConv2d:
    @pytest.mark.parametrize("shape", [(7, 9, 2), (1, 1, 1), (2, 3, 4), (8, 8, 3)])
    def test_matches_loop_oracle(self, shape):
        rng = np.random.default_rng(sum(shape))
        x = rng.normal(size=shape)
        kernel = rng.normal(size=(T.CONV_KERNEL ** 2 * shape[2], 5))
        bias = rng.normal(size=5)
        np.testing.assert_allclose(T.conv2d(x, kernel, bias).data,
                                   conv2d_oracle(x, kernel, bias),
                                   rtol=0, atol=1e-12)

    def test_stack_of_three(self):
        rng = np.random.default_rng(27)
        img = Tensor(rng.normal(size=(3, 5, 6, 2)))
        kern = Tensor(rng.normal(size=(18, 3)) * 0.5)
        bias = Tensor(rng.normal(size=(3,)) * 0.1)
        before = [t.data.copy() for t in (img, kern, bias)]
        upstream = rng.normal(size=(3, 3, 3, 3))
        with Tape() as tape:
            out = T.conv2d(img, kern, bias)
            tape.backward(T.sum_(T.mul(out, upstream)))
        for i in range(3):
            np.testing.assert_allclose(
                out.data[i], conv2d_oracle(img.data[i], kern.data, bias.data),
                rtol=0, atol=1e-12)
        for t, data in zip((img, kern, bias), before):
            np.testing.assert_array_equal(t.data, data)
        np.testing.assert_array_equal(out.grad, upstream)
        assert check_gradients(
            lambda: T.sum_(T.pow_const(T.conv2d(img, kern, bias), 2)),
            [img, kern, bias]) < 1e-4

    def test_rank_below_three_rejected(self):
        with pytest.raises(DimensionError, match=re.escape("(4, 4)")):
            T.conv2d(np.ones((4, 4)), np.ones((9, 2)), np.zeros(2))


class TestSampleAxisHelpers:
    """The shape ops the sample axis leans on."""

    def test_reshape_to_own_shape_records_nothing(self):
        x = Tensor(np.ones((4, 3)))
        with Tape() as tape:
            assert T.reshape(x, (4, 3)) is x
            assert T.reshape(x, (-1, 3)) is x
            T.reshape(x, (1, 4, 3))
        assert len(tape) == 1

    def test_unstack_and_stack(self):
        rng = np.random.default_rng(30)
        x = Tensor(rng.normal(size=(3, 2, 4)))
        parts = T.unstack(x)
        assert len(parts) == 3
        for i, part in enumerate(parts):
            np.testing.assert_array_equal(part.data, x.data[i])
        np.testing.assert_array_equal(T.stack(parts).data, x.data)
        assert check_gradients(
            lambda: T.sum_(T.pow_const(T.stack(T.unstack(x)[::-1]), 3)), [x]) < 1e-4

    def test_concat_broadcasts_the_other_axes(self):
        rng = np.random.default_rng(28)
        rows = Tensor(rng.normal(size=(3, 4, 2)))
        table = Tensor(rng.normal(size=(4, 5)))
        before = table.data.copy()
        out = T.concat([rows, table], axis=-1).data
        assert out.shape == (3, 4, 7)
        for i in range(3):
            np.testing.assert_array_equal(
                out[i], np.concatenate([rows.data[i], table.data], axis=1))
        np.testing.assert_array_equal(table.data, before)
        assert check_gradients(
            lambda: T.sum_(T.pow_const(T.concat([rows, table], axis=-1), 2)),
            [rows, table]) < 1e-4

    @pytest.mark.parametrize("reduce", [T.mean, T.max_reduce], ids=["mean", "max"])
    def test_keepdims_reduction(self, reduce):
        rng = np.random.default_rng(29)
        x = Tensor(rng.normal(size=(3, 5, 4)))
        kept = reduce(x, axis=-2, keepdims=True).data
        assert kept.shape == (3, 1, 4)
        for i in range(3):
            np.testing.assert_array_equal(kept[i, 0], reduce(x.data[i], axis=0).data)
        assert check_gradients(
            lambda: T.sum_(T.pow_const(reduce(x, axis=-2, keepdims=True), 2)),
            [x]) < 1e-4


class TestMaxReduce:
    def test_forward(self):
        x = Tensor([[1.0, 3.0], [3.0, 1.0]])
        out = T.max_reduce(x, axis=0)
        np.testing.assert_array_equal(out.data, [3.0, 3.0])

    def test_gradient_routes_to_first_argmax(self):
        x = Tensor([[2.0, 1.0], [2.0, 5.0], [0.0, 5.0]])
        with Tape() as tape:
            loss = T.sum_(T.max_reduce(x, axis=0))
            tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(26)
        x = Tensor(rng.normal(size=(4, 3)))  # distinct values, no ties
        assert check_gradients(lambda: T.sum_(T.pow_const(T.max_reduce(x, 0), 2)),
                               [x]) < 1e-4


class TestDeterminismAndDtype:
    def test_bit_identical_forward(self):
        def run():
            rng = np.random.default_rng(99)
            a = Tensor(rng.normal(size=(5, 5)))
            b = Tensor(rng.normal(size=(5, 5)))
            return T.softmax(T.matmul(T.tanh(a), b), axis=1).data.tobytes()

        assert run() == run()

    def test_float32_preserved(self):
        a = Tensor(np.ones((2, 2), dtype=np.float32))
        b = Tensor(np.ones((2, 2), dtype=np.float32))
        assert T.matmul(a, b).dtype == np.float32
        assert T.add(a, 1.0).dtype == np.float32
        assert T.attention(a, a, a, 2).dtype == np.float32
        w = Tensor(np.ones((2, 1), dtype=np.float32))
        with Tape() as tape:
            out = T.bilinear_scores(a, b, w)
            tape.backward(T.sum_(out))
        assert out.dtype == np.float32
        assert a.grad.dtype == b.grad.dtype == w.grad.dtype == np.float32

    def test_default_is_float64(self):
        assert Tensor([1, 2, 3]).dtype == np.float64

    def test_grad_shape_matches(self):
        x = Tensor(np.zeros((3, 2)))
        with Tape() as tape:
            loss = T.sum_(T.mul(x, x))
            tape.backward(loss)
        assert x.grad.shape == x.data.shape

    def test_no_tape_no_grad(self):
        x = Tensor([1.0])
        y = T.mul(x, x)
        assert y.grad is None and x.grad is None
