"""Autodiff core: forward semantics, tape replay, gradient checks."""

import ast
import importlib.util
import inspect
import math
import pathlib
import re

import numpy as np
import pytest

from sarl import tensor as T
from sarl.gradcheck import check_gradients, run_suite
from sarl.tensor import DimensionError, Tape, Tensor

import composite_ops


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


def attention_leaves(rng, shape, d_v=8):
    """x of ``shape`` and three (width, d_v) projection weights."""
    x = Tensor(rng.normal(size=shape))
    return [x] + [Tensor(rng.normal(size=(shape[-1], d_v)) / 3.0)
                  for _ in range(3)]


class TestAttention:
    @pytest.mark.parametrize("num_p,n_heads", [(5, 1), (5, 4), (1, 4)])
    def test_gradients(self, num_p, n_heads):
        rng = np.random.default_rng(40 + num_p + n_heads)
        leaves = attention_leaves(rng, (num_p, 6))
        assert check_gradients(
            lambda: T.sum_(T.pow_const(T.attention(*leaves, n_heads), 2)),
            leaves) < 1e-4

    def test_inputs_and_upstream_gradient_untouched(self):
        # the op works in place, but only on buffers it allocated: its
        # inputs, the upstream gradient and the kept exp(logits), which a
        # second backward on the same tape would read back
        rng = np.random.default_rng(51)
        leaves = attention_leaves(rng, (6, 8))
        before = [t.data.copy() for t in leaves]
        upstream = rng.normal(size=(6, 8))
        with Tape() as tape:
            out = T.attention(*leaves, 4)
            loss = T.sum_(T.mul(out, upstream))
            tape.backward(loss)
        first = [t.grad.copy() for t in leaves]
        tape.backward(loss)
        for t, data, grad in zip(leaves, before, first):
            np.testing.assert_array_equal(t.data, data)
            np.testing.assert_array_equal(t.grad, grad)
        np.testing.assert_array_equal(out.grad, upstream)

    @pytest.mark.parametrize("shapes,n_heads", [
        (((4, 6), (8, 8), (8, 8), (8, 8)), 2),
        (((4, 8), (8, 8), (8, 6), (8, 8)), 2),
        (((2, 4, 8), (2, 8, 8), (2, 8, 8), (2, 8, 8)), 2),
        (((4, 8), (8, 8), (8, 8), (8, 8)), 3),
        (((4, 8), (8, 8), (8, 8), (8, 8)), 0),
    ], ids=["rows", "width", "stacked", "heads-divide", "no-heads"])
    def test_bad_shapes_rejected(self, shapes, n_heads):
        # weights whose rows miss x's width, unequal weights and stacked
        # weights are refused like a head count that does not divide
        leaves = [Tensor(np.ones(s)) for s in shapes]
        with pytest.raises(DimensionError, match=re.escape(
                ", ".join(map(str, shapes)) if n_heads == 2 else "n_heads")):
            T.attention(*leaves, n_heads)

    def test_stack_of_three(self):
        # each leading index attends over its own rows: a per-sample loop
        # is the oracle, gradients pass, inputs and upstream stay intact
        rng = np.random.default_rng(52)
        x, *w = leaves = attention_leaves(rng, (3, 5, 6))
        before = [t.data.copy() for t in leaves]
        upstream = rng.normal(size=(3, 5, 8))
        with Tape() as tape:
            out = T.attention(*leaves, 4)
            tape.backward(T.sum_(T.mul(out, upstream)))
        for i in range(3):
            one = T.attention(x.data[i], *w, 4).data
            np.testing.assert_allclose(out.data[i], one, rtol=0, atol=1e-12)
        for t, data in zip(leaves, before):
            np.testing.assert_array_equal(t.data, data)
        np.testing.assert_array_equal(out.grad, upstream)
        assert check_gradients(
            lambda: T.sum_(T.pow_const(T.attention(*leaves, 4), 2)),
            leaves) < 1e-4


def bilinear_leaves(rng, f_shape, s_shape, d1=3, d2=2):
    """f, s and the scorer's u, v (d, d1), mix (d1, d2), score (d2, 1)."""
    d = f_shape[-1]
    return [Tensor(rng.normal(size=shape))
            for shape in (f_shape, s_shape, (d, d1), (d, d1), (d1, d2), (d2, 1))]


class TestBilinearScores:
    @pytest.mark.parametrize("num_p,num_c", [(5, 3), (1, 3), (5, 1)])
    def test_gradients(self, num_p, num_c):
        rng = np.random.default_rng(60 + num_p + num_c)
        leaves = bilinear_leaves(rng, (num_p, 4), (num_c, 4))
        assert check_gradients(
            lambda: T.sum_(T.pow_const(T.bilinear_scores(*leaves), 2)),
            leaves) < 1e-4

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(61)
        leaves = bilinear_leaves(rng, (6, 5), (4, 5))
        f, s, u, v, mix, score = (t.data for t in leaves)
        out = T.bilinear_scores(*leaves).data
        for p in range(6):
            for c in range(4):
                want = np.tanh((f[p] @ u) * (s[c] @ v)) @ mix @ score[:, 0]
                assert abs(out[p, c] - want) < 1e-12

    def test_inputs_and_upstream_gradient_untouched(self):
        # the op works in place, but only on buffers it allocated
        rng = np.random.default_rng(62)
        leaves = bilinear_leaves(rng, (6, 5), (4, 5))
        before = [t.data.copy() for t in leaves]
        upstream = rng.normal(size=(6, 4))
        with Tape() as tape:
            out = T.bilinear_scores(*leaves)
            tape.backward(T.sum_(T.mul(out, upstream)))
        for t, data in zip(leaves, before):
            np.testing.assert_array_equal(t.data, data)
        np.testing.assert_array_equal(out.grad, upstream)

    @pytest.mark.parametrize("shapes", [
        ((4, 5), (3, 6), (5, 3), (5, 3), (3, 2), (2, 1)),
        ((4, 5), (3, 5), (5, 3), (5, 3), (3, 2), (2, 2)),
        ((4, 5), (3, 5), (5, 3), (5, 3), (3, 2), (2,)),
        ((2, 4, 5), (3, 5), (5, 3), (5, 3), (3, 2), (2, 1)),
        ((2, 4, 5), (3, 3, 5), (5, 3), (5, 3), (3, 2), (2, 1)),
    ], ids=["width", "w-columns", "w-vector", "stacked", "unequal-leading-dims"])
    def test_bad_shapes_rejected(self, shapes):
        leaves = [Tensor(np.ones(s)) for s in shapes]
        with pytest.raises(DimensionError, match=re.escape(
                ", ".join(map(str, shapes)))):
            T.bilinear_scores(*leaves)

    def test_stack_of_three(self):
        rng = np.random.default_rng(63)
        f, s, *w = leaves = bilinear_leaves(rng, (3, 5, 4), (3, 2, 4))
        before = [t.data.copy() for t in leaves]
        upstream = rng.normal(size=(3, 5, 2))
        with Tape() as tape:
            out = T.bilinear_scores(*leaves)
            tape.backward(T.sum_(T.mul(out, upstream)))
        for i in range(3):
            one = T.bilinear_scores(f.data[i], s.data[i], *w).data
            np.testing.assert_allclose(out.data[i], one, rtol=0, atol=1e-12)
        for t, data in zip(leaves, before):
            np.testing.assert_array_equal(t.data, data)
        np.testing.assert_array_equal(out.grad, upstream)
        assert check_gradients(
            lambda: T.sum_(T.pow_const(T.bilinear_scores(*leaves), 2)),
            leaves) < 1e-4


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
            h = T.sigmoid(T.matmul(a, b))
            s = T.softmax(T.add(h, c), axis=1)
            return T.mean(T.mul(s, h))

        assert check_gradients(build, [a, b, c]) < 1e-4


class TestPrimitiveGradients:
    """Every differentiable primitive passes a finite-difference check."""

    @pytest.mark.parametrize("name,builder", [
        ("add", lambda a, b: T.sum_(T.pow_const(T.add(a, b), 2))),
        ("sub", lambda a, b: T.sum_(T.pow_const(T.sub(a, b), 2))),
        ("mul", lambda a, b: T.sum_(T.mul(a, b))),
    ])
    def test_binary(self, name, builder):
        rng = np.random.default_rng(hash(name) % 2**32)
        a = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=(3, 4)))
        assert check_gradients(lambda: builder(a, b), [a, b]) < 1e-4

    @pytest.mark.parametrize("name,builder", [
        ("sigmoid", lambda x: T.sum_(T.sigmoid(x))),
        ("softmax", lambda x: T.sum_(T.pow_const(T.softmax(x, axis=1), 2))),
        ("mean_axis", lambda x: T.sum_(T.pow_const(T.mean(x, axis=0), 2))),
        ("reshape", lambda x: T.sum_(T.pow_const(T.reshape(x, (4, 3)), 2))),
    ])
    def test_unary(self, name, builder):
        rng = np.random.default_rng(hash(name) % 2**32)
        x = Tensor(rng.normal(size=(3, 4)))
        assert check_gradients(lambda: builder(x), [x]) < 1e-4

    def test_positive_domain_ops(self):
        rng = np.random.default_rng(21)
        x = Tensor(rng.uniform(0.2, 2.0, size=(3, 4)))
        assert check_gradients(lambda: T.sum_(T.pow_const(x, 1.7)), [x]) < 1e-4
        assert check_gradients(lambda: T.sum_(T.pow_const(x, 0.5)), [x]) < 1e-4

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
        assert check_gradients(lambda: T.sum_(composite_ops.relu(x)), [x]) < 1e-4

    def test_conv2d(self):
        rng = np.random.default_rng(25)
        img = Tensor(rng.normal(size=(6, 6, 2)))
        kern = Tensor(rng.normal(size=(18, 3)) * 0.5)
        bias = Tensor(rng.normal(size=(3,)) * 0.1)
        assert check_gradients(
            lambda: T.sum_(T.pow_const(T.conv_encoder(img, [kern], [bias]), 2)),
            [img, kern, bias]) < 1e-4


class TestGradcheckSuite:
    def test_records_every_op(self, monkeypatch):
        # `sarl gradcheck` promises every op: each function the core
        # exports but conv_output_size (a length, not an op) must be
        # recorded, under its op name, while the suite runs
        seen = set()
        record = Tape.record

        def spy(tape, out, parents, backward_fn):
            seen.add(out.op)
            record(tape, out, parents, backward_fn)

        monkeypatch.setattr(Tape, "record", spy)
        assert run_suite(verbose=False)
        op_names = {"sum_": "sum", "max_reduce": "max", "pow_const": "pow"}
        ops = {op_names.get(name, name) for name in T.__all__
               if not isinstance(getattr(T, name), type)}
        assert ops - {"conv_output_size"} - seen == set()


# the scalar primitives the reference chains and `sarl gradcheck` build
# from, kept in the core without a library caller of their own
SCALAR_PRIMITIVES = {"sub", "pow_const", "sum_"}


SARL = pathlib.Path(T.__file__).parent
PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def sarl_module(path):
    """The imported sarl module of a file in src/sarl."""
    return importlib.import_module(
        "sarl" if path.stem == "__init__" else f"sarl.{path.stem}")


def import_bindings(tree):
    """Local name -> object for each import of sarl in a module's AST:
    ``import sarl.m``, ``from sarl.m import f`` and the relative forms
    ``from . import m`` and ``from .m import f``, at any depth."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "sarl":
                    bound[a.asname or "sarl"] = importlib.import_module(
                        a.name if a.asname else "sarl")
        elif isinstance(node, ast.ImportFrom):
            parts = ["sarl"] if node.level == 1 else []
            parts += [node.module] if node.module else []
            if not parts or parts[0] != "sarl":
                continue
            base = ".".join(parts)
            for a in node.names:
                try:
                    obj = importlib.import_module(f"{base}.{a.name}")
                except ImportError:
                    obj = getattr(importlib.import_module(base), a.name)
                bound[a.asname or a.name] = obj
    return bound


def called_functions(paths):
    """(module, name) of every function that the code in ``paths`` calls
    as ``f(...)``, ``m.f(...)`` or ``sarl.m.f(...)``, resolved through its
    imports or, in a sarl module, its own globals."""
    called = set()
    for path in paths:
        tree = ast.parse(path.read_text())
        names = {}
        if path.parent == SARL and path.stem != "__main__":  # it runs the CLI
            names = dict(vars(sarl_module(path)))
        names.update(import_bindings(tree))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            chain, f = [], node.func
            while isinstance(f, ast.Attribute):
                chain.append(f.attr)
                f = f.value
            if not isinstance(f, ast.Name) or f.id not in names:
                continue
            obj = names[f.id]
            for attr in reversed(chain):
                obj = getattr(obj, attr, None)
            if inspect.isfunction(obj):
                called.add((obj.__module__, obj.__name__))
    return called


def tracer_targets(monkeypatch):
    """perfbench/tracer.py's TARGETS, loaded as the benchmark loads it."""
    monkeypatch.syspath_prepend(str(PERFBENCH))  # tracer.py imports costs
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


class TestExports:
    def test_every_function_has_a_library_caller(self):
        # an op that only tests and `sarl gradcheck` call fails by name
        funcs = {name for name in T.__all__
                 if not isinstance(getattr(T, name), type)}
        paths = [p for p in SARL.glob("*.py")
                 if p.name not in ("tensor.py", "gradcheck.py")]
        calls = {name for module, name in called_functions(paths)
                 if module == "sarl.tensor"}
        assert SCALAR_PRIMITIVES <= funcs
        assert funcs - SCALAR_PRIMITIVES - calls == set()

    def test_every_exported_function_has_a_caller(self, monkeypatch):
        # a function in a sarl module's __all__ that no code in src/sarl
        # or perfbench calls fails by name, bar the functions the
        # benchmark's tracer times and the readers of files sarl writes
        exported = set()
        for path in SARL.glob("*.py"):
            if path.stem == "__main__":
                continue
            module = sarl_module(path)
            for name in getattr(module, "__all__", ()):
                obj = getattr(module, name)
                if inspect.isfunction(obj):
                    exported.add((obj.__module__, obj.__name__))
        called = called_functions([*SARL.glob("*.py"), *PERFBENCH.glob("*.py")])
        allowed = {(module, name) for module, name, _ in
                   tracer_targets(monkeypatch)}
        allowed |= {("sarl.data", "read_manifest"),
                    ("sarl.metrics", "load_predictions")}
        assert sorted(exported - called - allowed) == []


class TestConv2d:
    """One convolution: the encoder op with a single block."""

    @pytest.mark.parametrize("shape", [(7, 9, 2), (1, 1, 1), (2, 3, 4), (8, 8, 3)])
    def test_matches_loop_oracle(self, shape):
        rng = np.random.default_rng(sum(shape))
        x = rng.normal(size=shape)
        kernel = rng.normal(size=(T.CONV_KERNEL ** 2 * shape[2], 5))
        bias = rng.normal(size=5)
        np.testing.assert_allclose(T.conv_encoder(x, [kernel], [bias]).data,
                                   conv2d_oracle(x, kernel, bias).reshape(-1, 5),
                                   rtol=0, atol=1e-12)

    def test_stack_of_three(self):
        rng = np.random.default_rng(27)
        img = Tensor(rng.normal(size=(3, 5, 6, 2)))
        kern = Tensor(rng.normal(size=(18, 3)) * 0.5)
        bias = Tensor(rng.normal(size=(3,)) * 0.1)
        before = [t.data.copy() for t in (img, kern, bias)]
        upstream = rng.normal(size=(3, 9, 3))
        with Tape() as tape:
            out = T.conv_encoder(img, [kern], [bias])
            loss = T.sum_(T.mul(out, upstream))
            tape.backward(loss)
        for i in range(3):
            np.testing.assert_allclose(
                out.data[i],
                conv2d_oracle(img.data[i], kern.data, bias.data).reshape(9, 3),
                rtol=0, atol=1e-12)
        # a second backward on the same tape reads the kept columns back
        first = [t.grad.copy() for t in (img, kern, bias)]
        tape.backward(loss)
        for t, data, grad in zip((img, kern, bias), before, first):
            np.testing.assert_array_equal(t.data, data)
            np.testing.assert_array_equal(t.grad, grad)
        np.testing.assert_array_equal(out.grad, upstream)
        assert check_gradients(
            lambda: T.sum_(T.pow_const(T.conv_encoder(img, [kern], [bias]), 2)),
            [img, kern, bias]) < 1e-4

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(64, 64, 3), (32, 32, 32), (3, 8, 8, 3)])
    def test_columns_match_tap_stack(self, shape, dtype):
        # the windows come from one strided view instead of nine stacked
        # slices; only the copy changes, so the outputs are equal exactly
        rng = np.random.default_rng(sum(shape))
        x = rng.normal(size=shape).astype(dtype)
        kernel = rng.normal(size=(T.CONV_KERNEL ** 2 * shape[-1], 6)).astype(dtype)
        bias = rng.normal(size=6).astype(dtype)
        out = T.conv_encoder(x, [kernel], [bias]).data
        assert out.dtype == dtype
        want = composite_ops.conv2d_columns(x, kernel, bias)
        np.testing.assert_array_equal(out, want.reshape(out.shape))

    def test_rank_below_three_rejected(self):
        with pytest.raises(DimensionError, match=re.escape("(4, 4)")):
            T.conv_encoder(np.ones((4, 4)), [np.ones((9, 2))], [np.zeros(2)])


class TestSampleAxisHelpers:
    """The shape ops the sample axis leans on."""

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
            return T.softmax(T.matmul(T.sigmoid(a), b), axis=1).data.tobytes()

        assert run() == run()

    def test_float32_preserved(self):
        a = Tensor(np.ones((2, 2), dtype=np.float32))
        b = Tensor(np.ones((2, 2), dtype=np.float32))
        assert T.matmul(a, b).dtype == np.float32
        assert T.add(a, 1.0).dtype == np.float32
        assert T.attention(a, a, a, a, 2).dtype == np.float32
        w = Tensor(np.ones((2, 1), dtype=np.float32))
        with Tape() as tape:
            out = T.bilinear_scores(a, b, a, a, a, w)
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
