"""The reductions and label-side ops on the per-sample tape path call
only C-level numpy, and give the bits they gave with numpy's Python-level
helpers.

``composite_ops`` keeps each rewritten op (sum, mean, max, the
asymmetric loss, the scaled softmax) as the library wrote it with
``np.clip``, ``np.expand_dims``, ``np.broadcast_to``,
``np.take_along_axis``, ``np.put_along_axis`` and ``ndarray.mean``; the
library's output and every gradient must be ``array_equal`` to it in
float32 and float64. A default training sample may then enter only the
numpy Python-level functions it enters today, each named in
``ALLOWED_PYTHON_LEVEL``.

The asymmetric loss takes each clamp's gradient mask from the clamp's
own output; at NaN and on every clamp edge its gradients must equal
those of the three-compare masks the library used before.
"""

import os
import sys

import numpy as np
import pytest

from sarl import tensor as T
from sarl import training as Tr
from sarl.head import build_model, forward, sample_losses
from sarl.losses import PROB_FLOOR
from sarl.tensor import Tape, Tensor
from sarl.training import TrainConfig, model_config

import composite_ops

DTYPES = (np.float32, np.float64)


def value_and_grads(op, leaves, upstream):
    """op's output and each leaf's gradient when ``upstream`` is the
    gradient arriving at that output (any values, inf and NaN included)."""
    for t in leaves:
        t.grad = None
    with Tape() as tape:
        out = op()
        tape.backward(T.sum_(T.mul(out, upstream)))
    return out.data, [t.grad for t in leaves]


def assert_same_bits(new, old, leaves, upstream):
    v_new, g_new = value_and_grads(new, leaves, upstream)
    v_old, g_old = value_and_grads(old, leaves, upstream)
    for a, b in zip([v_new] + g_new, [v_old] + g_old):
        a, b = np.asarray(a), np.asarray(b)
        assert a.shape == b.shape and a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


def tied(rng, shape, dtype):
    """Values from {-1, 0, 1, 2}: most slices hold a tied maximum."""
    return Tensor(rng.integers(-1, 3, size=shape).astype(dtype))


# (shape, axis, keepdims): negative axes, both keepdims, (N, P, d) stacks
REDUCTIONS = [
    ((4, 6), 0, False), ((4, 6), 1, False), ((4, 6), -1, True),
    ((4, 6), -2, True), ((7,), 0, False), ((3, 4, 5), -2, True),
    ((3, 4, 5), 0, False), ((3, 4, 5), 2, False), ((2, 3, 4), 1, True),
]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape,axis,keepdims", REDUCTIONS)
class TestReductionsBitIdentical:
    def test_max_reduce(self, dtype, shape, axis, keepdims):
        rng = np.random.default_rng(len(shape) * 10 + axis)
        a = tied(rng, shape, dtype)
        old = composite_ops.max_reduce(a, axis, keepdims).data
        upstream = rng.normal(size=old.shape).astype(dtype)
        assert_same_bits(lambda: T.max_reduce(a, axis, keepdims),
                         lambda: composite_ops.max_reduce(a, axis, keepdims),
                         [a], upstream)

    def test_mean(self, dtype, shape, axis, keepdims):
        rng = np.random.default_rng(len(shape) * 10 + axis + 1)
        a = Tensor(rng.normal(size=shape).astype(dtype))
        old = composite_ops.mean(a, axis, keepdims).data
        upstream = rng.normal(size=old.shape).astype(dtype)
        assert_same_bits(lambda: T.mean(a, axis, keepdims),
                         lambda: composite_ops.mean(a, axis, keepdims),
                         [a], upstream)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape,axis", [(s, a) for s, a, keep in REDUCTIONS
                                        if not keep])
def test_sum_bit_identical(dtype, shape, axis):
    rng = np.random.default_rng(len(shape) * 10 + axis + 2)
    a = Tensor(rng.normal(size=shape).astype(dtype))
    old = composite_ops.sum_(a, axis).data
    upstream = rng.normal(size=old.shape).astype(dtype)
    assert_same_bits(lambda: T.sum_(a, axis), lambda: composite_ops.sum_(a, axis),
                     [a], upstream)


@pytest.mark.parametrize("dtype", DTYPES)
class TestWholeReductionsBitIdentical:
    @pytest.mark.parametrize("shape", [(4, 6), (3, 4, 5), (1,)])
    def test_mean_and_sum_of_everything(self, dtype, shape):
        rng = np.random.default_rng(sum(shape))
        a = Tensor(rng.normal(size=shape).astype(dtype))
        upstream = np.asarray(rng.normal(), dtype=dtype)
        assert_same_bits(lambda: T.mean(a), lambda: composite_ops.mean(a),
                         [a], upstream)
        assert_same_bits(lambda: T.sum_(a), lambda: composite_ops.sum_(a),
                         [a], upstream)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_max_reduce_non_finite_upstream(self, dtype, bad):
        # exact zeros off the argmax: a mask product would give 0 * inf = NaN
        rng = np.random.default_rng(5)
        a = tied(rng, (4, 6), dtype)
        upstream = rng.normal(size=6).astype(dtype)
        upstream[[1, 4]] = bad
        _, (g_new,) = value_and_grads(lambda: T.max_reduce(a, 0), [a], upstream)
        _, (g_old,) = value_and_grads(lambda: composite_ops.max_reduce(a, 0), [a],
                                      upstream)
        assert np.isfinite(g_new[:, [0, 2, 3, 5]]).all()
        assert (g_new[:, [1, 4]] == 0).sum() == 2 * 3
        np.testing.assert_array_equal(g_new, g_old)


@pytest.mark.parametrize("dtype", DTYPES)
class TestLabelSideBitIdentical:
    @pytest.mark.parametrize("gamma_pos,gamma_neg,clip",
                             [(0.0, 2.0, 0.05), (1.0, 0.5, 0.05), (0.0, 0.0, 0.0),
                              (1.0, 4.0, 0.0), (0.0, 1.0, 0.2), (0.0, 0.0, -0.25),
                              (1.0, 2.0, -0.25)])
    def test_asymmetric_loss(self, dtype, gamma_pos, gamma_neg, clip):
        # p on every edge: 0, 1, the floor, 1 - floor, the clip, just past
        # it, clip + 1 (p_m = 1, the shifted clamp's top edge, for a
        # negative clip; above the probability clamp if not) and NaN
        rng = np.random.default_rng(6)
        edges = [0.0, 1.0, PROB_FLOOR, 1.0 - PROB_FLOOR, clip, clip + 1e-3,
                 clip + 1.0, np.nan]
        p = np.concatenate([edges, rng.random(16)]).astype(dtype).reshape(4, 6)
        p = Tensor(p)
        assert p.data[0, 2] == dtype(PROB_FLOOR)
        for y in (np.ones((4, 6)), np.zeros((4, 6)), rng.random((4, 6)) < 0.5):
            args = (y.astype(dtype), gamma_pos, gamma_neg, clip, PROB_FLOOR)
            with np.errstate(divide="ignore", invalid="ignore"):  # log(0), NaN
                assert_same_bits(
                    lambda: T.asymmetric_loss(p, *args),
                    lambda: composite_ops.asymmetric_loss(p, *args),
                    [p], np.asarray(1.7, dtype=dtype))

    @pytest.mark.parametrize("shape,axis", [((4, 6), 0), ((4, 6), 1), ((4, 6), -1),
                                            ((3, 4, 5), 1), ((3, 4, 5), -2)])
    def test_scaled_softmax(self, dtype, shape, axis):
        rng = np.random.default_rng(7)
        a = Tensor(rng.normal(size=shape).astype(dtype))
        kept = shape[:axis % len(shape)] + shape[axis % len(shape) + 1:]
        scale = Tensor(rng.random(kept).astype(dtype))
        upstream = rng.normal(size=shape).astype(dtype)
        assert_same_bits(lambda: T.scaled_softmax(a, scale, axis),
                         lambda: composite_ops.scaled_softmax(a, scale, axis),
                         [a, scale], upstream)


# the numpy Python-level functions one default training sample may enter,
# as "module.function": the .sum()/.max() shims, the two einsums of the
# bilinear scores' backward, and the dispatcher of the max's one-hot copy
ALLOWED_PYTHON_LEVEL = {"_methods._sum", "_methods._amax", "einsumfunc.einsum",
                        "einsumfunc._einsum_dispatcher", "multiarray.copyto"}


def test_training_sample_calls_no_python_level_helper():
    # one default training sample, recorded as train() does: forward,
    # sample_losses and backward, with every numpy Python function it
    # enters watched for; any helper outside the allowed set fails by name
    cfg = TrainConfig()
    model = build_model(model_config(cfg), seed=cfg.seed, dtype=np.float32)
    rng = np.random.default_rng(0)
    image = rng.normal(size=(cfg.image_size, cfg.image_size,
                             cfg.channels)).astype(np.float32)
    labels = np.zeros(cfg.num_classes, dtype=np.float32)
    labels[[0, 2]] = 1.0
    numpy_dir = os.path.dirname(np.__file__)
    entered = set()

    def watch(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(numpy_dir):
            module = os.path.splitext(os.path.basename(code.co_filename))[0]
            entered.add(f"{module}.{code.co_name}")

    sys.setprofile(watch)
    try:
        with Tape() as tape:
            out = forward(image, model, labels=labels)
            total = sample_losses(out, labels, Tr.asl_config(cfg),
                                  Tr.loss_weights(cfg))[0]
            tape.backward(total)
    finally:
        sys.setprofile(None)
    assert sorted(entered - ALLOWED_PYTHON_LEVEL) == []
    assert len(tape) == 13
    for name, p in model.parameters().items():
        assert p.grad is not None and np.isfinite(p.grad).all(), name
