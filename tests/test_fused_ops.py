"""The closed-form label-side ops against their primitive-op oracles,
the keys-major attention kernel against the queries-major one, and the
fused head stages against the chains they replaced.

Each fused op (asymmetric loss, cosine cost, transport cost) must give
the value and every gradient of its chain of primitive ops
(``composite_ops``) to within GATE in float64, kinks included, and a
whole model must train on the same loss and the same 17 parameter
gradients with either, every oracle reached. Errors are measured as in
:func:`sarl.gradcheck.gradient_error`: absolute, and relative for
entries above 1 (the loss's gradient at the probability floor is about
1e6).

The five head stages that became one fused op each (the conv encoder,
self-attention, the bilinear scores, the semantic fusion and the region
score aggregation) compute what their chains did in the same order, so
there the gate is bit equality, in float32 and float64, of the values
and of every gradient, and of a whole model's loss and 17 parameter
gradients. The total loss, once fused too, is held to its chain the
same way. So are the three label-side chains that became one op each,
the transport cost with both plans, the source distribution and a
training sample's losses, and matmul's product of a stack by one shared
weight, once three records. At NaN and on the clamp edges, a training
sample's losses also give the bits of a chain that runs the
three-compare clamp masks they replaced. Self-attention is held to its
chain also at grids large enough that it runs several blocks of heads,
and within GATE in float64 past the keys the BLAS adds in one pass.
"""

import dataclasses
import itertools
import math
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sarl import head, losses
from sarl import tensor as T
from sarl.gradcheck import gradient_error, numeric_gradient
from sarl.losses import PROB_FLOOR, AslConfig, LossWeights, asl
from sarl.representation import (EncoderConfig, EncoderParams, FeatureMap,
                                 FusionParams, SelfAttentionParams)
from sarl.tensor import DimensionError, Tape, Tensor
from sarl.training import TrainConfig, loss_weights, model_config
from sarl.transport import (NORM_EPS, BilinearParams, backward_plan,
                            cost_matrix, ct_loss, forward_plan,
                            semantic_attention, source_distribution)

import composite_ops

GATE = 1e-12
GAMMA_POS = (0.0, 1.0)
GAMMA_NEG = (0.0, 0.5, 1.0, 2.0, 4.0)
CLIPS = (0.0, 0.05)
# p values on every kink of the loss: the clamp edges, the clip, 0 and 1
KINKS = (0.0, 1.0, PROB_FLOOR, 1.0 - PROB_FLOOR, 0.05)


def value_and_grads(fn, leaves):
    for t in leaves:
        t.grad = None
    with Tape() as tape:
        out = fn()
        tape.backward(out)
    return out.data.copy(), [np.zeros_like(t.data) if t.grad is None
                             else t.grad.copy() for t in leaves]


def assert_gate(fused, oracle, leaves):
    """Value and every leaf gradient of the two builders within GATE."""
    v_fused, g_fused = value_and_grads(fused, leaves)
    v_oracle, g_oracle = value_and_grads(oracle, leaves)
    assert np.isfinite(v_oracle)
    assert gradient_error(v_fused, v_oracle) <= GATE
    for a, b in zip(g_fused, g_oracle):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert gradient_error(a, b) <= GATE


def upstream(fn, weights):
    """A scalar from an array op: its output dotted with fixed weights."""
    return lambda: T.sum_(T.mul(fn(), weights))


class TestAsymmetricLoss:
    @pytest.mark.parametrize("gamma_pos,gamma_neg,clip",
                             list(itertools.product(GAMMA_POS, GAMMA_NEG, CLIPS)))
    def test_gate_with_kinks(self, gamma_pos, gamma_neg, clip):
        rng = np.random.default_rng(int(10 * gamma_pos + 100 * gamma_neg
                                        + 1000 * clip))
        cfg = AslConfig(gamma_pos, gamma_neg, clip)
        p = Tensor(np.concatenate([KINKS, [clip, -0.5, 1.5],
                                   rng.uniform(0, 1, size=9)]))
        for y in (np.ones(p.shape), np.zeros(p.shape),
                  (rng.random(p.shape) < 0.5).astype(float)):
            assert_gate(lambda: asl(p, y, cfg),
                        lambda: composite_ops.asl(p, y, cfg), [p])

    def test_clamp_edges_pass_gradient(self):
        # inclusive at both edges of both clamps: p on the probability
        # floor and p exactly at the clip (p_m == 0, where exponent 0
        # still has slope -1/(1 - p_m)); outside the floor, nothing
        cfg = AslConfig(gamma_pos=0.0, gamma_neg=0.0, clip=0.05)
        p = Tensor([PROB_FLOOR, 1.0 - PROB_FLOOR, 0.05, 0.0, 1.0])
        y = np.array([1.0, 0.0, 0.0, 1.0, 0.0])
        _, (grad,) = value_and_grads(lambda: asl(p, y, cfg), [p])
        np.testing.assert_allclose(
            grad, [-1 / (5 * PROB_FLOOR), 1 / (5 * (0.05 + PROB_FLOOR)),
                   0.2, 0.0, 0.0], rtol=1e-9)

    def test_fractional_gamma_at_zero_has_no_gradient(self):
        # p at or below the clip: p_m == 0, subgradient 0 for gamma_neg 0.5
        cfg = AslConfig(gamma_pos=0.0, gamma_neg=0.5, clip=0.05)
        p = Tensor([0.05, 0.01])
        value, (grad,) = value_and_grads(lambda: asl(p, np.zeros(2), cfg), [p])
        assert value == 0.0
        np.testing.assert_array_equal(grad, [0.0, 0.0])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.one_of(st.sampled_from(KINKS),
                                        st.floats(0.0, 1.0)),
                              st.booleans()), min_size=1, max_size=8),
           st.sampled_from(GAMMA_POS), st.sampled_from(GAMMA_NEG),
           st.sampled_from(CLIPS))
    def test_property_matches_oracle(self, entries, gamma_pos, gamma_neg, clip):
        p = Tensor([v for v, _ in entries])
        y = np.array([float(b) for _, b in entries])
        cfg = AslConfig(gamma_pos, gamma_neg, clip)
        assert_gate(lambda: asl(p, y, cfg),
                    lambda: composite_ops.asl(p, y, cfg), [p])

    def test_labels_must_match_shape(self):
        with pytest.raises(DimensionError, match=r"\(3,\) for \(4,\)"):
            T.asymmetric_loss(Tensor(np.full(4, 0.5)), np.ones(3), 0.0, 2.0,
                              0.05, PROB_FLOOR)


class TestCosineCost:
    @pytest.mark.parametrize("num_p,num_c", [(4, 6), (1, 3), (5, 1)])
    def test_gate(self, num_p, num_c):
        rng = np.random.default_rng(num_p * 10 + num_c)
        f, s = Tensor(rng.normal(size=(num_p, 7))), Tensor(rng.normal(size=(num_c, 7)))
        w = rng.normal(size=(num_p, num_c))
        assert_gate(upstream(lambda: cost_matrix(f, s), w),
                    upstream(lambda: composite_ops.cost_matrix(f, s), w), [f, s])

    def test_zero_row_costs_one_with_finite_gradient(self):
        # a zero row has no direction: the cost there is 1, the cost
        # passes it no gradient, and every other entry matches central
        # differences
        rng = np.random.default_rng(3)
        f = rng.normal(size=(4, 5))
        f[1] = 0.0
        f, s = Tensor(f), Tensor(rng.normal(size=(3, 5)))
        w = rng.normal(size=(4, 3))
        co = cost_matrix(f, s).data
        np.testing.assert_array_equal(co[1], 1.0)
        loss = upstream(lambda: cost_matrix(f, s), w)
        _, (gf, gs) = value_and_grads(loss, [f, s])
        assert np.isfinite(gf).all() and np.isfinite(gs).all()
        np.testing.assert_array_equal(gf[1], 0.0)
        keep = [0, 2, 3]
        np.testing.assert_allclose(gf[keep], numeric_gradient(loss, [f, s], 0)[keep],
                                   rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(gs, numeric_gradient(loss, [f, s], 1),
                                   rtol=1e-6, atol=1e-8)

    def test_zero_class_row(self):
        rng = np.random.default_rng(4)
        f, s = Tensor(rng.normal(size=(3, 4))), Tensor(np.zeros((2, 4)))
        _, (gf, gs) = value_and_grads(lambda: T.sum_(cost_matrix(f, s)), [f, s])
        np.testing.assert_array_equal(cost_matrix(f, s).data, 1.0)
        assert np.isfinite(gf).all() and np.isfinite(gs).all()

    def test_zero_class_row_passes_no_gradient(self):
        rng = np.random.default_rng(5)
        s = rng.normal(size=(3, 5))
        s[2] = 0.0
        f, s = Tensor(rng.normal(size=(4, 5))), Tensor(s)
        loss = upstream(lambda: cost_matrix(f, s), rng.normal(size=(4, 3)))
        _, (gf, gs) = value_and_grads(loss, [f, s])
        np.testing.assert_array_equal(cost_matrix(f, s).data[:, 2], 1.0)
        np.testing.assert_array_equal(gs[2], 0.0)
        np.testing.assert_allclose(gs[:2], numeric_gradient(loss, [f, s], 1)[:2],
                                   rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(gf, numeric_gradient(loss, [f, s], 0),
                                   rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("shapes", [((4, 5), (3, 6)), ((2, 4, 5), (3, 5))],
                             ids=["width", "stacked"])
    def test_bad_shapes_rejected(self, shapes):
        with pytest.raises(DimensionError, match=r"cosine_cost"):
            T.cosine_cost(Tensor(np.ones(shapes[0])), Tensor(np.ones(shapes[1])),
                          NORM_EPS)


class TestPlanCost:
    """Both plans and their cost as one op, against the primitive chain
    within GATE and, bit for bit, against the three records it replaced
    (two scaled softmaxes and the plans' cost)."""

    @staticmethod
    def leaves(rng, dtype):
        mass = Tensor((rng.normal(size=(4, 6)) * 3.0).astype(dtype))
        theta = Tensor(rng.dirichlet(np.ones(4)).astype(dtype))
        beta = Tensor(rng.dirichlet(np.ones(6)).astype(dtype))
        return [mass, theta, beta, Tensor(rng.random((4, 6)).astype(dtype))]

    def test_gate(self):
        rng = np.random.default_rng(7)
        mass, theta, beta, co = leaves = self.leaves(rng, np.float64)
        assert_gate(
            lambda: ct_loss(mass, semantic_attention(mass), theta, beta, co)[0],
            lambda: composite_ops.ct_loss(mass, None, theta, beta, co)[0], leaves)
        for dtype in (np.float32, np.float64):
            mass, theta, beta, co = leaves = self.leaves(rng, dtype)
            soft = T.softmax(mass, axis=1).data
            weights = [np.asarray(rng.normal(), dtype)] + [
                rng.normal(size=t.shape).astype(dtype) for t in leaves]
            got = outputs_and_grads(
                lambda: T.transport_cost(mass, soft, *leaves[1:])[0],
                leaves, weights)
            want = outputs_and_grads(
                lambda: composite_ops.transport_cost(mass, soft, *leaves[1:])[0],
                leaves, weights)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype == dtype and a.shape == b.shape
                np.testing.assert_array_equal(a, b)
            plans = T.transport_cost(mass, soft, *leaves[1:])[1:]
            chain = composite_ops.transport_cost(mass, soft, *leaves[1:])[1:]
            for a, b in zip(plans, chain):
                np.testing.assert_array_equal(a, b)

    def test_shapes_checked(self):
        with pytest.raises(DimensionError, match="transport_cost"):
            T.transport_cost(np.ones((4, 6)), np.ones((4, 6)), np.ones(4),
                             np.ones(6), np.ones((6, 4)))


class TestConvEncoder:
    """The encoder as one op against the records it replaced (conv2d per
    block, relu between blocks, reshape): the same bits, output and every
    gradient, image included, for 1 to 3 blocks and a 2-image stack."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64],
                             ids=["float32", "float64"])
    @pytest.mark.parametrize("samples", [(), (2,)], ids=["one", "stack2"])
    @pytest.mark.parametrize("size", [(16, 12), (15, 13)], ids=["even", "odd"])
    @pytest.mark.parametrize("blocks", [1, 2, 3])
    def test_bit_identical_to_chain(self, blocks, size, samples, dtype):
        rng = np.random.default_rng(blocks + 10 * len(samples) + sum(size))
        image = Tensor(rng.normal(size=samples + size + (3,)).astype(dtype))
        kernels, biases, c_in = [], [], 3
        for _ in range(blocks):
            kernels.append(Tensor((rng.normal(size=(T.CONV_KERNEL ** 2 * c_in, 8))
                                   * 0.3).astype(dtype)))
            biases.append(Tensor((rng.normal(size=8) * 0.1).astype(dtype)))
            c_in = 8
        leaves = [image] + kernels + biases
        out = T.conv_encoder(image, kernels, biases)
        weights = [rng.normal(size=s).astype(dtype)
                   for s in [out.shape] + [t.shape for t in leaves]]
        got = outputs_and_grads(lambda: T.conv_encoder(image, kernels, biases),
                                leaves, weights)
        want = outputs_and_grads(
            lambda: composite_ops.conv_encoder(image, kernels, biases),
            leaves, weights)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype == dtype and a.shape == b.shape
            np.testing.assert_array_equal(a, b)

    def test_image_without_gradient(self):
        # training passes the image as an array: only the weights learn
        rng = np.random.default_rng(4)
        image = rng.normal(size=(8, 8, 3))
        kernels = [Tensor(rng.normal(size=(27, 4))), Tensor(rng.normal(size=(36, 4)))]
        biases = [Tensor(rng.normal(size=4)), Tensor(rng.normal(size=4))]
        weights = [rng.normal(size=s) for s in [(4, 4)] + [t.shape for t in
                                                           kernels + biases]]
        got = outputs_and_grads(lambda: T.conv_encoder(image, kernels, biases),
                                kernels + biases, weights)
        want = outputs_and_grads(
            lambda: composite_ops.conv_encoder(image, kernels, biases),
            kernels + biases, weights)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("image,kernels,biases,why", [
        ((4, 4), [(9, 2)], [(2,)], r"\(4, 4\)"),
        ((4, 4, 1), [], [], "0 kernels"),
        ((4, 4, 1), [(9, 2)], [], "0 biases"),
        ((4, 4, 1), [(9, 2), (9, 2)], [(2,), (2,)], "kernel 1 has 9 rows, expected 18"),
        ((0, 4, 1), [(9, 2)], [(2,)], "too small"),
    ], ids=["rank", "no-blocks", "no-bias", "kernel-rows", "empty"])
    def test_bad_shapes_rejected(self, image, kernels, biases, why):
        with pytest.raises(DimensionError, match=why):
            T.conv_encoder(np.ones(image), [np.ones(k) for k in kernels],
                           [np.zeros(b) for b in biases])


def sigmoid_of(z, dtype):
    return T.sigmoid(np.asarray(z, dtype)).data[()]


def logit_grid(dtype):
    """The floats of dtype, as order-keeping integer keys and back."""
    itype = np.int32 if dtype == np.float32 else np.int64
    top = np.iinfo(itype)

    def key(x):
        i = np.asarray(x, dtype).view(itype).item()
        return i if i >= 0 else -(i & top.max)

    def value(k):
        return np.asarray(k if k >= 0 else (-k) | top.min, itype).view(dtype)[()]

    return key, value


def around(p, dtype):
    """(at, below, above): the logit whose sigmoid in dtype is dtype(p)
    exactly (None when no logit hits it), and the nearest logits whose
    sigmoids lie just below and just above it."""
    key, value = logit_grid(dtype)
    target = dtype(p)
    lo, hi = key(-60.0), key(60.0)
    while hi - lo > 1:  # the first logit whose sigmoid reaches the target
        mid = (lo + hi) // 2
        if sigmoid_of(value(mid), dtype) >= target:
            hi = mid
        else:
            lo = mid
    at = value(hi) if sigmoid_of(value(hi), dtype) == target else None
    above = hi
    while sigmoid_of(value(above), dtype) <= target:
        above += 1
    return at, value(lo), value(above)


def edges(dtype):
    """(floor, clip, logits): a probability floor whose clamp edges
    floor and 1 - floor are both sigmoids of a logit in dtype, a clip
    that is one, and the logits at and just past all three edges."""
    for a in np.linspace(8.0, 12.0, 401):
        floor = float(sigmoid_of(-a, dtype))
        lower, upper = around(floor, dtype), around(1.0 - floor, dtype)
        if lower[0] is not None and upper[0] is not None:
            break
    clip = float(sigmoid_of(-2.0, dtype))
    logits = [*lower, *upper, *around(clip, dtype)]
    assert None not in logits and len(set(logits)) == 9
    return floor, clip, np.array(logits, dtype=dtype)


# gamma_pos and gamma_neg at 0, 2 and a fractional value
GAMMAS = (0.0, 2.0, 0.5)


def loss_case(dtype, rng):
    """(floor, clip, z, m, cost, labels): the edges of :func:`edges`,
    logits at and just past them, a (5, C) map whose column maxima tie
    between patches and sit on the same edges, a scalar transport cost
    and labels."""
    floor, clip, z_edge = edges(dtype)
    num_c = len(z_edge) + 3
    z = np.concatenate([z_edge, rng.normal(size=3) * 3.0]).astype(dtype)
    m = rng.integers(-1, 3, size=(5, num_c)).astype(dtype)  # many ties
    m[:, :len(z_edge)] = np.minimum(m[:, :len(z_edge)], z_edge - 1.0)
    m[[1, 3], :len(z_edge)] = z_edge  # a maximum on an edge, tied
    labels = (rng.random(num_c) < 0.5).astype(dtype)
    return floor, clip, z, m, np.asarray(rng.random() * 2.0, dtype), labels


def label_outputs(z, m, cost):
    """The parts of a training-mode forward that sample_losses reads."""
    return head.ForwardOutput(logits=z, features=None, semantic_features=None,
                              aligned=None, semantic_map=m,
                              transport_cost=cost)


class TestSampleLosses:
    """The fused losses of a training sample and the fused source
    distribution against the chains they replaced (``composite_ops``):
    the same bits, values and gradients, in float32 and float64."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64],
                             ids=["float32", "float64"])
    @pytest.mark.parametrize("gamma_pos,gamma_neg",
                             list(itertools.product(GAMMAS, GAMMAS)))
    def test_bit_identical_to_chain(self, monkeypatch, dtype, gamma_pos,
                                    gamma_neg):
        rng = np.random.default_rng(int(10 * gamma_pos + 100 * gamma_neg))
        floor, clip, z, m, cost, labels = loss_case(dtype, rng)
        # both paths read the floor from sarl.losses at call time
        monkeypatch.setattr(losses, "PROB_FLOOR", floor)
        cfg = AslConfig(gamma_pos, gamma_neg, clip)
        weights = LossWeights(0.04, 0.5)
        leaves = [Tensor(z), Tensor(m), Tensor(cost)]
        out = label_outputs(*leaves)
        upstream = np.asarray(1.7, dtype)
        for y in (labels, np.ones_like(labels), np.zeros_like(labels)):
            got = self.losses_and_grads(head.sample_losses, out, y, cfg,
                                        weights, leaves, upstream)
            want = self.losses_and_grads(composite_ops.sample_losses, out, y,
                                         cfg, weights, leaves, upstream)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype == dtype and a.shape == b.shape
                np.testing.assert_array_equal(a, b)

    @staticmethod
    def losses_and_grads(impl, out, y, cfg, weights, leaves, upstream):
        for t in leaves:
            t.grad = None
        with Tape() as tape:
            parts = impl(out, y, cfg, weights)
            tape.backward(T.mul(parts[0], upstream))
        return [t.data.copy() for t in parts] + [t.grad.copy() for t in leaves]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64],
                             ids=["float32", "float64"])
    @pytest.mark.parametrize("negative_clip", [False, True],
                             ids=["clip", "negative-clip"])
    def test_clamp_masks_match_three_compares(self, monkeypatch, dtype,
                                              negative_clip):
        # asl_objective takes each clamp's gradient mask from the clamp's
        # own output; the chain runs the three-compare masks it replaced
        # (composite_ops.asymmetric_loss). Logits at NaN and at and just
        # past sigmoids equal to the floor, 1 - floor and the clip. No
        # sigmoid equals PROB_FLOOR in either dtype, so the floor is one a
        # sigmoid hits (edges). With a negative clip, clip + 1 is a sigmoid
        # too: the shifted clamp's top edge, p_m = 1.
        rng = np.random.default_rng(11)
        floor, clip, z_edge = edges(dtype)
        if negative_clip:
            key, value = logit_grid(dtype)
            z_edge[6:] = [value(key(1.0) - 1), 1.0, value(key(1.0) + 1)]
            clip = float(sigmoid_of(1.0, dtype)) - 1.0
            assert sigmoid_of(1.0, dtype) - dtype(clip) == 1.0
        z = np.concatenate([[np.nan], z_edge, rng.normal(size=3) * 3.0])
        m = np.minimum(rng.integers(-1, 3, size=(5, len(z))), z - 1.0)
        m[[1, 3]] = z  # each column's maximum, tied, on the same edges
        monkeypatch.setattr(losses, "PROB_FLOOR", floor)
        monkeypatch.setattr(losses, "asl", lambda p, y, cfg: (
            composite_ops.asymmetric_loss(p, y, cfg.gamma_pos, cfg.gamma_neg,
                                          cfg.clip, losses.PROB_FLOOR)))
        leaves = [Tensor(z.astype(dtype)), Tensor(m.astype(dtype)),
                  Tensor(np.asarray(0.7, dtype))]
        out = label_outputs(*leaves)
        labels = (rng.random(len(z)) < 0.5).astype(dtype)
        upstream = np.asarray(1.7, dtype)
        for gamma_pos, gamma_neg in itertools.product(GAMMAS, GAMMAS):
            # AslConfig refuses a negative clip; the ops read three fields
            cfg = types.SimpleNamespace(gamma_pos=gamma_pos,
                                        gamma_neg=gamma_neg, clip=clip)
            for y in (labels, np.ones_like(labels), np.zeros_like(labels)):
                with np.errstate(divide="ignore", invalid="ignore"):
                    got = self.losses_and_grads(
                        head.sample_losses, out, y, cfg, LossWeights(), leaves,
                        upstream)
                    want = self.losses_and_grads(
                        composite_ops.sample_losses, out, y, cfg,
                        LossWeights(), leaves, upstream)
                for a, b in zip(got, want):
                    assert a.dtype == b.dtype == dtype and a.shape == b.shape
                    np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64],
                             ids=["float32", "float64"])
    def test_case_sits_on_the_edges(self, dtype):
        floor, clip, z, m, _, _ = loss_case(dtype, np.random.default_rng(0))
        lo, hi, cut = dtype(floor), dtype(1.0 - floor), dtype(clip)
        for p in (T.sigmoid(z).data, T.sigmoid(m.max(axis=0)).data):
            assert p[1] < p[0] == lo < p[2]
            assert p[4] < p[3] == hi < p[5]
            assert p[7] < p[6] == cut < p[8]
        peak = m.max(axis=0)
        assert (m[1, :9] == peak[:9]).all() and (m[3, :9] == peak[:9]).all()
        assert ((m == peak).sum(axis=0)[9:] >= 2).any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64],
                             ids=["float32", "float64"])
    @pytest.mark.parametrize("num_p,num_c", [(4, 6), (1, 3), (16, 20), (5, 1)])
    def test_source_distribution_bit_identical(self, dtype, num_p, num_c):
        rng = np.random.default_rng(num_p * 100 + num_c)
        m = Tensor((rng.normal(size=(num_p, num_c)) * 2.0).astype(dtype))
        m.data[0] = m.data[-1]  # tied rows give tied pooled logits
        y = (rng.random(num_c) < 0.5).astype(dtype)
        y[0] = 1.0
        upstream = rng.normal(size=num_p).astype(dtype)
        got = outputs_and_grads(lambda: source_distribution(m, y), [m],
                                [upstream])
        want = outputs_and_grads(
            lambda: composite_ops.source_distribution(m, y), [m], [upstream])
        for a, b in zip(got, want):
            assert a.dtype == b.dtype == dtype and a.shape == b.shape
            np.testing.assert_array_equal(a, b)

    def test_shapes_checked(self):
        with pytest.raises(DimensionError, match="asl_objective"):
            T.asl_objective(np.zeros(6), np.zeros((4, 5)), 0.0, np.ones(6),
                            0.0, 2.0, 0.05, PROB_FLOOR, 0.04, 0.5)
        with pytest.raises(DimensionError, match="asl_objective"):
            T.asl_objective(np.zeros(6), np.zeros((4, 6)), np.zeros(2),
                            np.ones(6), 0.0, 2.0, 0.05, PROB_FLOOR, 0.04, 0.5)
        with pytest.raises(DimensionError, match="matvec_softmax"):
            T.matvec_softmax(np.zeros((4, 6)), np.ones(5))


class TestKeysMajorAttention:
    """The attention kernel against the queries-major one it replaced,
    at sizes whose reductions over keys sum more than 8 rows (numpy's
    pairwise block), in one image and in a stack."""

    @pytest.mark.parametrize("shape,n_heads", [((256, 32), 8), ((3, 16, 32), 4)],
                             ids=["p256-h8", "stack3-p16-h4"])
    def test_gate(self, shape, n_heads):
        rng = np.random.default_rng(shape[-2] + n_heads)
        x = Tensor(rng.normal(size=shape))
        w = [Tensor(rng.normal(size=(32, 32)) / 6.0) for _ in range(3)]
        weights = rng.normal(size=shape)

        def queries_major():
            q, k, v = (T.matmul(x, wi) for wi in w)
            return composite_ops.attention(q, k, v, n_heads)

        assert_gate(upstream(lambda: T.attention(x, *w, n_heads), weights),
                    upstream(queries_major, weights), [x] + w)


# the head stages held to their chains, by name, in the library
STAGE_MODULES = {name: module for module, name in composite_ops.HEAD_STAGES}
STAGES = tuple(STAGE_MODULES)
# each fused stage's records on one image, and on a 3-sample stack
RECORDS = {
    "self_attention": (["attention"], ["attention"]),
    "bilinear_mass": (["bilinear_scores"], ["bilinear_scores"]),
    "fuse_semantic": (["concat_linear"], ["concat_linear"]),
    "region_score_aggregate": (["softmax_pool"], ["softmax_pool"]),
    "encode": (["conv_encoder"], ["conv_encoder"]),
}


def library_stage(name):
    return getattr(sys.modules[STAGE_MODULES[name]], name)


def head_stage(name, samples, dtype, rng, grid=4):
    """(leaves, call) for one head stage at the default widths and a
    grid x grid patch grid: ``call(impl)`` runs ``impl``, the library's
    stage or its chain, on the leaves and returns the output tensor."""
    def leaf(*shape):
        return Tensor((rng.normal(size=shape) * 0.5).astype(dtype))

    num_p, d_v, num_c = grid * grid, 32, 6
    if name == "encode":
        image = leaf(*samples, 4 * grid, 4 * grid, 3)
        cfg = EncoderConfig(in_channels=3, grid_h=grid, grid_w=grid)
        p = EncoderParams([leaf(27, d_v), leaf(9 * d_v, d_v)],
                          [leaf(d_v), leaf(d_v)])
        return [image] + p.kernels + p.biases, lambda impl: impl(image, cfg, p).f
    if name == "self_attention":
        f = leaf(*samples, num_p, d_v)
        p = SelfAttentionParams(leaf(d_v, d_v), leaf(d_v, d_v), leaf(d_v, d_v))
        return [f, p.w_q, p.w_k, p.w_v], lambda impl: impl(
            FeatureMap(f, grid, grid), p).f
    if name == "bilinear_mass":
        f, f_s = leaf(*samples, num_p, d_v), leaf(*samples, num_c, d_v)
        p = BilinearParams(leaf(d_v, 32), leaf(d_v, 32), leaf(32, 16), leaf(16, 1))
        return [f, f_s, p.u, p.v, p.mix, p.score], lambda impl: impl(f, f_s, p)
    if name == "fuse_semantic":
        f_g, table = leaf(*samples, 1, d_v), leaf(num_c, 16)
        p = FusionParams(leaf(d_v + 16, d_v), leaf(d_v))
        return [f_g, table, p.weight, p.bias], lambda impl: impl(f_g, table, p)
    if name == "region_score_aggregate":
        f_r = leaf(*samples, num_p, d_v)
        cls = head.ClassifierParams(leaf(d_v, num_c), leaf(num_c))
        return [f_r, cls.weights, cls.bias], lambda impl: impl(f_r, cls)
    losses = [leaf(*samples) for _ in range(3)]
    return losses, lambda impl: impl(*losses, LossWeights(0.04, 0.5))


def outputs_and_grads(call, leaves, weights):
    """The stage's output and every leaf gradient under a loss that uses
    each leaf again after the stage, so every leaf already holds a
    gradient when the stage's backward adds its own."""
    for t in leaves:
        t.grad = None
    with Tape() as tape:
        out = call()
        loss = T.sum_(T.mul(out, weights[0]))
        for t, w in zip(leaves, weights[1:]):
            loss = T.add(loss, T.sum_(T.mul(t, w)))
        tape.backward(loss)
    return [out.data.copy()] + [t.grad.copy() for t in leaves]


def stage_and_chain(name, samples, dtype, rng, grid=4):
    """The output and every leaf gradient of the library's stage and of
    its chain, under the same loss."""
    leaves, call = head_stage(name, samples, dtype, rng, grid)
    chain = composite_ops.HEAD_STAGES[STAGE_MODULES[name], name]
    shapes = [call(library_stage(name)).shape] + [t.shape for t in leaves]
    weights = [np.asarray(rng.normal(size=s), dtype=dtype) for s in shapes]
    return (outputs_and_grads(lambda: call(library_stage(name)), leaves, weights),
            outputs_and_grads(lambda: call(chain), leaves, weights))


def assert_stage_matches_chain(name, samples, dtype, rng, grid=4):
    """The library's stage gives its chain's bits: output and every
    leaf gradient."""
    for a, b in zip(*stage_and_chain(name, samples, dtype, rng, grid)):
        assert a.dtype == b.dtype == dtype and a.shape == b.shape
        np.testing.assert_array_equal(a, b)


class TestHeadStages:
    """Each fused head stage against the chain it replaced: the same
    bits, output and gradients, for one image and a 3-sample stack."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64],
                             ids=["float32", "float64"])
    @pytest.mark.parametrize("samples", [(), (3,)], ids=["one", "stack3"])
    @pytest.mark.parametrize("name", STAGES)
    def test_bit_identical_to_chain(self, name, samples, dtype):
        rng = np.random.default_rng(STAGES.index(name) + 10 * len(samples))
        assert_stage_matches_chain(name, samples, dtype, rng)


class TestAttentionHeadBlocks:
    """Self-attention against its chain on grids whose (P, P) arrays
    exceed T.BLOCK_ELEMENTS, so that the op runs several blocks of its
    8 heads."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64],
                             ids=["float32", "float64"])
    @pytest.mark.parametrize("samples,grid", [((), 16), ((2,), 11)],
                             ids=["one-16x16", "stack2-11x11"])
    def test_bit_identical_to_chain(self, samples, grid, dtype):
        assert T.BLOCK_ELEMENTS // (math.prod(samples) * grid ** 4) < 8
        assert_stage_matches_chain("self_attention", samples, dtype,
                                   np.random.default_rng(grid), grid)


class TestAttentionPastOneBlasPass:
    """Self-attention against its chain at a 23x23 grid: the op's sums
    over 529 keys come from a BLAS product that adds them by blocks, so
    the op holds to its chain within GATE in float64, not bit for bit."""

    def test_within_gate_of_chain(self):
        got, want = stage_and_chain("self_attention", (), np.float64,
                                    np.random.default_rng(23), grid=23)
        assert got[0].shape == (529, 32)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert gradient_error(a, b) <= GATE


class TestSharedWeightMatmul:
    """matmul of a stack by one (k, n) weight against the three records
    it replaced: one record, and the same bits, output and both
    gradients."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64],
                             ids=["float32", "float64"])
    @pytest.mark.parametrize("shape", [(3, 16, 32), (2, 3, 4, 32)],
                             ids=["stack3", "stack2x3"])
    def test_bit_identical_to_chain(self, shape, dtype):
        rng = np.random.default_rng(len(shape))
        a = Tensor(rng.normal(size=shape).astype(dtype))
        b = Tensor(rng.normal(size=(32, 6)).astype(dtype))
        with Tape() as tape:
            T.matmul(a, b)
        assert [t.op for t in tape.tensors()] == ["matmul"]
        weights = [rng.normal(size=s).astype(dtype)
                   for s in (shape[:-1] + (6,), shape, (32, 6))]
        got = outputs_and_grads(lambda: T.matmul(a, b), [a, b], weights)
        want = outputs_and_grads(lambda: composite_ops.matmul_shared(a, b),
                                 [a, b], weights)
        for x, y in zip(got, want):
            assert x.dtype == y.dtype == dtype and x.shape == y.shape
            np.testing.assert_array_equal(x, y)


def swap_in(monkeypatch, impls):
    """Point every binding of the label-side functions at ``impls``."""
    for (module, name), fn in impls.items():
        monkeypatch.setattr(sys.modules[module], name, fn)
        if hasattr(head, name):
            monkeypatch.setattr(head, name, fn)


VARIANTS = pytest.mark.parametrize("variant", [
    {}, {"disable_self_attn": True}, {"disable_ot": True},
    {"disable_gsp_fusion": True}, {"gsp_mode": "max"},
], ids=["default", "no-self-attn", "no-ot", "no-gsp-fusion", "gsp-max"])


def training_sample(variant, dtype):
    """The parameters of a default model with ``variant`` applied, and
    a builder of one training sample's loss on them."""
    cfg = TrainConfig()
    mcfg = dataclasses.replace(model_config(cfg), **variant)
    weights = loss_weights(cfg)
    rng = np.random.default_rng(len(variant) + 17 * len(str(variant)))
    model = head.build_model(mcfg, seed=3, dtype=dtype)
    params = model.parameters()
    for p in params.values():  # move off the zero init of the biases
        p.data = (p.data + rng.normal(size=p.data.shape) * 0.1).astype(dtype)
    image = rng.normal(size=(cfg.image_size, cfg.image_size, cfg.channels))
    labels = (rng.random(cfg.num_classes) < 0.4).astype(float)
    labels[0] = 1.0

    def sample(asl_cfg):
        out = head.forward(image.astype(dtype), model, labels=labels)
        return head.sample_losses(out, labels, asl_cfg, weights)[0]

    return params, sample


# the label-side primitive chains; the losses' chain is swapped in too,
# so that the asymmetric loss is reached through sarl.losses.asl
LABEL_ORACLES = {**composite_ops.LABEL_CHAINS, **composite_ops.LABEL_SIDE}


class TestModelGate:
    """A training sample: the same loss and 17 parameter gradients with
    the fused ops as with the chains they replaced, within GATE for the
    label side's primitive chains in float64 and bit for bit for the
    head stages and the label-side chains."""

    def test_every_label_oracle_is_reached(self, monkeypatch):
        # an oracle that no training sample calls checks nothing
        _, sample = training_sample({}, np.float64)
        calls = dict.fromkeys(LABEL_ORACLES, 0)

        def counted(key, fn):
            def call(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return call

        swap_in(monkeypatch, {key: counted(key, fn)
                              for key, fn in LABEL_ORACLES.items()})
        sample(AslConfig())
        assert [".".join(key) for key, n in calls.items() if not n] == []

    @VARIANTS
    def test_loss_and_gradients(self, monkeypatch, variant):
        params, sample = training_sample(variant, np.float64)
        assert len(params) == 17
        with monkeypatch.context() as m:  # the swap reaches every caller
            swap_in(m, LABEL_ORACLES)
            with Tape() as tape:
                sample(AslConfig())
            assert "clamp" in {t.op for t in tape.tensors()}
        leaves = list(params.values())
        for gammas in itertools.product(GAMMA_POS, GAMMA_NEG, CLIPS):
            asl_cfg = AslConfig(*gammas)
            fused = value_and_grads(lambda: sample(asl_cfg), leaves)
            with monkeypatch.context() as m:
                swap_in(m, LABEL_ORACLES)
                oracle = value_and_grads(lambda: sample(asl_cfg), leaves)
            assert gradient_error(fused[0], oracle[0]) <= GATE
            for name, a, b in zip(params, fused[1], oracle[1]):
                assert gradient_error(a, b) <= GATE, name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64],
                             ids=["float32", "float64"])
    @VARIANTS
    def test_head_stages_bit_identical(self, monkeypatch, variant, dtype):
        params, sample = training_sample(variant, dtype)
        leaves = list(params.values())
        fused = value_and_grads(lambda: sample(AslConfig()), leaves)
        with monkeypatch.context() as m:
            swap_in(m, composite_ops.HEAD_STAGES)
            with Tape() as tape:
                sample(AslConfig())
            assert {"mul", "sum"} <= {t.op for t in tape.tensors()}
            chain = value_and_grads(lambda: sample(AslConfig()), leaves)
        assert fused[0].dtype == dtype
        np.testing.assert_array_equal(fused[0], chain[0])
        for name, a, b in zip(params, fused[1], chain[1]):
            assert a.dtype == b.dtype == dtype, name
            np.testing.assert_array_equal(a, b, err_msg=name)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64],
                             ids=["float32", "float64"])
    @VARIANTS
    def test_label_chains_bit_identical(self, monkeypatch, variant, dtype):
        params, sample = training_sample(variant, dtype)
        leaves = list(params.values())
        for gammas in ((0.0, 2.0, 0.05), (2.0, 0.5, 0.0)):
            asl_cfg = AslConfig(*gammas)
            fused = value_and_grads(lambda: sample(asl_cfg), leaves)
            with monkeypatch.context() as m:
                swap_in(m, composite_ops.LABEL_CHAINS)
                with Tape() as tape:
                    sample(asl_cfg)
                assert "sigmoid" in {t.op for t in tape.tensors()}
                chain = value_and_grads(lambda: sample(asl_cfg), leaves)
            assert fused[0].dtype == dtype
            np.testing.assert_array_equal(fused[0], chain[0])
            for name, a, b in zip(params, fused[1], chain[1]):
                assert a.dtype == b.dtype == dtype, name
                np.testing.assert_array_equal(a, b, err_msg=name)


class TestRecordsAndDtype:
    def test_one_record_each(self):
        rng = np.random.default_rng(8)
        p = Tensor(rng.random(6))
        f, s = Tensor(rng.normal(size=(4, 5))), Tensor(rng.normal(size=(6, 5)))
        theta = Tensor(rng.random(4))
        with Tape() as tape:
            asl(p, np.ones(6), AslConfig())
            co = cost_matrix(f, s)
            forward_plan(co, theta)
            backward_plan(co, p)
            ct_loss(co, T.softmax(co.data, axis=1), theta, p, co)
        assert [t.op for t in tape.tensors()] == [
            "asymmetric_loss", "cosine_cost", "reshape", "softmax", "mul",
            "reshape", "softmax", "mul", "transport_cost"]
        z, m = Tensor(rng.normal(size=6)), Tensor(rng.normal(size=(4, 6)))
        cost = Tensor(0.5)
        with Tape() as tape:
            source_distribution(m, np.ones(6))
            head.sample_losses(label_outputs(z, m, cost), np.ones(6),
                               AslConfig(), LossWeights())
        assert [t.op for t in tape.tensors()] == ["matvec_softmax",
                                                  "asl_objective"]
        for name in RECORDS:
            for samples, want in zip(((), (3,)), RECORDS[name]):
                _, call = head_stage(name, samples, np.float64, rng)
                with Tape() as tape:
                    call(library_stage(name))
                assert [t.op for t in tape.tensors()] == want, (name, samples)

    def test_float32_stays_float32(self):
        rng = np.random.default_rng(9)

        def t32(*shape):
            return Tensor(rng.random(shape).astype(np.float32))

        p, f, s, beta = t32(6), t32(4, 5), t32(6, 5), t32(6)
        z, m = t32(6), t32(4, 6)
        leaves = [p, f, s, beta, z, m]
        labels = np.array([1, 0, 0, 1, 0, 0], dtype=np.float32)
        with Tape() as tape:
            l_asl = asl(p, labels, AslConfig(1.0, 0.5, 0.05))
            co = cost_matrix(f, s)
            theta = source_distribution(m, labels)
            l_ot, _ = ct_loss(co, T.softmax(co.data, axis=1), theta, beta, co)
            total, l_cls, l_m, _ = head.sample_losses(
                label_outputs(z, m, T.add(l_asl, l_ot)), labels, AslConfig(),
                LossWeights())
            assert l_cls.dtype == l_m.dtype == np.float32
            tape.backward(total)
            outs = list(tape.tensors())
        for t in outs + leaves:
            assert t.data.dtype == np.float32, t.op
            assert t.grad.dtype == np.float32, t.op
