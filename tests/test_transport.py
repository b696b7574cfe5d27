"""Transport scores, plans, costs, and the semantic-aware representation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sarl import tensor as T
from sarl import transport
from sarl.gradcheck import check_gradients
from sarl.tensor import Tensor
from sarl.transport import (BilinearParams, backward_plan, bilinear_mass,
                            cost_matrix, ct_loss, forward_plan, semantic_attention,
                            semantic_map, semantic_repr, source_distribution,
                            target_distribution)


def bilinear_oracle(f, s, u, v, mix, score):
    """One explicit bilinear form per (patch, class) pair."""
    out = np.zeros((f.shape[0], s.shape[0]))
    for p in range(f.shape[0]):
        for c in range(s.shape[0]):
            hidden = np.tanh((f[p] @ u) * (s[c] @ v))
            out[p, c] = float((hidden @ mix @ score)[0])
    return out


def cosine_cost_oracle(f, s, eps=1e-8):
    out = np.zeros((f.shape[0], s.shape[0]))
    for p in range(f.shape[0]):
        for c in range(s.shape[0]):
            denom = (np.linalg.norm(f[p]) + eps) * (np.linalg.norm(s[c]) + eps)
            out[p, c] = 1.0 - f[p] @ s[c] / denom
    return out


def ct_loss_oracle(fwd, bwd, co):
    total = 0.0
    for p in range(co.shape[0]):
        for c in range(co.shape[1]):
            total += fwd[p, c] * co[p, c] + bwd[p, c] * co[p, c]
    return total


def seeded_params(rng, d_v, d1, d2):
    return BilinearParams(
        Tensor(rng.normal(size=(d_v, d1)) * 0.5),
        Tensor(rng.normal(size=(d_v, d1)) * 0.5),
        Tensor(rng.normal(size=(d1, d2)) * 0.5),
        Tensor(rng.normal(size=(d2, 1)) * 0.5),
    )


class TestSemanticMap:
    def test_zero_weights(self):
        f = Tensor(np.ones((4, 3)))
        m = semantic_map(f, Tensor(np.zeros((3, 2))))
        np.testing.assert_array_equal(m.data, np.zeros((4, 2)))

    def test_identity_features_select_weight_rows(self):
        w = np.arange(12.0).reshape(3, 4)
        m = semantic_map(Tensor(np.eye(3)), Tensor(w))
        np.testing.assert_array_equal(m.data, w)

    def test_matches_matmul(self):
        rng = np.random.default_rng(0)
        f = rng.normal(size=(5, 7))
        w = rng.normal(size=(7, 4))
        m = semantic_map(Tensor(f), Tensor(w))
        np.testing.assert_array_equal(m.data, f @ w)


class TestCostMatrix:
    def test_equal_rows_cost_zero(self):
        f = np.array([[3.0, 4.0]])
        co = cost_matrix(Tensor(f), Tensor(f))
        # the eps guard on norms leaves a ~1e-8 residue
        np.testing.assert_allclose(co.data, 0.0, atol=1e-7)

    def test_orthogonal_rows_cost_one(self):
        f = Tensor(np.array([[1.0, 0.0]]))
        s = Tensor(np.array([[0.0, 2.0]]))
        np.testing.assert_allclose(cost_matrix(f, s).data, 1.0, atol=1e-8)

    def test_opposite_rows_cost_two(self):
        f = np.array([[1.0, 1.0]])
        co = cost_matrix(Tensor(f), Tensor(-f))
        np.testing.assert_allclose(co.data, 2.0, atol=1e-7)

    def test_range_and_oracle(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            f = rng.normal(size=(6, 5)) * 3.0
            s = rng.normal(size=(4, 5)) * 3.0
            co = cost_matrix(Tensor(f), Tensor(s)).data
            assert co.min() >= 0.0 and co.max() <= 2.0
            np.testing.assert_allclose(co, cosine_cost_oracle(f, s), atol=1e-12)

    def test_zero_row_is_finite(self):
        f = np.array([[0.0, 0.0], [1.0, 0.0]])
        s = np.array([[1.0, 1.0]])
        co = cost_matrix(Tensor(f), Tensor(s)).data
        assert np.all(np.isfinite(co))
        np.testing.assert_allclose(co[0, 0], 1.0, atol=1e-7)

    def test_zero_only_when_colinear(self):
        rng = np.random.default_rng(6)
        f = rng.normal(size=(5, 4))
        s = np.vstack([2.5 * f[2], rng.normal(size=4)])
        co = cost_matrix(Tensor(f), Tensor(s)).data
        assert co[2, 0] < 1e-7
        for p in range(5):
            for c in range(2):
                if co[p, c] < 1e-7:
                    cos = f[p] @ s[c] / (np.linalg.norm(f[p]) * np.linalg.norm(s[c]))
                    assert cos > 1.0 - 1e-6


class TestSourceDistribution:
    def test_zero_map_is_uniform(self):
        theta = source_distribution(Tensor(np.zeros((4, 3))), np.array([1, 0, 1]))
        np.testing.assert_allclose(theta.data, 0.25, atol=1e-12)

    def test_single_patch(self):
        theta = source_distribution(Tensor(np.zeros((1, 2))), np.array([1, 0]))
        np.testing.assert_allclose(theta.data, [1.0], atol=1e-15)

    def test_closed_form(self):
        m = Tensor(np.array([[1.0, 0.0], [0.0, 0.0], [-1.0, 0.0]]))
        theta = source_distribution(m, np.array([1, 0])).data
        e = np.exp([1.0, 0.0, -1.0])
        np.testing.assert_allclose(theta, e / e.sum(), atol=1e-12)
        np.testing.assert_allclose(theta, [0.6652, 0.2447, 0.0900], atol=5e-5)

    def test_all_negative_labels_rejected(self):
        with pytest.raises(ValueError):
            source_distribution(Tensor(np.zeros((4, 3))), np.zeros(3))

    def test_simplex(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            m = Tensor(rng.normal(size=(5, 4)) * 2.0)
            y = np.zeros(4)
            y[rng.integers(0, 4)] = 1.0
            theta = source_distribution(m, y).data
            assert theta.min() >= 0.0
            np.testing.assert_allclose(theta.sum(), 1.0, atol=1e-9)


class TestTargetDistribution:
    def test_all_ones_uniform(self):
        beta = target_distribution(np.ones(5))
        np.testing.assert_allclose(beta.data, 0.2, atol=1e-12)

    def test_all_zeros_uniform(self):
        beta = target_distribution(np.zeros(4))
        np.testing.assert_allclose(beta.data, 0.25, atol=1e-12)

    def test_closed_form(self):
        beta = target_distribution(np.array([1.0, 0.0, 0.0])).data
        e = math.e
        np.testing.assert_allclose(beta, [e / (e + 2), 1 / (e + 2), 1 / (e + 2)],
                                   atol=1e-12)
        np.testing.assert_allclose(beta, [0.5761, 0.2119, 0.2119], atol=5e-5)


class TestBilinearMass:
    def test_zero_u_gives_constant(self):
        # tanh(0) = 0 and there is no bias, so the constant is 0
        rng = np.random.default_rng(2)
        p = seeded_params(rng, 5, 3, 2)
        p.u.data = np.zeros((5, 3))
        f, s = rng.normal(size=(4, 5)), rng.normal(size=(3, 5))
        mass = bilinear_mass(Tensor(f), Tensor(s), p).data
        np.testing.assert_array_equal(mass, np.zeros((4, 3)))

    def test_scalar_case(self):
        one = lambda *shape: Tensor(np.ones(shape))
        p = BilinearParams(one(1, 1), one(1, 1), one(1, 1), one(1, 1))
        mass = bilinear_mass(one(1, 1), one(1, 1), p)
        np.testing.assert_allclose(mass.data, math.tanh(1.0), atol=1e-12)

    def test_matches_double_loop_oracle(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            p = seeded_params(rng, 8, 5, 4)
            f, s = rng.normal(size=(4, 8)), rng.normal(size=(3, 8))
            mass = bilinear_mass(Tensor(f), Tensor(s), p).data
            expect = bilinear_oracle(f, s, p.u.data, p.v.data, p.mix.data,
                                     p.score.data)
            np.testing.assert_allclose(mass, expect, atol=1e-10)

    def test_stack_scores_each_sample_against_its_classes(self):
        # three samples' 4 patch rows in turn, each with its own 3 classes
        rng = np.random.default_rng(5)
        p = seeded_params(rng, 8, 5, 4)
        f, s = rng.normal(size=(12, 8)), rng.normal(size=(3, 3, 8))
        mass = bilinear_mass(Tensor(f), Tensor(s), p).data
        assert mass.shape == (3, 4, 3)
        for i in range(3):
            one = bilinear_mass(Tensor(f[4 * i:4 * i + 4]), Tensor(s[i]), p).data
            np.testing.assert_allclose(mass[i], one, rtol=0, atol=1e-12)


class TestPlans:
    def test_constant_mass_forward(self):
        theta = Tensor(np.array([0.5, 0.3, 0.2]))
        plan = forward_plan(Tensor(np.ones((3, 4))), theta)
        np.testing.assert_allclose(plan.data,
                                   np.tile(theta.data[:, None] / 4.0, (1, 4)),
                                   atol=1e-12)

    def test_forward_closed_form_row(self):
        mass = Tensor(np.array([[math.log(3.0), 0.0], [math.log(3.0), 0.0]]))
        plan = forward_plan(mass, Tensor(np.array([0.5, 0.5])))
        np.testing.assert_allclose(plan.data, [[0.375, 0.125], [0.375, 0.125]],
                                   atol=1e-12)

    def test_constant_mass_backward(self):
        beta = Tensor(np.array([0.7, 0.3]))
        plan = backward_plan(Tensor(np.zeros((4, 2))), beta)
        np.testing.assert_allclose(plan.data,
                                   np.tile(beta.data[None, :] / 4.0, (4, 1)),
                                   atol=1e-12)

    def test_backward_closed_form_column(self):
        mass = Tensor(np.array([[math.log(3.0)], [0.0]]))
        plan = backward_plan(mass, Tensor(np.array([1.0])))
        np.testing.assert_allclose(plan.data, [[0.75], [0.25]], atol=1e-12)

    def test_marginals(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            mass = Tensor(rng.normal(size=(5, 3)) * 2.0)
            theta = rng.dirichlet(np.ones(5))
            beta = rng.dirichlet(np.ones(3))
            fwd = forward_plan(mass, Tensor(theta)).data
            bwd = backward_plan(mass, Tensor(beta)).data
            assert fwd.min() >= 0.0 and bwd.min() >= 0.0
            np.testing.assert_allclose(fwd.sum(axis=1), theta, atol=1e-12)
            np.testing.assert_allclose(bwd.sum(axis=0), beta, atol=1e-12)


class TestTransportProperties:
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(num_p=st.integers(1, 6), num_c=st.integers(1, 6),
           seed=st.integers(0, 2 ** 32 - 1), bits=st.integers(0, 63),
           positive=st.integers(0, 5))
    def test_plan_invariants(self, num_p, num_c, seed, bits, positive):
        # P = 1 and C = 1 included: one patch or one class takes all the mass
        rng = np.random.default_rng(seed)
        d_v = 4
        y = np.array([(bits >> c) & 1 for c in range(num_c)], dtype=float)
        y[positive % num_c] = 1.0
        f = Tensor(rng.normal(size=(num_p, d_v)))
        s = Tensor(rng.normal(size=(num_c, d_v)))
        mass = bilinear_mass(f, s, seeded_params(rng, d_v, 3, 2))
        theta = source_distribution(
            semantic_map(f, Tensor(rng.normal(size=(d_v, num_c)))), y).data
        beta = target_distribution(y).data
        fwd = forward_plan(mass, Tensor(theta))
        bwd = backward_plan(mass, Tensor(beta))
        for marginal in (theta, beta):
            assert marginal.min() >= 0.0
            np.testing.assert_allclose(marginal.sum(), 1.0, atol=1e-12)
        assert fwd.data.min() >= 0.0 and bwd.data.min() >= 0.0
        np.testing.assert_allclose(fwd.data.sum(axis=1), theta, atol=1e-12)
        np.testing.assert_allclose(bwd.data.sum(axis=0), beta, atol=1e-12)
        attn = semantic_attention(mass).data
        assert attn.min() >= 0.0
        np.testing.assert_allclose(attn.sum(axis=1), 1.0, atol=1e-12)
        loss = ct_loss(fwd, bwd, cost_matrix(f, s)).item()
        assert 0.0 <= loss <= 4.0


class TestCtLoss:
    def run_pipeline(self, rng, num_p=4, num_c=3, d_v=6):
        f = Tensor(rng.normal(size=(num_p, d_v)))
        s = Tensor(rng.normal(size=(num_c, d_v)))
        p = seeded_params(rng, d_v, 4, 3)
        mass = bilinear_mass(f, s, p)
        y = np.zeros(num_c)
        y[0] = 1.0
        theta = source_distribution(semantic_map(f, Tensor(rng.normal(size=(d_v, num_c)))), y)
        beta = target_distribution(y)
        return forward_plan(mass, theta), backward_plan(mass, beta), cost_matrix(f, s)

    def test_zero_cost(self):
        rng = np.random.default_rng(4)
        fwd, bwd, co = self.run_pipeline(rng)
        loss = ct_loss(fwd, bwd, Tensor(np.zeros(co.shape)))
        assert loss.item() == 0.0

    def test_unit_cost_gives_two(self):
        rng = np.random.default_rng(5)
        fwd, bwd, co = self.run_pipeline(rng)
        loss = ct_loss(fwd, bwd, Tensor(np.ones(co.shape)))
        np.testing.assert_allclose(loss.item(), 2.0, atol=1e-12)

    def test_matches_double_sum_oracle(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            fwd, bwd, co = self.run_pipeline(rng)
            loss = ct_loss(fwd, bwd, co)
            expect = ct_loss_oracle(fwd.data, bwd.data, co.data)
            np.testing.assert_allclose(loss.item(), expect, atol=1e-12)
            assert loss.item() >= 0.0


class TestSemanticAttention:
    def test_constant_mass_uniform(self):
        b = semantic_attention(Tensor(np.full((3, 4), 2.0)))
        np.testing.assert_allclose(b.data, 0.25, atol=1e-12)

    def test_closed_form_row(self):
        b = semantic_attention(Tensor(np.array([[math.log(3.0), 0.0]])))
        np.testing.assert_allclose(b.data, [[0.75, 0.25]], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        b = semantic_attention(Tensor(rng.normal(size=(6, 5)) * 3.0)).data
        np.testing.assert_allclose(b.sum(axis=1), 1.0, atol=1e-12)


class TestSemanticRepr:
    def test_uniform_attention_gives_mean(self):
        rng = np.random.default_rng(8)
        s = rng.normal(size=(4, 6))
        b = Tensor(np.full((3, 4), 0.25))
        out = semantic_repr(b, Tensor(s)).data
        np.testing.assert_allclose(out, np.tile(s.mean(axis=0), (3, 1)), atol=1e-12)

    def test_one_hot_attention_selects_row(self):
        rng = np.random.default_rng(9)
        s = rng.normal(size=(4, 6))
        b = np.zeros((2, 4))
        b[0, 2] = 1.0
        b[1, 0] = 1.0
        out = semantic_repr(Tensor(b), Tensor(s)).data
        np.testing.assert_array_equal(out[0], s[2])
        np.testing.assert_array_equal(out[1], s[0])

    def test_matches_matmul(self):
        rng = np.random.default_rng(10)
        b = rng.dirichlet(np.ones(4), size=5)
        s = rng.normal(size=(4, 6))
        out = semantic_repr(Tensor(b), Tensor(s)).data
        np.testing.assert_array_equal(out, b @ s)

    def test_rows_in_convex_hull(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            mass = Tensor(rng.normal(size=(5, 4)) * 2.0)
            s = rng.normal(size=(4, 6))
            out = semantic_repr(semantic_attention(mass), Tensor(s)).data
            g = rng.normal(size=6)
            lo, hi = (s @ g).min(), (s @ g).max()
            proj = out @ g
            assert np.all(proj >= lo - 1e-9) and np.all(proj <= hi + 1e-9)


class TestTransportGradients:
    def test_ct_loss_full_chain(self):
        rng = np.random.default_rng(12)
        f = Tensor(rng.normal(size=(4, 6)))
        s = Tensor(rng.normal(size=(3, 6)))
        p = seeded_params(rng, 6, 4, 3)
        w_map = Tensor(rng.normal(size=(6, 3)) * 0.5)
        y = np.array([1.0, 0.0, 1.0])

        def loss():
            mass = bilinear_mass(f, s, p)
            theta = source_distribution(semantic_map(f, w_map), y)
            beta = target_distribution(y)
            fwd = forward_plan(mass, theta)
            bwd = backward_plan(mass, beta)
            return ct_loss(fwd, bwd, cost_matrix(f, s))

        check_gradients(loss, [f, s, p.u, p.v, p.mix, p.score, w_map],
                        tol=1e-4)

    def test_semantic_repr_chain(self):
        rng = np.random.default_rng(13)
        f = Tensor(rng.normal(size=(3, 5)))
        s = Tensor(rng.normal(size=(4, 5)))
        p = seeded_params(rng, 5, 3, 2)

        def loss():
            out = semantic_repr(semantic_attention(bilinear_mass(f, s, p)), s)
            return T.sum_(T.pow_const(out, 2))

        check_gradients(loss, [f, s, p.u, p.v, p.mix, p.score], tol=1e-4)
