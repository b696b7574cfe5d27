"""Asymmetric loss, semantic-map loss, and the combined objective."""

import math

import numpy as np
import pytest

from sarl import tensor as T
from sarl.gradcheck import check_gradients
from sarl.losses import (AslConfig, LossWeights, asl, classification_loss,
                         semantic_map_loss, total_loss)
from sarl.tensor import Tensor


def asl_oracle(p, y, gamma_pos, gamma_neg, clip):
    """Straight transcription with numpy scalars, no shared code."""
    p = np.clip(np.asarray(p, dtype=float), 1e-7, 1.0 - 1e-7)
    y = np.asarray(y, dtype=float)
    p_m = np.maximum(p - clip, 0.0)
    pos = ((1.0 - p) ** gamma_pos) * np.log(p)
    neg = (p_m ** gamma_neg) * np.log(1.0 - p_m)
    return float(-np.mean(y * pos + (1.0 - y) * neg))


def bce_oracle(p, y):
    p = np.clip(np.asarray(p, dtype=float), 1e-7, 1.0 - 1e-7)
    y = np.asarray(y, dtype=float)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


DEFAULT = AslConfig()


class TestAsl:
    def test_confident_positive_is_near_zero(self):
        loss = asl(np.array([1.0 - 1e-7]), np.array([1.0]), DEFAULT)
        assert loss.item() < 1e-6

    def test_negative_below_clip_is_exactly_zero(self):
        loss = asl(np.array([0.03, 0.05]), np.array([0.0, 0.0]), DEFAULT)
        assert loss.item() == 0.0

    def test_positive_half_is_log_two(self):
        cfg = AslConfig(gamma_pos=0.0, gamma_neg=2.0, clip=0.05)
        loss = asl(np.array([0.5]), np.array([1.0]), cfg)
        np.testing.assert_allclose(loss.item(), math.log(2.0), atol=1e-12)

    def test_reduces_to_bce(self):
        cfg = AslConfig(gamma_pos=0.0, gamma_neg=0.0, clip=0.0)
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = rng.uniform(0.01, 0.99, size=6)
            y = (rng.random(6) < 0.5).astype(float)
            loss = asl(p, y, cfg)
            np.testing.assert_allclose(loss.item(), bce_oracle(p, y), atol=1e-12)

    def test_matches_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = rng.uniform(0.001, 0.999, size=8)
            y = (rng.random(8) < 0.4).astype(float)
            cfg = AslConfig(gamma_pos=rng.uniform(0, 2), gamma_neg=rng.uniform(0, 4),
                            clip=rng.uniform(0, 0.2))
            loss = asl(p, y, cfg)
            expect = asl_oracle(p, y, cfg.gamma_pos, cfg.gamma_neg, cfg.clip)
            np.testing.assert_allclose(loss.item(), expect, atol=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            p = rng.random(5)
            y = (rng.random(5) < 0.5).astype(float)
            assert asl(p, y, DEFAULT).item() >= 0.0

    def test_monotonic_in_p(self):
        grid = np.linspace(0.01, 0.99, 40)
        pos = [asl(np.array([p]), np.array([1.0]), DEFAULT).item() for p in grid]
        neg = [asl(np.array([p]), np.array([0.0]), DEFAULT).item() for p in grid]
        assert all(a >= b for a, b in zip(pos, pos[1:]))
        assert all(a <= b for a, b in zip(neg, neg[1:]))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AslConfig(gamma_pos=-1.0)
        with pytest.raises(ValueError):
            AslConfig(clip=1.0)

    @pytest.mark.parametrize("field", ["gamma_pos", "gamma_neg", "clip"])
    def test_infinite_knob_rejected_by_name(self, field):
        # as TrainConfig words it; clip's range check catches it first
        with pytest.raises(ValueError,
                           match=rf"^'?{field}'?( is |=)inf\b"):
            AslConfig(**{field: math.inf})

    def test_gradients(self):
        rng = np.random.default_rng(3)
        p = Tensor(rng.uniform(0.1, 0.9, size=6))
        y = (rng.random(6) < 0.5).astype(float)
        for cfg in (DEFAULT, AslConfig(1.0, 3.0, 0.02)):
            check_gradients(lambda: asl(p, y, cfg), [p], tol=1e-4)


class TestClassificationLoss:
    def test_saturated_logits_near_zero(self):
        z = Tensor(np.array([20.0, -20.0, 20.0]))
        y = np.array([1.0, 0.0, 1.0])
        assert classification_loss(z, y, DEFAULT).item() < 1e-6

    def test_zero_logit_positive_is_log_two(self):
        loss = classification_loss(Tensor(np.array([0.0])), np.array([1.0]), DEFAULT)
        np.testing.assert_allclose(loss.item(), math.log(2.0), atol=1e-12)

    def test_matches_composition(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            z = rng.normal(size=7) * 3.0
            y = (rng.random(7) < 0.5).astype(float)
            a = classification_loss(Tensor(z), y, DEFAULT).item()
            b = asl(1.0 / (1.0 + np.exp(-z)), y, DEFAULT).item()
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(5)
        z = Tensor(rng.normal(size=5))
        y = np.array([1.0, 0.0, 0.0, 1.0, 0.0])
        check_gradients(lambda: classification_loss(z, y, DEFAULT), [z], tol=1e-4)


class TestSemanticMapLoss:
    def test_saturated_map_near_zero(self):
        m = Tensor(np.array([[20.0, -20.0], [-5.0, -20.0], [0.0, -20.0]]))
        y = np.array([1.0, 0.0])
        assert semantic_map_loss(m, y, DEFAULT).item() < 1e-6

    def test_single_patch_reduces_to_asl(self):
        rng = np.random.default_rng(6)
        row = rng.normal(size=4)
        y = np.array([1.0, 0.0, 1.0, 0.0])
        a = semantic_map_loss(Tensor(row[None, :]), y, DEFAULT).item()
        b = asl(1.0 / (1.0 + np.exp(-row)), y, DEFAULT).item()
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_matches_max_then_asl_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            m = rng.normal(size=(5, 4)) * 2.0
            y = (rng.random(4) < 0.5).astype(float)
            a = semantic_map_loss(Tensor(m), y, DEFAULT).item()
            peak = m.max(axis=0)
            b = asl_oracle(1.0 / (1.0 + np.exp(-peak)), y, 0.0, 2.0, 0.05)
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_patch_permutation_invariance(self):
        rng = np.random.default_rng(8)
        m = rng.normal(size=(6, 3))
        y = np.array([1.0, 1.0, 0.0])
        base = semantic_map_loss(Tensor(m), y, DEFAULT).item()
        for _ in range(5):
            perm = rng.permutation(6)
            again = semantic_map_loss(Tensor(m[perm]), y, DEFAULT).item()
            np.testing.assert_allclose(again, base, atol=1e-15)

    def test_gradients_away_from_ties(self):
        rng = np.random.default_rng(9)
        m = Tensor(rng.normal(size=(4, 3)))
        y = np.array([1.0, 0.0, 1.0])
        check_gradients(lambda: semantic_map_loss(m, y, DEFAULT), [m], tol=1e-4)


class TestTotalLoss:
    def test_zero_weights_leave_classification_only(self):
        total = total_loss(Tensor(np.array(1.25)), Tensor(np.array(7.0)),
                           Tensor(np.array(9.0)), LossWeights(0.0, 0.0))
        np.testing.assert_allclose(total.item(), 1.25, atol=1e-15)

    def test_low_weight_preset(self):
        total = total_loss(1.0, 2.0, 3.0, LossWeights(0.04, 0.5))
        np.testing.assert_allclose(total.item(), 2.58, atol=1e-12)

    def test_high_weight_preset(self):
        total = total_loss(1.0, 2.0, 3.0, LossWeights(0.2, 0.5))
        np.testing.assert_allclose(total.item(), 2.9, atol=1e-12)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            LossWeights(-0.1, 0.5)

    @pytest.mark.parametrize("field", ["lambda1", "lambda2"])
    def test_infinite_weight_rejected_by_name(self, field):
        with pytest.raises(ValueError,
                           match=f"^'{field}' is inf, not a finite number$"):
            LossWeights(**{field: math.inf})
