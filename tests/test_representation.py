"""Encoder, self-attention, pooling, and semantic fusion."""

import math
import re

import numpy as np
import pytest

from sarl import tensor as T
from sarl.gradcheck import check_gradients
from sarl.representation import (ConfigError, EncoderConfig, FeatureMap,
                                 FusionParams, SelfAttentionParams, encode, fuse_semantic,
                                 global_spatial_pool, init_encoder,
                                 self_attention)
from sarl.tensor import DimensionError, Tape, Tensor


def attention_oracle(f, w_q, w_k, w_v, n_heads):
    """Per-pair double loop over patches, one head at a time."""
    num_p, d_v = f.shape
    d = d_v // n_heads
    q, k, v = f @ w_q, f @ w_k, f @ w_v
    out = np.zeros((num_p, d_v))
    for h in range(n_heads):
        sl = slice(h * d, (h + 1) * d)
        for p in range(num_p):
            logits = np.array([q[p, sl] @ k[r, sl] for r in range(num_p)])
            logits = logits / math.sqrt(d)
            e = np.exp(logits - logits.max())
            weights = e / e.sum()
            for r in range(num_p):
                out[p, sl] += weights[r] * v[r, sl]
    return out


def fusion_oracle(f_g, table, weight, bias):
    """One affine map per class row."""
    num_c = table.shape[0]
    out = np.zeros((num_c, weight.shape[1]))
    for c in range(num_c):
        row = np.concatenate([f_g, table[c]])
        out[c] = row @ weight + bias
    return out


def feature_map(arr, h, w):
    return FeatureMap(Tensor(arr), h, w)


class TestEncode:
    def test_zero_image_zero_weights_gives_zero_features(self):
        cfg = EncoderConfig(in_channels=3, grid_h=2, grid_w=2)
        rng = np.random.default_rng(0)
        params = init_encoder(rng, cfg, 4)
        for kern in params.kernels:
            kern.data = np.zeros_like(kern.data)
        fm = encode(np.zeros((8, 8, 3)), cfg, params)
        np.testing.assert_array_equal(fm.f.data, np.zeros((4, 4)))

    def test_seeded_image_shape(self):
        # 8x8 halves twice under stride-2 3x3 convs: 8 -> 4 -> 2.
        cfg = EncoderConfig(in_channels=3, grid_h=2, grid_w=2)
        rng = np.random.default_rng(1)
        params = init_encoder(rng, cfg, 5)
        fm = encode(rng.normal(size=(8, 8, 3)), cfg, params)
        assert fm.f.shape == (4, 5)
        assert (fm.h, fm.w) == (2, 2)

    def test_grid_mismatch_rejected(self):
        cfg = EncoderConfig(in_channels=3, grid_h=3, grid_w=3)
        rng = np.random.default_rng(2)
        params = init_encoder(rng, cfg, 5)
        with pytest.raises(ConfigError):
            encode(rng.normal(size=(8, 8, 3)), cfg, params)

    def test_channel_mismatch_rejected(self):
        cfg = EncoderConfig(in_channels=3, grid_h=2, grid_w=2)
        params = init_encoder(np.random.default_rng(3), cfg, 5)
        with pytest.raises(ConfigError):
            encode(np.zeros((8, 8, 2)), cfg, params)

    @pytest.mark.parametrize("shape,message", [
        ((16, 16, 3), "the image is 16x16x3, which the encoder makes a 4x4 "
                      "grid; the model takes 3-channel images to a 2x2 grid"),
        ((8, 3), "the image is of shape (8, 3)"),
    ], ids=["off-grid", "rank-2"])
    def test_misfit_refused_before_the_conv(self, monkeypatch, shape, message):
        # the right channel count, but no (H, W, C) image on the 2x2 grid
        cfg = EncoderConfig(in_channels=3, grid_h=2, grid_w=2)
        params = init_encoder(np.random.default_rng(4), cfg, 5)

        def conv(*args):
            raise AssertionError("the conv ran")

        monkeypatch.setattr(T, "conv_encoder", conv)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            encode(np.zeros(shape), cfg, params)


class TestSelfAttention:
    def params(self, rng, d_v, n_heads):
        scale = 1.0 / math.sqrt(d_v)
        return SelfAttentionParams(
            Tensor(rng.normal(size=(d_v, d_v)) * scale),
            Tensor(rng.normal(size=(d_v, d_v)) * scale),
            Tensor(rng.normal(size=(d_v, d_v)) * scale),
            n_heads=n_heads,
        )

    def test_single_patch_is_value_projection(self):
        rng = np.random.default_rng(4)
        f = rng.normal(size=(1, 8))
        p = self.params(rng, 8, 2)
        out = self_attention(feature_map(f, 1, 1), p)
        np.testing.assert_allclose(out.f.data, f @ p.w_v.data, atol=1e-12)

    def test_zero_query_key_is_mean_of_values(self):
        rng = np.random.default_rng(5)
        f = rng.normal(size=(6, 8))
        p = self.params(rng, 8, 4)
        p.w_q.data = np.zeros((8, 8))
        p.w_k.data = np.zeros((8, 8))
        out = self_attention(feature_map(f, 2, 3), p)
        expect = np.tile((f @ p.w_v.data).mean(axis=0), (6, 1))
        np.testing.assert_allclose(out.f.data, expect, atol=1e-12)

    def test_matches_double_loop_oracle(self):
        for num_p, d_v, n_heads in ((4, 8, 2), (16, 32, 8), (4, 8, 1), (16, 32, 1),
                                    (64, 32, 8)):
            for seed in range(5):
                rng = np.random.default_rng(seed)
                f = rng.normal(size=(num_p, d_v))
                p = self.params(rng, d_v, n_heads)
                out = self_attention(feature_map(f, num_p, 1), p)
                expect = attention_oracle(f, p.w_q.data, p.w_k.data, p.w_v.data,
                                          n_heads)
                np.testing.assert_allclose(out.f.data, expect, atol=1e-12)

    def test_record_count_independent_of_heads(self):
        # the projections and the attention are one fused op, for any
        # head count
        rng = np.random.default_rng(15)
        f = Tensor(rng.normal(size=(4, 8)))
        counts = []
        for n_heads in (1, 2, 8):
            with Tape() as tape:
                self_attention(FeatureMap(f, 2, 2), self.params(rng, 8, n_heads))
            counts.append(len(tape))
        assert counts == [1, 1, 1]

    def test_stack_attends_within_each_sample(self):
        rng = np.random.default_rng(16)
        f = rng.normal(size=(3, 4, 8))
        p = self.params(rng, 8, 2)
        out = self_attention(feature_map(f, 2, 2), p)
        assert out.f.shape == (3, 4, 8)
        for i in range(3):
            one = self_attention(feature_map(f[i], 2, 2), p).f.data
            np.testing.assert_allclose(out.f.data[i], one, rtol=0, atol=1e-12)

    def test_head_count_must_divide(self):
        # refused where the op runs; ModelConfig refuses it where a
        # config enters (test_head's test_heads_must_divide_feature_dim)
        rng = np.random.default_rng(6)
        p = self.params(rng, 8, 3)
        with pytest.raises(DimensionError, match="^n_heads=3 must be >= 1 "
                                                 "and divide d_v=8$"):
            self_attention(feature_map(rng.normal(size=(4, 8)), 2, 2), p)

    def test_gradients(self):
        rng = np.random.default_rng(7)
        f = Tensor(rng.normal(size=(4, 8)))
        p = self.params(rng, 8, 2)

        def loss():
            out = self_attention(FeatureMap(f, 2, 2), p)
            return T.sum_(T.pow_const(out.f, 2))

        check_gradients(loss, [f, p.w_q, p.w_k, p.w_v], tol=1e-4)


class TestFeatureMapStack:
    def test_rows_must_tile_every_grid(self):
        for shape in [(10, 2), (3, 5, 2), (0, 4, 2), (4,), (1, 3, 4, 2)]:
            with pytest.raises(ConfigError, match=re.escape(
                    f"features of shape {shape} are not the (P, d_v) or "
                    f"(N, P, d_v) patch rows of a 2x2 grid")):
                FeatureMap(Tensor(np.ones(shape)), 2, 2)



class TestGlobalSpatialPool:
    def test_identical_rows_pass_through(self):
        row = np.array([1.5, -2.0, 0.25])
        fm = feature_map(np.tile(row, (4, 1)), 2, 2)
        np.testing.assert_allclose(global_spatial_pool(fm).data, [row], atol=1e-15)

    def test_avg(self):
        fm = feature_map(np.array([[1.0, 3.0], [3.0, 1.0]]), 1, 2)
        np.testing.assert_array_equal(global_spatial_pool(fm).data, [[2.0, 2.0]])

    def test_stack_pools_each_sample(self):
        # two samples' 1x2 grids pool to one row each
        f = Tensor(np.array([[[1.0, 3.0], [3.0, 1.0]], [[0.0, 2.0], [4.0, 2.0]]]))
        fm = FeatureMap(f, 1, 2)
        np.testing.assert_array_equal(global_spatial_pool(fm).data,
                                      [[[2.0, 2.0]], [[2.0, 2.0]]])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            f = rng.normal(size=(6, 4))
            perm = rng.permutation(6)
            a = global_spatial_pool(feature_map(f, 2, 3)).data
            b = global_spatial_pool(feature_map(f[perm], 2, 3)).data
            np.testing.assert_allclose(a, b, atol=1e-15)

    def test_gradients(self):
        rng = np.random.default_rng(9)
        f = Tensor(rng.normal(size=(5, 3)))

        def loss():
            pooled = global_spatial_pool(FeatureMap(f, 1, 5))
            return T.sum_(T.pow_const(pooled, 2))
        check_gradients(loss, [f], tol=1e-4)


class TestFuseSemantic:
    def test_selector_weights_return_labels(self):
        # Weight rows zero on the F_G slice, identity on the label slice.
        d = 4
        weight = np.zeros((2 * d, d))
        weight[d:, :] = np.eye(d)
        rng = np.random.default_rng(10)
        table = rng.normal(size=(3, d))
        p = FusionParams(Tensor(weight), Tensor(np.zeros(d)))
        out = fuse_semantic(Tensor(rng.normal(size=(1, d))), Tensor(table), p)
        np.testing.assert_allclose(out.data, table, atol=1e-15)

    def test_single_class_is_one_affine_map(self):
        rng = np.random.default_rng(11)
        f_g = rng.normal(size=5)
        table = rng.normal(size=(1, 3))
        weight = rng.normal(size=(8, 5))
        bias = rng.normal(size=5)
        p = FusionParams(Tensor(weight), Tensor(bias))
        out = fuse_semantic(Tensor(f_g[None]), Tensor(table), p)
        expect = np.concatenate([f_g, table[0]]) @ weight + bias
        np.testing.assert_allclose(out.data, expect[None, :], atol=1e-12)

    def test_matches_per_class_oracle(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            f_g = rng.normal(size=8)
            table = rng.normal(size=(5, 6))
            weight = rng.normal(size=(14, 8))
            bias = rng.normal(size=8)
            p = FusionParams(Tensor(weight), Tensor(bias))
            out = fuse_semantic(Tensor(f_g[None]), Tensor(table), p)
            np.testing.assert_allclose(
                out.data, fusion_oracle(f_g, table, weight, bias), atol=1e-12)

    def test_linear_in_label_table(self):
        rng = np.random.default_rng(12)
        f_g = Tensor(rng.normal(size=(1, 6)))
        p = FusionParams(Tensor(rng.normal(size=(10, 6))),
                         Tensor(rng.normal(size=6)))
        t1, t2 = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
        for alpha in (0.0, 0.3, 1.0):
            mixed = fuse_semantic(f_g, Tensor(alpha * t1 + (1 - alpha) * t2), p)
            a = fuse_semantic(f_g, Tensor(t1), p).data
            b = fuse_semantic(f_g, Tensor(t2), p).data
            np.testing.assert_allclose(mixed.data, alpha * a + (1 - alpha) * b,
                                       atol=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(13)
        f_g = Tensor(rng.normal(size=(1, 5)))
        table = Tensor(rng.normal(size=(3, 4)))
        p = FusionParams(Tensor(rng.normal(size=(9, 5))),
                         Tensor(rng.normal(size=5)))

        def loss():
            return T.sum_(T.pow_const(fuse_semantic(f_g, table, p), 2))

        check_gradients(loss, [f_g, table, p.weight, p.bias], tol=1e-4)

    @pytest.mark.parametrize("shape", [(5,), (2, 5)], ids=["no-row-axis",
                                                           "two-rows"])
    def test_global_feature_without_one_row_axis_refused(self, shape):
        p = FusionParams(Tensor(np.ones((9, 5))), Tensor(np.zeros(5)))
        with pytest.raises(DimensionError, match=re.escape(
                f"concat_linear needs (...,1,d_a), (C,d_t), (d_a+d_t,n), "
                f"(n,), got {shape}")):
            fuse_semantic(Tensor(np.ones(shape)), Tensor(np.ones((3, 4))), p)


class TestEncoderGradients:
    def test_full_encoder_chain(self):
        cfg = EncoderConfig(in_channels=2, grid_h=2, grid_w=2)
        rng = np.random.default_rng(14)
        params = init_encoder(rng, cfg, 4)
        img = Tensor(rng.normal(size=(8, 8, 2)))

        def loss():
            fm = encode(img, cfg, params)
            return T.sum_(T.pow_const(fm.f, 2))

        leaves = [img] + params.kernels + params.biases
        check_gradients(loss, leaves, tol=1e-4)
