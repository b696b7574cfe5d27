"""Region score aggregation, full forward pass, and checkpoints."""

import math
import re
import struct

import numpy as np
import pytest

from sarl import head
from sarl import tensor as T
from sarl.data import FormatError
from sarl.head import (ClassifierParams, ModelConfig, build_model, forward,
                       load_checkpoint, region_score_aggregate, sample_losses,
                       save_checkpoint)
from sarl.representation import ConfigError, EncoderConfig, encode
from sarl.tensor import Tape, Tensor
from sarl.training import TrainConfig, asl_config, loss_weights, model_config

import composite_ops

# the manifest of the default training config, byte for byte: the order
# and spelling of these lines are part of the checkpoint format
DEFAULT_MANIFEST = (
    "num_classes=6\nfeature_dim=32\nlabel_dim=16\nbilinear_dim=32\n"
    "bilinear_out=16\nn_heads=8\ngsp_mode=avg\ndisable_self_attn=0\n"
    "disable_ot=0\ndisable_gsp_fusion=0\nencoder.in_channels=3\n"
    "encoder.grid_h=2\nencoder.grid_w=2\nencoder.conv_blocks=2\n"
    "encoder.mode=tiny-conv\n")


def np_softmax(a, axis):
    e = np.exp(a - a.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def encoder_output(x, model):
    return encode(Tensor(x), model.config.encoder, model.encoder).f.data


def forward_oracle(x, model, y):
    """Straight-line numpy transcription of everything after the encoder."""
    cfg = model.config
    p = {k: t.data for k, t in model.parameters().items()}
    d = cfg.feature_dim // cfg.n_heads
    e = encoder_output(x, model)
    q, k, v = e @ p["attention.w_q"], e @ p["attention.w_k"], e @ p["attention.w_v"]
    heads = []
    for h in range(cfg.n_heads):
        sl = slice(h * d, (h + 1) * d)
        attn = np_softmax(q[:, sl] @ k[:, sl].T / math.sqrt(d), 1)
        heads.append(attn @ v[:, sl])
    f = np.concatenate(heads, axis=1)

    f_g = f.mean(axis=0)
    table = p["labels.table"]
    num_c = cfg.num_classes
    stacked = np.concatenate([np.tile(f_g, (num_c, 1)), table], axis=1)
    f_s = stacked @ p["fusion.weight"] + p["fusion.bias"]

    fu, sv = f @ p["bilinear.u"], f_s @ p["bilinear.v"]
    mass = np.zeros((f.shape[0], num_c))
    for i in range(f.shape[0]):
        for c in range(num_c):
            hidden = np.tanh(fu[i] * sv[c])
            mass[i, c] = float(
                (hidden @ p["bilinear.mix"] @ p["bilinear.score"])[0])
    b = np_softmax(mass, 1)
    f_r = b @ f_s
    scores = f_r @ p["classifier.weights"] + p["classifier.bias"]
    z = (np_softmax(scores, 0) * scores).sum(axis=0)

    m = f @ p["map.weights"]
    theta = np_softmax(m @ (y / y.sum()), 0)
    beta = np_softmax(y.astype(float), 0)
    fn = np.linalg.norm(f, axis=1) + 1e-8
    sn = np.linalg.norm(f_s, axis=1) + 1e-8
    co = 1.0 - (f @ f_s.T) / np.outer(fn, sn)
    fwd = theta[:, None] * np_softmax(mass, 1)
    bwd = beta[None, :] * np_softmax(mass, 0)
    l_ot = float((fwd * co).sum() + (bwd * co).sum())
    return z, l_ot


def checkpoint_bytes(version, manifest, named):
    """The file layout written out by hand: magic, version, manifest, then
    per tensor its name, rank, shape and float32 payload."""
    manifest = manifest.encode()
    raw = b"SARLCKPT" + struct.pack("<2I", version, len(manifest)) + manifest
    raw += struct.pack("<I", len(named))
    for name, data in named.items():
        raw += struct.pack("<I", len(name)) + name.encode()
        raw += struct.pack(f"<{data.ndim + 1}I", data.ndim, *data.shape)
        raw += data.astype("<f4").tobytes()
    return raw


def composite_bilinear_mass(f, f_s, p, bias):
    """The bilinear scores as eleven tape records, with the bias term that
    the fused op drops: (tanh((f u) * (f_s v)) mix + bias) score."""
    fu, sv = T.matmul(f, p.u), T.matmul(f_s, p.v)
    num_p, d1 = fu.shape
    num_c = sv.shape[0]
    pair = T.mul(T.reshape(fu, (num_p, 1, d1)), T.reshape(sv, (1, num_c, d1)))
    hidden = T.reshape(composite_ops.tanh(pair), (num_p * num_c, d1))
    scores = T.matmul(T.add(T.matmul(hidden, p.mix), bias), p.score)
    return T.reshape(scores, (num_p, num_c))


def tiny_config(**overrides):
    """8x8x2 images -> 2x2 patch grid of width 8, 3 classes."""
    enc = EncoderConfig(in_channels=2, grid_h=2, grid_w=2)
    base = dict(num_classes=3, feature_dim=8, label_dim=6, bilinear_dim=4,
                bilinear_out=4, n_heads=2, encoder=enc)
    base.update(overrides)
    return ModelConfig(**base)


class TestModelConfig:
    def test_zero_feature_dim_rejected(self):
        with pytest.raises(ConfigError, match="^feature_dim=0 must be >= 1$"):
            tiny_config(feature_dim=0)

    @pytest.mark.parametrize("field", ["label_dim", "bilinear_dim",
                                       "bilinear_out"])
    def test_zero_width_rejected(self, field):
        with pytest.raises(ConfigError, match=f"^{field}=0 must be >= 1$"):
            tiny_config(**{field: 0})

    @pytest.mark.parametrize("field", ["in_channels", "conv_blocks"])
    def test_zero_encoder_field_rejected(self, field):
        kwargs = dict(in_channels=2, grid_h=2, grid_w=2, conv_blocks=2)
        kwargs[field] = 0
        with pytest.raises(ConfigError, match=f"^{field}=0 must be >= 1$"):
            EncoderConfig(**kwargs)

    @pytest.mark.parametrize("field", ["num_classes", "feature_dim",
                                       "label_dim", "n_heads"])
    @pytest.mark.parametrize("value", [8.0, True])
    def test_non_integer_field_rejected_by_name(self, field, value):
        # build_model died on a float width with no field named
        with pytest.raises(ValueError,
                           match=f"^'{field}' is {value}, not an integer$"):
            tiny_config(**{field: value})

    @pytest.mark.parametrize("field", ["in_channels", "grid_h", "grid_w",
                                       "conv_blocks"])
    def test_non_integer_encoder_field_rejected_by_name(self, field):
        kwargs = dict(in_channels=2, grid_h=2, grid_w=2, conv_blocks=2)
        kwargs[field] = 2.0
        with pytest.raises(ValueError,
                           match=f"^'{field}' is 2.0, not an integer$"):
            EncoderConfig(**kwargs)

    @pytest.mark.parametrize("field", ["disable_self_attn", "disable_ot",
                                       "disable_gsp_fusion"])
    @pytest.mark.parametrize("value", [2, 1, "no"])
    def test_non_bool_flag_rejected_by_name(self, field, value):
        # a checkpoint saved with disable_ot=2 would not load
        with pytest.raises(ValueError, match=f"^'{field}' is "
                                             f"{re.escape(repr(value))}, "
                                             f"not a boolean$"):
            tiny_config(**{field: value})

    @pytest.mark.parametrize("n_heads", [0, 3, 16])
    def test_heads_must_divide_feature_dim(self, n_heads):
        with pytest.raises(ConfigError, match=f"^n_heads={n_heads} must be "
                                              f">= 1 and divide d_v=8$"):
            tiny_config(n_heads=n_heads)


class TestRegionScoreAggregate:
    def test_identical_patch_rows_pass_through(self):
        rng = np.random.default_rng(0)
        row = rng.normal(size=5)
        f_r = Tensor(np.tile(row, (4, 1)))
        cls = ClassifierParams(Tensor(rng.normal(size=(5, 3))),
                               Tensor(rng.normal(size=3)))
        z = region_score_aggregate(f_r, cls).data
        np.testing.assert_allclose(z, row @ cls.weights.data + cls.bias.data,
                                   atol=1e-12)

    def test_single_patch(self):
        rng = np.random.default_rng(1)
        f_r = Tensor(rng.normal(size=(1, 5)))
        cls = ClassifierParams(Tensor(rng.normal(size=(5, 3))),
                               Tensor(rng.normal(size=3)))
        z = region_score_aggregate(f_r, cls).data
        np.testing.assert_allclose(
            z, (f_r.data @ cls.weights.data + cls.bias.data)[0], atol=1e-12)

    def test_two_patch_closed_form(self):
        # patch scores [ln 3, 0] for one class: weights [0.75, 0.25], so
        # z = 0.75 * ln 3 = 0.8240...
        f_r = Tensor(np.array([[math.log(3.0)], [0.0]]))
        cls = ClassifierParams(Tensor(np.eye(1)), Tensor(np.zeros(1)))
        z = region_score_aggregate(f_r, cls).data
        np.testing.assert_allclose(z, [0.75 * math.log(3.0)], atol=1e-12)
        np.testing.assert_allclose(z, [0.8240], atol=5e-5)

    def test_shift_offset_moves_one_logit_exactly(self):
        rng = np.random.default_rng(2)
        f_r = Tensor(rng.normal(size=(4, 5)))
        w = Tensor(rng.normal(size=(5, 3)))
        base = region_score_aggregate(f_r, ClassifierParams(w, Tensor(np.zeros(3)))).data
        shift = np.array([0.0, 1.7, 0.0])
        moved = region_score_aggregate(f_r, ClassifierParams(w, Tensor(shift))).data
        np.testing.assert_allclose(moved - base, shift, atol=1e-9)

    def test_patch_permutation_invariance(self):
        rng = np.random.default_rng(3)
        f_r = rng.normal(size=(6, 5))
        cls = ClassifierParams(Tensor(rng.normal(size=(5, 4))),
                               Tensor(rng.normal(size=4)))
        base = region_score_aggregate(Tensor(f_r), cls).data
        for _ in range(5):
            perm = rng.permutation(6)
            again = region_score_aggregate(Tensor(f_r[perm]), cls).data
            np.testing.assert_allclose(again, base, atol=1e-12)

    def test_patch_weights_on_simplex(self):
        rng = np.random.default_rng(4)
        f_r = rng.normal(size=(5, 4))
        w, b = rng.normal(size=(4, 3)), rng.normal(size=3)
        weights = np_softmax(f_r @ w + b, 0)
        assert weights.min() >= 0.0
        np.testing.assert_allclose(weights.sum(axis=0), 1.0, atol=1e-9)

    def test_gradients(self):
        from sarl.gradcheck import check_gradients
        rng = np.random.default_rng(5)
        f_r = Tensor(rng.normal(size=(4, 5)))
        cls = ClassifierParams(Tensor(rng.normal(size=(5, 3))),
                               Tensor(rng.normal(size=3)))

        def loss():
            return T.sum_(T.pow_const(region_score_aggregate(f_r, cls), 2))

        check_gradients(loss, [f_r, cls.weights, cls.bias], tol=1e-4)


class TestForward:
    def test_zero_parameters_give_zero_logits(self):
        model = build_model(tiny_config(), seed=6)
        for t in model.parameters().values():
            t.data = np.zeros_like(t.data)
        rng = np.random.default_rng(7)
        out = forward(rng.normal(size=(8, 8, 2)), model)
        np.testing.assert_array_equal(out.logits.data, np.zeros(3))

    def test_matches_straight_line_oracle(self):
        for seed in range(3):
            model = build_model(tiny_config(), seed=seed)
            rng = np.random.default_rng(100 + seed)
            x = rng.normal(size=(8, 8, 2))
            y = np.array([1.0, 0.0, 1.0])
            out = forward(x, model, labels=y)
            z, l_ot = forward_oracle(x, model, y)
            np.testing.assert_allclose(out.logits.data, z, atol=1e-9)
            np.testing.assert_allclose(out.transport_cost.item(), l_ot, atol=1e-9)

    def test_train_mode_invariants(self):
        model = build_model(tiny_config(), seed=8)
        rng = np.random.default_rng(9)
        out = forward(rng.normal(size=(8, 8, 2)), model,
                      labels=np.array([0.0, 1.0, 1.0]))
        theta, beta = out.theta.data, out.beta.data
        assert theta.min() >= 0 and beta.min() >= 0
        np.testing.assert_allclose(theta.sum(), 1.0, atol=1e-9)
        np.testing.assert_allclose(beta.sum(), 1.0, atol=1e-9)
        fwd, bwd = out.plans
        np.testing.assert_allclose(fwd.data.sum(axis=1), theta, atol=1e-9)
        np.testing.assert_allclose(bwd.data.sum(axis=0), beta, atol=1e-9)
        co = out.cost.data
        assert co.min() >= 0.0 and co.max() <= 2.0
        np.testing.assert_allclose(out.attention.data.sum(axis=1), 1.0, atol=1e-9)

    def test_deterministic(self):
        model = build_model(tiny_config(), seed=10)
        rng = np.random.default_rng(11)
        img = rng.normal(size=(8, 8, 2))
        a = forward(img, model).logits.data
        b = forward(img, model).logits.data
        np.testing.assert_array_equal(a, b)

    def test_infer_needs_no_labels(self):
        model = build_model(tiny_config(), seed=13)
        out = forward(np.random.default_rng(14).normal(size=(8, 8, 2)), model)
        assert out.logits.shape == (3,)
        assert out.transport_cost is None
        assert out.semantic_map is None

    def test_stack_gives_one_logit_row_per_image(self):
        model = build_model(tiny_config(), seed=13)
        out = forward(np.random.default_rng(14).normal(size=(3, 8, 8, 2)), model)
        assert out.logits.shape == (3, 3)
        assert out.attention.shape == (3, 4, 3)
        assert out.features.f.shape == (3, 4, 8)

    @pytest.mark.parametrize("labels", [
        np.array([1, 0, 1], np.uint8), np.array([True, False, True])],
        ids=["uint8", "bool"])
    def test_labels_take_the_parameters_dtype(self, labels):
        model = build_model(tiny_config(), seed=13, dtype=np.float32)
        x = np.random.default_rng(14).normal(size=(8, 8, 2)).astype(np.float32)
        out = forward(x, model, labels=labels)
        for name in ("logits", "theta", "beta", "transport_cost"):
            assert getattr(out, name).dtype == np.float32, name

    @pytest.mark.parametrize("shape", [(8, 8, 2), (3, 8, 8, 2)],
                             ids=["image", "stack3"])
    @pytest.mark.parametrize("kind", [np.float64, np.int64], ids=["float64", "int64"])
    def test_image_takes_the_parameters_dtype(self, kind, shape):
        # a float32 model runs a float64 or integer image in float32, on
        # the bits of the image cast to float32
        model = build_model(tiny_config(), seed=13, dtype=np.float32)
        x = (np.random.default_rng(14).normal(size=shape) * 20).astype(kind)
        out = forward(x, model)
        assert out.logits.dtype == np.float32
        np.testing.assert_array_equal(
            out.logits.data, forward(x.astype(np.float32), model).logits.data)

    @pytest.mark.parametrize("shape", [(8, 8), (8,), (1, 2, 8, 8, 2)])
    def test_image_rank_outside_three_or_four_rejected(self, shape):
        model = build_model(tiny_config(), seed=13)
        with pytest.raises(ConfigError, match=re.escape(f"got shape {shape}")):
            forward(np.zeros(shape), model)

    @pytest.mark.parametrize("shape", [(0, 8, 8, 2), (2, 0, 8, 2), (8, 8, 0)])
    def test_empty_axis_rejected(self, shape):
        model = build_model(tiny_config(), seed=13)
        with pytest.raises(ConfigError, match=re.escape(
                f"none of its axes empty, got shape {shape}")):
            forward(np.zeros(shape), model)

    def test_labels_with_a_stack_rejected(self):
        # the label branch is per sample: training records one tape per image
        model = build_model(tiny_config(), seed=13)
        with pytest.raises(ConfigError, match=re.escape(
                "got labels (3,) for images (2, 8, 8, 2)")):
            forward(np.zeros((2, 8, 8, 2)), model, labels=np.array([1.0, 0.0, 1.0]))

    def test_labels_of_the_wrong_length_rejected(self):
        model = build_model(tiny_config(), seed=13)
        with pytest.raises(ConfigError, match=re.escape(
                "got labels (4,) for images (8, 8, 2)")):
            forward(np.zeros((8, 8, 2)), model, labels=np.ones(4))


class TestFusedBilinearGate:
    """The fused bilinear op against the composite it replaced, float64.

    The composite carries a nonzero random bias. It adds one constant to
    every score, which each softmax of A cancels, so everything
    downstream must agree within 1e-12 and the bias gradient must be 0.
    """

    def run(self, monkeypatch, model, image, labels, bilinear_mass):
        masses = []

        def recorded(f, f_s, p):
            masses.append(bilinear_mass(f, f_s, p))
            return masses[-1]

        cfg = TrainConfig()
        monkeypatch.setattr(head, "bilinear_mass", recorded)
        with Tape() as tape:
            out = forward(image, model, labels=labels)
            losses = sample_losses(out, labels, asl_config(cfg),
                                   loss_weights(cfg))
            tape.backward(losses[0])
        a = masses[0].data
        values = {"softmax_rows": np_softmax(a, 1),
                  "softmax_cols": np_softmax(a, 0),
                  "logits": out.logits.data}
        values.update(zip(("total", "cls", "map", "ot"),
                          (t.data for t in losses)))
        for name, t in model.parameters().items():
            values["grad " + name] = t.grad.copy()
        return values

    @pytest.mark.parametrize("image_size,num_classes,num_p",
                             [(8, 6, 4), (16, 5, 16)], ids=["default", "p16-c5"])
    def test_fused_matches_composite(self, monkeypatch, image_size,
                                     num_classes, num_p):
        cfg = model_config(TrainConfig(image_size=image_size,
                                       num_classes=num_classes))
        assert cfg.encoder.grid_h * cfg.encoder.grid_w == num_p
        model = build_model(cfg, seed=31)
        rng = np.random.default_rng(32)
        image = rng.normal(size=(image_size, image_size, 3))
        labels = np.zeros(num_classes)
        labels[[0, 2]] = 1.0
        bias = Tensor(rng.normal(size=cfg.bilinear_out))
        fused = self.run(monkeypatch, model, image, labels, head.bilinear_mass)
        composite = self.run(
            monkeypatch, model, image, labels,
            lambda f, f_s, p: composite_bilinear_mass(f, f_s, p, bias))
        assert fused.keys() == composite.keys()
        for name, want in composite.items():
            np.testing.assert_allclose(fused[name], want, rtol=0, atol=1e-12,
                                       err_msg=name)
        np.testing.assert_allclose(bias.grad, 0.0, atol=1e-12)


class TestAblations:
    def test_disable_ot_bypasses_transport(self):
        model = build_model(tiny_config(disable_ot=True), seed=15)
        rng = np.random.default_rng(16)
        x = rng.normal(size=(8, 8, 2))
        out = forward(x, model, labels=np.array([1.0, 0.0, 0.0]))
        assert out.attention is None
        assert out.transport_cost is None
        assert out.semantic_map is None
        assert out.aligned is out.features.f
        expect = region_score_aggregate(out.features.f, model.classifier).data
        np.testing.assert_array_equal(out.logits.data, expect)

    def test_disable_self_attn_keeps_encoder_output(self):
        model = build_model(tiny_config(disable_self_attn=True), seed=17)
        rng = np.random.default_rng(18)
        x = rng.normal(size=(8, 8, 2))
        out = forward(x, model)
        np.testing.assert_array_equal(out.features.f.data,
                                      encoder_output(x, model))

    def test_disable_gsp_fusion_uses_zero_global_feature(self):
        from sarl.representation import fuse_semantic
        model = build_model(tiny_config(disable_gsp_fusion=True), seed=19)
        rng = np.random.default_rng(20)
        out = forward(rng.normal(size=(8, 8, 2)), model)
        expect = fuse_semantic(Tensor(np.zeros((1, 8))), model.labels, model.fusion)
        np.testing.assert_allclose(out.semantic_features.data, expect.data,
                                   atol=1e-12)


class TestCheckpoint:
    def roundtrip(self, tmp_path, cfg, seed=21):
        model = build_model(cfg, seed=seed, dtype=np.float32)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        return model, load_checkpoint(path)

    def test_default_checkpoint_bytes_are_pinned(self, tmp_path):
        model = build_model(model_config(TrainConfig()), seed=5, dtype=np.float32)
        params = model.parameters()
        assert len(params) == 17
        raw = checkpoint_bytes(2, DEFAULT_MANIFEST,
                               {name: t.data for name, t in params.items()})
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        assert path.read_bytes() == raw
        path.write_bytes(raw)
        loaded = load_checkpoint(path)
        assert loaded.config == model.config
        for name, tensor in params.items():
            np.testing.assert_array_equal(loaded.parameters()[name].data, tensor.data)

    def test_version_1_file_refused(self, tmp_path):
        # version 1 held one more tensor: bilinear.bias (bilinear_out,)
        # sat between bilinear.mix and bilinear.score
        model = build_model(model_config(TrainConfig()), seed=5, dtype=np.float32)
        named = {}
        for name, t in model.parameters().items():
            if name == "bilinear.score":
                named["bilinear.bias"] = np.zeros(16, dtype=np.float32)
            named[name] = t.data
        assert len(named) == 18
        path = tmp_path / "v1.ckpt"
        path.write_bytes(checkpoint_bytes(1, DEFAULT_MANIFEST, named))
        with pytest.raises(FormatError, match="^checkpoint version 1 is not "
                                              "supported: this build reads "
                                              "version 2$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_refused(self, tmp_path, value):
        model = build_model(tiny_config(), seed=29, dtype=np.float32)
        model.classifier.bias.data[1] = value
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        with pytest.raises(FormatError, match=re.escape(
                f"tensor 'classifier.bias' holds a non-finite value "
                f"{np.float32(value)} at flat index 1")):
            load_checkpoint(path)

    def test_parameters_roundtrip_bit_exact(self, tmp_path):
        model, loaded = self.roundtrip(tmp_path, tiny_config())
        for name, tensor in model.parameters().items():
            got = loaded.parameters()[name]
            assert got.data.dtype == np.float32
            np.testing.assert_array_equal(got.data, tensor.data)

    def test_forward_after_roundtrip_is_identical(self, tmp_path):
        model, loaded = self.roundtrip(tmp_path, tiny_config())
        img = np.random.default_rng(22).normal(size=(8, 8, 2)).astype(np.float32)
        a = forward(img, model).logits.data
        b = forward(img, loaded).logits.data
        np.testing.assert_array_equal(a, b)

    def test_config_flags_roundtrip(self, tmp_path):
        cfg = tiny_config(disable_ot=True, disable_gsp_fusion=True,
                          gsp_mode="max")
        _, loaded = self.roundtrip(tmp_path, cfg)
        assert loaded.config.disable_ot is True
        assert loaded.config.disable_gsp_fusion is True
        assert loaded.config.disable_self_attn is False
        assert loaded.config.gsp_mode == "max"
        assert loaded.config.encoder.grid_h == 2

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_truncation_rejected(self, tmp_path):
        model = build_model(tiny_config(), seed=23, dtype=np.float32)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) - 5])
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_data_rejected(self, tmp_path):
        model = build_model(tiny_config(), seed=24, dtype=np.float32)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(FormatError, match="trailing"):
            load_checkpoint(path)

    def test_repeated_tensor_name_rejected(self, tmp_path):
        # w_q written twice and w_k left out: same name length, same shape
        model = build_model(tiny_config(), seed=25, dtype=np.float32)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        raw = path.read_bytes()
        assert raw.count(b"attention.w_k") == 1
        path.write_bytes(raw.replace(b"attention.w_k", b"attention.w_q"))
        with pytest.raises(FormatError, match="'attention.w_q' appears twice"):
            load_checkpoint(path)

    def test_non_integer_manifest_value_rejected(self, tmp_path):
        model = build_model(tiny_config(), seed=26, dtype=np.float32)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        raw = path.read_bytes()
        assert raw.count(b"num_classes=3\n") == 1
        path.write_bytes(raw.replace(b"num_classes=3\n", b"num_classes=x\n"))
        with pytest.raises(FormatError, match="'num_classes' is 'x'"):
            load_checkpoint(path)

    def test_invalid_model_in_manifest_rejected(self, tmp_path):
        # 8 heads divide feature_dim 8; 3 heads do not
        model = build_model(tiny_config(n_heads=8), seed=27, dtype=np.float32)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        raw = path.read_bytes()
        assert raw.count(b"\nn_heads=8\n") == 1
        path.write_bytes(raw.replace(b"\nn_heads=8\n", b"\nn_heads=3\n"))
        with pytest.raises(FormatError, match="n_heads=3"):
            load_checkpoint(path)

    def edited(self, tmp_path, old, new, **overrides):
        """Save a tiny model, swap one byte run, return the path and offset."""
        model = build_model(tiny_config(**overrides), seed=28, dtype=np.float32)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        raw = path.read_bytes()
        assert raw.count(old) == 1
        out = raw.replace(old, new)
        if len(new) != len(old):  # an edit inside the manifest: fix its length
            (size,) = struct.unpack_from("<I", raw, 12)
            out = out[:12] + struct.pack("<I", size + len(new) - len(old)) + out[16:]
        path.write_bytes(out)
        return path, raw.index(old)

    def test_non_utf8_manifest_rejected(self, tmp_path):
        path, at = self.edited(tmp_path, b"\nlabel_dim=6\n", b"\nlabel_dim=\xff\n")
        offset = at + len(b"\nlabel_dim=")
        with pytest.raises(FormatError, match=f"manifest is not UTF-8: byte 0xff "
                                              f"at offset {offset}$"):
            load_checkpoint(path)

    def test_non_utf8_tensor_name_rejected(self, tmp_path):
        path, at = self.edited(tmp_path, b"attention.w_k", b"attention.w\xfek")
        offset = at + len(b"attention.w")
        with pytest.raises(FormatError, match=f"tensor name is not UTF-8: byte 0xfe "
                                              f"at offset {offset}$"):
            load_checkpoint(path)

    def test_zero_feature_dim_in_manifest_rejected(self, tmp_path):
        path, _ = self.edited(tmp_path, b"\nfeature_dim=8\n", b"\nfeature_dim=0\n")
        with pytest.raises(FormatError, match="feature_dim=0 must be >= 1$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key,value", [
        ("label_dim", 6), ("bilinear_dim", 4), ("bilinear_out", 4),
        ("encoder.in_channels", 2), ("encoder.conv_blocks", 2)])
    def test_zero_width_in_manifest_rejected(self, tmp_path, key, value):
        path, _ = self.edited(tmp_path, f"\n{key}={value}\n".encode(),
                              f"\n{key}=0\n".encode())
        field = key.rpartition(".")[2]
        with pytest.raises(FormatError, match=f"describes no valid model: "
                                              f"{field}=0 must be >= 1$"):
            load_checkpoint(path)

    def test_unknown_gsp_mode_rejected(self, tmp_path):
        path, _ = self.edited(tmp_path, b"\ngsp_mode=avg\n", b"\ngsp_mode=sum\n")
        with pytest.raises(FormatError, match="gsp_mode='sum'"):
            load_checkpoint(path)

    def test_ablation_flag_must_be_zero_or_one(self, tmp_path):
        path, _ = self.edited(tmp_path, b"\ndisable_self_attn=0\n",
                              b"\ndisable_self_attn=8\n")
        with pytest.raises(FormatError, match="'disable_self_attn' is '8', not 0 or 1"):
            load_checkpoint(path)

    def test_only_newline_ends_a_manifest_line(self, tmp_path):
        # a vertical tab is part of the value, not a line break
        path, _ = self.edited(tmp_path, b"\nencoder.mode=", b"\x0bencoder.mode=")
        with pytest.raises(FormatError, match="missing 'encoder.mode'"):
            load_checkpoint(path)

    def test_unknown_manifest_key_rejected(self, tmp_path):
        path, _ = self.edited(tmp_path, b"\nencoder.mode=",
                              b"\nencoder.stride=2\nencoder.mode=")
        with pytest.raises(FormatError, match="unknown checkpoint manifest key "
                                              "'encoder.stride'"):
            load_checkpoint(path)

    def test_repeated_manifest_key_rejected(self, tmp_path):
        path, _ = self.edited(tmp_path, b"\nn_heads=2\n", b"\nn_heads=2\nn_heads=1\n")
        with pytest.raises(FormatError, match="'n_heads' appears twice"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [b"1_6", b" 16", b"+16"])
    def test_manifest_integer_is_plain_digits(self, tmp_path, value):
        # each of these parses as 16 under int()
        path, _ = self.edited(tmp_path, b"\nlabel_dim=16\n", b"\nlabel_dim=" + value + b"\n",
                              label_dim=16)
        with pytest.raises(FormatError, match=re.escape(
                f"'label_dim' is {value.decode()!r}, not an integer")):
            load_checkpoint(path)

