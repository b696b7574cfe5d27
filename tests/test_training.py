"""Optimizer, training-loop, and export checks.

The AdamW reference below is an independent transcription of the
decoupled-weight-decay update, kept dumb on purpose: plain loops, no
shared helpers with the implementation.
"""

import math
import os
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from sarl.data import (Dataset, SyntheticConfig, generate, load_dataset,
                       read_manifest)
from sarl.head import (ModelConfig, build_model, forward, load_checkpoint,
                       sample_losses)
from sarl.losses import AslConfig, LossWeights
from sarl.metrics import load_predictions, compute_report
from sarl.representation import ConfigError, EncoderConfig
from sarl.tensor import Tape, Tensor
from sarl.training import (TrainConfig, TrainingError, adamw_step,
                           config_entries, config_from_file, ema_update,
                           evaluate, export_attention, init_optimizer,
                           model_config, synthetic_config, train, write_pgm)
from sarl import training as Tr

import composite_ops


def adamw_oracle(p, grads, lr, betas, eps, wd, steps):
    """Run the update rule by hand for a single array."""
    p = p.copy().astype(float)
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    b1, b2 = betas
    for t in range(1, steps + 1):
        g = grads[t - 1]
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        p = p - lr * (m_hat / (np.sqrt(v_hat) + eps) + wd * p)
    return p


def tiny_config(**overrides):
    base = dict(seed=3, n_train=40, n_test=20, num_classes=4, image_size=8,
                channels=2, feature_dim=8, label_dim=4, bilinear_dim=8,
                bilinear_out=4, n_heads=2, epochs=3, batch_size=8, lr=1e-3)
    base.update(overrides)
    return TrainConfig(**base)


def flat_params(*arrays):
    """Name -> Tensor for each array, bound to a fresh optimizer state."""
    params = {f"p{i}": Tensor(a) for i, a in enumerate(arrays)}
    return params, init_optimizer(params)


class TestAdamW:
    def test_zero_grad_is_pure_decay(self):
        rng = np.random.default_rng(0)
        params, state = flat_params(rng.normal(size=(3, 4)))
        before = params["p0"].data.copy()
        lr, wd = 0.05, 0.1
        adamw_step(params, np.zeros(12), state, lr, weight_decay=wd)
        assert_allclose(params["p0"].data, before * (1 - lr * wd), rtol=1e-12)

    def test_first_step_moves_by_lr(self):
        # g=1 makes the bias-corrected m_hat and v_hat both 1, so the
        # step is -lr up to the eps in the denominator
        params, state = flat_params(np.zeros(1))
        adamw_step(params, np.ones(1), state, lr=0.1)
        assert_allclose(params["p0"].data, [-0.1], atol=1e-8)

    def test_matches_hand_rolled_reference(self):
        # two parameters of different shapes share the buffer; each
        # follows its own oracle
        rng = np.random.default_rng(5)
        for trial in range(10):
            p0, q0 = rng.normal(size=(4, 3)), rng.normal(size=(5,))
            gs = [rng.normal(size=17) for _ in range(3)]
            params, state = flat_params(p0.copy(), q0.copy())
            for g in gs:
                adamw_step(params, g, state, lr=0.01, weight_decay=0.02)
            want_p = adamw_oracle(p0, [g[:12].reshape(4, 3) for g in gs],
                                  0.01, (0.9, 0.999), 1e-8, 0.02, 3)
            want_q = adamw_oracle(q0, [g[12:] for g in gs],
                                  0.01, (0.9, 0.999), 1e-8, 0.02, 3)
            assert_allclose(params["p0"].data, want_p, atol=1e-12)
            assert_allclose(params["p1"].data, want_q, atol=1e-12)

    def test_step_counter_advances(self):
        params, state = flat_params(np.ones(2))
        assert state.step == 0
        adamw_step(params, np.ones(2), state, lr=0.1)
        adamw_step(params, np.ones(2), state, lr=0.1)
        assert state.step == 2

    def test_preserves_float32(self):
        params, state = flat_params(np.ones(2, dtype=np.float32),
                                    np.ones((2, 2), dtype=np.float32))
        adamw_step(params, np.ones(6, dtype=np.float32), state, lr=0.1)
        for buf in (state.weights, state.m, state.v, params["p0"].data,
                    params["p1"].data):
            assert buf.dtype == np.float32


class TestEma:
    def test_decay_zero_copies_params(self):
        params, state = flat_params(np.full(3, 2.0))
        shadow = np.zeros(3)
        ema_update(shadow, state, 0.0)
        assert_array_equal(shadow, params["p0"].data)

    def test_decay_one_freezes_shadow(self):
        params, state = flat_params(np.full(3, 2.0))
        shadow = np.full(3, 7.0)
        ema_update(shadow, state, 1.0)
        assert_array_equal(shadow, np.full(3, 7.0))

    def test_half_decay_is_midpoint(self):
        params, state = flat_params(np.full(1, 2.0))
        shadow = np.zeros(1)
        ema_update(shadow, state, 0.5)
        assert_allclose(shadow, [1.0], atol=1e-15)


# small runs at the default shape: 40 samples make batches of 16, 16, 8
GATE_CONFIGS = {
    "defaults": {},
    "disable_ot": {"disable_ot": True},
    "disable_self_attn": {"disable_self_attn": True},
    "disable_gsp_fusion": {"disable_gsp_fusion": True},
    "gsp_max": {"gsp_mode": "max"},
}

# (parameter, index into its flattened gradient): flat offset 0, the two
# sides of the attention.w_v / fusion.weight boundary, the last value
BOUNDARY_NANS = [("encoder.kernel0", 0), ("attention.w_v", -1),
                 ("fusion.weight", 0), ("classifier.bias", -1)]


class TestFlatBuffer:
    @pytest.mark.parametrize("overrides", GATE_CONFIGS.values(),
                             ids=GATE_CONFIGS.keys())
    def test_train_matches_per_parameter_loop(self, overrides):
        # the whole-buffer gradient sum and AdamW give the bits of the
        # loops over the parameter dict they replaced
        cfg = TrainConfig(n_train=40, n_test=20, epochs=3, **overrides)
        train_ds, test_ds = generate(synthetic_config(cfg))
        res = train(cfg, train_ds, test_ds)
        params, history, scores = composite_ops.train_by_parameter(
            cfg, train_ds, test_ds)
        for name, p in res.model.parameters().items():
            assert_array_equal(p.data, params[name], err_msg=name)
        assert res.history == history
        assert_array_equal(res.predictions.scores, scores)

    @pytest.mark.parametrize("name, index", BOUNDARY_NANS)
    def test_nan_gradient_at_slice_boundary_names_parameter(
            self, monkeypatch, name, index):
        # the name read from the offset of the first bad value is the one
        # the loop over the parameter dict finds first
        cfg = tiny_config(epochs=1)
        model = build_model(model_config(cfg), dtype=np.float32)
        state = init_optimizer(model.parameters())
        flat = np.zeros_like(state.weights)
        flat[state.slices[name]][index] = np.nan
        assert state.first_non_finite(flat) == name
        assert composite_ops.first_non_finite_by_parameter(
            state.views(flat)) == name

        train_ds, test_ds = generate(synthetic_config(cfg))
        models, real_build, real_backward = [], Tr.build_model, Tape.backward

        def building(*args, **kwargs):
            models.append(real_build(*args, **kwargs))
            return models[-1]

        def backward(tape, loss):
            real_backward(tape, loss)
            p = models[0].parameters()[name]
            p.grad = p.grad.copy()
            p.grad.flat[index] = np.nan

        monkeypatch.setattr(Tr, "build_model", building)
        monkeypatch.setattr(Tape, "backward", backward)
        with pytest.raises(TrainingError, match=re.escape(
                f"non-finite gradient of parameter {name} at epoch 1, ")):
            train(cfg, train_ds, test_ds)

    def test_parameters_view_the_optimizer_buffer(self):
        model = build_model(model_config(tiny_config()), dtype=np.float32)
        params = model.parameters()
        before = {name: p.data.copy() for name, p in params.items()}
        state = init_optimizer(params)
        assert state.weights.size == sum(a.size for a in before.values())
        for name, p in params.items():
            assert np.shares_memory(p.data, state.weights), name
            assert_array_equal(p.data, before[name], err_msg=name)
        adamw_step(params, np.ones_like(state.weights), state, lr=0.1)
        for name, p in params.items():
            assert not np.array_equal(p.data, before[name]), name

    def test_reloaded_model_trains(self, tmp_path):
        cfg = tiny_config(epochs=1)
        train(cfg, *generate(synthetic_config(cfg)), out_dir=tmp_path)
        loaded = load_checkpoint(tmp_path / "model.ckpt")
        params = loaded.parameters()
        before = {name: p.data.copy() for name, p in params.items()}
        state = init_optimizer(params)
        adamw_step(params, np.ones_like(state.weights), state, lr=0.1)
        for name, p in params.items():
            assert p.data.dtype == np.float32, name
            assert_allclose(p.data, before[name] - 0.1, atol=1e-6,
                            err_msg=name)

    def test_mixed_dtypes_refused_by_name(self):
        params = {"a": Tensor(np.zeros(2, dtype=np.float32)),
                  "b": Tensor(np.zeros(2, dtype=np.float32)),
                  "c": Tensor(np.zeros(2))}
        with pytest.raises(TypeError, match="^parameter c is float64 but a "
                                            "is float32"):
            init_optimizer(params)


def out_of_range(field, value, why):
    """The refusal of ``field=value``: a NaN is refused as no finite number
    before any range check."""
    if math.isnan(value):
        return f"^'{field}' is nan, not a finite number$"
    return f"^{re.escape(f'{field}={value} {why}')}$"


# every field a sub-config takes off its default; 24 -> 12 -> 6 -> 3
# under three conv blocks
OTHER = TrainConfig(
    seed=3, n_train=40, n_test=30, num_classes=4, image_size=24, channels=2,
    signal=2.0, noise=0.25, cardinality=2.0, feature_dim=12, label_dim=4,
    bilinear_dim=8, bilinear_out=4, n_heads=3, gsp_mode="max", conv_blocks=3,
    lambda1=0.1, lambda2=0.2, gamma_pos=1.0, gamma_neg=4.0, clip=0.1,
    disable_self_attn=True, disable_ot=True, disable_gsp_fusion=True)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(lr=0.0)

    @pytest.mark.parametrize("value", [-1.0, -1e-12, math.nan])
    def test_negative_weight_decay_rejected(self, value):
        with pytest.raises(ValueError, match=out_of_range(
                "weight_decay", value, "must be >= 0")):
            TrainConfig(weight_decay=value)

    @pytest.mark.parametrize("field", ["lambda1", "lambda2", "gamma_pos",
                                       "gamma_neg"])
    @pytest.mark.parametrize("value", [-1.0, math.nan])
    def test_negative_loss_knob_rejected(self, field, value):
        with pytest.raises(ValueError, match=out_of_range(
                field, value, "must be >= 0")):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("value", [-0.1, 1.0, math.nan])
    def test_clip_outside_unit_interval_rejected(self, value):
        with pytest.raises(ValueError, match=out_of_range(
                "clip", value, "must be in [0, 1)")):
            TrainConfig(clip=value)

    @pytest.mark.parametrize("field", [f.name for f in fields(TrainConfig)
                                       if isinstance(f.default, float)])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_field_rejected_by_name(self, field, value):
        # a range check may catch the value first; either way the message
        # opens with the field and the value, as in "'lr' is inf, not a
        # finite number"
        with pytest.raises(ValueError, match=rf"^'?{field}'?( is |=| ){value}\b"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field", [f.name for f in fields(TrainConfig)
                                       if type(f.default) is int])
    @pytest.mark.parametrize("value", [2.5, 4.0, True])
    def test_non_integer_field_rejected_by_name(self, field, value):
        with pytest.raises(ValueError,
                           match=f"^'{field}' is {value}, not an integer$"):
            TrainConfig(**{field: value})

    def test_numpy_integer_field_accepted(self):
        assert TrainConfig(batch_size=np.int64(8)).batch_size == 8

    @pytest.mark.parametrize("field", [f.name for f in fields(TrainConfig)
                                       if type(f.default) is bool])
    def test_non_bool_field_rejected_by_name(self, field):
        with pytest.raises(ValueError, match=f"^'{field}' is 2, not a boolean$"):
            TrainConfig(**{field: 2})

    @pytest.mark.parametrize("line,why", [
        ("feature_dim=0", "feature_dim=0 must be >= 1"),
        ("num_classes=0", "num_classes=0 must be >= 1"),
        ("channels=0", "channels=0 must be positive"),
        ("image_size=0", "image_size=0 must be positive"),
        ("gsp_mode=sum", "gsp_mode='sum' must be 'avg' or 'max'"),
        ("n_heads=5", "n_heads=5 must be >= 1 and divide d_v=32"),
    ], ids=["feature-dim", "num-classes", "channels", "image-size",
            "gsp-mode", "n-heads"])
    def test_architecture_line_refused_by_number(self, tmp_path, line, why):
        # each passed config_from_file, to fail later in train
        path = tmp_path / "run.cfg"
        path.write_text(f"lr=0.1\n{line}\nepochs=1\n")
        with pytest.raises(ValueError, match=f"^line 2: {re.escape(why)}$"):
            config_from_file(path)

    @pytest.mark.parametrize("line,why", [
        ("n_train=0", "n_train=0 must be >= 1"),
        ("n_test=0", "n_test=0 must be >= 1"),
        ("noise=-1", "noise=-1.0 must be >= 0"),
        ("cardinality=7", "cardinality 7.0 outside [1, 6]"),
        ("num_classes=1", "cardinality 1.5 outside [1, 1]"),
        ("image_size=2", "height=2, width=2 must be >= 3"),
    ], ids=["n-train", "n-test", "noise", "cardinality", "one-class",
            "image-size-2"])
    def test_data_line_refused_by_number(self, tmp_path, line, why):
        # the synthetic-data rules hold for every config, a run on data
        # files included
        path = tmp_path / "run.cfg"
        path.write_text(f"lr=0.1\n{line}\nepochs=1\n")
        with pytest.raises(ValueError, match=f"^line 2: {re.escape(why)}$"):
            config_from_file(path)

    def test_fields_checked_together_blame_the_line_that_fails(self, tmp_path):
        # feature_dim=30 alone fails with the default 8 heads; the next
        # line mends it, or leaves the file failing from there on
        path = tmp_path / "run.cfg"
        path.write_text("feature_dim=30\nn_heads=5\n")
        cfg = config_from_file(path)
        assert (cfg.feature_dim, cfg.n_heads) == (30, 5)
        for text in ("feature_dim=30\nn_heads=7\n", "n_heads=7\nfeature_dim=30\n"):
            path.write_text(text)
            with pytest.raises(ValueError, match="^line 2: n_heads=7 must be "
                                                 ">= 1 and divide d_v=30$"):
                config_from_file(path)

    def test_overrides_are_checked_with_the_file(self, tmp_path):
        # as `sarl train --config` gives its flags: after the last line
        path = tmp_path / "run.cfg"
        path.write_text("n_heads=5\nepochs=3\n")
        cfg = config_from_file(path, overrides={"feature_dim": 30, "epochs": 1})
        assert (cfg.feature_dim, cfg.n_heads, cfg.epochs) == (30, 5, 1)
        with pytest.raises(ValueError, match="^n_heads=5 must be >= 1 and "
                                             "divide d_v=28$"):
            config_from_file(path, overrides={"feature_dim": 28})
        with pytest.raises(ValueError, match="^line 1: n_heads=5 must be "
                                             ">= 1 and divide d_v=32$"):
            config_from_file(path, overrides={"epochs": 1})

    def test_negative_weight_decay_line_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("weight_decay=-0.5\n")
        with pytest.raises(ValueError,
                           match="^line 1: weight_decay=-0.5 must be >= 0$"):
            config_from_file(path)

    def test_failed_check_names_its_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("lr=0.1\n# comment\nlambda2=-2\nepochs=1\n")
        with pytest.raises(ValueError, match="^line 3: lambda2=-2.0 must be >= 0$"):
            config_from_file(path)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nlr=0.5\nepochs=7\ndisable_ot=true\n"
                        "gsp_mode=max\n")
        cfg = config_from_file(path)
        assert cfg.lr == 0.5
        assert cfg.epochs == 7
        assert cfg.disable_ot is True
        assert cfg.gsp_mode == "max"
        assert cfg.batch_size == TrainConfig().batch_size

    def test_unknown_key_rejected(self, tmp_path):
        # use_ema and ema_decay set an EMA shadow that nothing evaluated
        path = tmp_path / "run.cfg"
        for key in ("momentum", "use_ema", "ema_decay"):
            path.write_text(f"lr=0.1\n{key}=0.9\n")
            with pytest.raises(ValueError,
                               match=f"^line 2: unknown config key '{key}'$"):
                config_from_file(path)

    def test_bad_bool_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("disable_ot=maybe\n")
        with pytest.raises(ValueError, match="boolean"):
            config_from_file(path)

    @pytest.mark.parametrize("line,why", [
        ("epochs=1_0", "'epochs' is '1_0', not an integer"),
        ("n_heads=+8", "'n_heads' is '\\+8', not an integer"),
        ("lr=1_0e-3", "'lr' is '1_0e-3', not a finite number"),
        ("lr=nan", "'lr' is 'nan', not a finite number"),
    ], ids=["underscore-int", "signed-int", "underscore-float", "nan"])
    def test_value_outside_the_plain_form_rejected(self, tmp_path, line, why):
        # int() and float() accept each of these
        path = tmp_path / "run.cfg"
        path.write_text(f"# comment\n{line}\n")
        with pytest.raises(ValueError, match=f"^line 2: {why}$"):
            config_from_file(path)

    def test_repeated_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epochs=3\nlr=0.1\nepochs=4\n")
        with pytest.raises(ValueError, match="lines 1 and 3 both set 'epochs'"):
            config_from_file(path)

    def test_entries_cover_every_field(self):
        cfg = TrainConfig()
        entries = config_entries(cfg)
        assert entries["lr"] == cfg.lr
        assert entries["disable_ot"] is False
        assert len(entries) == len(cfg.__dataclass_fields__)

    def test_negative_seed_rejected(self):
        # by name, not by numpy's seeding in generate or build_model
        with pytest.raises(ValueError, match="^seed=-1 must be >= 0$"):
            TrainConfig(seed=-1)

    @pytest.mark.parametrize("cfg,grid", [(TrainConfig(), 2), (OTHER, 3)],
                             ids=["default", "other"])
    def test_adapters_copy_each_field(self, cfg, grid):
        # the sub-configs as written out field by field
        assert synthetic_config(cfg) == SyntheticConfig(
            seed=cfg.seed, n_train=cfg.n_train, n_test=cfg.n_test,
            num_classes=cfg.num_classes, height=cfg.image_size,
            width=cfg.image_size, channels=cfg.channels, signal=cfg.signal,
            noise=cfg.noise, cardinality=cfg.cardinality)
        encoder = EncoderConfig(in_channels=cfg.channels, grid_h=grid,
                                grid_w=grid, conv_blocks=cfg.conv_blocks)
        assert model_config(cfg) == ModelConfig(
            num_classes=cfg.num_classes, feature_dim=cfg.feature_dim,
            label_dim=cfg.label_dim, bilinear_dim=cfg.bilinear_dim,
            bilinear_out=cfg.bilinear_out, n_heads=cfg.n_heads,
            gsp_mode=cfg.gsp_mode, encoder=encoder,
            disable_self_attn=cfg.disable_self_attn,
            disable_ot=cfg.disable_ot,
            disable_gsp_fusion=cfg.disable_gsp_fusion)
        assert Tr.asl_config(cfg) == AslConfig(
            gamma_pos=cfg.gamma_pos, gamma_neg=cfg.gamma_neg, clip=cfg.clip)
        assert Tr.loss_weights(cfg) == LossWeights(lambda1=cfg.lambda1,
                                                   lambda2=cfg.lambda2)

    def test_model_config_grid(self):
        cfg = tiny_config()
        mcfg = model_config(cfg)
        # 8 -> 4 -> 2 under two stride-2 blocks
        assert mcfg.encoder.grid_h == 2 and mcfg.encoder.grid_w == 2
        assert mcfg.num_classes == 4
        assert mcfg.feature_dim == 8
        scfg = synthetic_config(cfg)
        assert scfg.n_train == 40 and scfg.height == 8


class TestTrainLoop:
    def test_two_runs_identical(self, tmp_path):
        cfg = tiny_config()
        train_ds, test_ds = generate(synthetic_config(cfg))
        outs = []
        for run in ("a", "b"):
            lines = []
            res = train(cfg, train_ds, test_ds, log=lines.append,
                        out_dir=tmp_path / run)
            outs.append((lines, res))
        assert outs[0][0] == outs[1][0]
        for key in ("epoch", "total", "cls", "map", "ot"):
            got = [h[key] for h in outs[0][1].history]
            want = [h[key] for h in outs[1][1].history]
            assert got == want
        ckpt_a = (tmp_path / "a" / "model.ckpt").read_bytes()
        ckpt_b = (tmp_path / "b" / "model.ckpt").read_bytes()
        assert ckpt_a == ckpt_b

    def test_default_sample_tape_records(self):
        # one training sample of the default config, recorded as train() does
        cfg = TrainConfig()
        model = build_model(model_config(cfg), seed=cfg.seed, dtype=np.float32)
        rng = np.random.default_rng(0)
        image = rng.normal(size=(cfg.image_size, cfg.image_size,
                                 cfg.channels)).astype(np.float32)
        labels = np.zeros(cfg.num_classes)
        labels[[0, 2]] = 1.0
        with Tape() as tape:
            out = forward(image, model, labels=labels)
            sample_losses(out, labels, Tr.asl_config(cfg), Tr.loss_weights(cfg))
        assert len(tape) == 13

    def test_float32_step_stays_float32(self, monkeypatch):
        # the parameters' dtype is the only precision in a step: no value
        # or gradient on the tape, and no parameter gradient, is float64
        cfg = tiny_config(epochs=1, n_train=16)
        train_ds, test_ds = generate(synthetic_config(cfg))
        models, calls, wrong = [], [], set()
        real_build, real_backward = Tr.build_model, Tape.backward

        def building(*args, **kwargs):
            models.append(real_build(*args, **kwargs))
            return models[-1]

        def backward(tape, loss):
            real_backward(tape, loss)
            for t in tape.tensors():
                for kind, arr in (("value", t.data), ("grad", t.grad)):
                    if arr is not None and arr.dtype != np.float32:
                        wrong.add(f"{kind} of op {t.op!r}: {arr.dtype}")
            for name, p in models[0].parameters().items():
                if p.grad is None or p.grad.dtype != np.float32:
                    wrong.add(f"grad of {name}: "
                              f"{None if p.grad is None else p.grad.dtype}")
            calls.append(loss)

        monkeypatch.setattr(Tr, "build_model", building)
        monkeypatch.setattr(Tape, "backward", backward)
        train(cfg, train_ds, test_ds)
        assert len(calls) == 16
        assert sorted(wrong) == []

    def test_zero_weights_reduce_total_to_cls(self):
        cfg = tiny_config(lambda1=0.0, lambda2=0.0, epochs=2)
        train_ds, test_ds = generate(synthetic_config(cfg))
        res = train(cfg, train_ds, test_ds)
        for row in res.history:
            assert row["total"] == row["cls"]

    def test_loss_decreases(self):
        cfg = tiny_config(epochs=5)
        train_ds, test_ds = generate(synthetic_config(cfg))
        res = train(cfg, train_ds, test_ds)
        assert res.history[-1]["total"] < res.history[0]["total"]

    def test_nan_aborts_with_diagnostic(self):
        # an absurd learning rate overflows float32 within a step or two
        cfg = tiny_config(lr=1e20, epochs=2)
        train_ds, test_ds = generate(synthetic_config(cfg))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingError, match="non-finite"):
                train(cfg, train_ds, test_ds)

    def test_nan_loss_names_epoch_and_row(self, monkeypatch):
        # the sixth sample of epoch 2 sees a NaN image, so its loss is NaN;
        # its training row sits at position 5 of epoch 2's shuffle
        cfg = tiny_config()
        train_ds, test_ds = generate(synthetic_config(cfg))
        n = len(train_ds)
        shuffle = np.random.default_rng([cfg.seed, 0x5EED])
        row = [shuffle.permutation(n) for _ in range(2)][1][5]
        real_forward, calls = Tr.forward, []

        def poisoned(x, model, labels=None):
            calls.append(None)
            if len(calls) == n + 6:
                x = np.full_like(x, np.nan)
            return real_forward(x, model, labels=labels)

        monkeypatch.setattr(Tr, "forward", poisoned)
        with pytest.raises(TrainingError, match=f"^non-finite loss at epoch 2, "
                                                f"training row {row}; first bad "
                                                f"tensor: op 'conv_encoder' output of shape"):
            train(cfg, train_ds, test_ds)

    def test_nan_gradient_names_parameter_epoch_and_rows(self, monkeypatch):
        # a NaN lands in one parameter's gradient while the loss stays
        # finite; the batch is refused before the optimizer step
        cfg = tiny_config(batch_size=8)
        train_ds, test_ds = generate(synthetic_config(cfg))
        n = len(train_ds)
        shuffle = np.random.default_rng([cfg.seed, 0x5EED])
        batch = [shuffle.permutation(n) for _ in range(2)][1][8:16]
        models, calls, steps = [], [], []
        real_build, real_backward = Tr.build_model, Tape.backward
        real_step = Tr.adamw_step

        def building(*args, **kwargs):
            models.append(real_build(*args, **kwargs))
            return models[-1]

        def backward(tape, loss):
            real_backward(tape, loss)
            calls.append(None)
            if len(calls) == n + 11:  # epoch 2, batch 2, third sample
                grad = models[0].parameters()["fusion.weight"].grad
                grad[0, 0] = np.nan

        def stepping(*args, **kwargs):
            steps.append(None)
            return real_step(*args, **kwargs)

        monkeypatch.setattr(Tr, "build_model", building)
        monkeypatch.setattr(Tape, "backward", backward)
        monkeypatch.setattr(Tr, "adamw_step", stepping)
        rows = ", ".join(map(str, batch))
        with pytest.raises(TrainingError, match=re.escape(
                f"non-finite gradient of parameter fusion.weight at epoch 2, "
                f"training rows {rows}")):
            train(cfg, train_ds, test_ds)
        assert len(steps) == n // 8 + 1
        assert all(np.isfinite(p.data).all()
                   for p in models[0].parameters().values())

    def test_black_images_train_to_the_end(self):
        # an all-black image makes every patch row zero at init (the
        # encoder biases start at 0); the cosine cost's gradient there
        # must stay finite, with self-attention on or off
        for disable_self_attn in (False, True):
            cfg = TrainConfig(n_train=32, n_test=16, epochs=2,
                              disable_self_attn=disable_self_attn)
            train_ds, test_ds = generate(synthetic_config(cfg))
            train_ds.payload[::2] = 0
            res = train(cfg, train_ds, test_ds)
            assert [h["epoch"] for h in res.history] == [1, 2]
            for name, p in res.model.parameters().items():
                assert np.isfinite(p.data).all(), name

    def test_black_image_gradients_no_larger_than_noise(self):
        # a zero patch row has no direction, so the cosine cost passes it
        # no gradient: at init no parameter's gradient on a black image
        # exceeds the largest on a noise image (it was about 1/eps larger)
        cfg = TrainConfig()
        model = build_model(model_config(cfg), seed=cfg.seed, dtype=np.float32)
        labels = np.zeros(cfg.num_classes, dtype=np.float32)
        labels[[0, 2]] = 1.0
        shape = (cfg.image_size, cfg.image_size, cfg.channels)

        def grad_norms(image):
            with Tape() as tape:
                out = forward(image, model, labels=labels)
                total = sample_losses(out, labels, Tr.asl_config(cfg),
                                      Tr.loss_weights(cfg))[0]
                tape.backward(total)
            return {name: float(np.linalg.norm(p.grad))
                    for name, p in model.parameters().items()}

        noise = grad_norms(np.random.default_rng(0).normal(size=shape)
                           .astype(np.float32))
        black = grad_norms(np.zeros(shape, dtype=np.float32))
        assert np.isfinite(list(black.values())).all()
        assert max(black.values()) < max(noise.values()), black

    def test_row_without_positive_rejected_before_training(self):
        cfg = tiny_config()
        train_ds, test_ds = generate(synthetic_config(cfg))
        assert len(train_ds) == 40
        labels = train_ds.labels.copy()
        labels[17] = 0
        lines = []
        with pytest.raises(TrainingError, match="no positive label: rows 17$"):
            train(cfg, Dataset(train_ds.payload, labels), test_ds,
                  log=lines.append)
        assert lines == []

    @pytest.mark.parametrize("split", ["training", "test"])
    def test_empty_split_rejected_before_training(self, split):
        cfg = tiny_config()
        splits = dict(zip(("training", "test"), generate(synthetic_config(cfg))))
        ds = splits[split]
        splits[split] = Dataset(ds.payload[:0], ds.labels[:0])
        lines = []
        with pytest.raises(TrainingError, match=f"^the {split} split has no samples$"):
            train(cfg, splits["training"], splits["test"], log=lines.append)
        assert lines == []

    def test_test_split_without_positive_label_rejected_before_training(self):
        # evaluate could not score its mAP after the last epoch
        cfg = tiny_config()
        train_ds, test_ds = generate(synthetic_config(cfg))
        lines = []
        with pytest.raises(TrainingError, match="^the test split has no positive label"):
            train(cfg, train_ds, Dataset(test_ds.payload, 0 * test_ds.labels),
                  log=lines.append)
        assert lines == []

    def test_float64_payload_trains_as_float32(self):
        # the images take the parameters' dtype: a float64 copy of the
        # float32 payloads trains and scores bit for bit alike
        cfg = tiny_config(epochs=2)
        splits = generate(synthetic_config(cfg))
        runs = [train(cfg, *splits),
                train(cfg, *(Dataset(ds.payload.astype(np.float64), ds.labels)
                             for ds in splits))]
        assert runs[0].history == runs[1].history
        assert_array_equal(runs[0].predictions.scores, runs[1].predictions.scores)
        for name, p in runs[0].model.parameters().items():
            q = runs[1].model.parameters()[name]
            assert p.dtype == q.dtype == np.float32, name
            assert_array_equal(p.data, q.data, err_msg=name)

    def test_unknown_gsp_mode_rejected_before_training(self):
        # TrainConfig refuses it, so no run can start with it
        with pytest.raises(ConfigError, match="gsp_mode='sum'"):
            tiny_config(gsp_mode="sum")

    @pytest.mark.parametrize("split,change,why", [
        ("test", {"num_classes": 5}, "8x8x2 with 5 classes"),
        ("training", {"num_classes": 5}, "8x8x2 with 5 classes"),
        ("training", {"image_size": 12}, "12x12x2 with 4 classes"),
        ("test", {"channels": 3}, "8x8x3 with 4 classes"),
    ], ids=["test-classes", "training-classes", "training-size",
            "test-channels"])
    def test_split_unlike_the_config_rejected_before_training(self, split,
                                                              change, why):
        # a 5-class test split trained every epoch, then evaluate refused
        # it; a 5-class or 12x12 training split died in the first forward
        cfg = tiny_config()
        splits = dict(zip(("training", "test"), generate(synthetic_config(cfg))))
        other = replace(cfg, **change)
        splits[split] = dict(zip(("training", "test"),
                                 generate(synthetic_config(other))))[split]
        lines = []
        with pytest.raises(TrainingError, match=f"^the {split} split is {why}, "
                                                f"config wants 8x8x2 with 4$"):
            train(cfg, splits["training"], splits["test"], log=lines.append)
        assert lines == []

    def test_evaluate_matches_train_report(self):
        cfg = tiny_config(epochs=2)
        train_ds, test_ds = generate(synthetic_config(cfg))
        res = train(cfg, train_ds, test_ds)
        report, preds = evaluate(res.model, test_ds)
        assert report.mean_ap == res.report.mean_ap
        assert_array_equal(preds.scores, res.predictions.scores)

    def test_checkpoint_reload_evaluates_identically(self, tmp_path):
        cfg = tiny_config(epochs=2)
        train_ds, test_ds = generate(synthetic_config(cfg))
        res = train(cfg, train_ds, test_ds, out_dir=tmp_path)
        model = load_checkpoint(tmp_path / "model.ckpt")
        report, preds = evaluate(model, test_ds)
        assert_array_equal(preds.scores, res.predictions.scores)
        assert report.mean_ap == res.report.mean_ap

    def test_prediction_file_rescores_identically(self, tmp_path):
        cfg = tiny_config(epochs=2)
        train_ds, test_ds = generate(synthetic_config(cfg))
        res = train(cfg, train_ds, test_ds, out_dir=tmp_path)
        loaded = load_predictions(tmp_path / "predictions.txt")
        assert_array_equal(loaded.scores, res.predictions.scores)
        assert_array_equal(loaded.labels, res.predictions.labels)
        assert compute_report(loaded).mean_ap == res.report.mean_ap

    def test_metrics_file_written(self, tmp_path):
        cfg = tiny_config(epochs=1)
        train_ds, test_ds = generate(synthetic_config(cfg))
        res = train(cfg, train_ds, test_ds, out_dir=tmp_path)
        entries = read_manifest(tmp_path / "metrics.txt")
        assert float(entries["mAP"]) == pytest.approx(res.report.mean_ap)
        assert sorted(os.listdir(tmp_path)) == ["metrics.txt", "model.ckpt",
                                                "predictions.txt"]

    def test_mismatched_classes_rejected(self):
        cfg = tiny_config(epochs=1)
        train_ds, test_ds = generate(synthetic_config(cfg))
        other = tiny_config(num_classes=3, epochs=1)
        other_train, _ = generate(synthetic_config(other))
        res = train(cfg, train_ds, test_ds)
        with pytest.raises(ValueError, match="classes"):
            evaluate(res.model, other_train)

    def test_top_k_outside_class_count_rejected(self):
        cfg = tiny_config()
        _, test_ds = generate(synthetic_config(cfg))
        model = build_model(model_config(cfg), dtype=np.float32)
        for k in (-1, 0, 5):
            with pytest.raises(ValueError, match=f"top_k={k} needs 1 <= k <= 4"):
                evaluate(model, test_ds, top_k=k)

    @pytest.mark.parametrize("k", [2.5, 2.0, True])
    def test_non_integer_top_k_rejected(self, k):
        cfg = tiny_config()
        _, test_ds = generate(synthetic_config(cfg))
        model = build_model(model_config(cfg), dtype=np.float32)
        with pytest.raises(ValueError, match=f"^'top_k' is {k}, not an integer$"):
            evaluate(model, test_ds, top_k=k)

    def test_threshold_outside_unit_interval_rejected(self, monkeypatch):
        cfg = tiny_config()
        _, test_ds = generate(synthetic_config(cfg))
        model = build_model(model_config(cfg), dtype=np.float32)

        def scored(*args, **kwargs):
            raise AssertionError("a sample was scored")

        monkeypatch.setattr(Tr, "forward", scored)
        for threshold in (1.5, -0.1, math.nan):
            with pytest.raises(ValueError, match=f"^threshold={threshold} "):
                evaluate(model, test_ds, threshold=threshold)


class TestChunkedEvaluate:
    """evaluate scores a split in chunks of samples through one forward
    call each; the per-image forward is the oracle."""

    @pytest.mark.parametrize("overrides", [
        {}, {"disable_self_attn": True}, {"disable_ot": True},
        {"disable_gsp_fusion": True}, {"gsp_mode": "max"}, {"image_size": 16},
    ], ids=["default", "no-self-attn", "no-ot", "no-gsp-fusion", "gsp-max",
            "image-16"])
    def test_stack_matches_per_sample_float64(self, overrides):
        cfg = TrainConfig(**overrides)
        model = build_model(model_config(cfg), seed=5)
        rng = np.random.default_rng(6)
        images = rng.normal(size=(7, cfg.image_size, cfg.image_size, cfg.channels))
        batched = forward(images, model).logits.data
        assert batched.shape == (7, cfg.num_classes)
        for i, image in enumerate(images):
            assert_allclose(batched[i], forward(image, model).logits.data,
                            rtol=0, atol=1e-12)

    @pytest.mark.filterwarnings("ignore:classes without positives")
    def test_scores_do_not_depend_on_the_cut(self):
        cfg = TrainConfig()
        _, test_ds = generate(synthetic_config(cfg))
        model = build_model(model_config(cfg), seed=cfg.seed, dtype=np.float32)
        _, whole = evaluate(model, test_ds)
        parts = [evaluate(model, Dataset(test_ds.payload[a:b],
                                         test_ds.labels[a:b]))[1].scores
                 for a, b in ((0, 37), (37, 38), (38, len(test_ds)))]
        assert_array_equal(np.concatenate(parts), whole.scores)

    def test_empty_split_rejected(self):
        model = build_model(model_config(tiny_config()))
        empty = Dataset(np.zeros((0, 8, 8, 2)), np.zeros((0, 4)))
        with pytest.raises(ValueError, match=re.escape(
                "empty split of payload shape (0, 8, 8, 2)")):
            evaluate(model, empty)

    def test_payload_of_the_wrong_rank_rejected(self):
        model = build_model(model_config(tiny_config()))
        flat = Dataset(np.zeros((5, 8, 8)), np.zeros((5, 4)))
        with pytest.raises(ValueError, match=re.escape("(5, 8, 8)")):
            evaluate(model, flat)

    def test_chunk_size_rule(self, monkeypatch):
        large = TrainConfig(image_size=64, num_classes=20)
        assert Tr.chunk_size(model_config(large), (64, 64, 3)) == 1
        cfg = TrainConfig()
        step = Tr.chunk_size(model_config(cfg), (8, 8, 3))
        assert 32 <= step <= 64
        _, test_ds = generate(synthetic_config(cfg))
        model = build_model(model_config(cfg), dtype=np.float32)
        sizes, real_forward = [], Tr.forward

        def counting(x, model, labels=None):
            sizes.append(len(x))
            return real_forward(x, model, labels=labels)

        monkeypatch.setattr(Tr, "forward", counting)
        evaluate(model, test_ds)
        n = len(test_ds)
        assert sizes == [step] * (n // step) + ([n % step] if n % step else [])


class TestPgmExport:
    def test_two_by_two_fixture(self, tmp_path):
        path = tmp_path / "m.pgm"
        write_pgm(path, np.array([[0.0, 0.5], [1.0, 0.25]]))
        want = b"P5\n2 2\n255\n" + bytes([0, 128, 255, 64])
        assert path.read_bytes() == want

    def test_constant_grid_is_black(self, tmp_path):
        path = tmp_path / "m.pgm"
        write_pgm(path, np.full((2, 3), 7.0))
        assert path.read_bytes() == b"P5\n3 2\n255\n" + bytes(6)

    def test_export_attention_files(self, tmp_path):
        cfg = tiny_config(epochs=1)
        train_ds, test_ds = generate(synthetic_config(cfg))
        res = train(cfg, train_ds, test_ds)
        map_path = tmp_path / "map.pgm"
        attn_path = tmp_path / "attn.pgm"
        export_attention(res.model, test_ds.payload[0], 1, map_path,
                         attn_path)
        for path in (map_path, attn_path):
            blob = path.read_bytes()
            assert blob.startswith(b"P5\n2 2\n255\n")
            assert len(blob) == len(b"P5\n2 2\n255\n") + 4

    def test_export_rejects_bad_class(self, tmp_path):
        cfg = tiny_config(epochs=1)
        train_ds, test_ds = generate(synthetic_config(cfg))
        res = train(cfg, train_ds, test_ds)
        with pytest.raises(ValueError, match="range"):
            export_attention(res.model, test_ds.payload[0], 9,
                             tmp_path / "m.pgm", tmp_path / "a.pgm")

    @pytest.mark.parametrize("class_id", [1.0, True, "1"])
    def test_export_rejects_non_integer_class(self, tmp_path, class_id):
        model = build_model(model_config(tiny_config()))
        image = np.zeros((8, 8, 2))
        with pytest.raises(ValueError, match=re.escape(
                f"'class_id' is {class_id!r}, not an integer")):
            export_attention(model, image, class_id, tmp_path / "m.pgm",
                             tmp_path / "a.pgm")
        assert not (tmp_path / "m.pgm").exists()

    def test_export_rejects_a_stack(self, tmp_path):
        cfg = tiny_config()
        _, test_ds = generate(synthetic_config(cfg))
        model = build_model(model_config(cfg))
        with pytest.raises(ValueError, match=re.escape("got shape (2, 8, 8, 2)")):
            export_attention(model, test_ds.payload[:2], 0,
                             tmp_path / "m.pgm", tmp_path / "a.pgm")
        assert not (tmp_path / "m.pgm").exists()

    def test_export_rejects_transport_disabled(self, tmp_path):
        cfg = tiny_config(epochs=1, disable_ot=True)
        train_ds, test_ds = generate(synthetic_config(cfg))
        res = train(cfg, train_ds, test_ds)
        with pytest.raises(ValueError, match="disabled"):
            export_attention(res.model, test_ds.payload[0], 0,
                             tmp_path / "m.pgm", tmp_path / "a.pgm")
