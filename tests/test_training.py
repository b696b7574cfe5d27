"""Optimizer, EMA, training-loop, and export checks.

The AdamW reference below is an independent transcription of the
decoupled-weight-decay update, kept dumb on purpose: plain loops, no
shared helpers with the implementation.
"""

import math
import os
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from sarl.data import Dataset, generate, load_dataset, read_manifest
from sarl.head import build_model, forward, load_checkpoint, sample_losses
from sarl.metrics import load_predictions, compute_report
from sarl.representation import ConfigError
from sarl.tensor import Tape, Tensor
from sarl.training import (TrainConfig, TrainingError, adamw_step,
                           config_entries, config_from_file, ema_update,
                           evaluate, export_attention, init_optimizer,
                           model_config, shadow_model,
                           synthetic_config, train, write_pgm)
from sarl import training as Tr


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


class TestAdamW:
    def test_zero_grad_is_pure_decay(self):
        rng = np.random.default_rng(0)
        params = {"w": Tensor(rng.normal(size=(3, 4)))}
        before = params["w"].data.copy()
        state = init_optimizer(params)
        grads = {"w": np.zeros((3, 4))}
        lr, wd = 0.05, 0.1
        adamw_step(params, grads, state, lr, weight_decay=wd)
        assert_allclose(params["w"].data, before * (1 - lr * wd), rtol=1e-12)

    def test_first_step_moves_by_lr(self):
        # g=1 makes the bias-corrected m_hat and v_hat both 1, so the
        # step is -lr up to the eps in the denominator
        params = {"w": Tensor(np.zeros(1))}
        state = init_optimizer(params)
        adamw_step(params, {"w": np.ones(1)}, state, lr=0.1)
        assert_allclose(params["w"].data, [-0.1], atol=1e-8)

    def test_matches_hand_rolled_reference(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            p0 = rng.normal(size=(4, 3))
            gs = [rng.normal(size=(4, 3)) for _ in range(3)]
            params = {"w": Tensor(p0.copy())}
            state = init_optimizer(params)
            for g in gs:
                adamw_step(params, {"w": g}, state, lr=0.01,
                           weight_decay=0.02)
            want = adamw_oracle(p0, gs, 0.01, (0.9, 0.999), 1e-8, 0.02, 3)
            assert_allclose(params["w"].data, want, atol=1e-12)

    def test_step_counter_advances(self):
        params = {"w": Tensor(np.ones(2))}
        state = init_optimizer(params)
        assert state.step == 0
        adamw_step(params, {"w": np.ones(2)}, state, lr=0.1)
        adamw_step(params, {"w": np.ones(2)}, state, lr=0.1)
        assert state.step == 2

    def test_preserves_float32(self):
        params = {"w": Tensor(np.ones(2, dtype=np.float32))}
        state = init_optimizer(params)
        adamw_step(params, {"w": np.ones(2, dtype=np.float32)}, state,
                   lr=0.1)
        assert params["w"].data.dtype == np.float32


class TestEma:
    def test_decay_zero_copies_params(self):
        params = {"w": Tensor(np.full(3, 2.0))}
        shadow = {"w": np.zeros(3)}
        ema_update(shadow, params, 0.0)
        assert_array_equal(shadow["w"], params["w"].data)

    def test_decay_one_freezes_shadow(self):
        params = {"w": Tensor(np.full(3, 2.0))}
        shadow = {"w": np.full(3, 7.0)}
        ema_update(shadow, params, 1.0)
        assert_array_equal(shadow["w"], np.full(3, 7.0))

    def test_half_decay_is_midpoint(self):
        params = {"w": Tensor(np.full(1, 2.0))}
        shadow = {"w": np.zeros(1)}
        ema_update(shadow, params, 0.5)
        assert_allclose(shadow["w"], [1.0], atol=1e-15)

    def test_shadow_model_does_not_touch_training_weights(self):
        cfg = tiny_config(epochs=1)
        train_ds, test_ds = generate(synthetic_config(cfg))
        res = train(cfg, train_ds, test_ds)
        raw = {k: p.data.copy() for k, p in res.model.parameters().items()}
        twin = shadow_model(res.model, res.shadow)
        for key, p in res.model.parameters().items():
            assert_array_equal(p.data, raw[key])
        for key, p in twin.parameters().items():
            assert_array_equal(p.data, res.shadow[key])


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(lr=0.0)
        with pytest.raises(ValueError):
            TrainConfig(ema_decay=1.5)

    @pytest.mark.parametrize("value", [-1.0, -1e-12, math.nan])
    def test_negative_weight_decay_rejected(self, value):
        with pytest.raises(ValueError, match=f"^weight_decay={value} must be >= 0$"):
            TrainConfig(weight_decay=value)

    @pytest.mark.parametrize("field", ["lambda1", "lambda2", "gamma_pos",
                                       "gamma_neg"])
    @pytest.mark.parametrize("value", [-1.0, math.nan])
    def test_negative_loss_knob_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field}={value} must be >= 0$"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("value", [-0.1, 1.0, math.nan])
    def test_clip_outside_unit_interval_rejected(self, value):
        with pytest.raises(ValueError, match=rf"^clip={value} must be in \[0, 1\)$"):
            TrainConfig(clip=value)

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
        path.write_text("# comment\nlr=0.5\nepochs=7\nuse_ema=false\n"
                        "gsp_mode=max\n")
        cfg = config_from_file(path)
        assert cfg.lr == 0.5
        assert cfg.epochs == 7
        assert cfg.use_ema is False
        assert cfg.gsp_mode == "max"
        assert cfg.batch_size == TrainConfig().batch_size

    def test_file_overrides_base(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("lr=0.25\n")
        cfg = config_from_file(path, base=TrainConfig(lr=9e-5, batch_size=64))
        assert cfg.lr == 0.25
        assert cfg.batch_size == 64

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("momentum=0.9\n")
        with pytest.raises(ValueError, match="momentum"):
            config_from_file(path)

    def test_bad_bool_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("use_ema=maybe\n")
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
        assert len(tape) == 94

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
        cfg = tiny_config(lr=1e20, epochs=2, use_ema=False)
        train_ds, test_ds = generate(synthetic_config(cfg))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingError, match="non-finite"):
                train(cfg, train_ds, test_ds)

    def test_nan_loss_names_epoch_and_row(self, monkeypatch):
        # the sixth sample of epoch 2 sees a NaN image, so its loss is NaN;
        # its training row sits at position 5 of epoch 2's shuffle
        cfg = tiny_config(use_ema=False)
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
                                                f"tensor: op 'conv2d' output of shape"):
            train(cfg, train_ds, test_ds)

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

    def test_unknown_gsp_mode_rejected_before_training(self):
        cfg = tiny_config(gsp_mode="sum")
        train_ds, test_ds = generate(synthetic_config(cfg))
        lines = []
        with pytest.raises(ConfigError, match="gsp_mode='sum'"):
            train(cfg, train_ds, test_ds, log=lines.append)
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
        assert os.path.exists(tmp_path / "model_ema.ckpt")

    def test_ema_checkpoint_holds_shadow(self, tmp_path):
        cfg = tiny_config(epochs=1)
        train_ds, test_ds = generate(synthetic_config(cfg))
        res = train(cfg, train_ds, test_ds, out_dir=tmp_path)
        ema = load_checkpoint(tmp_path / "model_ema.ckpt")
        for key, p in ema.parameters().items():
            assert_array_equal(p.data, res.shadow[key])

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
