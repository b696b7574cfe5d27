"""End-to-end checks of the command-line verbs.

These run main() in-process with small datasets, so they stay fast
while still covering the full gen-data -> train -> eval ->
export-attention pipeline including every on-disk artifact.
"""

import os
import re

import numpy as np
import pytest

from sarl.cli import main
from sarl.data import Dataset, load_dataset, read_manifest, save_dataset
from sarl.metrics import load_predictions

TINY_ARCH = ["--num-classes", "4", "--channels", "2", "--n-heads", "2",
             "--feature-dim", "8", "--label-dim", "4", "--bilinear-dim",
             "8", "--bilinear-out", "4"]
TINY_TRAIN = TINY_ARCH + ["--epochs", "2", "--quiet"]


def exits_with_one_line(verb, argv):
    """Run main(argv); it must exit with a one-line 'sarl <verb>:' message."""
    with pytest.raises(SystemExit) as info:
        main(argv)
    message = str(info.value.code)
    assert message.startswith(f"sarl {verb}: ") and "\n" not in message, message
    return message


def gen(tmp_path, extra=()):
    out = tmp_path / "data"
    rc = main(["gen-data", "--out", str(out), "--n-train", "30",
               "--n-test", "15", "--num-classes", "4", "--channels", "2",
               "--seed", "5", *extra])
    assert rc == 0
    return out


class TestGenData:
    def test_writes_pair_and_manifest(self, tmp_path, capsys):
        out = gen(tmp_path)
        train_ds = load_dataset(out / "train.bin")
        test_ds = load_dataset(out / "test.bin")
        assert len(train_ds) == 30 and len(test_ds) == 15
        assert train_ds.num_classes == 4
        entries = read_manifest(out / "data.cfg")
        assert entries["seed"] == "5"
        assert "cardinality" in capsys.readouterr().out

    def test_bad_flag_value_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="^sarl gen-data: noise=-1.0 must be >= 0$"):
            main(["gen-data", "--out", str(tmp_path / "data"), "--noise", "-1"])
        assert not (tmp_path / "data").exists()

    def test_same_seed_same_bytes(self, tmp_path):
        a = gen(tmp_path / "a")
        b = gen(tmp_path / "b")
        assert (a / "train.bin").read_bytes() == (b / "train.bin").read_bytes()


class TestTrainVerb:
    def test_full_pipeline(self, tmp_path):
        data = gen(tmp_path)
        run = tmp_path / "run"
        rc = main(["train", "--out", str(run),
                   "--train-data", str(data / "train.bin"),
                   "--test-data", str(data / "test.bin"), *TINY_TRAIN])
        assert rc == 0
        assert sorted(os.listdir(run)) == ["metrics.txt", "model.ckpt",
                                           "predictions.txt", "run.log"]
        log = (run / "run.log").read_text()
        assert "config lr=" in log
        assert "epoch   1" in log and "epoch   2" in log
        preds = load_predictions(run / "predictions.txt")
        assert preds.scores.shape == (15, 4)

    def test_synthetic_fallback_without_data_flags(self, tmp_path):
        run = tmp_path / "run"
        rc = main(["train", "--out", str(run), "--n-train", "20",
                   "--n-test", "10", *TINY_TRAIN])
        assert rc == 0
        preds = load_predictions(run / "predictions.txt")
        assert preds.scores.shape == (10, 4)

    def test_flag_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs=9\nlr=0.123\nn_train=20\nn_test=10\n")
        run = tmp_path / "run"
        rc = main(["train", "--out", str(run), "--config", str(cfg),
                   "--epochs", "1", *TINY_ARCH, "--quiet"])
        assert rc == 0
        log = (run / "run.log").read_text()
        assert "config epochs=1\n" in log
        assert "config lr=0.123\n" in log

    def test_config_file_checked_with_the_flags(self, tmp_path):
        # 6 heads do not divide the default feature_dim 32; the flag's 12
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_heads=6\nn_train=20\nn_test=10\n")
        run = tmp_path / "run"
        rc = main(["train", "--out", str(run), "--config", str(cfg),
                   "--feature-dim", "12", "--num-classes", "4",
                   "--channels", "2", "--label-dim", "4", "--bilinear-dim",
                   "8", "--bilinear-out", "4", "--epochs", "1", "--quiet"])
        assert rc == 0
        log = (run / "run.log").read_text()
        assert "config feature_dim=12\n" in log and "config n_heads=6\n" in log

    @pytest.mark.parametrize("flags,why", [
        (["--feature-dim", "30"], "n_heads=8 must be >= 1 and divide d_v=30"),
        (["--batch-size", "0"], "batch_size=0 must be positive"),
        (["--n-train", "0"], "n_train=0 must be >= 1"),
        (["--noise", "-1"], "noise=-1.0 must be >= 0"),
        (["--epochs", "1_0"], "'--epochs' is '1_0', not an integer"),
        (["--lr", "nan"], "'--lr' is 'nan', not a finite number"),
        (["--weight-decay", "-1"], "weight_decay=-1.0 must be >= 0"),
        (["--lambda1", "-1"], "lambda1=-1.0 must be >= 0"),
        (["--gamma-neg", "-2"], "gamma_neg=-2.0 must be >= 0"),
        (["--clip", "1"], "clip=1.0 must be in [0, 1)"),
        (["--label-dim", "0"], "label_dim=0 must be >= 1"),
        (["--bilinear-dim", "0"], "bilinear_dim=0 must be >= 1"),
        (["--bilinear-out", "0"], "bilinear_out=0 must be >= 1"),
        (["--conv-blocks", "0"], "conv_blocks=0 must be >= 1"),
        (["--image-size", "2"], "height=2, width=2 must be >= 3"),
        (["--channels", "0"], "channels=0 must be positive"),
    ], ids=["feature-dim", "batch-size", "n-train", "noise",
            "epochs", "lr", "weight-decay", "lambda1", "gamma-neg", "clip",
            "label-dim", "bilinear-dim", "bilinear-out", "conv-blocks",
            "image-size", "channels"])
    def test_bad_config_refused_before_run_log(self, tmp_path, flags, why):
        run = tmp_path / "run"
        with pytest.raises(SystemExit, match=f"^sarl train: {re.escape(why)}$"):
            main(["train", "--out", str(run), "--n-train", "20", "--n-test",
                  "10", "--epochs", "1", "--quiet", *flags])
        assert not (run / "run.log").exists()

    def test_removed_flag_is_a_usage_error(self, tmp_path, capsys):
        # a deleted option is an argparse usage error, not a `sarl train:` line
        run = tmp_path / "run"
        with pytest.raises(SystemExit) as info:
            main(["train", "--out", str(run), "--gsp-mode", "avg", *TINY_TRAIN])
        assert info.value.code == 2
        assert "unrecognized arguments: --gsp-mode avg" in capsys.readouterr().err
        assert not run.exists()

    def test_negative_weight_decay_line_refused_before_run_log(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("weight_decay=-1\n")
        run = tmp_path / "run"
        message = exits_with_one_line("train", [
            "train", "--out", str(run), "--config", str(cfg), *TINY_TRAIN])
        assert message == "sarl train: line 1: weight_decay=-1.0 must be >= 0"
        assert not (run / "run.log").exists()

    def test_half_given_data_flags_rejected(self, tmp_path):
        data = gen(tmp_path)
        with pytest.raises(SystemExit):
            main(["train", "--out", str(tmp_path / "r"),
                  "--train-data", str(data / "train.bin"), *TINY_TRAIN])

    def test_mismatched_dataset_rejected(self, tmp_path):
        data = gen(tmp_path)
        with pytest.raises(SystemExit, match="classes"):
            main(["train", "--out", str(tmp_path / "r"),
                  "--train-data", str(data / "train.bin"),
                  "--test-data", str(data / "test.bin"),
                  "--num-classes", "6", "--channels", "2", "--epochs", "1",
                  "--quiet"])


class TestEvalVerb:
    def test_matches_training_report(self, tmp_path, capsys):
        data = gen(tmp_path)
        run = tmp_path / "run"
        main(["train", "--out", str(run),
              "--train-data", str(data / "train.bin"),
              "--test-data", str(data / "test.bin"), *TINY_TRAIN])
        capsys.readouterr()
        rc = main(["eval", "--checkpoint", str(run / "model.ckpt"),
                   "--data", str(data / "test.bin"),
                   "--out", str(tmp_path / "evalout")])
        assert rc == 0
        shown = capsys.readouterr().out
        trained = read_manifest(run / "metrics.txt")
        fresh = read_manifest(tmp_path / "evalout" / "metrics.txt")
        assert fresh == trained
        assert f"mAP {float(trained['mAP']):.4f}" in shown
        again = load_predictions(tmp_path / "evalout" / "predictions.txt")
        first = load_predictions(run / "predictions.txt")
        np.testing.assert_array_equal(again.scores, first.scores)

    def test_top_k_names_its_block(self, tmp_path):
        six = ["--num-classes", "6"]
        data = gen(tmp_path, extra=six)
        run = tmp_path / "run"
        main(["train", "--out", str(run),
              "--train-data", str(data / "train.bin"),
              "--test-data", str(data / "test.bin"), *TINY_TRAIN, *six])
        rc = main(["eval", "--checkpoint", str(run / "model.ckpt"),
                   "--data", str(data / "test.bin"), "--top-k", "5",
                   "--threshold", "0.3", "--out", str(tmp_path / "evalout")])
        assert rc == 0
        entries = read_manifest(tmp_path / "evalout" / "metrics.txt")
        assert entries["top_k"] == "5" and entries["threshold"] == "0.3"
        assert "OF1.top5" in entries and "OF1.top3" not in entries

    def test_top_k_beyond_class_count_rejected(self, tmp_path):
        data = gen(tmp_path)
        run = tmp_path / "run"
        main(["train", "--out", str(run),
              "--train-data", str(data / "train.bin"),
              "--test-data", str(data / "test.bin"), *TINY_TRAIN])
        for k, why in (("-1", "'--top-k' is '-1', not an integer"),
                       ("0", "top_k=0 needs 1 <= k <= 4 classes"),
                       ("5", "top_k=5 needs 1 <= k <= 4 classes")):
            with pytest.raises(SystemExit, match=f"^sarl eval: {re.escape(why)}$"):
                main(["eval", "--checkpoint", str(run / "model.ckpt"),
                      "--data", str(data / "test.bin"), "--top-k", k])


class TestExportVerb:
    def test_writes_both_pgms(self, tmp_path):
        data = gen(tmp_path)
        run = tmp_path / "run"
        main(["train", "--out", str(run),
              "--train-data", str(data / "train.bin"),
              "--test-data", str(data / "test.bin"), *TINY_TRAIN])
        rc = main(["export-attention", "--checkpoint",
                   str(run / "model.ckpt"), "--data",
                   str(data / "test.bin"), "--index", "1", "--class-id",
                   "2", "--out-map", str(tmp_path / "m.pgm"),
                   "--out-attn", str(tmp_path / "a.pgm")])
        assert rc == 0
        for name in ("m.pgm", "a.pgm"):
            blob = (tmp_path / name).read_bytes()
            assert blob.startswith(b"P5\n2 2\n255\n")
            assert len(blob) == 11 + 4

    def test_bad_index_rejected(self, tmp_path):
        data = gen(tmp_path)
        run = tmp_path / "run"
        main(["train", "--out", str(run),
              "--train-data", str(data / "train.bin"),
              "--test-data", str(data / "test.bin"), *TINY_TRAIN])
        with pytest.raises(SystemExit, match="index"):
            main(["export-attention", "--checkpoint",
                  str(run / "model.ckpt"), "--data", str(data / "test.bin"),
                  "--index", "99", "--class-id", "0",
                  "--out-map", str(tmp_path / "m.pgm"),
                  "--out-attn", str(tmp_path / "a.pgm")])


class TestGradcheckVerb:
    def test_passes_quietly(self, capsys):
        rc = main(["gradcheck", "--quiet"])
        assert rc == 0
        assert "gradcheck ok" in capsys.readouterr().out


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """(data dir, run dir) of one tiny 4-class training run."""
    tmp_path = tmp_path_factory.mktemp("trained")
    data = gen(tmp_path)
    run = tmp_path / "run"
    main(["train", "--out", str(run), "--train-data", str(data / "train.bin"),
          "--test-data", str(data / "test.bin"), *TINY_TRAIN])
    return data, run


class TestDamagedInputs:
    """A damaged file or a bad flag ends any verb with one line."""

    def test_short_dataset_to_train(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"SARLDATA")
        run = tmp_path / "run"
        message = exits_with_one_line("train", [
            "train", "--out", str(run), "--train-data", str(bad),
            "--test-data", str(bad), *TINY_TRAIN])
        assert "truncated" in message
        assert not (run / "run.log").exists()

    @pytest.mark.parametrize("split,why", [
        ("train", "the training split has no samples"),
        ("test", "the test split has no positive label, so its mAP is undefined"),
    ], ids=["empty-train", "test-without-positive"])
    def test_split_train_cannot_use(self, tmp_path, split, why):
        # refused before any run.log line, not after the last epoch
        data = gen(tmp_path)
        ds = load_dataset(data / f"{split}.bin")
        bad = tmp_path / "bad.bin"
        save_dataset(bad, Dataset(ds.payload[:0], ds.labels[:0]) if split == "train"
                     else Dataset(ds.payload, 0 * ds.labels))
        files = {"train": data / "train.bin", "test": data / "test.bin", split: bad}
        run = tmp_path / "run"
        message = exits_with_one_line("train", [
            "train", "--out", str(run), "--train-data", str(files["train"]),
            "--test-data", str(files["test"]), *TINY_TRAIN])
        assert message == f"sarl train: {why}"
        assert not (run / "run.log").exists()

    def test_short_dataset_to_eval(self, tmp_path, trained):
        _, run = trained
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"SARLDATA")
        out = tmp_path / "evalout"
        exits_with_one_line("eval", ["eval", "--checkpoint",
                                     str(run / "model.ckpt"), "--data",
                                     str(bad), "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["eval", "export-attention"])
    def test_truncated_checkpoint(self, tmp_path, trained, verb):
        data, run = trained
        ckpt = tmp_path / "model.ckpt"
        ckpt.write_bytes((run / "model.ckpt").read_bytes()[:-5])
        extra = (["--out", str(tmp_path / "evalout")] if verb == "eval" else
                 ["--class-id", "0", "--out-map", str(tmp_path / "m.pgm"),
                  "--out-attn", str(tmp_path / "a.pgm")])
        message = exits_with_one_line(verb, [verb, "--checkpoint", str(ckpt),
                                             "--data", str(data / "test.bin"),
                                             *extra])
        assert "truncated" in message
        assert list(tmp_path.iterdir()) == [ckpt]

    def test_non_finite_pixel_to_eval(self, tmp_path, trained):
        # 36 header bytes, then 15 float32 images of 8x8x2; row 4 gets a NaN
        data, run = trained
        raw = bytearray((data / "test.bin").read_bytes())
        at = 36 + 4 * (4 * 8 * 8 * 2) + 4 * 7
        raw[at:at + 4] = np.array([np.nan], dtype="<f4").tobytes()
        bad = tmp_path / "nan.bin"
        bad.write_bytes(bytes(raw))
        out = tmp_path / "evalout"
        message = exits_with_one_line("eval", [
            "eval", "--checkpoint", str(run / "model.ckpt"), "--data",
            str(bad), "--out", str(out)])
        assert message == ("sarl eval: row 4: image payload holds the "
                           "non-finite value nan")
        assert not out.exists()

    def test_eval_on_other_class_count(self, tmp_path, trained):
        _, run = trained
        six = gen(tmp_path, extra=["--num-classes", "6"])
        message = exits_with_one_line("eval", [
            "eval", "--checkpoint", str(run / "model.ckpt"), "--data",
            str(six / "test.bin"), "--out", str(tmp_path / "evalout")])
        assert message == "sarl eval: dataset has 6 classes, model wants 4"
        assert not (tmp_path / "evalout").exists()

    @pytest.mark.parametrize("verb", ["eval", "export-attention"])
    @pytest.mark.parametrize("extra,images", [
        (["--height", "16", "--width", "16"], "16x16x2, which the encoder makes a 4x4 grid"),
        (["--channels", "3"], "8x8x3, which the encoder makes a 2x2 grid"),
    ], ids=["larger-images", "other-channels"])
    def test_images_that_do_not_fit_the_model(self, tmp_path, trained,
                                              monkeypatch, verb, extra, images):
        # refused up front, naming the split's images and the model's
        # channels and grid, before any sample is scored
        _, run = trained
        data = gen(tmp_path, extra=extra)

        def scored(*args, **kwargs):
            raise AssertionError("a sample was scored")

        monkeypatch.setattr("sarl.training.forward", scored)
        out = (["--out", str(tmp_path / "evalout")] if verb == "eval" else
               ["--class-id", "0", "--out-map", str(tmp_path / "m.pgm"),
                "--out-attn", str(tmp_path / "a.pgm")])
        message = exits_with_one_line(verb, [
            verb, "--checkpoint", str(run / "model.ckpt"), "--data",
            str(data / "test.bin"), *out])
        what = "the split's images are" if verb == "eval" else "the image is"
        assert message == (f"sarl {verb}: {what} {images}; the model takes "
                           "2-channel images to a 2x2 grid")
        assert list(tmp_path.iterdir()) == [data]

    @pytest.mark.parametrize("verb,flag,value,why", [
        ("eval", "--threshold", "nan", "'--threshold' is 'nan', not a finite number"),
        ("eval", "--top-k", "1_0", "'--top-k' is '1_0', not an integer"),
        ("export-attention", "--index", "-1", "'--index' is '-1', not an integer"),
        ("export-attention", "--class-id", "x", "'--class-id' is 'x', not an integer"),
    ], ids=["threshold", "top-k", "index", "class-id"])
    def test_bad_number_flag(self, tmp_path, trained, verb, flag, value, why):
        data, run = trained
        argv = [verb, "--checkpoint", str(run / "model.ckpt"), "--data",
                str(data / "test.bin")]
        if verb == "export-attention":
            argv += ["--out-map", str(tmp_path / "m.pgm"),
                     "--out-attn", str(tmp_path / "a.pgm")]
            if flag != "--class-id":
                argv += ["--class-id", "0"]
        message = exits_with_one_line(verb, argv + [flag, value])
        assert message == f"sarl {verb}: {why}"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("value", ["5", "-0.1"])
    def test_threshold_outside_unit_interval(self, tmp_path, trained,
                                             monkeypatch, value):
        data, run = trained

        def scored(*args, **kwargs):
            raise AssertionError("a sample was scored")

        monkeypatch.setattr("sarl.training.forward", scored)
        message = exits_with_one_line("eval", [
            "eval", "--checkpoint", str(run / "model.ckpt"), "--data",
            str(data / "test.bin"), "--threshold", value,
            "--out", str(tmp_path / "evalout")])
        assert message == (f"sarl eval: threshold={float(value)} "
                           "needs 0 <= threshold <= 1")
        assert not list(tmp_path.iterdir())

    def test_export_class_id_names_the_class_count(self, tmp_path, trained):
        data, run = trained
        message = exits_with_one_line("export-attention", [
            "export-attention", "--checkpoint", str(run / "model.ckpt"),
            "--data", str(data / "test.bin"), "--class-id", "9",
            "--out-map", str(tmp_path / "m.pgm"),
            "--out-attn", str(tmp_path / "a.pgm")])
        assert message == ("sarl export-attention: class_id=9 out of range: "
                           "the model has 4 classes")
        assert not list(tmp_path.iterdir())

    def test_export_without_transport_writes_nothing(self, tmp_path):
        data = gen(tmp_path)
        run = tmp_path / "run"
        main(["train", "--out", str(run), "--train-data",
              str(data / "train.bin"), "--test-data", str(data / "test.bin"),
              *TINY_TRAIN, "--disable-ot"])
        message = exits_with_one_line("export-attention", [
            "export-attention", "--checkpoint", str(run / "model.ckpt"),
            "--data", str(data / "test.bin"), "--class-id", "0",
            "--out-map", str(tmp_path / "m.pgm"),
            "--out-attn", str(tmp_path / "a.pgm")])
        assert "transport is disabled" in message
        assert not (tmp_path / "m.pgm").exists()
        assert not (tmp_path / "a.pgm").exists()
