"""Synthetic generation, the binary dataset format, and statistics."""

import math
import re
import struct

import numpy as np
import pytest

from sarl.data import (Dataset, FormatError, SyntheticConfig, class_blobs,
                       generate, load_dataset, read_manifest, save_dataset,
                       stats, write_manifest)


def match_class(img, blobs):
    """Template matching: the class whose blob correlates best anywhere."""
    best, arg = -np.inf, -1
    size = blobs.shape[1]
    for c in range(blobs.shape[0]):
        for top in range(img.shape[0] - size + 1):
            for left in range(img.shape[1] - size + 1):
                window = img[top:top + size, left:left + size]
                score = float((window * blobs[c]).sum())
                if score > best:
                    best, arg = score, c
    return arg


class TestGenerate:
    def test_same_seed_is_bit_identical(self):
        cfg = SyntheticConfig(seed=5, n_train=30, n_test=10)
        a_train, a_test = generate(cfg)
        b_train, b_test = generate(cfg)
        np.testing.assert_array_equal(a_train.payload, b_train.payload)
        np.testing.assert_array_equal(a_train.labels, b_train.labels)
        np.testing.assert_array_equal(a_test.payload, b_test.payload)
        np.testing.assert_array_equal(a_test.labels, b_test.labels)

    def test_every_sample_has_a_positive(self):
        train, test = generate(SyntheticConfig(seed=6, n_train=200, n_test=50))
        assert train.labels.sum(axis=1).min() >= 1
        assert test.labels.sum(axis=1).min() >= 1

    def test_cardinality_close_to_target(self):
        cfg = SyntheticConfig(seed=7, n_train=1000, n_test=1, num_classes=6,
                              cardinality=1.5)
        train, _ = generate(cfg)
        empirical = train.labels.sum() / len(train)
        assert abs(empirical - 1.5) < 0.1

    def test_blobs_recoverable_by_template_matching(self):
        cfg = SyntheticConfig(seed=8, n_train=40, n_test=1, noise=0.0,
                              cardinality=1.0)
        train, _ = generate(cfg)
        blobs = class_blobs(cfg)
        assert train.labels.sum(axis=1).max() == 1
        for i in range(len(train)):
            truth = int(np.argmax(train.labels[i]))
            assert match_class(train.payload[i], blobs) == truth

    @pytest.mark.parametrize("overrides,why", [
        ({"n_train": 0}, "n_train=0 must be >= 1"),
        ({"channels": 0}, "channels=0 must be >= 1"),
        ({"height": 2, "width": 2}, "height=2, width=2 must be >= 3"),
        ({"width": 1}, "height=8, width=1 must be >= 3"),
        ({"seed": -1}, "seed=-1 must be >= 0"),
    ], ids=["n-train", "channels", "image-size", "width", "seed"])
    def test_refusal_names_key_and_value(self, overrides, why):
        with pytest.raises(ValueError, match=f"^{re.escape(why)}$"):
            SyntheticConfig(**overrides)

    def test_infeasible_cardinality_rejected(self):
        with pytest.raises(ValueError):
            SyntheticConfig(cardinality=0.5)
        with pytest.raises(ValueError):
            SyntheticConfig(num_classes=4, cardinality=5.0)

    @pytest.mark.parametrize("field", ["signal", "noise", "cardinality"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_field_rejected_by_name(self, field, value):
        # blamed on the config, not on the images it would draw
        with pytest.raises(ValueError, match=rf"^'?{field}'? (is )?{value}\b"):
            SyntheticConfig(**{field: value})

    @pytest.mark.parametrize("field", ["seed", "n_train", "height"])
    @pytest.mark.parametrize("value", [8.0, True])
    def test_non_integer_field_rejected_by_name(self, field, value):
        with pytest.raises(ValueError,
                           match=f"^'{field}' is {value}, not an integer$"):
            SyntheticConfig(**{field: value})

    def test_payload_is_float32(self):
        train, _ = generate(SyntheticConfig(seed=9, n_train=3, n_test=1))
        assert train.payload.dtype == np.float32
        assert train.labels.dtype == np.uint8


class TestDatasetFile:
    def test_roundtrip_bit_exact(self, tmp_path):
        train, _ = generate(SyntheticConfig(seed=10, n_train=20, n_test=1))
        path = tmp_path / "train.bin"
        save_dataset(path, train)
        loaded = load_dataset(path)
        assert struct.unpack_from("<I", path.read_bytes(), 8) == (0,)
        np.testing.assert_array_equal(loaded.payload, train.payload)
        np.testing.assert_array_equal(loaded.labels, train.labels)

    def test_features_kind_rejected(self, tmp_path):
        # kind word 1: 5 samples of 4x8 patch features, 3 classes
        rng = np.random.default_rng(11)
        raw = b"SARL" + struct.pack("<5I", 1, 1, 5, 3, 2)
        raw += struct.pack("<2I", 4, 8)
        raw += rng.normal(size=(5, 4, 8)).astype("<f4").tobytes()
        raw += (rng.random((5, 3)) < 0.5).astype(np.uint8).tobytes()
        path = tmp_path / "feat.bin"
        path.write_bytes(raw)
        with pytest.raises(FormatError, match="kind 1 at byte 8"):
            load_dataset(path)

    def test_label_byte_other_than_0_1_rejected(self, tmp_path):
        train, _ = generate(SyntheticConfig(seed=14, n_train=6, n_test=1))
        path = tmp_path / "train.bin"
        save_dataset(path, train)
        raw = bytearray(path.read_bytes())
        num_c = train.num_classes
        raw[len(raw) - len(train) * num_c + 3 * num_c + 1] = 2
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="row 3"):
            load_dataset(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixel_rejected(self, tmp_path, value):
        # 36 header bytes, then the float32 images of 8x8x3; row 2 is bad
        train, _ = generate(SyntheticConfig(seed=14, n_train=6, n_test=1))
        path = tmp_path / "train.bin"
        save_dataset(path, train)
        raw = bytearray(path.read_bytes())
        at = 36 + 2 * (4 * 8 * 8 * 3) + 4 * 5
        raw[at:at + 4] = np.array([value], dtype="<f4").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=f"^row 2: image payload holds "
                                              f"the non-finite value "
                                              f"{np.float32(value)}$"):
            load_dataset(path)

    def test_in_memory_payload_must_be_finite(self):
        payload = np.zeros((3, 4, 4, 1), dtype=np.float32)
        payload[1, 2, 3, 0] = np.inf
        payload[2, 0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="^row 1: image payload holds "
                                             "the non-finite value inf$"):
            Dataset(payload, np.ones((3, 2), dtype=np.uint8))

    def test_in_memory_labels_must_be_binary(self):
        labels = np.array([[1, 0], [0, 1], [1, 2]], dtype=np.uint8)
        with pytest.raises(ValueError, match="row 2"):
            Dataset(np.zeros((3, 4, 4, 1), dtype=np.float32), labels)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"WHAT" + b"\x00" * 40)
        with pytest.raises(FormatError, match="byte 0"):
            load_dataset(path)

    @pytest.mark.parametrize("words,why", [
        ((1, 0, 5, 0, 3), "num_classes=0 at byte 16"),
        ((1, 0, 5, 3, 4), "ndim=4 at byte 20"),
    ], ids=["no-classes", "not-three-dims"])
    def test_header_field_rejected(self, tmp_path, words, why):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"SARL" + struct.pack("<5I", *words)
                         + struct.pack("<4I", 8, 8, 3, 1) + bytes(4 * 5 * 192 + 15))
        with pytest.raises(FormatError, match=f"header field {why}"):
            load_dataset(path)

    def test_save_refuses_what_load_refuses(self, tmp_path):
        ds = Dataset(np.zeros((3, 5), dtype=np.float32),
                     np.ones((3, 2), dtype=np.uint8))
        with pytest.raises(ValueError, match=r"got payload \(3, 5\)"):
            save_dataset(tmp_path / "flat.bin", ds)
        assert not (tmp_path / "flat.bin").exists()

    def test_bad_version(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"SARL" + struct.pack("<5I", 99, 0, 0, 3, 0))
        with pytest.raises(FormatError, match="version"):
            load_dataset(path)

    def test_truncation_reports_offset(self, tmp_path):
        train, _ = generate(SyntheticConfig(seed=12, n_train=4, n_test=1))
        path = tmp_path / "train.bin"
        save_dataset(path, train)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) // 2])
        with pytest.raises(FormatError, match="wanted .* bytes at offset"):
            load_dataset(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        train, _ = generate(SyntheticConfig(seed=13, n_train=2, n_test=1))
        path = tmp_path / "train.bin"
        save_dataset(path, train)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            load_dataset(path)

    def test_header_only_fixture_parses_counts(self, tmp_path):
        # hand-built: zero samples, image dims 8x8x3, 6 classes
        header = b"SARL" + struct.pack("<5I", 1, 0, 0, 6, 3)
        header += struct.pack("<3I", 8, 8, 3)
        path = tmp_path / "empty.bin"
        path.write_bytes(header)
        ds = load_dataset(path)
        assert len(ds) == 0
        assert ds.num_classes == 6
        assert ds.payload.shape == (0, 8, 8, 3)


class TestStats:
    def test_hand_counted_cardinality(self):
        ds = Dataset(np.zeros((2, 4, 4, 1), dtype=np.float32),
                     np.array([[1, 0], [1, 1]], dtype=np.uint8))
        report = stats(ds)
        assert report.n_samples == 2
        assert report.num_classes == 2
        assert report.cardinality == 1.5
        np.testing.assert_array_equal(report.class_counts, [2, 1])

    def test_class_counts_sum_to_total_positives(self):
        train, _ = generate(SyntheticConfig(seed=14, n_train=50, n_test=1))
        report = stats(train)
        assert report.class_counts.sum() == train.labels.sum()

    def test_permutation_invariant(self):
        train, _ = generate(SyntheticConfig(seed=15, n_train=30, n_test=1))
        rng = np.random.default_rng(16)
        perm = rng.permutation(len(train))
        shuffled = Dataset(train.payload[perm], train.labels[perm])
        a, b = stats(train), stats(shuffled)
        assert a.cardinality == b.cardinality
        np.testing.assert_array_equal(a.class_counts, b.class_counts)


class TestManifest:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "split.manifest"
        write_manifest(path, {"name": "synthetic", "train_samples": 500,
                              "cardinality": 1.5})
        entries = read_manifest(path)
        assert entries["name"] == "synthetic"
        assert int(entries["train_samples"]) == 500
        assert float(entries["cardinality"]) == 1.5

    def test_voc_shaped_fixture(self, tmp_path):
        path = tmp_path / "voc.manifest"
        write_manifest(path, {
            "name": "voc2007-shaped",
            "train_samples": 5011,
            "test_samples": 4952,
            "num_classes": 20,
            "cardinality": 1.5,
        })
        entries = read_manifest(path)
        assert int(entries["train_samples"]) == 5011
        assert int(entries["test_samples"]) == 4952
        assert int(entries["num_classes"]) == 20
        assert float(entries["cardinality"]) == 1.5

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "odd.manifest"
        path.write_text("# comment\n\nkey=value\n")
        assert read_manifest(path) == {"key": "value"}

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.manifest"
        path.write_text("no separator here\n")
        with pytest.raises(FormatError, match="line 1"):
            read_manifest(path)
