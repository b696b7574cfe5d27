"""AP, mAP, and the precision/recall/F1 family."""

import math

import numpy as np
import pytest

from sarl.data import FormatError
from sarl.metrics import (MetricReport, PredictionSet, UndefinedMetricError,
                          average_precision, class_aps, compute_report,
                          format_report, load_predictions, mean_ap,
                          prf_metrics, report_entries, write_predictions)


def ap_oracle(scores, labels):
    """Brute-force rank walk: explicit sort by (-score, index)."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits, precisions = 0, []
    for rank, idx in enumerate(order, 1):
        if labels[idx]:
            hits += 1
            precisions.append(hits / rank)
    return math.fsum(precisions) / int(sum(labels))


def map_oracle(scores, labels):
    """Naive per-class loop, skipping classes without positives."""
    aps = []
    for c in range(scores.shape[1]):
        if labels[:, c].sum() > 0:
            aps.append(ap_oracle(scores[:, c].tolist(), labels[:, c].tolist()))
    return math.fsum(aps) / len(aps)


class TestAveragePrecision:
    def test_perfect_ranking(self):
        scores = np.array([0.9, 0.8, 0.7, 0.2, 0.1])
        labels = np.array([1, 1, 1, 0, 0])
        assert average_precision(scores, labels) == 1.0

    def test_worked_example(self):
        ap = average_precision(np.array([0.9, 0.8, 0.3]), np.array([1, 0, 1]))
        assert ap == (1.0 + 2.0 / 3.0) / 2.0
        np.testing.assert_allclose(ap, 0.8333, atol=5e-5)

    def test_all_positive_is_one(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            scores = rng.normal(size=8)
            assert average_precision(scores, np.ones(8)) == 1.0

    def test_no_positives_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            average_precision(np.array([0.5, 0.4]), np.array([0, 0]))

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            scores = rng.normal(size=12)
            labels = (rng.random(12) < 0.4).astype(int)
            if labels.sum() == 0:
                labels[0] = 1
            base = average_precision(scores, labels)
            assert average_precision(3.0 * scores + 7.0, labels) == base
            assert average_precision(np.exp(scores), labels) == base

    def test_ties_break_by_ascending_index(self):
        # two tied scores: index 0 (negative) ranks before index 1 (positive)
        ap = average_precision(np.array([0.5, 0.5]), np.array([0, 1]))
        assert ap == 0.5

    def test_brute_force_thousand_instances(self):
        rng = np.random.default_rng(2)
        checked = 0
        while checked < 1000:
            n = int(rng.integers(1, 21))
            scores = np.round(rng.normal(size=n), 2)  # rounding forces ties
            labels = (rng.random(n) < 0.5).astype(int)
            if labels.sum() == 0:
                continue
            assert average_precision(scores, labels) == \
                ap_oracle(scores.tolist(), labels.tolist())
            checked += 1


class TestMeanAp:
    def test_single_class_equals_ap(self):
        scores = np.array([[0.9], [0.2], [0.6]])
        labels = np.array([[1], [0], [1]])
        preds = PredictionSet(scores, labels)
        assert mean_ap(preds) == average_precision(scores[:, 0], labels[:, 0])

    def test_arithmetic_mean(self):
        # class 0 ranked perfectly (AP 1.0), class 1 positive ranked last of
        # two (AP 0.5)
        scores = np.array([[0.9, 0.8], [0.1, 0.9]])
        labels = np.array([[1, 1], [0, 0]])
        assert mean_ap(PredictionSet(scores, labels)) == 0.75

    def test_zero_positive_class_skipped_with_warning(self):
        scores = np.array([[0.9, 0.4], [0.1, 0.6]])
        labels = np.array([[1, 0], [0, 0]])
        preds = PredictionSet(scores, labels)
        with pytest.warns(UserWarning, match="skipped"):
            value = mean_ap(preds)
        assert value == 1.0
        assert class_aps(preds)[1] is None

    def test_no_valid_class_is_undefined(self):
        preds = PredictionSet(np.zeros((3, 2)), np.zeros((3, 2), dtype=int))
        with pytest.warns(UserWarning, match="without positives"):
            with pytest.raises(UndefinedMetricError):
                mean_ap(preds)

    def test_seeded_against_naive_oracle(self):
        rng = np.random.default_rng(3)
        scores = rng.random((50, 5))
        labels = (rng.random((50, 5)) < 0.3).astype(int)
        labels[0] = 1  # make sure every class has a positive
        got = mean_ap(PredictionSet(scores, labels))
        np.testing.assert_allclose(got, map_oracle(scores, labels), atol=1e-12)

    def test_brute_force_thousand_instances(self):
        rng = np.random.default_rng(4)
        checked = 0
        while checked < 1000:
            n = int(rng.integers(2, 21))
            num_c = int(rng.integers(1, 7))
            scores = np.round(rng.random((n, num_c)), 2)
            labels = (rng.random((n, num_c)) < 0.4).astype(int)
            if (labels.sum(axis=0) == 0).any():
                continue
            preds = PredictionSet(scores, labels)
            assert mean_ap(preds) == map_oracle(scores, labels)
            checked += 1


class TestPrfMetrics:
    def hand_case(self):
        # class 0: truth on samples 0,1, predicted on 0,2 -> 1 correct of 2
        # class 1: truth on samples 0,1, predicted on 0,1 -> 2 correct of 2
        scores = np.array([[0.9, 0.9], [0.1, 0.7], [0.8, 0.2]])
        labels = np.array([[1, 1], [1, 1], [0, 0]])
        return PredictionSet(scores, labels)

    def test_hand_counted_example(self):
        block = prf_metrics(self.hand_case(), "all", threshold=0.5)
        assert block.class_precision == 0.75
        assert block.class_recall == 0.75
        assert block.overall_precision == 0.75
        assert block.overall_recall == 0.75
        assert block.class_f1 == 0.75
        assert block.overall_f1 == 0.75

    def test_perfect_predictions(self):
        rng = np.random.default_rng(5)
        labels = (rng.random((10, 4)) < 0.5).astype(int)
        labels[:, 2] = 1  # no empty class columns
        scores = np.where(labels == 1, 0.9, 0.1)
        block = prf_metrics(PredictionSet(scores, labels), "all")
        for value in (block.class_precision, block.class_recall, block.class_f1,
                      block.overall_precision, block.overall_recall,
                      block.overall_f1):
            assert value == 1.0

    def test_topk_with_k_equal_c_forces_every_class(self):
        rng = np.random.default_rng(6)
        scores = rng.random((8, 3))
        labels = (rng.random((8, 3)) < 0.5).astype(int)
        labels[0] = 1
        block = prf_metrics(PredictionSet(scores, labels), "top-k", k=3)
        assert block.overall_precision == labels.sum() / (3 * 8)
        assert block.overall_recall == 1.0

    def test_topk_tie_break_ascending_class(self):
        scores = np.array([[0.5, 0.5, 0.5, 0.2]])
        labels = np.array([[1, 1, 0, 0]])
        block = prf_metrics(PredictionSet(scores, labels), "top-k", k=2)
        # classes 0 and 1 win the tie, so precision is perfect
        assert block.overall_precision == 1.0

    def test_f1_is_harmonic_mean(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            scores = rng.random((12, 4))
            labels = (rng.random((12, 4)) < 0.4).astype(int)
            labels[0] = 1
            for mode, kw in (("all", {}), ("top-k", {"k": 2})):
                block = prf_metrics(PredictionSet(scores, labels), mode, **kw)
                cp, cr = block.class_precision, block.class_recall
                op, orec = block.overall_precision, block.overall_recall
                if cp + cr > 0:
                    np.testing.assert_allclose(
                        block.class_f1, 2 * cp * cr / (cp + cr), atol=1e-12)
                if op + orec > 0:
                    np.testing.assert_allclose(
                        block.overall_f1, 2 * op * orec / (op + orec), atol=1e-12)

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(8)
        scores = rng.random((15, 5))
        labels = (rng.random((15, 5)) < 0.3).astype(int)
        for mode, kw in (("all", {}), ("top-k", {"k": 3})):
            block = prf_metrics(PredictionSet(scores, labels), mode, **kw)
            for value in (block.class_precision, block.class_recall,
                          block.class_f1, block.overall_precision,
                          block.overall_recall, block.overall_f1):
                assert 0.0 <= value <= 1.0

    def test_never_predicted_class_flagged(self):
        scores = np.array([[0.9, 0.1], [0.8, 0.2]])
        labels = np.array([[1, 1], [1, 0]])
        block = prf_metrics(PredictionSet(scores, labels), "all", threshold=0.5)
        assert block.zero_denominator_classes == [1]
        assert block.class_precision == 0.5  # (1 + 0) / 2

    def test_bad_k_rejected(self):
        preds = PredictionSet(np.ones((2, 3)), np.ones((2, 3), dtype=int))
        for k in (-1, 0, 4):
            with pytest.raises(ValueError, match=f"top-{k} needs 1 <= k <= 3"):
                prf_metrics(preds, "top-k", k=k)

    def test_unknown_mode_rejected(self):
        preds = PredictionSet(np.ones((2, 3)), np.ones((2, 3), dtype=int))
        with pytest.raises(ValueError):
            prf_metrics(preds, "some")


class TestReport:
    def seeded(self):
        rng = np.random.default_rng(9)
        scores = rng.random((20, 4))
        labels = (rng.random((20, 4)) < 0.4).astype(int)
        labels[0] = 1
        return PredictionSet(scores, labels)

    def test_compute_report_fields(self):
        report = compute_report(self.seeded())
        assert isinstance(report, MetricReport)
        assert len(report.per_class_ap) == 4
        assert 0.0 <= report.mean_ap <= 1.0
        assert report.threshold == 0.5
        assert report.top_k == 3

    def test_entries_and_text(self):
        report = compute_report(self.seeded())
        entries = report_entries(report)
        assert "mAP" in entries and "OF1.top3" in entries
        assert "AP.class0" in entries
        text = format_report(report)
        assert text.startswith("mAP ")
        assert "top-3" in text

    def test_entries_name_the_top_k_block(self):
        entries = report_entries(compute_report(self.seeded(), top_k=2))
        assert entries["top_k"] == 2
        assert "CP.top2" in entries and "OF1.top2" in entries
        assert not any(key.endswith(".top3") for key in entries)


class TestPredictionFile:
    def test_roundtrip_is_exact(self, tmp_path):
        rng = np.random.default_rng(10)
        preds = PredictionSet(rng.random((7, 3)),
                              (rng.random((7, 3)) < 0.5).astype(int))
        path = tmp_path / "preds.txt"
        write_predictions(path, preds)
        loaded = load_predictions(path)
        np.testing.assert_array_equal(loaded.scores, preds.scores)
        np.testing.assert_array_equal(loaded.labels, preds.labels)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "preds.txt"
        path.write_text("what\n")
        with pytest.raises(FormatError):
            load_predictions(path)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "preds.txt"
        path.write_text("1 2\n0.5 0.5 1\n")
        with pytest.raises(FormatError, match="fields"):
            load_predictions(path)

    def test_trailing_content(self, tmp_path):
        path = tmp_path / "preds.txt"
        path.write_text("1 1\n0.5 1\nextra\n")
        with pytest.raises(FormatError, match="trailing"):
            load_predictions(path)
