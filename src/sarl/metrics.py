"""Ranking and threshold metrics for multi-label predictions.

Average precision walks the descending-score ranking (stable ties, so
equal scores keep ascending sample order) and averages precision at
every rank holding a positive. The precision/recall family scores a
boolean prediction matrix; a report builds two, every score at or above
the threshold and exactly the k best classes per sample. Per-class
numbers (CP, CR, CF1) average over classes; overall numbers (OP, OR,
OF1) pool the counts first.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .data import FormatError, check_int, parse_value

__all__ = [
    "UndefinedMetricError",
    "PredictionSet",
    "PrfScores",
    "MetricReport",
    "average_precision",
    "class_aps",
    "mean_ap",
    "check_cutoffs",
    "prf_metrics",
    "compute_report",
    "format_report",
    "report_entries",
    "write_predictions",
    "load_predictions",
]


class UndefinedMetricError(ValueError):
    """The requested metric has no defined value on this input."""


@dataclass
class PredictionSet:
    """Scores and binary truth, both (N, C)."""

    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=float)
        self.labels = np.asarray(self.labels)
        if self.scores.shape != self.labels.shape:
            raise ValueError(
                f"scores {self.scores.shape} vs labels {self.labels.shape}")
        if not np.isin(self.labels, (0, 1)).all():
            raise ValueError("labels must be binary")


@dataclass
class PrfScores:
    """One mode's precision/recall/F1 block."""

    class_precision: float
    class_recall: float
    class_f1: float
    overall_precision: float
    overall_recall: float
    overall_f1: float
    zero_denominator_classes: list = field(default_factory=list)


@dataclass
class MetricReport:
    per_class_ap: list
    mean_ap: float
    all_mode: PrfScores
    topk_mode: PrfScores
    threshold: float
    top_k: int


def average_precision(scores, labels) -> float:
    """AP for one class: mean precision over the ranks of the positives.

    Ranking is by descending score; ties keep ascending original index.
    """
    order = np.argsort(-np.asarray(scores, dtype=float), kind="stable")
    ranks = np.flatnonzero(np.asarray(labels)[order]) + 1
    if ranks.size == 0:
        raise UndefinedMetricError("average precision needs a positive label")
    return math.fsum(np.arange(1, ranks.size + 1) / ranks) / ranks.size


def class_aps(preds: PredictionSet) -> list:
    """Per-class AP; None for classes with no positive anywhere."""
    return [average_precision(preds.scores[:, c], preds.labels[:, c])
            if preds.labels[:, c].any() else None
            for c in range(preds.labels.shape[1])]


def _mean_of(aps) -> float:
    skipped = [c for c, ap in enumerate(aps) if ap is None]
    if skipped:
        warnings.warn(f"classes without positives skipped from mAP: {skipped}")
    valid = [ap for ap in aps if ap is not None]
    if not valid:
        raise UndefinedMetricError("no class has a positive label")
    return math.fsum(valid) / len(valid)


def mean_ap(preds: PredictionSet) -> float:
    """Mean over classes that have at least one positive."""
    return _mean_of(class_aps(preds))


def check_cutoffs(threshold, top_k, num_classes):
    """Refuse a threshold outside [0, 1] (or NaN) and a top-k that is no
    integer or lies outside 1..C."""
    check_int("top_k", top_k)
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold={threshold} needs 0 <= threshold <= 1")
    if not 1 <= top_k <= num_classes:
        raise ValueError(f"top_k={top_k} needs 1 <= k <= {num_classes} classes")


def prf_metrics(preds: PredictionSet, predicted) -> PrfScores:
    """CP/CR/CF1 and OP/OR/OF1 of a boolean (N, C) prediction matrix.

    Classes with a zero denominator contribute 0 to the per-class
    averages and are listed in zero_denominator_classes.
    """
    truth = preds.labels.astype(bool)
    correct = (predicted & truth).sum(axis=0)
    n_pred = predicted.sum(axis=0)
    n_truth = truth.sum(axis=0)
    per_p = np.divide(correct, n_pred, out=np.zeros(n_pred.shape),
                      where=n_pred > 0)
    per_r = np.divide(correct, n_truth, out=np.zeros(n_truth.shape),
                      where=n_truth > 0)
    cp, cr = float(per_p.mean()), float(per_r.mean())
    op = float(correct.sum() / n_pred.sum()) if n_pred.sum() else 0.0
    orec = float(correct.sum() / n_truth.sum()) if n_truth.sum() else 0.0
    flagged = np.flatnonzero((n_pred == 0) | (n_truth == 0)).tolist()
    return PrfScores(cp, cr, _harmonic(cp, cr), op, orec, _harmonic(op, orec),
                     flagged)


def _harmonic(p, r) -> float:
    return 2.0 * p * r / (p + r) if p + r > 0 else 0.0


def compute_report(preds: PredictionSet, threshold=0.5, top_k=3) -> MetricReport:
    """mAP plus the threshold and top-k blocks; top-k ties go to lower classes."""
    check_cutoffs(threshold, top_k, preds.scores.shape[1])
    aps = class_aps(preds)
    ranked = np.argsort(-preds.scores, axis=1, kind="stable")
    top = np.zeros(preds.scores.shape, dtype=bool)
    np.put_along_axis(top, ranked[:, :top_k], True, axis=1)
    return MetricReport(
        per_class_ap=aps,
        mean_ap=_mean_of(aps),
        all_mode=prf_metrics(preds, preds.scores >= threshold),
        topk_mode=prf_metrics(preds, top),
        threshold=threshold,
        top_k=top_k,
    )


def report_entries(report: MetricReport) -> dict:
    """Flat key -> value view, ready for key=value serialization."""
    entries = {"mAP": report.mean_ap, "threshold": report.threshold,
               "top_k": report.top_k}
    for c, ap in enumerate(report.per_class_ap):
        entries[f"AP.class{c}"] = "skipped" if ap is None else ap
    for tag, block in (("all", report.all_mode),
                       (f"top{report.top_k}", report.topk_mode)):
        entries[f"CP.{tag}"] = block.class_precision
        entries[f"CR.{tag}"] = block.class_recall
        entries[f"CF1.{tag}"] = block.class_f1
        entries[f"OP.{tag}"] = block.overall_precision
        entries[f"OR.{tag}"] = block.overall_recall
        entries[f"OF1.{tag}"] = block.overall_f1
    return entries


def format_report(report: MetricReport) -> str:
    """Aligned text table: mAP, then one row per mode."""
    lines = [f"mAP {report.mean_ap:.4f}"]
    header = f"{'mode':<18s} {'CP':>6s} {'CR':>6s} {'CF1':>6s} {'OP':>6s} {'OR':>6s} {'OF1':>6s}"
    lines.append(header)
    rows = [(f"all@{report.threshold:g}", report.all_mode),
            (f"top-{report.top_k}", report.topk_mode)]
    for name, block in rows:
        lines.append(
            f"{name:<18s} {block.class_precision:6.4f} {block.class_recall:6.4f} "
            f"{block.class_f1:6.4f} {block.overall_precision:6.4f} "
            f"{block.overall_recall:6.4f} {block.overall_f1:6.4f}")
    for name, block in rows:
        if block.zero_denominator_classes:
            lines.append(f"note: {name} zero-denominator classes "
                         f"{block.zero_denominator_classes}")
    return "\n".join(lines)


def write_predictions(path, preds: PredictionSet):
    """Text format: header "N C", then score columns and label columns.

    Scores are written with repr() so reading them back is exact.
    """
    n, num_c = preds.scores.shape
    with open(path, "w") as fh:
        fh.write(f"{n} {num_c}\n")
        for i in range(n):
            scores = " ".join(repr(float(s)) for s in preds.scores[i])
            labels = " ".join(str(int(l)) for l in preds.labels[i])
            fh.write(f"{scores} {labels}\n")


def load_predictions(path) -> PredictionSet:
    """Read a write_predictions file; a bad line is a FormatError naming it.

    The header is two plain integers. Every sample line holds C scores,
    each a finite number in [0, 1], then C labels, each 0 or 1.
    """
    lineno, rows = 1, []
    try:
        with open(path) as fh:
            header = fh.readline().split()
            if len(header) != 2:
                raise ValueError("prediction file needs an 'N C' header")
            n, num_c = (parse_value(key, text, int)
                        for key, text in zip("NC", header))
            for lineno, line in enumerate(fh, 2):
                parts = line.split()
                if len(rows) == n:
                    if parts:
                        raise ValueError("trailing content after last sample")
                    break
                if len(parts) != 2 * num_c:
                    raise ValueError(f"wanted {2 * num_c} fields, "
                                     f"got {len(parts)}")
                row = [parse_value("score", text, float)
                       for text in parts[:num_c]]
                if not all(0.0 <= score <= 1.0 for score in row):
                    raise ValueError("a score is outside [0, 1]")
                if not set(parts[num_c:]) <= {"0", "1"}:
                    raise ValueError("labels must be 0 or 1")
                rows.append(row + [int(label) for label in parts[num_c:]])
            if len(rows) < n:
                lineno = len(rows) + 2
                raise ValueError(f"wanted {2 * num_c} fields, got 0")
    except ValueError as exc:
        raise FormatError(f"line {lineno}: {exc}") from None
    table = np.array(rows, dtype=float).reshape(n, 2 * num_c)
    return PredictionSet(table[:, :num_c], table[:, num_c:].astype(np.uint8))
