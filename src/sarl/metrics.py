"""Ranking and threshold metrics for multi-label predictions.

Average precision walks the descending-score ranking (stable ties, so
equal scores keep ascending sample order) and averages precision at
every rank holding a positive. The precision/recall family comes in two
modes: "all" thresholds every score, "top-k" forces exactly k predicted
classes per sample. Per-class numbers (CP, CR, CF1) average over
classes; overall numbers (OP, OR, OF1) pool the counts first.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .data import FormatError

__all__ = [
    "UndefinedMetricError",
    "PredictionSet",
    "PrfScores",
    "MetricReport",
    "average_precision",
    "class_aps",
    "mean_ap",
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
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise UndefinedMetricError("average precision needs a positive label")
    order = np.argsort(-scores, kind="stable")
    hits = 0
    precisions = []
    for rank, idx in enumerate(order, 1):
        if labels[idx]:
            hits += 1
            precisions.append(hits / rank)
    return math.fsum(precisions) / n_pos


def class_aps(preds: PredictionSet) -> list:
    """Per-class AP; None for classes with no positive anywhere."""
    out = []
    for c in range(preds.labels.shape[1]):
        if preds.labels[:, c].sum() == 0:
            out.append(None)
        else:
            out.append(average_precision(preds.scores[:, c], preds.labels[:, c]))
    return out


def mean_ap(preds: PredictionSet) -> float:
    """Mean over classes that have at least one positive."""
    aps = class_aps(preds)
    skipped = [c for c, ap in enumerate(aps) if ap is None]
    if skipped:
        warnings.warn(f"classes without positives skipped from mAP: {skipped}")
    valid = [ap for ap in aps if ap is not None]
    if not valid:
        raise UndefinedMetricError("no class has a positive label")
    return math.fsum(valid) / len(valid)


def _predicted_matrix(preds: PredictionSet, mode, threshold, k):
    if mode == "all":
        return preds.scores >= threshold
    if mode == "top-k":
        n, num_c = preds.scores.shape
        if not 1 <= k <= num_c:
            raise ValueError(f"top-{k} needs 1 <= k <= {num_c} classes")
        predicted = np.zeros((n, num_c), dtype=bool)
        for i in range(n):
            order = np.argsort(-preds.scores[i], kind="stable")
            predicted[i, order[:k]] = True
        return predicted
    raise ValueError(f"unknown mode {mode!r}")


def prf_metrics(preds: PredictionSet, mode="all", threshold=0.5, k=3) -> PrfScores:
    """CP/CR/CF1 and OP/OR/OF1 for one prediction mode.

    Classes with a zero denominator contribute 0 to the per-class
    averages and are listed in zero_denominator_classes.
    """
    predicted = _predicted_matrix(preds, mode, threshold, k)
    truth = preds.labels.astype(bool)
    correct = (predicted & truth).sum(axis=0)
    n_pred = predicted.sum(axis=0)
    n_truth = truth.sum(axis=0)

    flagged = []
    per_p, per_r = [], []
    for c in range(truth.shape[1]):
        if n_pred[c] == 0 or n_truth[c] == 0:
            flagged.append(c)
        per_p.append(correct[c] / n_pred[c] if n_pred[c] else 0.0)
        per_r.append(correct[c] / n_truth[c] if n_truth[c] else 0.0)

    cp = float(np.mean(per_p))
    cr = float(np.mean(per_r))
    op = float(correct.sum() / n_pred.sum()) if n_pred.sum() else 0.0
    orec = float(correct.sum() / n_truth.sum()) if n_truth.sum() else 0.0
    return PrfScores(
        class_precision=cp,
        class_recall=cr,
        class_f1=_harmonic(cp, cr),
        overall_precision=op,
        overall_recall=orec,
        overall_f1=_harmonic(op, orec),
        zero_denominator_classes=flagged,
    )


def _harmonic(p, r) -> float:
    return 2.0 * p * r / (p + r) if p + r > 0 else 0.0


def compute_report(preds: PredictionSet, threshold=0.5, top_k=3) -> MetricReport:
    return MetricReport(
        per_class_ap=class_aps(preds),
        mean_ap=mean_ap(preds),
        all_mode=prf_metrics(preds, "all", threshold=threshold),
        topk_mode=prf_metrics(preds, "top-k", k=top_k),
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
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise FormatError("prediction file needs an 'N C' header line")
        n, num_c = int(header[0]), int(header[1])
        scores = np.zeros((n, num_c))
        labels = np.zeros((n, num_c), dtype=np.uint8)
        for i in range(n):
            parts = fh.readline().split()
            if len(parts) != 2 * num_c:
                raise FormatError(
                    f"line {i + 2}: wanted {2 * num_c} fields, got {len(parts)}")
            scores[i] = [float(s) for s in parts[:num_c]]
            labels[i] = [int(l) for l in parts[num_c:]]
        if fh.readline().strip():
            raise FormatError("trailing content after last sample line")
    return PredictionSet(scores, labels)
