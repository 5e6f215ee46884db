"""Classification and retrieval evaluation quantities.

Classification scores come from a confusion matrix. Retrieval scores come
from score_rankings, which scores a block of ranked result lists, one row
per query, at once; mean_ap and mean_pr_curve average its rows.
Everything here is a pure function over counts. Degenerate divisions
(a class never predicted, a query with no relevant items) yield 0 plus an
explicit flag instead of NaN, so macro averages stay finite and the
degeneracy stays visible to callers.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError


@dataclass(frozen=True)
class ConfusionMatrix:
    """Square count matrix; rows are true classes, columns predictions."""

    counts: np.ndarray
    class_names: tuple

    def __post_init__(self):
        c = self.counts
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise InputError(f"confusion matrix must be square, got {c.shape}")
        if (c < 0).any():
            raise InputError("confusion matrix entries must be >= 0")
        if len(self.class_names) != c.shape[0]:
            raise InputError(
                f"{len(self.class_names)} class names for a "
                f"{c.shape[0]}-class matrix")

    @property
    def total(self):
        return int(self.counts.sum())


def confusion_matrix(true_labels, predicted_labels, class_names):
    """Counts of (true, predicted) label pairs over len(class_names) classes."""
    n = len(class_names)
    true_labels = np.asarray(true_labels)
    predicted_labels = np.asarray(predicted_labels)
    if true_labels.shape != predicted_labels.shape or true_labels.ndim != 1:
        raise InputError("label lists must be 1-D and equal length")
    for name, arr in (("true", true_labels), ("predicted", predicted_labels)):
        if arr.size and (arr.min() < 0 or arr.max() >= n):
            raise InputError(f"{name} labels must lie in [0, {n})")
    counts = np.bincount(true_labels * n + predicted_labels,
                         minlength=n * n).reshape(n, n)
    return ConfusionMatrix(counts=counts, class_names=tuple(class_names))


@dataclass(frozen=True)
class ClassificationReport:
    """Per-class precision/recall plus their macro averages.

    accuracy is the micro view (trace over total); macro_accuracy averages
    the per-class (TP+TN)/total form. The two coincide only for special
    matrices, so both are kept.
    """

    per_class_precision: tuple
    per_class_recall: tuple
    average_precision: float
    average_recall: float
    accuracy: float
    macro_accuracy: float
    f1: float
    zero_predicted_classes: tuple = field(default=())
    zero_support_classes: tuple = field(default=())


def classification_report(cm):
    counts = cm.counts.astype(np.float64)
    total = counts.sum()
    if total == 0:
        raise InputError("confusion matrix is empty")
    tp = np.diag(counts)
    col = counts.sum(axis=0)
    row = counts.sum(axis=1)
    fp = col - tp
    fn = row - tp
    tn = total - tp - fp - fn

    zero_pred = col == 0
    zero_supp = row == 0
    precision = np.divide(tp, col, out=np.zeros_like(tp), where=~zero_pred)
    recall = np.divide(tp, row, out=np.zeros_like(tp), where=~zero_supp)

    ap = float(precision.mean())
    ar = float(recall.mean())
    f1 = 0.0 if ap + ar == 0 else 2.0 * ap * ar / (ap + ar)
    return ClassificationReport(
        per_class_precision=tuple(precision.tolist()),
        per_class_recall=tuple(recall.tolist()),
        average_precision=ap,
        average_recall=ar,
        accuracy=float(tp.sum() / total),
        macro_accuracy=float(((tp + tn) / total).mean()),
        f1=float(f1),
        zero_predicted_classes=tuple(np.flatnonzero(zero_pred).tolist()),
        zero_support_classes=tuple(np.flatnonzero(zero_supp).tolist()),
    )


def format_report(report, class_names):
    """Fixed-field-order text rendering of a ClassificationReport."""
    lines = ["class\tprecision\trecall"]
    for name, p, r in zip(class_names, report.per_class_precision,
                          report.per_class_recall):
        lines.append(f"{name}\t{p:.6f}\t{r:.6f}")
    lines.append(f"average_precision\t{report.average_precision:.6f}")
    lines.append(f"average_recall\t{report.average_recall:.6f}")
    lines.append(f"accuracy\t{report.accuracy:.6f}")
    lines.append(f"macro_accuracy\t{report.macro_accuracy:.6f}")
    lines.append(f"f1\t{report.f1:.6f}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class RetrievalScores:
    """Per-query retrieval scores of m ranked lists, one row per query.

    precision and recall are (m, depth) values at each rank cutoff, 0 past
    a query's count; recall is 0 for a query that is not valid, that is,
    has no relevant item in the database. average_precision is 0 for such
    a query, and for a valid one that returned nothing.
    """

    counts: np.ndarray
    precision: np.ndarray
    recall: np.ndarray
    average_precision: np.ndarray
    valid: np.ndarray


def score_rankings(ranked_labels, counts, query_labels, total_relevant):
    """Precision, recall and AP of m ranked result lists at once.

    ranked_labels is (m, depth): row i holds the true labels of query i's
    returned items, best first, of which the first counts[i] are results.
    An item is relevant when its label equals query_labels[i];
    total_relevant[i] counts relevant items in the whole database (the
    recall denominator). AP is the mean precision over the ranks where
    relevant items appear, over min(total_relevant, count): a query is
    not penalized for relevant items that do not fit in its window, but
    missing ones inside it do count. Each query's AP sums its precisions
    at the relevant ranks as one 1-D array in rank order, so it has the
    bits of a per-query loop at any depth.
    """
    ranked = np.asarray(ranked_labels)
    counts = np.asarray(counts, dtype=np.intp)
    totals = np.asarray(total_relevant, dtype=np.int64)
    if (totals < 0).any():
        raise InputError(f"total_relevant must be >= 0, got "
                         f"{totals[totals < 0][0]}")
    depth = ranked.shape[1]
    inside = np.arange(depth) < counts[:, None]
    rel = (ranked == np.asarray(query_labels)[:, None]) & inside
    hits = np.cumsum(rel, axis=1, dtype=np.float64)
    precision = np.divide(hits, np.arange(1, depth + 1, dtype=np.float64),
                          out=np.zeros_like(hits), where=inside)
    valid = totals > 0
    recall = np.divide(hits, totals[:, None], out=np.zeros_like(hits),
                       where=inside & valid[:, None])
    # Cut after every query's last relevant rank: m parts and an empty one.
    at_relevant = np.split(precision[rel], np.cumsum(rel.sum(axis=1)))
    denom = np.minimum(totals, counts)
    ap = np.divide([part.sum() for part in at_relevant[:-1]], denom,
                   out=np.zeros(len(counts)), where=valid & (denom > 0))
    return RetrievalScores(counts=counts, precision=precision, recall=recall,
                           average_precision=ap, valid=valid)


def mean_ap(scores):
    """Mean average precision over the valid queries of RetrievalScores.

    Raises InputError when no query is valid.
    """
    if not scores.valid.any():
        raise InputError("no query had any relevant item in the database")
    return float(np.mean(scores.average_precision[scores.valid]))


def mean_pr_curve(scores):
    """Macro-average (recall, precision) points, one per rank cutoff.

    Averages the valid queries of RetrievalScores that returned anything.
    Their counts can be ragged (filtered queries with small partitions),
    so cutoff j averages, with np.mean in query order, only the queries
    that reached it. Returns a tuple of (recall, precision) pairs, or
    None when no valid query returned an item.
    """
    depth = int(scores.counts[scores.valid].max(initial=0))
    if depth == 0:
        return None
    points = []
    for j in range(depth):
        reached = scores.valid & (scores.counts > j)
        points.append((float(np.mean(scores.recall[reached, j])),
                       float(np.mean(scores.precision[reached, j]))))
    return tuple(points)


def emit_pr_plot_data(curves, path):
    """Write labeled precision-recall points as CSV.

    curves is a sequence of (layer, filter_mode, points), points being
    (recall, precision) pairs as mean_pr_curve returns them; one output
    row per point, ready for any plotting tool.
    """
    curves = list(curves)
    if not curves:
        raise InputError("no curves to write")
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["layer", "filter_mode", "recall", "precision"])
        for layer, filter_mode, points in curves:
            for recall, precision in points:
                writer.writerow(
                    [layer, filter_mode, repr(recall), repr(precision)])
