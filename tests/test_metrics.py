"""Metric functions against hand counts and brute-force counting oracles."""

import csv

import numpy as np
import numpy.testing as npt
import pytest

import conftest
from cbirnet.errors import InputError
from cbirnet.metrics import (
    ConfusionMatrix,
    classification_report,
    confusion_matrix,
    emit_pr_plot_data,
    format_report,
    mean_ap,
    mean_pr_curve,
    score_rankings,
)


def one_query(ranked_labels, query_label, total_relevant):
    """One ranked list scored as the single row of a score_rankings block."""
    return conftest.score_lists([(ranked_labels, query_label,
                                  total_relevant)])


def ap_of(ranked_labels, query_label, total_relevant):
    """(AP, valid) of one ranked list, read off its score_rankings row."""
    scores = one_query(ranked_labels, query_label, total_relevant)
    return float(scores.average_precision[0]), bool(scores.valid[0])


def pr_at_k_oracle(flags, total_relevant, k):
    """Literal counting of the precision/recall definitions."""
    hits = sum(flags[:k])
    return hits / k, hits / total_relevant


def ap_oracle(flags, total_relevant):
    """Mean precision at relevant ranks over min(relevant, depth)."""
    precisions = []
    hits = 0
    for i, f in enumerate(flags, start=1):
        if f:
            hits += 1
            precisions.append(hits / i)
    return sum(precisions) / min(total_relevant, len(flags))


def report_oracle(counts):
    """Per-class TP/FP/FN/TN by explicit loops, then the macro averages."""
    n = counts.shape[0]
    total = counts.sum()
    precisions, recalls, accs = [], [], []
    for k in range(n):
        tp = counts[k, k]
        fp = sum(counts[t, k] for t in range(n)) - tp
        fn = sum(counts[k, p] for p in range(n)) - tp
        tn = total - tp - fp - fn
        precisions.append(tp / (tp + fp) if tp + fp else 0.0)
        recalls.append(tp / (tp + fn) if tp + fn else 0.0)
        accs.append((tp + tn) / total)
    ap = sum(precisions) / n
    ar = sum(recalls) / n
    return ap, ar, sum(accs) / n, precisions, recalls


class TestConfusionMatrix:
    def test_perfect_predictions_diagonal(self):
        cm = confusion_matrix([0, 1, 2, 1], [0, 1, 2, 1], ("a", "b", "c"))
        npt.assert_array_equal(cm.counts, np.diag([1, 2, 1]))

    def test_hand_count(self):
        cm = confusion_matrix([0, 0, 1], [0, 1, 1], ("a", "b"))
        npt.assert_array_equal(cm.counts, [[1, 1], [0, 1]])

    def test_total_equals_sample_count(self):
        rng = np.random.default_rng(0)
        t = rng.integers(0, 5, size=137)
        p = rng.integers(0, 5, size=137)
        assert confusion_matrix(t, p, tuple("abcde")).total == 137

    def test_out_of_range_labels_rejected(self):
        with pytest.raises(InputError):
            confusion_matrix([0, 3], [0, 1], ("a", "b", "c"))
        with pytest.raises(InputError):
            confusion_matrix([0, -1], [0, 1], ("a", "b", "c"))

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError):
            confusion_matrix([0, 1], [0], ("a", "b"))

    def test_nonsquare_rejected(self):
        with pytest.raises(InputError):
            ConfusionMatrix(np.zeros((2, 3), dtype=np.int64), ("a", "b"))


class TestClassificationReport:
    def test_diagonal_is_all_ones(self):
        cm = ConfusionMatrix(np.diag([5, 3, 7]).astype(np.int64),
                             ("a", "b", "c"))
        r = classification_report(cm)
        assert r.average_precision == r.average_recall == 1.0
        assert r.accuracy == r.macro_accuracy == r.f1 == 1.0

    def test_two_class_hand_example(self):
        cm = ConfusionMatrix(np.array([[1, 1], [0, 1]], dtype=np.int64),
                             ("a", "b"))
        r = classification_report(cm)
        assert r.per_class_precision == (1.0, 0.5)
        assert r.per_class_recall == (0.5, 1.0)
        assert r.average_precision == 0.75
        assert r.average_recall == 0.75
        assert r.f1 == 0.75
        assert r.accuracy == 2 / 3

    def test_accuracy_is_trace_over_total(self):
        rng = np.random.default_rng(1)
        counts = rng.integers(0, 20, size=(6, 6)).astype(np.int64)
        cm = ConfusionMatrix(counts, tuple("abcdef"))
        r = classification_report(cm)
        assert r.accuracy == np.trace(counts) / counts.sum()

    def test_f1_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            counts = rng.integers(0, 30, size=(n, n)).astype(np.int64)
            counts[0, 0] += 1  # keep the matrix nonempty
            r = classification_report(
                ConfusionMatrix(counts, tuple(map(str, range(n)))))
            want = 2 * r.average_precision * r.average_recall / (
                r.average_precision + r.average_recall)
            assert abs(r.f1 - want) < 1e-12

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            counts = rng.integers(0, 25, size=(n, n)).astype(np.int64)
            counts[0, 0] += 1
            r = classification_report(
                ConfusionMatrix(counts, tuple(map(str, range(n)))))
            ap, ar, macc, precs, recs = report_oracle(counts)
            npt.assert_allclose(r.average_precision, ap, rtol=1e-12)
            npt.assert_allclose(r.average_recall, ar, rtol=1e-12)
            npt.assert_allclose(r.macro_accuracy, macc, rtol=1e-12)
            npt.assert_allclose(r.per_class_precision, precs, rtol=1e-12)
            npt.assert_allclose(r.per_class_recall, recs, rtol=1e-12)

    def test_macro_micro_accuracy_relation(self):
        # Algebra on the count sums gives, for any NxN matrix:
        #   macro_acc = 1 - (2/N) * (1 - micro_acc)
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            counts = rng.integers(0, 15, size=(n, n)).astype(np.int64)
            counts[0, 0] += 1
            r = classification_report(
                ConfusionMatrix(counts, tuple(map(str, range(n)))))
            assert abs(r.macro_accuracy
                       - (1 - 2 / n * (1 - r.accuracy))) < 1e-12

    def test_zero_predicted_class_flagged(self):
        # Nobody is predicted as class 1: its precision is 0, flagged.
        cm = ConfusionMatrix(np.array([[2, 0], [1, 0]], dtype=np.int64),
                             ("a", "b"))
        r = classification_report(cm)
        assert r.per_class_precision[1] == 0.0
        assert r.zero_predicted_classes == (1,)
        assert np.isfinite(r.average_precision)

    def test_zero_support_class_flagged(self):
        cm = ConfusionMatrix(np.array([[2, 1], [0, 0]], dtype=np.int64),
                             ("a", "b"))
        r = classification_report(cm)
        assert r.per_class_recall[1] == 0.0
        assert r.zero_support_classes == (1,)

    def test_empty_matrix_rejected(self):
        with pytest.raises(InputError):
            classification_report(
                ConfusionMatrix(np.zeros((2, 2), dtype=np.int64), ("a", "b")))

    def test_format_report_fixed_order(self):
        cm = confusion_matrix([0, 1], [0, 1], ("x", "y"))
        text = format_report(classification_report(cm), ("x", "y"))
        lines = text.splitlines()
        assert lines[0] == "class\tprecision\trecall"
        assert lines[1].startswith("x\t")
        assert lines[-1].startswith("f1\t")


class TestRetrievalPR:
    """Precision and recall at every cutoff of one score_rankings row."""

    def test_all_relevant_precision_one(self):
        points = conftest.pr_points(one_query([3, 3, 3, 3], 3, 10))
        assert all(p == 1.0 for _, p in points)

    def test_hand_pattern(self):
        # relevant, miss, relevant with 2 relevant in the database
        points = conftest.pr_points(one_query([1, 0, 1], 1, 2))
        assert points[2][1] == pytest.approx(2 / 3)
        assert points[2][0] == 1.0
        assert points[0][1] == 1.0
        assert points[0][0] == 0.5

    def test_no_relevant_in_db_flagged(self):
        assert not one_query([0, 0], 1, 0).valid[0]

    def test_recall_monotone_precision_k_integral(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            depth = int(rng.integers(1, 30))
            labels = rng.integers(0, 3, size=depth).tolist()
            total = int(sum(1 for x in labels if x == 0)) + int(
                rng.integers(0, 5))
            if total == 0:
                continue
            points = conftest.pr_points(one_query(labels, 0, total))
            recalls = [r for r, _ in points]
            assert all(b >= a - 1e-15 for a, b in zip(recalls, recalls[1:]))
            for k in range(1, depth + 1):
                hits = points[k - 1][1] * k
                assert abs(hits - round(hits)) < 1e-9

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            depth = int(rng.integers(1, 25))
            flags = rng.integers(0, 2, size=depth).tolist()
            total = int(sum(flags)) + int(rng.integers(0, 4)) + 1
            labels = [7 if f else 8 for f in flags]
            points = conftest.pr_points(one_query(labels, 7, total))
            for k in range(1, depth + 1):
                p, r = pr_at_k_oracle(flags, total, k)
                recall, precision = points[k - 1]
                assert precision == pytest.approx(p, abs=1e-12)
                assert recall == pytest.approx(r, abs=1e-12)

    def test_negative_total_rejected(self):
        with pytest.raises(InputError):
            one_query([0], 0, -1)


class TestAveragePrecision:
    def test_hand_pattern_three(self):
        ap, valid = ap_of([1, 0, 1], 1, total_relevant=2)
        assert valid
        assert ap == pytest.approx(5 / 6)

    def test_hand_pattern_four(self):
        ap, valid = ap_of([1, 0, 1, 0], 1, total_relevant=2)
        assert valid
        assert ap == pytest.approx(5 / 6)

    def test_all_relevant_is_one(self):
        ap, _ = ap_of([2] * 9, 2, total_relevant=9)
        assert ap == 1.0

    def test_depth_caps_denominator(self):
        # 3 relevant in db but only depth 2 shown, both relevant.
        ap, _ = ap_of([4, 4], 4, total_relevant=3)
        assert ap == 1.0

    def test_no_relevant_invalid(self):
        ap, valid = ap_of([0, 0], 1, total_relevant=0)
        assert not valid

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            depth = int(rng.integers(1, 25))
            flags = rng.integers(0, 2, size=depth).tolist()
            total = int(sum(flags)) + int(rng.integers(0, 4))
            if total == 0:
                continue
            labels = [1 if f else 0 for f in flags]
            ap, valid = ap_of(labels, 1, total)
            assert valid
            assert ap == pytest.approx(ap_oracle(flags, total), abs=1e-12)


class TestMeanAveragePrecision:
    def test_all_relevant_queries(self):
        queries = [([1, 1], 1, 2), ([2, 2, 2], 2, 3)]
        assert mean_ap(conftest.score_lists(queries)) == 1.0

    def test_mixes_queries(self):
        queries = [([1, 0, 1], 1, 2), ([1, 1], 1, 2)]
        assert mean_ap(conftest.score_lists(queries)) == pytest.approx(
            (5 / 6 + 1.0) / 2)

    def test_invalid_queries_skipped(self):
        queries = [([0, 0], 1, 0), ([1], 1, 1)]
        assert mean_ap(conftest.score_lists(queries)) == 1.0

    def test_no_valid_queries_rejected(self):
        with pytest.raises(InputError):
            mean_ap(conftest.score_lists([([0], 1, 0)]))

    def test_label_permutation_invariance(self):
        rng = np.random.default_rng(8)
        queries, permuted = [], []
        perm = {0: 2, 1: 0, 2: 1}
        for _ in range(30):
            depth = int(rng.integers(1, 15))
            labels = rng.integers(0, 3, size=depth).tolist()
            q = int(rng.integers(0, 3))
            total = labels.count(q) + 1
            queries.append((labels, q, total))
            permuted.append(([perm[x] for x in labels], perm[q], total))
        assert mean_ap(conftest.score_lists(queries)) == pytest.approx(
            mean_ap(conftest.score_lists(permuted)), abs=1e-15)


class TestScoreRankings:
    """The columnar scorer against evaluate's former per-query loop."""

    # 8 terms and up, numpy's pairwise sum groups a 1-D sum 8 ways, so
    # depths on both sides of 8 tell a rank-order AP sum from others.
    @pytest.mark.parametrize("k", [1, 7, 8, 9, 20, 33])
    def test_matches_per_query_reference(self, k):
        rng = np.random.default_rng(k)
        for _ in range(60):
            m = int(rng.integers(1, 30))
            classes = int(rng.integers(1, 4))
            ranked = rng.integers(0, classes, (m, k))
            # Most queries fill k; the rest are ragged, 0 included.
            counts = np.where(rng.random(m) < 0.6, k,
                              rng.integers(0, k + 1, m))
            labels = rng.integers(0, classes, m)
            lists = [ranked[i, :counts[i]].tolist() for i in range(m)]
            found = np.array([r.count(q) for r, q in zip(lists, labels)])
            totals = np.where(rng.random(m) < 0.15, 0,
                              found + rng.integers(0, 5, m))
            per_query, aps, valid, mean, points = \
                conftest.evaluate_scores_reference(lists, labels.tolist(),
                                                   totals.tolist())
            scores = score_rankings(ranked, counts, labels, totals)
            npt.assert_array_equal(scores.average_precision, aps)
            npt.assert_array_equal(scores.valid, valid)
            for i, c in enumerate(counts):
                assert list(zip(scores.recall[i, :c].tolist(),
                                scores.precision[i, :c].tolist())) == \
                    per_query[i]
                assert not scores.recall[i, c:].any()
                assert not scores.precision[i, c:].any()
            if mean is None:
                with pytest.raises(InputError):
                    mean_ap(scores)
            else:
                assert repr(mean_ap(scores)) == repr(mean)
            curve = mean_pr_curve(scores)
            assert (curve is None) == (points is None)
            if curve is not None:
                assert type(curve) is tuple
                assert repr(curve) == repr(tuple(points))

    def test_one_query_functions_are_its_rows(self):
        # Each row of a padded block scores as the one-query oracles do,
        # and as the same list packed into a ragged block.
        rng = np.random.default_rng(3)
        ranked = rng.integers(0, 2, (5, 12))
        counts, labels = [12, 9, 0, 12, 3], [0, 1, 1, 0, 0]
        totals = [7, 0, 4, 12, 2]
        scores = score_rankings(ranked, counts, labels, totals)
        triples = [(ranked[i, :c].tolist(), q, t)
                   for i, (c, q, t) in enumerate(zip(counts, labels, totals))]
        for i, triple in enumerate(triples):
            assert tuple(conftest._pr_points_reference(*triple)) == \
                conftest.pr_points(scores, i)
            assert conftest._average_precision_reference(*triple) == (
                scores.average_precision[i], scores.valid[i])
        assert mean_ap(conftest.score_lists(triples)) == mean_ap(scores)

    def test_negative_total_rejected(self):
        with pytest.raises(InputError):
            score_rankings(np.zeros((2, 3)), [3, 3], [0, 0], [1, -1])


class TestEmitPRPlotData:
    def test_rows_and_header(self, tmp_path):
        curve = mean_pr_curve(one_query([1, 0, 1], 1, 2))
        path = tmp_path / "pr.csv"
        emit_pr_plot_data([("fc1", "on", curve)], path)
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["layer", "filter_mode", "recall", "precision"]
        assert len(rows) == 4

    def test_round_trip_exact(self, tmp_path):
        curve = mean_pr_curve(one_query([1, 0, 1, 1, 0], 1, 3))
        path = tmp_path / "pr.csv"
        emit_pr_plot_data([("fc2", "off", curve)], path)
        rows = list(csv.reader(path.open()))[1:]
        got = [(float(r), float(p)) for _, _, r, p in rows]
        assert got == list(curve)

    def test_six_series(self, tmp_path):
        curve = mean_pr_curve(one_query([1], 1, 1))
        curves = [(layer, mode, curve)
                  for layer in ("fc1", "fc2", "fc3")
                  for mode in ("on", "off")]
        path = tmp_path / "pr.csv"
        emit_pr_plot_data(curves, path)
        rows = list(csv.reader(path.open()))[1:]
        assert {(r[0], r[1]) for r in rows} == {
            (l, m) for l in ("fc1", "fc2", "fc3") for m in ("on", "off")}

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(InputError):
            emit_pr_plot_data([], tmp_path / "pr.csv")
