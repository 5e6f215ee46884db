"""Feature index, exact-scan queries against a loop oracle, index files."""

import concurrent.futures
import contextlib
import hashlib
import math
import os
import re
import struct
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings, strategies as st

import conftest
from cbirnet.data import Sample, generate_synthetic_corpus
from cbirnet.errors import (
    FormatError,
    InputError,
    StaleIndexError,
    TruncatedFileError,
    VersionMismatchError,
)
from cbirnet.network import (
    ConvSpec,
    FCSpec,
    LogSoftmaxSpec,
    MaxPoolSpec,
    Network,
    NetworkSpec,
    ReLUSpec,
    load_checkpoint,
    save_checkpoint,
)
from cbirnet import _binio, retrieval
from cbirnet._binio import write_container_header
from cbirnet.retrieval import (
    build_index,
    load_index,
    query,
    save_index,
    scan,
    scan_columns,
)

RNG = np.random.default_rng(2718)


def three_tap_spec(num_classes=3, size=16):
    """Small topology with three hidden FCs, so all tap names exist."""
    return NetworkSpec(
        input_shape=(1, size, size),
        layers=(
            ConvSpec(4, 3, 3, stride=2, padding=1, bias_init=0.0),
            ReLUSpec(),
            MaxPoolSpec(window=2, stride=2),
            FCSpec(12, bias_init=1.0),
            ReLUSpec(),
            FCSpec(12, bias_init=1.0),
            ReLUSpec(),
            FCSpec(12, bias_init=1.0),
            ReLUSpec(),
            FCSpec(num_classes, bias_init=0.0),
            LogSoftmaxSpec(num_classes=num_classes),
        ))


@pytest.fixture(scope="module")
def net_and_index():
    """An untrained net whose predictions span every class, out of order.

    Untrained, every image's fc3 output is about the same vector, so the
    head's biases are shifted by minus the head of the samples' mean fc3
    output: the logits then follow each image's own variation, and the
    index is grouped by predicted label in an order unlike record order.
    """
    net = Network.from_spec(three_tap_spec())
    net.initialize(11)
    samples, _ = generate_synthetic_corpus(3, 20, 16, rng_seed=4)
    head = [layer for layer in net.layers if hasattr(layer, "in_features")][-1]
    fc3 = net.classify([s.image for s in samples])[2]["fc3"]
    head.biases -= head.weights @ fc3.mean(axis=0)
    return net, samples, build_index(net, samples,
                                     [s.image for s in samples])


class TapNet:
    """Stands in for a network: classify hands out copies of fixed taps."""

    def __init__(self, predicted, taps, fingerprint="fp"):
        self.predicted, self.taps = np.asarray(predicted), taps
        self._fingerprint = fingerprint

    def classify(self, images):
        assert len(images) == len(self.predicted)
        return (None, self.predicted.copy(),
                {name: m.copy() for name, m in self.taps.items()})

    def fingerprint(self):
        return self._fingerprint


def make_index(ids, true, predicted, features, fingerprint="fp"):
    """build_index over fixed taps, for records given in record order."""
    features = {name: np.asarray(m, dtype=np.float64)
                for name, m in features.items()}
    return build_index(TapNet(predicted, features, fingerprint),
                       [Sample(None, t, sid) for sid, t in zip(ids, true)],
                       [None] * len(ids))


def brute_force_query(index, net, image, layer, k, use_filter):
    """Loop-and-sort reference: squared distances, (distance, id) order."""
    _, predicted, feats = net.forward_classify(image)
    q = feats[layer]
    scored = []
    for i in range(len(index)):
        if use_filter and index.predicted_labels[i] != predicted:
            continue
        sq = float(((index.features[layer][i] - q) ** 2).sum())
        scored.append((sq, str(index.source_ids[i])))
    scored.sort()
    return [sid for _, sid in scored[:k]]


def row_of(index, source_id):
    return list(index.source_ids).index(source_id)


def one_layer_index(rows):
    """Hand-built index: row i is record "r{i}", every label 0."""
    n = len(rows)
    return make_index([f"r{i}" for i in range(n)], [0] * n, [0] * n,
                      {"fc1": rows})


def scan_distances(index, q):
    """{source_id: distance} of an unfiltered scan over every record."""
    res = scan(index, np.asarray(q, dtype=np.float64), 0, "fc1",
               len(index), use_class_filter=False)
    return {item.source_id: item.distance for item in res.items}


class TestEuclideanDistance:
    """The distances scan reports, against the properties of the metric."""

    def test_identical_vectors(self):
        v = RNG.random(64)
        assert scan_distances(one_layer_index([v]), v) == {"r0": 0.0}

    def test_three_four_five(self):
        index = one_layer_index([[3.0, 4.0]])
        assert scan_distances(index, [0.0, 0.0]) == {"r0": 5.0}

    def test_matches_naive_summation_oracle(self):
        a = RNG.standard_normal(4096)
        rows = RNG.standard_normal((3, 4096))
        got = scan_distances(one_layer_index(rows), a)
        for i, b in enumerate(rows):
            naive = math.sqrt(math.fsum(
                (float(x) - float(y)) ** 2 for x, y in zip(a, b)))
            assert got[f"r{i}"] == pytest.approx(naive, rel=1e-9)

    def test_length_mismatch_rejected(self):
        index = one_layer_index([[1.0, 2.0]])
        for q in ([1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]], 1.0):
            with pytest.raises(InputError):
                scan(index, np.asarray(q), 0, "fc1", 1, False)

    def test_metric_axioms_on_random_triples(self):
        for _ in range(50):
            abc = RNG.standard_normal((3, 32))
            index = one_layer_index(abc)
            d = {(p, sid): dist
                 for p, v in zip(("r0", "r1", "r2"), abc)
                 for sid, dist in scan_distances(index, v).items()}
            assert d["r0", "r1"] >= 0.0
            assert d["r0", "r1"] == d["r1", "r0"]
            assert d["r0", "r0"] == 0.0
            assert d["r0", "r1"] <= d["r0", "r2"] + d["r2", "r1"] + 1e-9


class TestBuildIndex:
    def test_record_count(self, net_and_index):
        _, samples, index = net_and_index
        assert len(index) == len(samples)

    def test_empty_samples_empty_index(self, net_and_index):
        net, _, _ = net_and_index
        index = build_index(net, [], [])
        assert len(index) == 0
        assert index.class_partitions == {}

    def test_predicted_labels_reverified(self, net_and_index):
        # Stored row i holds record positions[i].
        net, samples, index = net_and_index
        for i, record in enumerate(index.positions.tolist()):
            s = samples[record]
            assert index.predicted_labels[i] == net.forward_classify(
                s.image)[1]
            assert index.true_labels[i] == s.label
            assert index.source_ids[i] == s.source_id

    def test_partitions_cover_exactly_once(self, net_and_index):
        _, _, index = net_and_index
        parts = sorted(index.class_partitions.values(), key=lambda r: r.start)
        assert len(parts) == 3
        assert all(type(r) is range and r.step == 1 and len(r) for r in parts)
        assert [r.start for r in parts] == [0, *(r.stop for r in parts[:-1])]
        assert parts[-1].stop == len(index)

    def test_positions_are_a_permutation_in_class_then_record_order(
            self, net_and_index):
        net, samples, index = net_and_index
        npt.assert_array_equal(np.sort(index.positions),
                               np.arange(len(index)))
        predicted = net.classify([s.image for s in samples])[1]
        npt.assert_array_equal(index.positions,
                               np.argsort(predicted, kind="stable"))
        assert (index.positions != np.arange(len(index))).any()

    def test_partition_key_is_predicted_not_true(self, net_and_index):
        _, _, index = net_and_index
        for label, idx in index.class_partitions.items():
            for i in idx:
                assert index.predicted_labels[i] == label

    def test_keeps_classify_taps_without_copy(self, net_and_index):
        # Each tap is regrouped by predicted label into a contiguous copy.
        # build_index reuses the tap buffers, so the spy keeps copies.
        net, samples, _ = net_and_index
        taps = {}
        classify = net.classify

        def spy(images):
            out = classify(images)
            taps.clear()
            taps.update({name: m.copy() for name, m in out[2].items()})
            return out

        net.classify = spy
        try:
            index = build_index(net, samples, [s.image for s in samples])
        finally:
            del net.classify
        assert index.feature_layers == tuple(taps)
        for name in index.feature_layers:
            assert index.features[name].flags.c_contiguous
            assert (index.features[name].tobytes()
                    == taps[name][index.positions].tobytes())

    def test_regroups_one_tap_at_a_time(self):
        # Each regrouped tap is dropped before the next is copied, so
        # build_index never holds more than one layer twice.
        n, dim = 2000, 200
        rng = np.random.default_rng(1)
        net = TapNet(rng.integers(0, 4, n),
                     {name: rng.standard_normal((n, dim))
                      for name in ("fc1", "fc2", "fc3")})
        samples = [Sample(None, 0, f"s{i}") for i in range(n)]
        tracemalloc.start()
        try:
            index = build_index(net, samples, [None] * n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(index.class_partitions) == 4
        assert peak < 4.5 * 8 * n * dim

    def test_nonfinite_features_rejected(self):
        with pytest.raises(InputError):
            make_index(["a"], [0], [0], {"fc1": np.array([[np.nan]])})

    def test_first_nonfinite_record_and_layer_named(self):
        fc1 = np.array([[0.0, 1.0], [1.0, 1.0], [np.nan, 1.0]])
        fc2 = np.array([[0.0, 1.0], [np.inf, 1.0], [1.0, 1.0]])
        with pytest.raises(InputError,
                           match="record b has non-finite features in fc2"):
            make_index(["a", "b", "c"], [0] * 3, [0] * 3,
                       {"fc1": fc1, "fc2": fc2})

    def test_first_nonfinite_record_is_in_record_order(self):
        # Grouping stores c (label 0) first; b is still the first record.
        fc1 = np.array([[0.0, 1.0], [np.inf, 1.0], [np.nan, 1.0]])
        with pytest.raises(InputError,
                           match="record b has non-finite features in fc1"):
            make_index(["a", "b", "c"], [0] * 3, [1, 1, 0], {"fc1": fc1})

    def test_records_match_one_image_passes(self, net_and_index):
        net, samples, index = net_and_index
        for i, record in enumerate(index.positions.tolist()):
            _, _, feats = net.forward_classify(samples[record].image)
            for name in index.feature_layers:
                assert (index.features[name][i].tobytes()
                        == feats[name].tobytes())


class TestQuery:
    def test_self_retrieval_rank_one_distance_zero(self, net_and_index):
        net, samples, index = net_and_index
        for s in samples[::7]:
            res = query(index, net, s.image, "fc1", 3, use_class_filter=False)
            assert res.items[0].source_id == s.source_id
            assert res.items[0].distance == 0.0

    def test_matches_brute_force_everywhere(self, net_and_index):
        net, samples, index = net_and_index
        for s in samples[::9]:
            for layer in ("fc1", "fc2", "fc3"):
                for use_filter in (False, True):
                    for k in (1, 3, len(index)):
                        res = query(index, net, s.image, layer, k, use_filter)
                        want = brute_force_query(index, net, s.image, layer,
                                                 k, use_filter)
                        assert [i.source_id for i in res.items] == want

    def test_distances_non_decreasing(self, net_and_index):
        net, samples, index = net_and_index
        res = query(index, net, samples[0].image, "fc2", len(index), False)
        d = [i.distance for i in res.items]
        assert all(b >= a for a, b in zip(d, d[1:]))

    def test_filter_on_only_predicted_class(self, net_and_index):
        net, samples, index = net_and_index
        res = query(index, net, samples[3].image, "fc1", 50, True)
        for item in res.items:
            row = row_of(index, item.source_id)
            assert index.predicted_labels[row] == res.query_predicted_label

    def test_filter_on_subset_of_filter_off(self, net_and_index):
        net, samples, index = net_and_index
        n = len(index)
        off = query(index, net, samples[5].image, "fc3", n, False)
        on = query(index, net, samples[5].image, "fc3", n, True)
        off_of_class = [i.source_id for i in off.items
                        if index.predicted_labels[row_of(index, i.source_id)]
                        == on.query_predicted_label]
        assert [i.source_id for i in on.items] == off_of_class

    def test_top_k_is_prefix_of_full_ranking(self, net_and_index):
        net, samples, index = net_and_index
        full = query(index, net, samples[8].image, "fc1", len(index), False)
        top5 = query(index, net, samples[8].image, "fc1", 5, False)
        assert [i.source_id for i in top5.items] == [
            i.source_id for i in full.items[:5]]

    def test_full_query_is_permutation(self, net_and_index):
        net, samples, index = net_and_index
        res = query(index, net, samples[2].image, "fc2", len(index), False)
        assert sorted(i.source_id for i in res.items) == sorted(
            index.source_ids.tolist())

    def test_k_larger_than_candidates_returns_all(self, net_and_index):
        net, samples, index = net_and_index
        res = query(index, net, samples[0].image, "fc1", 10_000, False)
        assert len(res.items) == len(index)

    def test_insertion_order_invariance(self, net_and_index):
        net, samples, index = net_and_index
        reversed_index = make_index(
            index.source_ids[::-1], index.true_labels[::-1],
            index.predicted_labels[::-1],
            {name: m[::-1] for name, m in index.features.items()},
            index.network_fingerprint)
        for s in samples[::11]:
            a = query(index, net, s.image, "fc1", 7, False)
            b = query(reversed_index, net, s.image, "fc1", 7, False)
            assert [i.source_id for i in a.items] == [
                i.source_id for i in b.items]

    def test_empty_class_status(self, net_and_index):
        net, samples, index = net_and_index
        probe = samples[0]
        predicted = net.forward_classify(probe.image)[1]
        keep = index.predicted_labels != predicted
        pruned = make_index(
            index.source_ids[keep], index.true_labels[keep],
            index.predicted_labels[keep],
            {name: m[keep] for name, m in index.features.items()},
            index.network_fingerprint)
        res = query(pruned, net, probe.image, "fc1", 5, use_class_filter=True)
        assert res.status == "empty-class"
        assert res.items == ()

    def test_stale_fingerprint_rejected(self, net_and_index):
        _, samples, index = net_and_index
        other = Network.from_spec(three_tap_spec())
        other.initialize(99)
        with pytest.raises(StaleIndexError):
            query(index, other, samples[0].image, "fc1", 1, False)

    def test_bad_k_and_layer_rejected(self, net_and_index):
        net, samples, index = net_and_index
        with pytest.raises(InputError):
            query(index, net, samples[0].image, "fc1", 0, False)
        with pytest.raises(InputError):
            query(index, net, samples[0].image, "fc9", 1, False)
        q = net.forward_classify(samples[0].image)[2]["fc1"]
        with pytest.raises(InputError):
            scan(index, q, 0, "fc1", 0, False)
        with pytest.raises(InputError):
            scan(index, q, 0, "fc9", 1, False)

    def test_query_is_forward_then_scan(self, net_and_index):
        net, samples, index = net_and_index
        for s in samples[::6]:
            _, predicted, feats = net.forward_classify(s.image)
            for layer in index.feature_layers:
                for use_filter in (False, True):
                    assert query(index, net, s.image, layer, 4,
                                 use_filter) == scan(index, feats[layer],
                                                     predicted, layer, 4,
                                                     use_filter)

    def test_scaling_invariance_of_ranking(self, net_and_index):
        # Doubling every vector scales all distances by exactly 2 (a power
        # of two), so the permutation is bitwise identical.
        _, _, index = net_and_index
        vectors = [index.features["fc1"][i] for i in range(len(index))]
        q = vectors[0]
        base = sorted(range(len(vectors)), key=lambda i: (
            float(((vectors[i] - q) ** 2).sum()), index.source_ids[i]))
        scaled = sorted(range(len(vectors)), key=lambda i: (
            float(((2.0 * vectors[i] - 2.0 * q) ** 2).sum()),
            index.source_ids[i]))
        assert base == scaled


def tie_heavy_index():
    """48 records in predicted classes of 24, 16 and 8. fc1 holds small
    integers, so many rows tie; ids descend, so ties reorder by id."""
    rng = np.random.default_rng(5)
    n = 48
    return make_index(
        [f"s{n - i:03d}" for i in range(n)], rng.integers(0, 3, n),
        rng.permutation([0] * 24 + [1] * 16 + [2] * 8),
        {"fc1": rng.integers(0, 3, (n, 5)).astype(np.float64),
         "fc2": rng.standard_normal((n, 410))})


reference_scan = conftest.reference_scan


def item_bits(result):
    return [(it.source_id, np.float64(it.distance).tobytes(), it.true_label)
            for it in result.items]


class TestBlockedScan:
    @pytest.mark.parametrize("layout", ["contiguous", "loaded"])
    @pytest.mark.parametrize("block", ["one", "divisor", "n-1", "over-n"])
    @pytest.mark.parametrize("use_filter", [False, True])
    def test_matches_whole_matrix_reference(self, tmp_path, monkeypatch,
                                            layout, block, use_filter):
        index = tie_heavy_index()
        if layout == "loaded":
            save_index(index, tmp_path / "features.idx")
            index = load_index(tmp_path / "features.idx")
            assert index.features["fc2"].flags.c_contiguous
            assert index.features["fc2"].base is index.features["fc1"].base
        for layer, m in index.features.items():
            queries = [m[3], m[3] + 1.0, np.full(m.shape[1], 0.5)]
            for predicted in (0, 1, 2):
                n = (len(index.class_partitions[predicted]) if use_filter
                     else len(index))
                rows = {"one": 1, "divisor": n // 4, "n-1": n - 1,
                        "over-n": n + 1}[block]
                monkeypatch.setattr(retrieval, "SCAN_BLOCK_BYTES",
                                    rows * 8 * m.shape[1])
                for q in queries:
                    for k in (1, 3, 8, n, n + 5):
                        assert item_bits(scan(
                            index, q, predicted, layer, k, use_filter)) == \
                            reference_scan(index, q, predicted, layer, k,
                                           use_filter)

    def test_every_tie_at_the_cut_is_a_candidate(self):
        # Row 0 is at distance 0 and rows 1-9 all at distance 1; the ids
        # descend, so the top k among the ties are the last rows.
        ids = [f"id{99 - i}" for i in range(13)]
        index = make_index(
            ids, [0] * 13, [0] * 13,
            {"fc1": np.array([[0.0, 0.0]] + [[1.0, 0.0]] * 9
                             + [[5.0, 5.0]] * 3)})
        ranking = ["id99"] + sorted(ids[1:10]) + sorted(ids[10:])
        for k in (1, 2, 3, 9, 10, 11, 13, 20):
            res = scan(index, np.zeros(2), 0, "fc1", k, False)
            assert [it.source_id for it in res.items] == ranking[:k]
            assert item_bits(res) == reference_scan(
                index, np.zeros(2), 0, "fc1", k, False)

    def test_equal_ids_rank_by_record_number(self):
        # Records r0..r2 are repeated as r3..r5 with equal ids and rows but
        # other labels, so grouping moves them around; the unfiltered
        # ranking must follow record order as on an ungrouped reference.
        rng = np.random.default_rng(11)
        rows = rng.integers(0, 2, (6, 3)).astype(np.float64)
        rows[3:] = rows[:3]
        ids, true = ["a", "b", "a", "a", "b", "a"], [0, 1, 2, 3, 4, 5]
        predicted = [2, 1, 0, 0, 2, 1]
        index = make_index(ids, true, predicted, {"fc1": rows})
        assert (index.positions != np.arange(6)).any()
        for q in (rows[0], rows[1], np.zeros(3), np.full(3, 0.5)):
            sq = np.sum((rows - q) ** 2, axis=1)
            want = sorted(range(6), key=lambda r: (sq[r], ids[r], r))
            for k in (1, 2, 4, 6):
                res = scan(index, q, 0, "fc1", k, False)
                assert [it.true_label for it in res.items] == want[:k]
                assert item_bits(res) == reference_scan(index, q, 0, "fc1", k,
                                                        False)

    def test_nan_query_ranks_every_row(self):
        # A full sort keeps all rows at NaN distance; so must the cut.
        index = one_layer_index(RNG.random((6, 3)))
        res = scan(index, np.full(3, np.nan), 0, "fc1", 4, False)
        assert [it.source_id for it in res.items] == ["r0", "r1", "r2", "r3"]
        assert all(math.isnan(it.distance) for it in res.items)


# Fixed examples, so the suite tests the same indexes on every run.
EXAMPLES = settings(max_examples=120, deadline=None, derandomize=True,
                    database=None)


def columnar_index(matrix, labels, layout):
    """One-layer index over matrix, as build_index gives it ("contiguous")
    or as load_index reads it back ("loaded"): then fc1 is a view into
    one store, after a two-wide layer fc0."""
    n = len(matrix)
    ids = [f"s{(7 * i) % n:04d}" for i in range(n)]
    features = {"fc1": matrix}
    if layout == "loaded":
        features = {"fc0": np.zeros((n, 2)), **features}
    index = make_index(ids, labels, labels, features)
    if layout == "loaded":
        with tempfile.TemporaryDirectory() as tmp:
            save_index(index, Path(tmp, "features.idx"))
            index = load_index(Path(tmp, "features.idx"))
    return index


def batch_matches_reference(index, queries, predicted, k, use_filter,
                            scan_rows=1):
    """scan_columns and scan give each query the reference's bits.

    The exact scan block is patched to scan_rows rows, so that any
    partition of more than k rows goes through the shortlist (None keeps
    SCAN_BLOCK_BYTES, under which a partition that fits in one block is
    ranked whole). Returns scan's result for each query.
    """
    patch = contextlib.nullcontext() if scan_rows is None else \
        mock.patch.object(retrieval, "SCAN_BLOCK_BYTES",
                          8 * scan_rows * index.features["fc1"].shape[1])
    with patch:
        top = scan_columns(index, queries, predicted, "fc1", k, use_filter)
        results = [scan(index, q, label, "fc1", k, use_filter)
                   for q, label in zip(queries, predicted)]
    assert len(top.counts) == len(results) == len(queries)
    for i, (q, label, res) in enumerate(zip(queries, predicted, results)):
        rows = top.rows[i, :top.counts[i]]
        assert [(str(index.source_ids[r]), d.tobytes(),
                 int(index.true_labels[r]))
                for r, d in zip(rows, top.distances[i])] == item_bits(res)
        assert (top.rows_scanned[i], top.rows_ranked[i]) == \
            (res.rows_scanned, res.rows_ranked)
        if use_filter and label not in index.class_partitions:
            assert (res.status, res.items) == ("empty-class", ())
            continue
        assert res.status == "ok"
        assert item_bits(res) == reference_scan(index, q, label, "fc1", k,
                                                use_filter)
        assert min(k, res.rows_scanned) <= res.rows_ranked <= res.rows_scanned
    return results


class TestShortlist:
    """The GEMM shortlist never changes what the exact ranking returns."""

    @EXAMPLES
    @given(n=st.integers(1, 40), dim=st.integers(0, 9),
           classes=st.integers(1, 4), m=st.sampled_from([1, 2, 5]),
           per_gemm=st.sampled_from([1, 2, None]),
           scan_rows=st.sampled_from([1, 3, None]),
           layout=st.sampled_from(["contiguous", "loaded"]),
           values=st.sampled_from(["normal", "integers", "offset"]),
           use_filter=st.booleans(), extra_k=st.integers(0, 45),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_reference(self, n, dim, classes, m, per_gemm, scan_rows,
                               layout, values, use_filter, extra_k, seed):
        rng = np.random.default_rng(seed)
        matrix = {"normal": lambda shape: rng.standard_normal(shape),
                  "integers": lambda shape: rng.integers(-2, 3, shape) * 1.0,
                  "offset": lambda shape: 1e8 + rng.random(shape)}[values](
                      (n + m, dim))
        index = columnar_index(matrix[:n], rng.integers(0, classes, n),
                               layout)
        # Half the queries are indexed rows, the rest fresh vectors.
        queries = np.where(rng.random((m, 1)) < 0.5,
                           matrix[rng.integers(0, n, m)], matrix[n:])
        predicted = rng.integers(0, classes + 1, m)  # classes may be absent
        k = 1 + extra_k % (n + 5)
        block = 8 * n * (per_gemm or m)  # per_gemm queries to a GEMM
        with mock.patch.object(retrieval, "GEMM_BLOCK_BYTES", block):
            batch_matches_reference(index, queries, predicted, k, use_filter,
                                    scan_rows)

    def test_near_ties_closer_than_the_gemm_error(self):
        # Forty rows within ~1e-14 of one another: their exact distances
        # differ in the last bits, and the GEMM ranks them in another
        # order, so only a cut widened by the bound keeps the right ones.
        rng = np.random.default_rng(9)
        base = rng.standard_normal(64)
        for spread in (1e-16, 1e-15, 1e-14, 1e-13):
            rows = np.vstack([base + spread * rng.standard_normal((40, 64)),
                              rng.standard_normal((60, 64)) * 3.0])
            for layout in ("contiguous", "loaded"):
                index = columnar_index(rows, [0] * 100, layout)
                queries = [np.zeros(64), base + 1e-9, rows[50],
                           3.0 * rng.standard_normal(64)]
                for k in (1, 5, 17, 39, 40, 41):
                    batch_matches_reference(index, queries, [0] * 4, k,
                                            False)

    def test_large_common_offset(self):
        # ||x||^2 ~ 1e17 while distances are ~1: the GEMM values cancel to
        # noise, so the bound must widen the cut to every row.
        rng = np.random.default_rng(3)
        rows = 1e8 + rng.random((50, 16))
        index = columnar_index(rows, rng.integers(0, 2, 50), "contiguous")
        queries = np.vstack([rows[:3], 1e8 + rng.random((3, 16))])
        for k in (1, 4, 20):
            for use_filter in (False, True):
                batch_matches_reference(index, queries, [0, 1, 0, 1, 0, 1],
                                        k, use_filter)

    def test_rows_whose_norms_overflow(self):
        rng = np.random.default_rng(4)
        rows = rng.standard_normal((30, 6))
        rows[[3, 11, 25]] = 1e200
        rows[17, 2] = -1e200
        index = columnar_index(rows, [0] * 30, "loaded")
        assert not np.isfinite(index.row_norms["fc1"]).all()
        queries = np.vstack([rows[:2], np.full(6, 1e200),
                             rng.standard_normal(6)])
        with np.errstate(over="ignore", invalid="ignore"):
            for k in (1, 3, 4, 29):
                batch_matches_reference(index, queries, [0] * 4, k, False)

    def test_nan_and_inf_queries(self):
        rng = np.random.default_rng(5)
        index = columnar_index(rng.standard_normal((30, 8)),
                               rng.integers(0, 2, 30), "contiguous")
        queries = np.vstack([np.full(8, np.nan), np.full(8, np.inf),
                             np.r_[-np.inf, np.zeros(7)],
                             np.r_[np.nan, np.ones(7)],
                             rng.standard_normal(8)])
        with np.errstate(invalid="ignore"):
            for k in (1, 3, 31):
                for use_filter in (False, True):
                    results = batch_matches_reference(
                        index, queries, [0, 1, 0, 1, 0], k, use_filter)
                    assert all(r.rows_ranked == r.rows_scanned
                               for r in results[:4])

    def test_empty_class_and_partitions_smaller_than_k(self):
        rng = np.random.default_rng(6)
        labels = [0] * 3 + [1] * 40
        index = columnar_index(rng.standard_normal((43, 5)), labels,
                               "contiguous")
        queries = rng.standard_normal((4, 5))
        results = batch_matches_reference(index, queries, [0, 2, 1, 0], 5,
                                          True)
        assert [r.status for r in results] == ["ok", "empty-class", "ok",
                                               "ok"]
        assert [(r.rows_scanned, r.rows_ranked) for r in results] == [
            (3, 3), (0, 0), (40, 5), (3, 3)]

    def test_ranks_only_the_top_k_and_its_ties(self):
        # At the desk feature width and the stock block sizes, the
        # shortlist of a generic index is the top k and any rows tied at
        # its k-th distance, so a silent fall-back to scanning every row
        # fails here.
        rng = np.random.default_rng(7)
        rows = np.abs(rng.standard_normal((600, 410)))
        for layout in ("contiguous", "loaded"):
            index = columnar_index(rows, rng.integers(0, 3, 600), layout)
            queries = np.vstack([rows[:4],
                                 np.abs(rng.standard_normal((4, 410)))])
            for use_filter in (False, True):
                for k in (1, 5, 20):
                    results = batch_matches_reference(
                        index, queries, [0, 1, 2, 0] * 2, k, use_filter,
                        scan_rows=None)
                    for q, res in zip(queries, results):
                        searched = (index.class_partitions[
                            res.query_predicted_label] if use_filter
                            else np.arange(600))
                        sq = np.sum((rows[searched] - q) ** 2, axis=1)
                        cut = np.sort(sq)[k - 1]
                        assert res.rows_ranked <= np.count_nonzero(sq <= cut)
                        assert res.rows_ranked < res.rows_scanned

    def test_one_block_partition_is_ranked_whole(self):
        # Rows that fit in one exact block skip the GEMM.
        rng = np.random.default_rng(8)
        index = columnar_index(rng.standard_normal((60, 410)), [0] * 60,
                               "contiguous")
        assert 60 * 410 * 8 <= retrieval.SCAN_BLOCK_BYTES
        res = batch_matches_reference(index, rng.standard_normal((2, 410)),
                                      [0, 0], 5, True, scan_rows=None)
        assert [(r.rows_scanned, r.rows_ranked) for r in res] == [(60, 60)] * 2

    def test_bad_query_block_rejected(self):
        index = one_layer_index(RNG.random((4, 3)))
        for queries, predicted in ((np.ones(3), [0]), (np.ones((2, 4)), [0, 0]),
                                   (np.ones((2, 3)), [0])):
            with pytest.raises(InputError):
                scan_columns(index, queries, predicted, "fc1", 1, False)
        top = scan_columns(index, np.ones((0, 3)), [], "fc1", 1, False)
        assert top.rows.shape == top.distances.shape == (0, 1)
        assert len(top.counts) == len(top.rows_scanned) == 0


class TestScanColumns:
    """scan_columns' columns give each query the reference's bits."""

    @EXAMPLES
    @given(n=st.integers(0, 40), dim=st.integers(0, 9),
           classes=st.integers(1, 4), m=st.integers(1, 7),
           per_gemm=st.sampled_from([1, 2, None]),
           scan_rows=st.sampled_from([1, 3]),
           layout=st.sampled_from(["contiguous", "loaded"]),
           values=st.sampled_from(["normal", "integers", "near-ties"]),
           special=st.sampled_from([None, np.nan, np.inf, -np.inf]),
           use_filter=st.booleans(), extra_k=st.integers(0, 45),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_reference(self, n, dim, classes, m, per_gemm,
                               scan_rows, layout, values, special,
                               use_filter, extra_k, seed):
        rng = np.random.default_rng(seed)
        if values == "near-ties":
            # Rows 1e-16 to 1e-13 apart around one point.
            spread = 10.0 ** rng.integers(-16, -12, (n + m, 1))
            matrix = (rng.standard_normal(dim)
                      + spread * rng.standard_normal((n + m, dim)))
        elif values == "integers":
            matrix = rng.integers(-2, 3, (n + m, dim)) * 1.0
        else:
            matrix = rng.standard_normal((n + m, dim))
        # Labels are drawn, so some classes may have no rows; predicting
        # class `classes` asks for one the index never holds.
        index = columnar_index(matrix[:n], rng.integers(0, classes, n),
                               layout)
        queries = matrix[rng.integers(0, n + m, m)]
        if special is not None and dim:
            queries[rng.integers(0, m), rng.integers(0, dim):] = special
        predicted = rng.integers(0, classes + 1, m)
        k = 1 + extra_k % (n + 5)
        # One or three rows per exact block, so pairs straddle blocks.
        with mock.patch.object(retrieval, "SCAN_BLOCK_BYTES",
                               8 * scan_rows * dim), \
                mock.patch.object(retrieval, "GEMM_BLOCK_BYTES",
                                  8 * n * (per_gemm or m)), \
                np.errstate(invalid="ignore", over="ignore"):
            top = scan_columns(index, queries, predicted, "fc1", k,
                               use_filter)
            assert top.rows.shape == top.distances.shape == (m, min(k, n))
            for i, (q, label) in enumerate(zip(queries, predicted)):
                count = top.counts[i]
                assert not top.rows[i, count:].any()
                assert not top.distances[i, count:].any()
                status = scan(index, q, label, "fc1", k, use_filter).status
                if use_filter and label not in index.class_partitions:
                    assert (status, count, top.rows_scanned[i],
                            top.rows_ranked[i]) == ("empty-class", 0, 0, 0)
                    continue
                assert status == "ok"
                rows = top.rows[i, :count]
                assert [(str(index.source_ids[r]), d.tobytes(),
                         int(index.true_labels[r])) for r, d in zip(
                             rows, top.distances[i, :count])] == \
                    reference_scan(index, q, label, "fc1", k, use_filter)
                scanned = top.rows_scanned[i]
                assert min(k, scanned) <= top.rows_ranked[i] <= scanned


class TestFrozenQuery:
    @pytest.fixture
    def loaded(self, net_and_index, tmp_path):
        net, _, _ = net_and_index
        save_checkpoint(tmp_path / "model.ckpt", net)
        return load_checkpoint(tmp_path / "model.ckpt")[0]

    def count_hashes(self, monkeypatch):
        calls = []
        sha256 = hashlib.sha256
        monkeypatch.setattr(hashlib, "sha256",
                            lambda *a: (calls.append(1), sha256(*a))[1])
        return calls

    def test_frozen_network_hashes_at_most_once(self, net_and_index, loaded,
                                                monkeypatch):
        net, samples, index = net_and_index
        calls = self.count_hashes(monkeypatch)
        for i in range(50):
            frozen = query(index, loaded, samples[i % len(samples)].image,
                           "fc2", 5, i % 2 == 0)
        assert len(calls) <= 1
        calls.clear()
        for i in range(50):
            unfrozen = query(index, net, samples[i % len(samples)].image,
                             "fc2", 5, i % 2 == 0)
        assert len(calls) == 50
        assert frozen == unfrozen

    def test_stale_hash_error_hashes_once(self, net_and_index, monkeypatch):
        _, samples, index = net_and_index
        other = Network.from_spec(three_tap_spec())
        other.initialize(99)
        digest = other.fingerprint()
        calls = self.count_hashes(monkeypatch)
        with pytest.raises(StaleIndexError, match=digest[:12]):
            query(index, other, samples[0].image, "fc1", 1, False)
        assert len(calls) == 1

    def test_changed_weight_makes_index_stale(self, net_and_index, loaded):
        _, samples, index = net_and_index
        assert loaded.fingerprint() == index.network_fingerprint
        query(index, loaded, samples[0].image, "fc1", 1, False)
        fc = next(l for l in loaded.layers if hasattr(l, "in_features"))
        fc.weights = fc.weights.copy()  # how a frozen network is edited
        fc.weights[0, 0] += 1e-9
        assert loaded.fingerprint() != index.network_fingerprint
        with pytest.raises(StaleIndexError):
            query(index, loaded, samples[0].image, "fc1", 1, False)


class TestConcurrentScans:
    def test_threads_match_a_serial_run(self, net_and_index, tmp_path):
        # One frozen network and one loaded index serve every thread. The
        # exact block is cut to 4 rows, so scans go through the GEMM
        # shortlist and several exact blocks.
        net, samples, index = net_and_index
        save_checkpoint(tmp_path / "model.ckpt", net)
        save_index(index, tmp_path / "features.idx")
        frozen = load_checkpoint(tmp_path / "model.ckpt")[0]
        loaded = load_index(tmp_path / "features.idx",
                            expected_fingerprint=frozen.fingerprint())
        images = [s.image for s in samples[::4]]
        _, predicted, feats = frozen.classify(images)

        def bits(result):
            return (result.status, result.query_predicted_label,
                    item_bits(result))

        tasks = [(i, layer, use_filter) for i in range(len(images))
                 for layer in loaded.feature_layers
                 for use_filter in (False, True)]
        batches = [(layer, use_filter) for layer in loaded.feature_layers
                   for use_filter in (False, True)]

        def run(task):
            if len(task) == 3:
                i, layer, use_filter = task
                return bits(query(loaded, frozen, images[i], layer, 5,
                                  use_filter))
            layer, use_filter = task
            top = scan_columns(loaded, feats[layer], predicted, layer, 5,
                               use_filter)
            return (top.rows.tobytes(), top.distances.tobytes(),
                    top.counts.tobytes(), top.rows_scanned.tobytes(),
                    top.rows_ranked.tobytes())

        work = (tasks + batches) * 4
        interval = sys.getswitchinterval()
        with mock.patch.object(retrieval, "SCAN_BLOCK_BYTES", 8 * 12 * 4):
            serial = [run(task) for task in work]
            sys.setswitchinterval(1e-5)
            try:
                with concurrent.futures.ThreadPoolExecutor(8) as pool:
                    futures = [pool.submit(run, task) for task in work]
                    threaded = [f.result(timeout=120) for f in futures]
            finally:
                sys.setswitchinterval(interval)
        assert threaded == serial


def record_order_ranking(ids, predicted, matrix, q, label, k, use_filter):
    """Record numbers of the top k, from the record-order arrays alone."""
    sq = np.sum((matrix - q) ** 2, axis=1)
    rows = [r for r in range(len(ids))
            if not use_filter or predicted[r] == label]
    return sorted(rows, key=lambda r: (sq[r], ids[r], r))[:k]


class TestGroupedLayout:
    """Grouping rows in memory shows neither in files nor in results."""

    @EXAMPLES
    @given(raw_labels=st.lists(st.integers(0, 4), max_size=24),
           classes=st.integers(1, 5),
           dims=st.lists(st.integers(0, 4), min_size=1, max_size=3),
           values=st.sampled_from(["normal", "integers"]),
           seed=st.integers(0, 2 ** 32 - 1))
    # Two records of one id, the later one predicted into the earlier
    # partition: ranking ties by stored row would put it first.
    @example(raw_labels=[1, 0], classes=2, dims=[1], values="integers",
             seed=0)
    def test_round_trips_and_scans(self, raw_labels, classes, dims, values,
                                   seed):
        rng = np.random.default_rng(seed)
        labels = [label % classes for label in raw_labels]
        n = len(labels)
        draw = {"normal": rng.standard_normal,
                "integers": lambda shape: rng.integers(-1, 2, shape) * 1.0}
        features = {f"fc{j + 1}": draw[values]((n, dim))
                    for j, dim in enumerate(dims)}
        # Repeated ids, so that ties in distance and id happen; the true
        # label is the record number, so results name their records.
        ids = [f"s{i}" for i in rng.integers(0, max(1, n // 2), n)]
        true = list(range(n))
        with tempfile.TemporaryDirectory() as tmp:
            ref, out = Path(tmp, "ref.idx"), Path(tmp, "out.idx")
            conftest.save_index_reference(ref, ids, true, labels, features,
                                          "fp")
            want = ref.read_bytes()
            indexes = [make_index(ids, true, labels, features),
                       load_index(ref)]
            for index in indexes:
                save_index(index, out)
                assert out.read_bytes() == want
            save_index(load_index(out), out)
            assert out.read_bytes() == want
        order = np.argsort(labels, kind="stable")
        # Each stored row's rank by id, then record number.
        tie_ranks = np.empty(n, dtype=np.intp)
        tie_ranks[np.lexsort((order, np.asarray(ids, dtype=str)[order]))] = \
            np.arange(n)
        queries = draw[values]((4, dims[0]))
        queries[:min(n, 2)] = features["fc1"][:2]  # indexed rows
        predicted = list(range(4))  # absent classes among them
        for index in indexes:
            npt.assert_array_equal(index.positions, order)
            npt.assert_array_equal(index.tie_ranks, tie_ranks)
            assert index.class_partitions == {
                label: range(labels_before(labels, label),
                             labels_before(labels, label + 1))
                for label in set(labels)}
            for k in (1, 3, n + 1):
                for use_filter in (False, True):
                    results = batch_matches_reference(
                        index, queries, predicted, k, use_filter)
                    for q, label, res in zip(queries, predicted, results):
                        assert [it.true_label for it in res.items] == \
                            record_order_ranking(ids, labels,
                                                 features["fc1"], q, label,
                                                 k, use_filter)


def labels_before(labels, label):
    return sum(x < label for x in labels)


class TestIndexFile:
    def test_round_trip_identical_queries(self, net_and_index, tmp_path):
        net, samples, index = net_and_index
        path = tmp_path / "features.idx"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.network_fingerprint == index.network_fingerprint
        for s in samples[::8]:
            a = query(index, net, s.image, "fc2", 5, False)
            b = query(loaded, net, s.image, "fc2", 5, False)
            assert a == b

    def test_save_is_deterministic(self, net_and_index, tmp_path):
        _, _, index = net_and_index
        p1, p2 = tmp_path / "a.idx", tmp_path / "b.idx"
        save_index(index, p1)
        save_index(index, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_vectors_bit_exact(self, net_and_index, tmp_path):
        _, _, index = net_and_index
        path = tmp_path / "features.idx"
        save_index(index, path)
        loaded = load_index(path)
        assert len(loaded) == len(index)
        assert loaded.feature_layers == index.feature_layers
        npt.assert_array_equal(loaded.positions, index.positions)
        assert loaded.class_partitions == index.class_partitions
        for i in range(len(index)):
            assert loaded.source_ids[i] == index.source_ids[i]
            assert loaded.true_labels[i] == index.true_labels[i]
            assert loaded.predicted_labels[i] == index.predicted_labels[i]
            for name in index.feature_layers:
                npt.assert_array_equal(loaded.features[name][i],
                                       index.features[name][i])

    def test_resave_of_loaded_index_reproduces_bytes(self, net_and_index,
                                                     tmp_path):
        _, _, index = net_and_index
        p1, p2 = tmp_path / "a.idx", tmp_path / "b.idx"
        save_index(index, p1)
        save_index(load_index(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_block_size_does_not_change_bytes(self, net_and_index, tmp_path,
                                              monkeypatch):
        _, _, index = net_and_index
        p1, p2 = tmp_path / "a.idx", tmp_path / "b.idx"
        save_index(index, p1)
        row_bytes = 8 * sum(m.shape[1] for m in index.features.values())
        monkeypatch.setattr(retrieval, "IO_BLOCK_BYTES", 7 * row_bytes)
        save_index(index, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_scan_on_loaded_matches_built(self, net_and_index, tmp_path):
        net, samples, index = net_and_index
        path = tmp_path / "features.idx"
        save_index(index, path)
        loaded = load_index(path)
        for s in samples[::5]:
            _, predicted, feats = net.forward_classify(s.image)
            for layer in index.feature_layers:
                for use_filter in (False, True):
                    for k in (1, 6, len(index)):
                        assert scan(loaded, feats[layer], predicted, layer,
                                    k, use_filter) == scan(
                            index, feats[layer], predicted, layer, k,
                            use_filter)

    def test_payload_is_read_in_blocks_into_one_store(
            self, net_and_index, tmp_path, monkeypatch):
        _, _, index = net_and_index
        path = tmp_path / "features.idx"
        save_index(index, path)
        reads = []
        read_exact, read_into = _binio.read_exact, retrieval.read_into
        monkeypatch.setattr(_binio, "read_exact", lambda f, n, what: (
            reads.append(what), read_exact(f, n, what))[1])
        monkeypatch.setattr(retrieval, "read_into", lambda f, a, what: (
            reads.append((what, a.shape)), read_into(f, a, what))[1])
        width = sum(m.shape[1] for m in index.features.values())
        monkeypatch.setattr(retrieval, "IO_BLOCK_BYTES", 8 * 7 * width)
        loaded = load_index(path)
        # The container header's three reads, then the payload 7 rows at a
        # time: 60 records take 8 blocks, the last of 4 rows.
        assert reads == ["format version", "header length", "JSON header",
                         *[("feature payload", (7, width))] * 8,
                         ("feature payload", (4, width))]
        # Each layer is a C-contiguous (N, dim) block of one store, in
        # layer order.
        matrices = list(loaded.features.values())
        store = matrices[0].base
        assert store.ndim == 1 and store.size == len(loaded) * width
        offset = 0
        for m in matrices:
            assert m.base is store and m.flags.c_contiguous
            assert np.shares_memory(m, store[offset:offset + m.size])
            offset += m.size

    def test_load_holds_no_second_payload_copy(self, tmp_path):
        rng = np.random.default_rng(2)
        n = 2000
        index = make_index([f"s{i}" for i in range(n)], [0] * n,
                           rng.integers(0, 4, n),
                           {"fc1": rng.standard_normal((n, 410)),
                            "fc2": rng.standard_normal((n, 390))})
        path = tmp_path / "features.idx"
        save_index(index, path)
        payload = 8 * n * 800
        tracemalloc.start()
        try:
            loaded = load_index(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * payload
        npt.assert_array_equal(loaded.features["fc2"], index.features["fc2"])

    def test_file_shrinking_after_size_check_is_truncated(
            self, net_and_index, tmp_path, monkeypatch):
        _, _, index = net_and_index
        path = tmp_path / "features.idx"
        save_index(index, path)
        monkeypatch.setattr(retrieval, "check_payload_size",
                            shrinking_after_check(path))
        with pytest.raises(TruncatedFileError, match="feature payload"):
            load_index(path)

    def test_failed_save_keeps_old_file(self, net_and_index, tmp_path,
                                        monkeypatch):
        _, _, index = net_and_index
        path = tmp_path / "features.idx"
        path.write_bytes(b"previous index")

        def header_then_crash(f, *args):
            write_container_header(f, *args)
            raise OSError("disk gone")

        monkeypatch.setattr(retrieval, "write_container_header",
                            header_then_crash)
        with pytest.raises(OSError, match="disk gone"):
            save_index(index, path)
        assert path.read_bytes() == b"previous index"
        assert [p.name for p in tmp_path.iterdir()] == ["features.idx"]

    def test_expected_fingerprint_enforced(self, net_and_index, tmp_path):
        _, _, index = net_and_index
        path = tmp_path / "features.idx"
        save_index(index, path)
        load_index(path, expected_fingerprint=index.network_fingerprint)
        with pytest.raises(StaleIndexError):
            load_index(path, expected_fingerprint="0" * 64)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.idx"
        path.write_bytes(b"GARBAGE!" + bytes(32))
        with pytest.raises(FormatError):
            load_index(path)

    def test_unsupported_version_rejected(self, net_and_index, tmp_path):
        _, _, index = net_and_index
        path = tmp_path / "features.idx"
        save_index(index, path)
        raw = bytearray(path.read_bytes())
        raw[8:12] = struct.pack("<I", 42)
        path.write_bytes(bytes(raw))
        with pytest.raises(VersionMismatchError):
            load_index(path)

    def test_truncated_rejected(self, net_and_index, tmp_path):
        _, _, index = net_and_index
        path = tmp_path / "features.idx"
        save_index(index, path)
        whole = path.read_bytes()
        path.write_bytes(whole[:-40])
        with pytest.raises(TruncatedFileError):
            load_index(path)

    def test_trailing_bytes_rejected(self, net_and_index, tmp_path):
        _, _, index = net_and_index
        path = tmp_path / "features.idx"
        save_index(index, path)
        path.write_bytes(path.read_bytes() + b"\xff")
        with pytest.raises(FormatError) as raised:
            load_index(path)
        assert raised.type is FormatError

    @pytest.mark.parametrize("edit, error", [
        (lambda h: {k: v for k, v in h.items() if k != "fingerprint"},
         FormatError),
        (lambda h: dict(h, feature_dims={"fc1": h["feature_dims"]["fc1"]}),
         FormatError),
        (lambda h: [h], FormatError),
        (lambda h: dict(h, records=[
            {k: v for k, v in h["records"][0].items() if k != "source_id"},
            *h["records"][1:]]), FormatError),
        (lambda h: dict(h, records=5), FormatError),
        (lambda h: dict(h, feature_layers=7), FormatError),
        (lambda h: dict(h, feature_dims=list(h["feature_dims"])),
         FormatError),
        (lambda h: with_dim(h, -3), FormatError),
        (lambda h: with_dim(h, "abc"), FormatError),
        (lambda h: with_dim(h, True), FormatError),
        (lambda h: with_dim(h, h["feature_dims"]["fc2"] - 1), FormatError),
        (lambda h: with_dim(h, 2 ** 40), TruncatedFileError),
        (lambda h: dict(h, fingerprint=5), FormatError),
        (lambda h: dict(h, feature_layers=["fc1", "fc1", "fc3"]),
         FormatError),
        (lambda h: dict(h, feature_layers=[["fc1"], "fc2", "fc3"]),
         FormatError),
        (lambda h: dict(h, records=["a", *h["records"][1:]]), FormatError),
        (lambda h: dict(h, records=[dict(h["records"][0], true_label="0"),
                                    *h["records"][1:]]), FormatError),
        (lambda h: dict(h, records=[dict(h["records"][0], true_label=2 ** 70),
                                    *h["records"][1:]]), FormatError),
        (lambda h: dict(h, records=[
            dict(h["records"][0], predicted_label=-1), *h["records"][1:]]),
         FormatError),
    ], ids=["no-fingerprint", "layer-without-dims", "list-header",
            "record-without-source-id", "records-not-list",
            "layers-not-list", "dims-not-object", "negative-dim",
            "string-dim", "boolean-dim", "dim-too-small", "huge-dim",
            "fingerprint-not-string", "duplicate-layer", "layer-not-string",
            "record-not-object", "string-label", "label-beyond-int64",
            "negative-label"])
    def test_malformed_header_rejected(self, net_and_index, tmp_path, edit,
                                       error):
        _, _, index = net_and_index
        path = tmp_path / "features.idx"
        save_index(index, path)
        conftest.rewrite_container_header(path, edit)
        with pytest.raises(error) as raised:
            load_index(path)
        assert raised.type is error  # not a FormatError subclass

    @pytest.mark.parametrize("edit, message", [
        (lambda r: {k: v for k, v in r.items() if k != "true_label"},
         "index record 2 has no 'true_label' field"),
        (lambda r: dict(r, predicted_label="1"),
         "index record 2 field 'predicted_label' is a str, not a int"),
        (lambda r: [r], "index record 2 has no 'source_id' field"),
    ], ids=["missing-field", "wrong-type", "record-not-object"])
    def test_record_error_names_first_bad_record(
            self, net_and_index, tmp_path, edit, message):
        _, _, index = net_and_index
        path = tmp_path / "features.idx"
        save_index(index, path)

        def edit_records(header):
            records = list(header["records"])
            for i in (2, 5):  # record 5 is just as bad, but comes later
                records[i] = edit(records[i])
            return dict(header, records=records)

        conftest.rewrite_container_header(path, edit_records)
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            load_index(path)


def shrinking_after_check(path):
    """check_payload_size that lets the file lose its last 40 bytes after."""
    check = retrieval.check_payload_size

    def check_then_shrink(f, size, what):
        check(f, size, what)
        os.truncate(path, os.path.getsize(path) - 40)

    return check_then_shrink


def with_dim(header, value):
    """header with the fc2 width replaced by value."""
    return dict(header, feature_dims=dict(header["feature_dims"], fc2=value))
