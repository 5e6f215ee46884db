"""Feature index, exact-scan queries against a loop oracle, index files."""

import math
import struct

import numpy as np
import numpy.testing as npt
import pytest

import conftest
from cbirnet.data import generate_synthetic_corpus
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
)
from cbirnet.retrieval import (
    FeatureIndex,
    FeatureRecord,
    build_index,
    euclidean_distance,
    load_index,
    query,
    save_index,
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
    net = Network.from_spec(three_tap_spec())
    net.initialize(11)
    samples, _ = generate_synthetic_corpus(3, 20, 16, rng_seed=4)
    return net, samples, build_index(net, samples)


def brute_force_query(index, net, image, layer, k, use_filter):
    """Loop-and-sort reference: squared distances, (distance, id) order."""
    _, predicted, feats = net.forward_classify(image)
    q = feats[layer]
    scored = []
    for r in index.records:
        if use_filter and r.predicted_label != predicted:
            continue
        sq = float(((r.features[layer] - q) ** 2).sum())
        scored.append((sq, r.source_id))
    scored.sort()
    return [sid for _, sid in scored[:k]]


class TestEuclideanDistance:
    def test_identical_vectors(self):
        v = RNG.random(64)
        assert euclidean_distance(v, v) == 0.0

    def test_three_four_five(self):
        assert euclidean_distance([0.0, 0.0], [3.0, 4.0]) == 5.0

    def test_matches_naive_summation_oracle(self):
        a = RNG.standard_normal(4096)
        b = RNG.standard_normal(4096)
        naive = math.sqrt(math.fsum(
            (float(x) - float(y)) ** 2 for x, y in zip(a, b)))
        assert euclidean_distance(a, b) == pytest.approx(naive, rel=1e-9)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError):
            euclidean_distance([1.0, 2.0], [1.0])

    def test_metric_axioms_on_random_triples(self):
        for _ in range(50):
            a, b, c = RNG.standard_normal((3, 32))
            dab = euclidean_distance(a, b)
            dba = euclidean_distance(b, a)
            assert dab >= 0.0
            assert dab == dba
            assert euclidean_distance(a, a) == 0.0
            assert dab <= (euclidean_distance(a, c)
                           + euclidean_distance(c, b) + 1e-9)


class TestBuildIndex:
    def test_record_count(self, net_and_index):
        _, samples, index = net_and_index
        assert len(index) == len(samples)

    def test_empty_samples_empty_index(self, net_and_index):
        net, _, _ = net_and_index
        index = build_index(net, [])
        assert len(index) == 0
        assert index.class_partitions == {}

    def test_predicted_labels_reverified(self, net_and_index):
        net, samples, index = net_and_index
        for s, r in zip(samples[:10], index.records[:10]):
            assert r.predicted_label == net.forward_classify(s.image)[1]
            assert r.true_label == s.label

    def test_partitions_cover_exactly_once(self, net_and_index):
        _, _, index = net_and_index
        merged = np.sort(np.concatenate(
            [idx for idx in index.class_partitions.values()]))
        npt.assert_array_equal(merged, np.arange(len(index)))

    def test_partition_key_is_predicted_not_true(self, net_and_index):
        _, _, index = net_and_index
        for label, idx in index.class_partitions.items():
            for i in idx:
                assert index.records[i].predicted_label == label

    def test_nonfinite_features_rejected(self):
        rec = FeatureRecord("a", 0, 0, {"fc1": np.array([np.nan])})
        with pytest.raises(InputError):
            FeatureIndex([rec], "fp", ("fc1",))

    def test_first_nonfinite_record_and_layer_named(self):
        def rec(sid, fc1, fc2):
            return FeatureRecord(sid, 0, 0, {"fc1": np.array([fc1, 1.0]),
                                             "fc2": np.array([fc2, 1.0])})
        records = [rec("a", 0.0, 0.0), rec("b", 1.0, np.inf),
                   rec("c", np.nan, 1.0)]
        with pytest.raises(InputError,
                           match="record b has non-finite features in fc2"):
            FeatureIndex(records, "fp", ("fc1", "fc2"))

    def test_wrong_layer_set_names_record(self):
        good = FeatureRecord("a", 0, 0, {"fc1": np.ones(2),
                                         "fc2": np.ones(2)})
        extra = FeatureRecord("b", 0, 0, {"fc1": np.ones(2),
                                          "fc2": np.ones(2),
                                          "fc3": np.ones(2)})
        missing = FeatureRecord("c", 0, 0, {"fc1": np.ones(2)})
        for bad in (extra, missing):
            with pytest.raises(InputError, match=f"record {bad.source_id} "):
                FeatureIndex([good, bad], "fp", ("fc1", "fc2"))

    def test_records_match_one_image_passes(self, net_and_index):
        net, samples, index = net_and_index
        for s, r in zip(samples, index.records):
            _, _, feats = net.forward_classify(s.image)
            for name in index.feature_layers:
                assert r.features[name].tobytes() == feats[name].tobytes()


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
        assert res.class_filter_enabled
        for item in res.items:
            rec = next(r for r in index.records
                       if r.source_id == item.source_id)
            assert rec.predicted_label == res.query_predicted_label

    def test_filter_on_subset_of_filter_off(self, net_and_index):
        net, samples, index = net_and_index
        n = len(index)
        off = query(index, net, samples[5].image, "fc3", n, False)
        on = query(index, net, samples[5].image, "fc3", n, True)
        off_of_class = [i.source_id for i in off.items
                        if next(r for r in index.records
                                if r.source_id == i.source_id)
                        .predicted_label == on.query_predicted_label]
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
            r.source_id for r in index.records)

    def test_k_larger_than_candidates_returns_all(self, net_and_index):
        net, samples, index = net_and_index
        res = query(index, net, samples[0].image, "fc1", 10_000, False)
        assert len(res.items) == len(index)

    def test_insertion_order_invariance(self, net_and_index):
        net, samples, index = net_and_index
        reversed_index = FeatureIndex(list(reversed(index.records)),
                                      index.network_fingerprint,
                                      index.feature_layers)
        for s in samples[::11]:
            a = query(index, net, s.image, "fc1", 7, False)
            b = query(reversed_index, net, s.image, "fc1", 7, False)
            assert [i.source_id for i in a.items] == [
                i.source_id for i in b.items]

    def test_empty_class_status(self, net_and_index):
        net, samples, index = net_and_index
        probe = samples[0]
        predicted = net.forward_classify(probe.image)[1]
        pruned = FeatureIndex(
            [r for r in index.records if r.predicted_label != predicted],
            index.network_fingerprint, index.feature_layers)
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

    def test_scaling_invariance_of_ranking(self, net_and_index):
        # Doubling every vector scales all distances by exactly 2 (a power
        # of two), so the permutation is bitwise identical.
        _, _, index = net_and_index
        q = index.records[0].features["fc1"]
        vectors = [r.features["fc1"] for r in index.records]
        base = sorted(range(len(vectors)), key=lambda i: (
            float(((vectors[i] - q) ** 2).sum()), index.records[i].source_id))
        scaled = sorted(range(len(vectors)), key=lambda i: (
            float(((2.0 * vectors[i] - 2.0 * q) ** 2).sum()),
            index.records[i].source_id))
        assert base == scaled


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
        for a, b in zip(index.records, loaded.records):
            assert a.source_id == b.source_id
            assert a.true_label == b.true_label
            assert a.predicted_label == b.predicted_label
            for name in index.feature_layers:
                npt.assert_array_equal(a.features[name], b.features[name])

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
        with pytest.raises(FormatError):
            load_index(path)

    @pytest.mark.parametrize("edit", [
        lambda h: {k: v for k, v in h.items() if k != "fingerprint"},
        lambda h: dict(h, feature_dims={"fc1": h["feature_dims"]["fc1"]}),
        lambda h: [h],
    ], ids=["no-fingerprint", "layer-without-dims", "list-header"])
    def test_malformed_header_rejected(self, net_and_index, tmp_path, edit):
        _, _, index = net_and_index
        path = tmp_path / "features.idx"
        save_index(index, path)
        conftest.rewrite_container_header(path, edit)
        with pytest.raises(FormatError):
            load_index(path)
