"""Feature database construction, nearest-neighbor queries, index files.

The index stores, for every database image, its three hidden-FC activation
vectors plus the network's predicted label, and partitions record ids by
that prediction. Queries are exact brute-force scans: ranking happens on
squared distances (the square root is order-preserving and applied only to
the returned top k), ties break by ascending source_id. A built index is
immutable, so concurrent queries need no locking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._binio import read_container_header, read_exact, write_container_header
from .errors import (
    FormatError,
    InputError,
    StaleIndexError,
    VersionMismatchError,
)
from .layers import DTYPE

INDEX_MAGIC = b"CBNINDX\n"
INDEX_VERSION = 1


@dataclass(frozen=True)
class FeatureRecord:
    source_id: str
    true_label: int
    predicted_label: int
    features: dict  # layer name -> 1-D float64 vector


@dataclass(frozen=True)
class RetrievedItem:
    source_id: str
    distance: float
    true_label: int


@dataclass(frozen=True)
class RetrievalResult:
    items: tuple
    query_predicted_label: int
    layer: str
    class_filter_enabled: bool
    status: str  # "ok", or "empty-class" when the filtered partition is empty


class FeatureIndex:
    """Immutable collection of FeatureRecords partitioned by predicted label."""

    def __init__(self, records, network_fingerprint, feature_layers):
        records = list(records)
        feature_layers = tuple(feature_layers)
        expected = set(feature_layers)
        for r in records:
            if r.features.keys() != expected:
                raise InputError(
                    f"record {r.source_id} has layers "
                    f"{sorted(r.features)}, index expects "
                    f"{sorted(feature_layers)}")
        # One contiguous matrix per layer makes the scan a single
        # vectorized pass, and validation one check per layer.
        self._matrices = {
            name: (np.stack([r.features[name] for r in records])
                   if records else np.zeros((0, 0), dtype=DTYPE))
            for name in feature_layers}
        if not all(np.isfinite(m).all() for m in self._matrices.values()):
            bad = np.stack([~np.isfinite(self._matrices[name]).all(axis=1)
                            for name in feature_layers], axis=1)
            row, col = np.argwhere(bad)[0]
            raise InputError(
                f"record {records[row].source_id} has non-finite features "
                f"in {feature_layers[col]}")
        self.records = records
        self.network_fingerprint = network_fingerprint
        self.feature_layers = feature_layers
        self.class_partitions = {}
        for i, r in enumerate(records):
            self.class_partitions.setdefault(r.predicted_label, []).append(i)
        self.class_partitions = {
            label: np.asarray(idx)
            for label, idx in self.class_partitions.items()}
        self._source_ids = np.asarray([r.source_id for r in records])

    def __len__(self):
        return len(self.records)

    def feature_dim(self, layer):
        return self._matrices[layer].shape[1]


def build_index(net, samples):
    """Run all samples through the frozen network in one classify pass.

    Records are partitioned by the *predicted* label (the retrieval-time
    filter can only see predictions); true labels ride along solely for
    evaluation.
    """
    samples = list(samples)
    _, predicted, features = net.classify([s.image for s in samples])
    records = [
        FeatureRecord(
            source_id=s.source_id,
            true_label=s.label,
            predicted_label=label,
            features={name: f[i] for name, f in features.items()},
        )
        for i, (s, label) in enumerate(zip(samples, predicted.tolist()))]
    return FeatureIndex(records, net.fingerprint(),
                        net.feature_layer_names)


def euclidean_distance(a, b):
    """Root of the summed squared differences over the feature dimension."""
    a = np.asarray(a, dtype=DTYPE)
    b = np.asarray(b, dtype=DTYPE)
    if a.shape != b.shape or a.ndim != 1:
        raise InputError(
            f"feature vectors must be 1-D and equal length, "
            f"got {a.shape} and {b.shape}")
    return float(np.sqrt(np.sum((a - b) ** 2)))


def query(index, net, query_image, layer, k, use_class_filter):
    """Top-k nearest records to a query image's features at one layer.

    The query's class prediction comes from the same eval forward pass
    that extracts its features. With the filter on, only the predicted
    class's partition is scanned; an absent partition yields an empty
    result marked "empty-class" rather than an error.
    """
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    if index.network_fingerprint != net.fingerprint():
        raise StaleIndexError(
            "index was built by a different network than the one supplied "
            f"(index fingerprint {index.network_fingerprint[:12]}..., "
            f"network {net.fingerprint()[:12]}...)")
    if layer not in index.feature_layers:
        raise InputError(
            f"layer {layer!r} not in index layers {index.feature_layers}")
    _, predicted, features = net.forward_classify(query_image)
    q = features[layer]
    if use_class_filter:
        candidates = index.class_partitions.get(
            predicted, np.asarray([], dtype=np.intp))
    else:
        candidates = np.arange(len(index))
    if candidates.size == 0:
        return RetrievalResult(
            items=(), query_predicted_label=predicted, layer=layer,
            class_filter_enabled=use_class_filter,
            status="empty-class" if use_class_filter else "ok")
    matrix = index._matrices[layer][candidates]
    sq = np.sum((matrix - q) ** 2, axis=1)
    sids = index._source_ids[candidates]
    # lexsort's last key is primary: distance first, then source_id.
    order = np.lexsort((sids, sq))[:k]
    items = tuple(
        RetrievedItem(
            source_id=str(sids[i]),
            distance=float(np.sqrt(sq[i])),
            true_label=index.records[candidates[i]].true_label)
        for i in order)
    return RetrievalResult(
        items=items, query_predicted_label=predicted, layer=layer,
        class_filter_enabled=use_class_filter, status="ok")


def save_index(index, path):
    """Write the index as a versioned binary file.

    Layout mirrors the checkpoint container: magic, u32 version, u32
    header length, JSON header (fingerprint, layer names and dims, and
    per-record metadata in order), then for each record its feature
    vectors back to back in the header's layer order, little-endian
    float64.
    """
    header = {
        "fingerprint": index.network_fingerprint,
        "feature_layers": list(index.feature_layers),
        "feature_dims": {name: index.feature_dim(name)
                         for name in index.feature_layers},
        "records": [
            {"source_id": r.source_id,
             "true_label": r.true_label,
             "predicted_label": r.predicted_label}
            for r in index.records],
    }
    with open(path, "wb") as f:
        write_container_header(f, INDEX_MAGIC, INDEX_VERSION, header)
        for r in index.records:
            for name in index.feature_layers:
                f.write(r.features[name].astype("<f8", copy=False).tobytes())


def load_index(path, expected_fingerprint=None):
    """Read an index file back; optionally enforce a network fingerprint.

    A mismatch between expected_fingerprint and the stored one raises
    StaleIndexError: the index no longer describes the network's features.
    """
    with open(path, "rb") as f:
        version, header = read_container_header(f, INDEX_MAGIC, "index")
        if version != INDEX_VERSION:
            raise VersionMismatchError(
                f"index format version {version} is not supported "
                f"(this build reads version {INDEX_VERSION})")
        try:
            fingerprint = header["fingerprint"]
            layers = header["feature_layers"]
            dims = header["feature_dims"]
            metas = header["records"]
        except KeyError as exc:
            raise FormatError(f"index header has no {exc} field") from exc
        missing = [name for name in layers if name not in dims]
        if missing:
            raise FormatError(
                f"index header gives no feature_dims for layers {missing}")
        if (expected_fingerprint is not None
                and fingerprint != expected_fingerprint):
            raise StaleIndexError(
                "index was built by a different network "
                f"(stored fingerprint {fingerprint[:12]}..., "
                f"expected {expected_fingerprint[:12]}...)")
        records = []
        for meta in metas:
            features = {}
            for name in layers:
                n = int(dims[name])
                raw = read_exact(f, 8 * n, f"features {name}")
                features[name] = np.frombuffer(raw, dtype="<f8").astype(DTYPE)
            records.append(FeatureRecord(
                source_id=meta["source_id"],
                true_label=int(meta["true_label"]),
                predicted_label=int(meta["predicted_label"]),
                features=features,
            ))
        if f.read(1):
            raise FormatError(
                "index has trailing bytes after the last record")
    return FeatureIndex(records, fingerprint, layers)
