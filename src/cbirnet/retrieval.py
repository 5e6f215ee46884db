"""Feature database construction, nearest-neighbor scans, index files.

The index is columnar, like a flat FAISS index: one (N, dim) float64
matrix per hidden-FC tap is the only copy of the features, next to the
source id and label columns and the rows of each predicted class. scan
is the exact brute-force kernel over one layer. It streams the layer
matrix (or, with the class filter, the partition's rows) a block of
SCAN_BLOCK_BYTES at a time through one preallocated buffer, so it never
holds an (N, dim) temporary, and each row's squared distance has the
bits of np.sum((row - q) ** 2). Ranking happens on squared distances
(the square root is order-preserving and applied only to the returned
top k): np.partition finds the k-th smallest, every row at or below it
is a candidate, so ties at the cut all stay in, and only the candidates
are lexsorted by distance, then ascending source_id. query is the
fingerprint check (a hash only for an unfrozen network), one eval
forward and scan. A built index is immutable, so concurrent scans need
no locking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._binio import (
    atomic_write,
    header_value,
    read_container_header,
    read_payload,
    write_container_header,
)
from .errors import (
    FormatError,
    InputError,
    StaleIndexError,
    VersionMismatchError,
)
from .layers import DTYPE

INDEX_MAGIC = b"CBNINDX\n"
INDEX_VERSION = 1
WRITE_BLOCK_BYTES = 1 << 20  # payload save_index encodes at a time
SCAN_BLOCK_BYTES = 1 << 18  # feature rows scan subtracts and squares at a time


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
    """Immutable columns of N records, partitioned by predicted label.

    features maps each layer name, in index order, to an (N, dim)
    matrix. Arrays that already hold float64 are kept, not copied.
    """

    def __init__(self, source_ids, true_labels, predicted_labels, features,
                 network_fingerprint):
        self.source_ids = np.asarray(source_ids, dtype=str)
        self.true_labels = np.asarray(true_labels, dtype=np.int64)
        self.predicted_labels = np.asarray(predicted_labels, dtype=np.int64)
        self.features = {name: np.asarray(m, dtype=DTYPE)
                         for name, m in features.items()}
        self.feature_layers = tuple(self.features)
        self.network_fingerprint = network_fingerprint
        columns = (self.source_ids, self.true_labels, self.predicted_labels)
        if any(c.ndim != 1 or len(c) != len(columns[0]) for c in columns):
            raise InputError(
                f"source_ids, true_labels and predicted_labels need one "
                f"entry per record, got shapes {[c.shape for c in columns]}")
        for name, m in self.features.items():
            if m.ndim != 2 or len(m) != len(self):
                raise InputError(f"layer {name} features have shape "
                                 f"{m.shape}, not ({len(self)}, dim)")
        if not all(np.isfinite(m).all() for m in self.features.values()):
            bad = np.stack([~np.isfinite(m).all(axis=1)
                            for m in self.features.values()], axis=1)
            row, col = np.argwhere(bad)[0]
            raise InputError(
                f"record {self.source_ids[row]} has non-finite features "
                f"in {self.feature_layers[col]}")
        self.class_partitions = {
            label: np.flatnonzero(self.predicted_labels == label)
            for label in dict.fromkeys(self.predicted_labels.tolist())}

    def __len__(self):
        return len(self.source_ids)


def build_index(net, samples, images=None):
    """Index all samples, keeping the tap arrays of one classify pass.

    images is what classify reads for the samples, in order (say, a
    data.PreprocessedImages over their rasters); by default each sample's
    image. Records are partitioned by the *predicted* label (the
    retrieval-time filter can only see predictions); true labels ride
    along solely for evaluation.
    """
    samples = list(samples)
    if images is None:
        images = [s.image for s in samples]
    _, predicted, features = net.classify(images)
    return FeatureIndex([s.source_id for s in samples],
                        [s.label for s in samples], predicted, features,
                        net.fingerprint())


def scan(index, q, predicted, layer, k, use_class_filter):
    """Top-k records nearest to the feature vector q at one layer.

    predicted is the query's class prediction. With the filter on, only
    that class's partition is scanned; an absent partition yields an
    empty result marked "empty-class" rather than an error.
    """
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    if layer not in index.features:
        raise InputError(
            f"layer {layer!r} not in index layers {index.feature_layers}")
    matrix, sids, labels = (index.features[layer], index.source_ids,
                            index.true_labels)
    if np.shape(q) != matrix.shape[1:]:
        raise InputError(f"query vector has shape {np.shape(q)}, layer "
                         f"{layer} holds {matrix.shape[1]}-dim features")
    predicted = int(predicted)
    rows = None
    if use_class_filter:
        rows = index.class_partitions.get(predicted)
        if rows is None:
            return RetrievalResult(
                items=(), query_predicted_label=predicted, layer=layer,
                class_filter_enabled=True, status="empty-class")
    n, dim = len(matrix) if rows is None else len(rows), matrix.shape[1]
    block = max(1, SCAN_BLOCK_BYTES // max(1, 8 * dim))
    buf = np.empty((min(block, n), dim), dtype=DTYPE)
    sq = np.empty(n, dtype=DTYPE)
    for s in range(0, n, block):
        e = min(s + block, n)
        part = buf[:e - s]
        np.subtract(matrix[s:e] if rows is None else matrix[rows[s:e]], q,
                    out=part)
        np.square(part, out=part)
        np.sum(part, axis=1, out=sq[s:e])
    picked = np.arange(n)
    if k < n:
        # Keep every row not above the k-th smallest distance. Written as
        # "not >" so that a NaN query keeps all rows, as a full sort would.
        picked = np.flatnonzero(~(sq > np.partition(sq, k - 1)[k - 1]))
    picked_rows = picked if rows is None else rows[picked]
    # lexsort's last key is primary: distance first, then source_id.
    order = np.lexsort((sids[picked_rows], sq[picked]))[:k]
    items = tuple(
        RetrievedItem(source_id=str(sids[r]), distance=float(np.sqrt(d)),
                      true_label=int(labels[r]))
        for r, d in zip(picked_rows[order], sq[picked[order]]))
    return RetrievalResult(
        items=items, query_predicted_label=predicted, layer=layer,
        class_filter_enabled=use_class_filter, status="ok")


def query(index, net, query_image, layer, k, use_class_filter):
    """Top-k nearest records to a query image's features at one layer.

    After checking that net built the index, one eval forward pass gives
    the query's class prediction and features, and scan ranks them.
    """
    fingerprint = net.fingerprint()
    if index.network_fingerprint != fingerprint:
        raise StaleIndexError(
            "index was built by a different network than the one supplied "
            f"(index fingerprint {index.network_fingerprint[:12]}..., "
            f"network {fingerprint[:12]}...)")
    _, predicted, features = net.forward_classify(query_image)
    return scan(index, features.get(layer), predicted, layer, k,
                use_class_filter)


def save_index(index, path):
    """Write the index as a versioned binary file, atomically.

    Layout mirrors the checkpoint container: magic, u32 version, u32
    header length, JSON header (fingerprint, layer names and dims, and
    per-record metadata in order), then for each record its feature
    vectors back to back in the header's layer order, little-endian
    float64. Rows are encoded a block at a time, never all at once.
    """
    matrices = list(index.features.values())
    header = {
        "fingerprint": index.network_fingerprint,
        "feature_layers": list(index.feature_layers),
        "feature_dims": {name: m.shape[1]
                         for name, m in index.features.items()},
        "records": [
            {"source_id": sid, "true_label": true, "predicted_label": pred}
            for sid, true, pred in zip(index.source_ids.tolist(),
                                       index.true_labels.tolist(),
                                       index.predicted_labels.tolist())],
    }
    row_bytes = 8 * sum(m.shape[1] for m in matrices)
    rows = max(1, WRITE_BLOCK_BYTES // max(1, row_bytes))
    with atomic_write(path) as f:
        write_container_header(f, INDEX_MAGIC, INDEX_VERSION, header)
        for start in range(0, len(index) if matrices else 0, rows):
            block = np.concatenate([m[start:start + rows] for m in matrices],
                                   axis=1)
            f.write(block.astype("<f8", copy=False).tobytes())


def load_index(path, expected_fingerprint=None):
    """Read an index file back; optionally enforce a network fingerprint.

    A mismatch between expected_fingerprint and the stored one raises
    StaleIndexError: the index no longer describes the network's features.
    The header is type-checked, and the payload size checked against the
    file, before anything is allocated. The payload is read in one call,
    and each layer's matrix is a column view of that one buffer.
    """
    with open(path, "rb") as f:
        version, header = read_container_header(f, INDEX_MAGIC, "index")
        if version != INDEX_VERSION:
            raise VersionMismatchError(
                f"index format version {version} is not supported "
                f"(this build reads version {INDEX_VERSION})")
        fingerprint, layers, dims, metas = (
            header_value(header, key, kind, "index header")
            for key, kind in (("fingerprint", str), ("feature_layers", list),
                              ("feature_dims", dict), ("records", list)))
        if (not all(isinstance(name, str) for name in layers)
                or len(set(layers)) != len(layers)):
            raise FormatError(
                f"index feature_layers must be distinct names, got {layers}")
        widths = [header_value(dims, name, int, "index feature_dims")
                  for name in layers]
        if any(w < 0 for w in widths):
            raise FormatError(f"index feature_dims are negative: {dims}")
        sids, true, pred = (
            [header_value(m, key, kind, f"index record {i}")
             for i, m in enumerate(metas)]
            for key, kind in (("source_id", str), ("true_label", int),
                              ("predicted_label", int)))
        if not all(0 <= label < 2 ** 63 for label in (*true, *pred)):
            raise FormatError("index labels must be class numbers in "
                              "[0, 2**63)")
        if (expected_fingerprint is not None
                and fingerprint != expected_fingerprint):
            raise StaleIndexError(
                "index was built by a different network "
                f"(stored fingerprint {fingerprint[:12]}..., "
                f"expected {expected_fingerprint[:12]}...)")
        n, width = len(metas), sum(widths)
        raw = read_payload(f, 8 * n * width, "feature payload")
    table = np.frombuffer(raw, dtype="<f8").reshape(n, width)
    columns = np.split(table, np.cumsum(widths)[:-1], axis=1)
    return FeatureIndex(sids, true, pred, dict(zip(layers, columns)),
                        fingerprint)
