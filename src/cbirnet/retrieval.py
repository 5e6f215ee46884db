"""Feature database construction, nearest-neighbor scans, index files.

The index is columnar, like a flat FAISS index: one (N, dim) float64
matrix per hidden-FC tap is the only copy of the features, next to the
source id, label and record-number columns, each row's tie rank (its
rank by source id, then record number) and each row's squared norm.
Rows are stored grouped by predicted label, like the inverted lists of an
IVF index probed once (Johnson et al., FAISS, arXiv 1702.08734): each
class partition is a range of rows, so the class filter scans a slice of
every matrix and never gathers a copy. scan_columns is the exact
brute-force kernel over one layer, for an (m, dim) block of queries, and
answers in columns as a FAISS search does: an (m, k) array of stored rows
and one of distances, with a count per query (fewer than k where a
partition is smaller). It reads numeric columns only. scan runs it for
one query and builds that query's RetrievalResult; cmd_evaluate scores
the columns directly. Queries that search the same rows (every row, or
one class partition) are ranked together, in FAISS's split: a GEMM
distance ||x||^2 - 2 x.q + ||q||^2 over the searched range only picks a
shortlist of (query, row) pairs, every row within a rigorous
floating-point error bound of the query's k-th smallest GEMM distance
(_error_bound), so ties at the cut all stay in, and the GEMM values are
never reported. The exact pass then gathers the pairs' rows a block of
SCAN_BLOCK_BYTES at a time, so each squared distance has the bits of
np.sum((row - q) ** 2). One lexsort orders every pair by query, squared
distance, then tie rank, and each query's first k pairs are its result,
so no result depends on the storage order; the square root is
order-preserving and taken only for those. Searched rows that fit in one
exact block, or number at most k, skip the GEMM and are paired whole. No
scan holds an (N, dim) temporary: a block of queries takes as many
GEMM distances, or pairs, as GEMM_BLOCK_BYTES holds. query is the
fingerprint check (a hash only for an unfrozen network), one eval forward
and scan. A built index is immutable, so concurrent scans need no
locking. The index file keeps records in record order (see save_index);
only memory is grouped. build_index and load_index are the two ways to
an index: each takes the stable argsort of the predicted labels and
hands FeatureIndex columns and matrices already grouped by it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._binio import (
    atomic_write,
    check_payload_size,
    header_value,
    read_container_header,
    read_into,
    write_container_header,
)
from .errors import (
    FormatError,
    InputError,
    StaleIndexError,
)
from .layers import DTYPE

INDEX_MAGIC = b"CBNINDX\n"
INDEX_VERSION = 1
# Payload that crosses between record order and grouped rows at a time,
# in save_index and in load_index.
IO_BLOCK_BYTES = 1 << 20
SCAN_BLOCK_BYTES = 1 << 18  # feature rows scan subtracts and squares at a time
GEMM_BLOCK_BYTES = 1 << 20  # GEMM distances (queries x rows) scan holds at once


@dataclass(frozen=True)
class RetrievedItem:
    source_id: str
    distance: float
    true_label: int


@dataclass(frozen=True)
class RetrievalResult:
    items: tuple
    query_predicted_label: int
    status: str  # "ok", or "empty-class" when the filtered partition is empty
    # Work done, not part of the result: the rows of the searched
    # partition, and how many of them were given exact distances.
    rows_scanned: int = field(default=0, compare=False)
    rows_ranked: int = field(default=0, compare=False)


class FeatureIndex:
    """Immutable columns of N records, grouped by predicted label.

    Every column and every layer matrix is given grouped by predicted
    label, in ascending label order: positions is the stable argsort of
    the records' predicted labels, and stored row i holds record
    positions[i], so each class keeps record order. build_index and
    load_index take that argsort themselves. tie_ranks holds each stored
    row's rank by source_id and then record number (the order in which
    scans break distance ties; see its docstring), and class_partitions
    maps each predicted label to its range of rows. features maps each
    layer name, in index order, to an (N, dim) matrix. row_norms maps
    each layer name to its rows' squared L2 norms. A record with a NaN or
    inf feature is an InputError naming it.
    """

    def __init__(self, source_ids, true_labels, predicted_labels, positions,
                 features, network_fingerprint):
        self.source_ids = np.asarray(source_ids, dtype=str)
        self.true_labels = np.asarray(true_labels, dtype=np.int64)
        self.predicted_labels = np.asarray(predicted_labels, dtype=np.int64)
        n = len(self.source_ids)
        self.positions = positions
        self.features = features
        self.feature_layers = tuple(features)
        self.network_fingerprint = network_fingerprint
        # Squared row norms, which scan's GEMM reads. A norm is finite
        # unless its row holds a NaN or inf or squares past the float64
        # range; only then are the elements themselves checked.
        with np.errstate(over="ignore", invalid="ignore"):
            self.row_norms = {name: np.einsum("ij,ij->i", m, m)
                              for name, m in features.items()}
        if not all(np.isfinite(v).all() for v in self.row_norms.values()):
            rows, cols = np.nonzero(np.stack(
                [~np.isfinite(m).all(axis=1) for m in features.values()],
                axis=1))
            if len(rows):
                # The first bad record in record order, then its first layer.
                first = np.lexsort((cols, self.positions[rows]))[0]
                raise InputError(
                    f"record {self.source_ids[rows[first]]} has non-finite "
                    f"features in {self.feature_layers[cols[first]]}")
        cuts = (np.flatnonzero(np.diff(self.predicted_labels)) + 1).tolist()
        self.class_partitions = {
            label: range(start, stop) for label, start, stop in zip(
                self.predicted_labels[[0, *cuts]].tolist() if n else [],
                [0, *cuts], [*cuts, n])}

    @cached_property
    def tie_ranks(self):
        """Each stored row's rank by source_id, then record number.

        Ranked on the first scan and kept; threads racing on that scan
        rank alike. Ranking in the constructor instead left glibc's heap
        holding two freed (10 000, 410) layer buffers after a catalog
        index command, which never scans: +67 MB of peak RSS.
        """
        return _stored_rows(np.lexsort((self.positions, self.source_ids)))

    def __len__(self):
        return len(self.source_ids)


def build_index(net, samples, images):
    """Index all samples from the tap arrays of one classify pass.

    images is what classify reads for the samples, in order: a
    data.PreprocessedImages over their rasters, or the preprocessed
    images themselves. Records are partitioned by the *predicted* label (the
    retrieval-time filter can only see predictions); true labels ride
    along solely for evaluation. Each tap is regrouped into the buffer of
    the tap before it, so only the first copy is a new buffer and at most
    one layer is held twice. (Once glibc has unmapped a layer-sized
    buffer, the next comes from its heap, where two fresh copies could
    outlive a catalog index command: +67 MB peak RSS.)
    """
    samples = list(samples)
    _, predicted, taps = net.classify(images)
    order = np.argsort(predicted, kind="stable")
    features, tap, free = {}, None, None
    for name in list(taps):
        tap = taps.pop(name)
        if free is None or free.shape != tap.shape:
            free = np.empty_like(tap)
        # mode="raise" would gather through a layer-sized temporary.
        features[name] = np.take(tap, order, axis=0, out=free, mode="clip")
        free = tap
    tap = free = None  # the last tap, whose buffer no layer took
    return FeatureIndex(
        np.asarray([s.source_id for s in samples], dtype=str)[order],
        np.asarray([s.label for s in samples], dtype=np.int64)[order],
        predicted[order], order, features, net.fingerprint())


def scan(index, q, predicted, layer, k, use_class_filter):
    """Top-k records nearest to the feature vector q at one layer.

    predicted is the query's class prediction. With the filter on, only
    that class's partition is scanned; an absent partition yields an
    empty result marked "empty-class" rather than an error. The ranking
    is scan_columns' for the one query.
    """
    top = scan_columns(index, np.asarray(q, dtype=DTYPE)[None], [predicted],
                       layer, k, use_class_filter)
    rows = top.rows[0, :top.counts[0]]
    scanned = int(top.rows_scanned[0])
    # Every partition the index holds has a row, so a filtered scan of
    # none found no partition.
    return RetrievalResult(
        items=tuple(map(RetrievedItem, index.source_ids[rows].tolist(),
                        top.distances[0, :len(rows)].tolist(),
                        index.true_labels[rows].tolist())),
        query_predicted_label=int(predicted),
        status="empty-class" if use_class_filter and not scanned else "ok",
        rows_scanned=scanned, rows_ranked=int(top.rows_ranked[0]))


@dataclass(frozen=True)
class ScanColumns:
    """The top k of m queries as columns, one row per query.

    rows holds stored rows (index the FeatureIndex columns with it) and
    distances their distances, best first; both are (m, min(k, N)) and
    only the first counts[i] entries of row i are results, the rest 0.
    A query gets fewer than k results when its partition is smaller, and
    none when the filter is on and its class has no partition.
    rows_scanned and rows_ranked are RetrievalResult's work counts.
    """

    rows: np.ndarray
    distances: np.ndarray
    counts: np.ndarray
    rows_scanned: np.ndarray
    rows_ranked: np.ndarray


def scan_columns(index, queries, predicted, layer, k, use_class_filter):
    """Exact top k of each row of the (m, dim) queries at one layer.

    predicted holds each query's class prediction. With the filter on, a
    query searches its class partition, and an absent partition yields no
    rows; with it off, every row. Queries that search the same rows are
    ranked together, a block of them at a time: _shortlist gives (query,
    row) pairs, _pair_distances their exact squared distances, and one
    lexsort by query, distance and the index's tie_ranks orders every
    pair, so each query's first k pairs are its result.
    """
    matrix = _layer_matrix(index, layer, k)
    queries = np.asarray(queries, dtype=DTYPE)
    predicted = [int(p) for p in predicted]
    m = len(predicted)
    if (queries.ndim != 2 or queries.shape[1:] != matrix.shape[1:]
            or len(queries) != m):
        raise InputError(
            f"queries have shape {queries.shape} with {m} "
            f"predictions; layer {layer} needs (m, {matrix.shape[1]}) "
            f"and m predictions")
    width = min(k, len(matrix))
    rows_out = np.zeros((m, width), dtype=np.intp)
    distances = np.zeros((m, width), dtype=DTYPE)
    scanned = np.zeros(m, dtype=np.intp)
    ranked = np.zeros(m, dtype=np.intp)
    cols = np.arange(width)
    groups = {}
    for i, label in enumerate(predicted):
        groups.setdefault(label if use_class_filter else None, []).append(i)
    for label, members in groups.items():
        rows = (range(len(matrix)) if label is None
                else index.class_partitions.get(label, range(0)))
        if not rows:
            continue
        members = np.asarray(members)
        scanned[members] = len(rows)
        per_block = max(1, GEMM_BLOCK_BYTES // (8 * len(rows)))
        for b in range(0, len(members), per_block):
            block = members[b:b + per_block]
            block_queries = queries[block]
            q, r = _shortlist(matrix, index.row_norms[layer], rows,
                              block_queries, k)
            sq = _pair_distances(matrix, block_queries, q, r)
            # lexsort's last key is primary: query, distance, then tie
            # rank, so that no result depends on the storage order.
            order = np.lexsort((index.tie_ranks[r], sq, q))
            # The square root is order-preserving, so it is taken last.
            if len(block) == 1:
                # A lone query, as every scan call is: its first k pairs.
                picked = order[:k]
                rows_out[block[0], :len(picked)] = r[picked]
                distances[block[0], :len(picked)] = np.sqrt(sq[picked])
                ranked[block] = len(r)
                continue
            # Each query's pairs start at an offset into order; its
            # first min(k, pairs) fill its output row, the rest stay 0.
            pairs = np.bincount(q, minlength=len(block))
            picked = order.take((np.cumsum(pairs) - pairs)[:, None] + cols,
                                mode="clip")
            taken = cols < pairs[:, None]
            rows_out[block] = np.where(taken, r[picked], 0)
            distances[block] = np.where(taken, np.sqrt(sq[picked]), 0.0)
            ranked[block] = pairs
    return ScanColumns(rows=rows_out, distances=distances,
                       counts=np.minimum(ranked, width),
                       rows_scanned=scanned, rows_ranked=ranked)


def _layer_matrix(index, layer, k):
    """The layer's feature matrix, once k and the layer name are checked."""
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    if layer not in index.features:
        raise InputError(
            f"layer {layer!r} not in index layers {index.feature_layers}")
    return index.features[layer]


def _shortlist(matrix, norms, rows, queries, k):
    """(query, row) pairs of the rows the exact pass must see.

    rows is the range of stored rows that each of the (m, dim) queries
    searches. Returns flat arrays: each pair's position in queries,
    ascending, and its stored row, ascending within a query. Rows that fit
    in one exact block are paired whole with every query: that one pass
    costs less than a GEMM and then a pass over the shortlist. Otherwise
    one GEMM over that slice of matrix gives every searched row's distance
    g = ||x||^2 - 2 x.q + ||q||^2, and a row is kept when g <= t + 2E,
    where t is the query's k-th smallest g and E bounds |g - exact|
    (_error_bound).
    """
    n, dim = len(rows), matrix.shape[1]
    if n <= max(k, SCAN_BLOCK_BYTES // max(1, 8 * dim)):
        q, r = np.divmod(np.arange(len(queries) * n), n)
        return q, r + rows.start
    searched = matrix[rows.start:rows.stop]
    row_norms = norms[rows.start:rows.stop]
    max_norm = float(row_norms.max())
    q_norms = np.einsum("ij,ij->i", queries, queries)
    with np.errstate(over="ignore", invalid="ignore"):
        g = queries @ searched.T
        g *= -2.0
        g += row_norms
        g += q_norms[:, None]
    cuts = [t + 2.0 * _error_bound(dim, max_norm, q_norm) for t, q_norm in
            zip(np.partition(g, k - 1, axis=1)[:, k - 1].tolist(),
                q_norms.tolist())]
    # "not >": a NaN or infinite cut keeps every row.
    q, r = np.nonzero(~(g > np.asarray(cuts)[:, None]))
    return q, r + rows.start


def _pair_distances(matrix, queries, q, r):
    """Squared distance of each (query, row) pair, as exact bits.

    q and r are _shortlist's pairs. The rows are gathered SCAN_BLOCK_BYTES
    at a time, each block with its pairs' queries, and worked in place, so
    each value has the bits of np.sum((x - q) ** 2).
    """
    n, dim = len(r), matrix.shape[1]
    block = max(1, SCAN_BLOCK_BYTES // max(1, 8 * dim))
    sq = np.empty(n, dtype=DTYPE)
    for s in range(0, n, block):
        e = min(s + block, n)
        part = matrix[r[s:e]]
        np.subtract(part, queries[q[s]] if q[s] == q[e - 1]
                    else queries[q[s:e]], out=part)
        np.square(part, out=part)
        np.sum(part, axis=1, out=sq[s:e])
    return sq


_U = np.finfo(DTYPE).eps / 2  # unit roundoff
_ETA = float(np.finfo(DTYPE).smallest_subnormal)


def _error_bound(dim, max_norm_sq, q_norm_sq):
    """A bound E on |g - s| for every searched row, as a float.

    g is a row's GEMM distance and s the bits of np.sum((x - q) ** 2).
    With u = eps/2, gamma_j = j*u/(1 - j*u) and any summation order
    (pairwise, blocked BLAS, FMA), a computed sum of j nonnegative terms,
    or a dot product of length j, is within gamma_j of the exact one
    relative to the sum of the terms' magnitudes. So, with D the exact
    ||x - q||^2 and r = ||x|| + ||q||:
      |s - D| <= gamma_{dim+2} D <= gamma_{dim+2} r^2   (dim differences,
        squares and additions; D <= r^2);
      |g - D| <= gamma_{dim+2} (||x||^2 + 2 sum|x_i q_i| + ||q||^2)
              <= gamma_{dim+2} r^2   (the norms and the dot product, then
        two additions; sum|x_i q_i| <= ||x|| ||q||).
    A rounding that lands below the normal range errs by up to half the
    smallest subnormal eta instead, at most 4j eta over both sums with
    j = dim + 3. So |g - s| <= E0 = 2 gamma_j R^2 + 4 j eta, with
    R = max ||x|| over the searched rows + ||q||. Then every row with
    s <= t* (the k-th smallest s) has g <= s + E0 <= t* + E0 <= t + 2 E0,
    since shifting each value by at most E0 moves each order statistic
    by at most E0: the shortlist holds every row of the exact top k and
    every tie at its k-th distance. E = 4 E0; the factor covers the
    rounding of R (taken from computed norms) and of E and t + 2E, which
    are a few u relative. gamma_j is taken as infinite once j*u reaches
    1/4, and E is infinite when 4 R^2 overflows (an overflowing norm, an
    inf or NaN query), so such a scan keeps every row.
    """
    j = dim + 3
    gamma = j * _U / (1 - j * _U) if j * _U < 0.25 else math.inf
    r = math.sqrt(max_norm_sq) + math.sqrt(q_norm_sq)
    r2 = r * r  # inf, not OverflowError, past the float range
    if not 4.0 * r2 < math.inf:
        return math.inf
    return 4.0 * (2.0 * gamma * r2 + 4.0 * j * _ETA)


def query(index, net, query_image, layer, k, use_class_filter,
          timings=None):
    """Top-k nearest records to a query image's features at one layer.

    After checking that net built the index, one eval forward pass gives
    the query's class prediction and features, and scan ranks them.
    timings, when a dict, receives the wall time of the forward and of
    the scan as forward_ms and scan_ms.
    """
    fingerprint = net.fingerprint()
    if index.network_fingerprint != fingerprint:
        raise StaleIndexError(
            "index was built by a different network than the one supplied "
            f"(index fingerprint {index.network_fingerprint[:12]}..., "
            f"network {fingerprint[:12]}...)")
    started = time.perf_counter()
    _, predicted, features = net.forward_classify(query_image)
    forwarded = time.perf_counter()
    result = scan(index, features.get(layer), predicted, layer, k,
                  use_class_filter)
    if timings is not None:
        timings["forward_ms"] = (forwarded - started) * 1e3
        timings["scan_ms"] = (time.perf_counter() - forwarded) * 1e3
    return result


def save_index(index, path):
    """Write the index as a versioned binary file, atomically.

    Layout mirrors the checkpoint container: magic, u32 version, u32
    header length, JSON header (fingerprint, layer names and dims, and
    per-record metadata in record order), then for each record, in record
    order, its feature vectors back to back in the header's layer order,
    little-endian float64. The file does not depend on how memory groups
    the rows. Rows are encoded a block at a time, never all at once.
    """
    matrices = list(index.features.values())
    stored = _stored_rows(index.positions)
    records = zip(*(column[stored].tolist() for column in (
        index.source_ids, index.true_labels, index.predicted_labels)))
    header = {
        "fingerprint": index.network_fingerprint,
        "feature_layers": list(index.feature_layers),
        "feature_dims": {name: m.shape[1]
                         for name, m in index.features.items()},
        "records": [
            {"source_id": sid, "true_label": true, "predicted_label": pred}
            for sid, true, pred in records],
    }
    bounds = np.cumsum([0, *(m.shape[1] for m in matrices)]).tolist()
    rows = max(1, IO_BLOCK_BYTES // max(1, 8 * bounds[-1]))
    buf = np.empty((min(rows, len(index)), bounds[-1]), dtype="<f8")
    with atomic_write(path) as f:
        write_container_header(f, INDEX_MAGIC, INDEX_VERSION, header)
        for start in range(0, len(index) if matrices else 0, rows):
            take = stored[start:start + rows]
            block = buf[:len(take)]
            for m, a, b in zip(matrices, bounds, bounds[1:]):
                block[:, a:b] = m[take]
            f.write(block)


def _stored_rows(positions):
    """The inverse of a permutation; of positions, each record's row."""
    stored = np.empty(len(positions), dtype=np.intp)
    stored[positions] = np.arange(len(positions))
    return stored


def _record_column(records, key, kind):
    """Field key of every record, each checked as header_value checks it.

    Only the first failing record gets a message, so a well-formed header
    formats no string per record.
    """
    values = [r.get(key) if isinstance(r, dict) else None for r in records]
    if not {*map(type, values)} <= {kind}:
        i = next(i for i, v in enumerate(values) if type(v) is not kind)
        header_value(records[i], key, kind, f"index record {i}")
    return values


def load_index(path, expected_fingerprint=None):
    """Read an index file back; optionally enforce a network fingerprint.

    A mismatch between expected_fingerprint and the stored one raises
    StaleIndexError: the index no longer describes the network's features.
    The header is type-checked, and the payload size checked against the
    file, before anything is allocated. All layer matrices are C-contiguous
    views of one (N x total width) store, grouped as FeatureIndex groups
    them. The record-order payload is read IO_BLOCK_BYTES at a time into
    one reused buffer, and each block's rows are scattered to their rows.
    """
    with open(path, "rb") as f:
        header = read_container_header(f, INDEX_MAGIC, INDEX_VERSION,
                                       "index")
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
            _record_column(metas, key, kind)
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
        n, bounds = len(metas), np.cumsum([0, *widths]).tolist()
        check_payload_size(f, 8 * n * bounds[-1], "feature payload")
        pred = np.asarray(pred, dtype=np.int64)
        order = np.argsort(pred, kind="stable")
        stored = _stored_rows(order)
        store = np.empty(n * bounds[-1], dtype=DTYPE)
        matrices = [store[n * a:n * b].reshape(n, b - a)
                    for a, b in zip(bounds, bounds[1:])]
        rows = max(1, IO_BLOCK_BYTES // max(1, 8 * bounds[-1]))
        buf = np.empty((min(rows, n), bounds[-1]), dtype="<f8")
        for start in range(0, n if bounds[-1] else 0, rows):
            put = stored[start:start + rows]
            block = buf[:len(put)]
            read_into(f, block, "feature payload")
            for m, a, b in zip(matrices, bounds, bounds[1:]):
                m[put] = block[:, a:b]
    return FeatureIndex(
        np.asarray(sids, dtype=str)[order],
        np.asarray(true, dtype=np.int64)[order], pred[order], order,
        dict(zip(layers, matrices)), fingerprint)
