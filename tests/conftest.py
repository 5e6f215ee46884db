"""Shared oracles: slow reference implementations the fast code must match."""

import json
import math
import struct
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from cbirnet import data
from cbirnet.errors import InputError
from cbirnet.layers import (
    Conv2d,
    Dropout,
    FullyConnected,
    LogSoftmax,
    MaxPool2d,
    ReLU,
)
from cbirnet.metrics import score_rankings
from cbirnet.training import nll_grad, nll_loss

DTYPE = np.float64

# One line per acceptance criterion, filled by test_acceptance.py and
# echoed after the run so the verdicts are visible without -s.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def conv2d_reference(x, weights, biases, stride, padding):
    """Nested-loop cross-correlation, the oracle for Conv2d.forward."""
    oc, ic, kh, kw = weights.shape
    c, h, w = x.shape
    assert c == ic
    if padding > 0:
        x = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((oc, oh, ow), dtype=DTYPE)
    for o in range(oc):
        for i in range(oh):
            for j in range(ow):
                patch = x[:, i * stride:i * stride + kh,
                          j * stride:j * stride + kw]
                out[o, i, j] = np.sum(patch * weights[o]) + biases[o]
    return out


def maxpool2d_reference(x, window, stride):
    """Nested-loop window maximum, the oracle for MaxPool2d.forward."""
    c, h, w = x.shape
    oh = (h - window) // stride + 1
    ow = (w - window) // stride + 1
    out = np.zeros((c, oh, ow), dtype=DTYPE)
    for k in range(c):
        for i in range(oh):
            for j in range(ow):
                out[k, i, j] = x[k, i * stride:i * stride + window,
                                 j * stride:j * stride + window].max()
    return out


def maxpool_train_reference(x, window, stride):
    """The window-view train forward MaxPool2d replaced, as its oracle.

    One (c, h, w) sample: argmax over each flattened window of a
    sliding_window_view, then take_along_axis. Returns (out, winners),
    winners being each window's winning flat input index.
    """
    k, s = window, stride
    c, h, w = x.shape
    win = sliding_window_view(x, (k, k), axis=(1, 2))[:, ::s, ::s]
    oh, ow = win.shape[1:3]
    flat = win.reshape(c, oh, ow, k * k)
    arg = flat.argmax(axis=3)
    rows = (np.arange(oh) * s)[None, :, None] + arg // k
    cols = (np.arange(ow) * s)[None, None, :] + arg % k
    winners = (np.arange(c)[:, None, None] * h + rows) * w + cols
    return np.take_along_axis(flat, arg[..., None], axis=3)[..., 0], winners


def maxpool_backward_reference(winners, grad_out, in_shape):
    """The np.add.at pool backward MaxPool2d replaced, as its oracle."""
    dx = np.zeros(math.prod(in_shape), dtype=DTYPE)
    np.add.at(dx, winners.ravel(), grad_out.ravel())
    return dx.reshape(in_shape)


def col2im_reference(dcols, in_shape, kernel_h, kernel_w, stride, padding):
    """The slice-add col2im Conv2d.backward replaced, as its oracle.

    dcols is (c*kh*kw, oh*ow) in im2col's order; each of the kh*kw window
    offsets adds its strided slice into a zero-filled padded input, which
    is then cropped to in_shape (c, h, w).
    """
    c, h, w = in_shape
    kh, kw, s, p = kernel_h, kernel_w, stride, padding
    oh = (h + 2 * p - kh) // s + 1
    ow = (w + 2 * p - kw) // s + 1
    dwin = dcols.reshape(c, kh, kw, oh, ow)
    dxp = np.zeros((c, h + 2 * p, w + 2 * p), dtype=DTYPE)
    for i in range(kh):
        for j in range(kw):
            dxp[:, i:i + s * oh:s, j:j + s * ow:s] += dwin[:, i, j]
    return dxp[:, p:p + h, p:p + w]


def numeric_gradient(f, x, step=1e-3):
    """Central-difference gradient of scalar f at x, elementwise."""
    grad = np.zeros_like(x, dtype=DTYPE)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + step
        hi = f()
        x[idx] = orig - step
        lo = f()
        x[idx] = orig
        grad[idx] = (hi - lo) / (2.0 * step)
        it.iternext()
    return grad


def relative_error(analytic, numeric):
    """max |a - n| / max(1, |a|, |n|), elementwise, reduced to a scalar."""
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


def _conv_eval_reference(conv, x):
    """One sample: np.pad, window view, then a single w2d @ cols."""
    p, s = conv.padding, conv.stride
    kh, kw = conv.kernel_h, conv.kernel_w
    if p > 0:
        x = np.pad(x, ((0, 0), (p, p), (p, p)))
    win = sliding_window_view(x, (kh, kw), axis=(1, 2))[:, ::s, ::s]
    c, oh, ow = win.shape[:3]
    cols = np.ascontiguousarray(
        win.transpose(0, 3, 4, 1, 2).reshape(c * kh * kw, oh * ow))
    w2d = conv.weights.reshape(conv.out_channels, -1)
    return (w2d @ cols + conv.biases[:, None]).reshape(
        conv.out_channels, oh, ow)


def _pool_eval_reference(pool, x):
    return maxpool_train_reference(x, pool.window, pool.stride)[0]


def _log_softmax_reference(x):
    flat = x.reshape(-1)
    shifted = flat - flat.max()
    return shifted - np.log(np.exp(shifted).sum())


def eval_forward_reference(net, x):
    """One image through per-image eval kernels, the oracle for classify.

    These are the unbatched kernels the batch-first layers replaced, kept
    so that batched results can be held to them byte for byte. Returns
    (log_probs, predicted, {tap name: activation vector}).
    """
    kernels = {
        Conv2d: _conv_eval_reference,
        MaxPool2d: _pool_eval_reference,
        ReLU: lambda layer, v: np.maximum(v, 0.0),
        FullyConnected: lambda layer, v: (
            layer.weights @ v.reshape(-1) + layer.biases),
        Dropout: lambda layer, v: v * layer.keep_prob,
        LogSoftmax: lambda layer, v: _log_softmax_reference(v),
    }
    taps = {idx: name for name, idx in net.feature_taps}
    features = {}
    out = np.asarray(x, dtype=DTYPE)
    for i, layer in enumerate(net.layers):
        out = kernels[type(layer)](layer, out)
        if i in taps:
            features[taps[i]] = out.reshape(-1).copy()
    return out, int(np.argmax(out)), features


def _layers(model):
    """The layers of a network, or a lone layer as a list of one."""
    return getattr(model, "layers", [model])


def conv_grads(model):
    """The grad arrays of every Conv2d in a layer or network, in order."""
    return [grad for layer in _layers(model) if isinstance(layer, Conv2d)
            for grad in (layer.weight_grads, layer.bias_grads)]


def parameter_grads(model):
    """(value, gradient) pairs of a layer or network, in parameters() order.

    A conv layer's gradients are its grad arrays. An FC layer has none: its
    gradients are built from the factors its last backward kept, the
    outer product np.outer(g, x) for the weights and g itself for the
    biases. The list is built at once, so a later forward that replaces x
    does not change it.
    """
    pairs = []
    for layer in _layers(model):
        if isinstance(layer, Conv2d):
            pairs += [(layer.weights, layer.weight_grads),
                      (layer.biases, layer.bias_grads)]
        elif isinstance(layer, FullyConnected):
            pairs += [(layer.weights, np.outer(layer._g, layer._x)),
                      (layer.biases, layer._g)]
    return pairs


def sgd_update_reference(model, learning_rate):
    """value -= lr * grad for every parameter, after a backward.

    Each gradient is added into zeros first, as a grad filled with zeros
    took it, so a -0.0 element enters as +0.0. A conv grad already was
    (see sgd_step_reference), and adding it into zeros again keeps its
    bits.
    """
    for value, grad in parameter_grads(model):
        assert np.isfinite(grad).all()
        value -= learning_rate * (np.zeros(grad.shape) + grad)


def sgd_step_reference(net, sample, learning_rate):
    """The SGD step training.sgd_step replaced, as its oracle.

    Every conv grad is filled with zeros here, not through zero_grads(),
    so a full backward (input gradient included) adds into it; then
    sgd_update_reference applies every gradient. Returns the sample's loss
    before the update.
    """
    for grad in conv_grads(net):
        grad.fill(0.0)
    log_probs = net.forward(sample.image, train=True)
    loss = nll_loss(log_probs, sample.label)
    net.backward(nll_grad(log_probs, sample.label))
    sgd_update_reference(net, learning_rate)
    return loss


def reference_scan(index, q, predicted, layer, k, use_filter):
    """Whole-matrix squared distances and a full lexsort, as exact bits.

    Ties in distance rank by source_id, then by record number. Returns
    (source_id, distance bytes, true label) per result.
    """
    rows = np.asarray(index.class_partitions[predicted] if use_filter
                      else range(len(index)), dtype=np.intp)
    sq = np.sum((index.features[layer][rows] - q) ** 2, axis=1)
    ranks = np.lexsort((index.positions[rows], index.source_ids[rows],
                        sq))[:k]
    return [(str(index.source_ids[rows[i]]), np.sqrt(sq[i]).tobytes(),
             int(index.true_labels[rows[i]])) for i in ranks]


def _pr_points_reference(ranked_labels, query_label, total_relevant):
    """The per-query PR points metrics.retrieval_pr computed before
    score_rankings: float64 hits over float64 cutoffs, recall 0.0 when
    total_relevant is 0."""
    rel = np.asarray([lbl == query_label for lbl in ranked_labels],
                     dtype=np.float64)
    hits = np.cumsum(rel)
    precision = hits / np.arange(1, rel.size + 1, dtype=np.float64)
    if total_relevant == 0:
        return [(0.0, float(p)) for p in precision]
    recall = hits / total_relevant
    return [(float(r), float(p)) for r, p in zip(recall, precision)]


def _average_precision_reference(ranked_labels, query_label, total_relevant):
    """The per-query AP metrics.average_precision computed before
    score_rankings: a 1-D .sum() of the precisions at the relevant ranks
    over min(total_relevant, depth). Returns (value, valid)."""
    if total_relevant == 0:
        return 0.0, False
    rel = np.asarray([lbl == query_label for lbl in ranked_labels],
                     dtype=np.float64)
    if rel.size == 0:
        return 0.0, True
    hits = np.cumsum(rel)
    at_relevant = (hits / np.arange(1, rel.size + 1,
                                    dtype=np.float64))[rel > 0]
    return float(at_relevant.sum() / min(total_relevant, rel.size)), True


def evaluate_scores_reference(ranked_lists, query_labels, totals):
    """The per-query scoring loop cli.cmd_evaluate ran, as its oracle.

    ranked_lists holds each query's returned true labels, best first.
    Returns (per-query PR points, per-query AP, per-query valid flag,
    mAP or None when no query is valid, mean PR points or None when no
    curve is averaged).
    Each valid query that returned anything gives a curve; cutoff j of
    the mean averages, with np.mean over a list in query order, the
    curves that reach it.
    """
    per_query, aps, valid, curves = [], [], [], []
    for ranked, label, total in zip(ranked_lists, query_labels, totals):
        per_query.append(_pr_points_reference(ranked, label, total))
        ap, ok = _average_precision_reference(ranked, label, total)
        aps.append(ap)
        valid.append(ok)
        if total > 0 and len(ranked):
            curves.append(per_query[-1])
    values = [ap for ap, ok in zip(aps, valid) if ok]
    mean = float(np.mean(values)) if values else None
    points = None
    if curves:
        points = []
        for j in range(max(len(c) for c in curves)):
            ps = [c[j] for c in curves if len(c) > j]
            points.append((float(np.mean([p[0] for p in ps])),
                           float(np.mean([p[1] for p in ps]))))
    return per_query, aps, valid, mean, points


def score_lists(queries):
    """metrics.score_rankings over (ranked_labels, query_label,
    total_relevant) triples whose ranked lists may differ in length: each
    list is one row of a zero-padded block, its length the row's count."""
    queries = list(queries)
    counts = np.array([len(ranked) for ranked, _, _ in queries],
                      dtype=np.intp)
    ranked = np.zeros((len(queries), counts.max(initial=0)), dtype=np.int64)
    ranked[np.arange(ranked.shape[1]) < counts[:, None]] = [
        label for labels, _, _ in queries for label in labels]
    return score_rankings(ranked, counts, [q for _, q, _ in queries],
                          [total for _, _, total in queries])


def pr_points(scores, i=0):
    """Row i of RetrievalScores as (recall, precision) points, one per
    returned item."""
    c = scores.counts[i]
    return tuple(zip(scores.recall[i, :c].tolist(),
                     scores.precision[i, :c].tolist()))


def bilinear_resize(image, out_h, out_w):
    """Resample a 2-D grid with half-pixel-center coordinate mapping.

    Destination pixel d samples source coordinate (d + 0.5)*in/out - 0.5,
    clamped at the borders; resizing to the input size is the identity.
    This is the per-image resize that data.preprocess_image replaced,
    kept as the oracle for it.
    """
    image = np.asarray(image, dtype=DTYPE)
    in_h, in_w = image.shape
    if (out_h, out_w) == (in_h, in_w):
        return image.copy()
    ys = np.clip((np.arange(out_h) + 0.5) * (in_h / out_h) - 0.5,
                 0.0, in_h - 1.0)
    xs = np.clip((np.arange(out_w) + 0.5) * (in_w / out_w) - 0.5,
                 0.0, in_w - 1.0)
    y0 = np.floor(ys).astype(np.intp)
    x0 = np.floor(xs).astype(np.intp)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
    top = image[np.ix_(y0, x0)] * (1.0 - wx) + image[np.ix_(y0, x1)] * wx
    bot = image[np.ix_(y1, x0)] * (1.0 - wx) + image[np.ix_(y1, x1)] * wx
    return top * (1.0 - wy) + bot * wy


def preprocess_reference(raw, out_size):
    """One raster: whole-image bilinear_resize, center crop, then / 255.

    The per-image path the batched data.preprocess_image must match byte
    for byte. Returns (1, out_size, out_size).
    """
    target = round(out_size * 256 / 224)
    resized = bilinear_resize(np.asarray(raw).astype(DTYPE), target, target)
    off = (target - out_size) // 2
    crop = resized[off:off + out_size, off:off + out_size]
    return (crop / 255.0)[None, :, :]


def ingest_directory_reference(root):
    """The Path-sorted listing and decode of a whole tree, as the oracle of
    data.list_directory followed by data.ingest_directory.

    Class directories and files are listed with Path.iterdir, filtered
    with Path.is_dir and Path.is_file and sorted as Paths; each file is
    decoded and checked as ingest does. Returns (samples, class_names,
    skipped).
    """
    root = Path(root)
    class_dirs = sorted(d for d in root.iterdir() if d.is_dir())
    samples, skipped = [], 0
    for label, class_dir in enumerate(class_dirs):
        for path in sorted(p for p in class_dir.iterdir() if p.is_file()):
            try:
                raw = data.read_pgm(path)
                data._check_raster(raw.shape)
            except InputError:
                skipped += 1
                continue
            samples.append(data.Sample(
                image=raw, label=label,
                source_id=f"{class_dir.name}/{path.name}"))
    return samples, tuple(d.name for d in class_dirs), skipped


def save_index_reference(path, source_ids, true_labels, predicted_labels,
                         features, fingerprint):
    """Record by record, the v1 index file retrieval.save_index must write.

    The records are in the order given (record order), whatever order
    memory stores them in: magic, u32 version 1, u32 header length, the
    JSON header with sorted keys and no spaces, then each record's feature
    vectors back to back in layer order, little-endian float64.
    """
    header = {
        "fingerprint": fingerprint,
        "feature_layers": list(features),
        "feature_dims": {name: int(np.shape(m)[1])
                         for name, m in features.items()},
        "records": [{"source_id": str(sid), "true_label": int(true),
                     "predicted_label": int(pred)}
                    for sid, true, pred in zip(source_ids, true_labels,
                                               predicted_labels)],
    }
    encoded = json.dumps(header, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(b"CBNINDX\n" + struct.pack("<II", 1, len(encoded)) + encoded)
        for i in range(len(source_ids)):
            for m in features.values():
                f.write(np.asarray(m[i], dtype="<f8").tobytes())


def rewrite_container_header(path, edit):
    """Replace the JSON header of a checkpoint or index file with edit(header)."""
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<I", raw[12:16])
    header = edit(json.loads(raw[16:16 + hlen]))
    encoded = json.dumps(header).encode("utf-8")
    path.write_bytes(raw[:12] + struct.pack("<I", len(encoded)) + encoded
                     + raw[16 + hlen:])


def with_layer_field(header, type, field, value):
    """Checkpoint header whose first layer of type has field set to value."""
    layers = [dict(layer) for layer in header["spec"]["layers"]]
    first = next(i for i, layer in enumerate(layers) if layer["type"] == type)
    layers[first][field] = value
    return dict(header, spec=dict(header["spec"], layers=layers))
