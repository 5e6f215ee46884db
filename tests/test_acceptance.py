"""Top-level acceptance gate: one test per shipping criterion.

Each test prints (and records for the terminal summary) a single
"ACCEPTANCE <name>: PASS/FAIL (...)" line with the measured numbers, then
asserts. Criteria cover gradient fidelity against finite differences, the
full-size architecture contract, end-to-end learning at desk scale with
the stock per-sample SGD settings, exact agreement of the index scan with
a brute-force oracle, the class-filter mAP direction, metric identities,
bit-level determinism of artifacts, and the dropout convention.
"""

import time

import numpy as np
import pytest

import conftest
from cbirnet.data import generate_synthetic_corpus, split_dataset
from cbirnet.errors import StaleIndexError
from cbirnet.layers import (
    Conv2d,
    Dropout,
    FullyConnected,
    LogSoftmax,
    MaxPool2d,
    ReLU,
)
from cbirnet.metrics import (
    classification_report,
    confusion_matrix,
    mean_ap,
    score_rankings,
)
from cbirnet.network import (
    Network,
    build_architecture,
    load_checkpoint,
    save_checkpoint,
)
from cbirnet.retrieval import build_index, load_index, query, save_index
from cbirnet.training import nll_grad, nll_loss, train

FD_STEP = 1e-3
FD_TOL = 1e-4

# Frozen seeds for the desk-scale corpus and run. 70 images per class at
# train_fraction 0.715 puts floor(70 * 0.715) = 50 per class in the
# training split: 200 train / 80 test over four classes.
CORPUS_SEED = 101
SPLIT_SEED = 7
TRAIN_FRACTION = 0.715
INIT_SEED = 11
TRAIN_SEED = 13

# The narrow desk-scale network needs a wider init than the full-size
# 0.01 default: at one tenth the fan-in, 0.01-std weights pass so little
# input signal relative to the constant-1 biases that training sits at
# chance (measured: features vary by ~1e-7 across inputs, loss stuck at
# log 4). 0.15 restores signal flow and trains cleanly at lr 1e-4.
DESK_INIT_STD = 0.15


def _report(name, ok, details):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({details})"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    return line


@pytest.fixture(scope="module")
def desk_split():
    samples, class_names = generate_synthetic_corpus(
        4, 70, 64, rng_seed=CORPUS_SEED)
    return split_dataset(samples, class_names,
                         train_fraction=TRAIN_FRACTION, rng_seed=SPLIT_SEED)


@pytest.fixture(scope="module")
def trained(desk_split):
    """The desk-scale training run shared by the learning and mAP criteria."""
    spec = build_architecture(input_shape=(1, 64, 64), num_classes=4,
                              keep_prob=0.5, scale=0.1)
    net = Network.from_spec(spec)
    net.initialize(INIT_SEED, weight_std=DESK_INIT_STD)
    started = time.perf_counter()
    report = train(net, desk_split.train, learning_rate=1e-4, max_epochs=30,
                   seed=TRAIN_SEED, log_interval=0)
    elapsed = time.perf_counter() - started
    return net, report, elapsed


def _layer_gradient_sites(rng):
    """Per-layer-type finite-difference checks; returns (site_count, max_err).

    Every layer type gets whole-tensor central differences on a small
    instance: parameters where the layer has them, and always the input.
    The scalar loss is sum(out * R) for a fixed random R.
    """
    sites = 0
    worst = 0.0

    def check(layer, x, train=True):
        nonlocal sites, worst
        out = layer.forward(x, train=train)
        r = rng.standard_normal(out.shape)

        def loss():
            return float(np.sum(layer.forward(x, train=train) * r))

        for value in layer.parameters():
            numeric = conftest.numeric_gradient(loss, value, step=FD_STEP)
            layer.zero_grads()
            layer.forward(x, train=train)
            layer.backward(r)
            sites += value.size
            for v, g in conftest.parameter_grads(layer):
                if v is value:
                    worst = max(worst, conftest.relative_error(g, numeric))
        numeric_x = conftest.numeric_gradient(loss, x, step=FD_STEP)
        layer.zero_grads()
        layer.forward(x, train=train)
        analytic_x = layer.backward(r)
        worst = max(worst, conftest.relative_error(analytic_x, numeric_x))
        sites += x.size

    conv = Conv2d(2, 3, 3, 3, stride=2, padding=1)
    conv.weights[:] = 0.3 * rng.standard_normal(conv.weights.shape)
    conv.biases[:] = rng.standard_normal(conv.biases.shape)
    check(conv, rng.standard_normal((1, 2, 9, 9)))

    check(MaxPool2d(3, 2), rng.standard_normal((1, 2, 7, 7)))

    x = rng.standard_normal((1, 37))
    x[np.abs(x) < 0.05] += 0.2 * np.sign(x[np.abs(x) < 0.05] + 1e-9)
    check(ReLU(), x)

    fc = FullyConnected(12, 7)
    fc.weights[:] = 0.4 * rng.standard_normal(fc.weights.shape)
    fc.biases[:] = rng.standard_normal(fc.biases.shape)
    check(fc, rng.standard_normal((1, 12)))

    class _FixedUniform:
        def __init__(self, u):
            self.u = u

        def random(self, shape):
            assert shape == self.u.shape
            return self.u

    drop = Dropout(0.6, rng=_FixedUniform(rng.random((1, 30))))
    check(drop, rng.standard_normal((1, 30)))

    check(LogSoftmax(), rng.standard_normal((1, 9)))
    return sites, worst


def _end_to_end_gradient_sites(rng, desk_split):
    """Sampled finite differences through the whole scale-0.05 network."""
    spec = build_architecture(input_shape=(1, 64, 64), num_classes=4,
                              keep_prob=1.0, scale=0.05)
    net = Network.from_spec(spec)
    net.initialize(9, weight_std=DESK_INIT_STD)
    sample = desk_split.train[3]
    x = sample.image.copy()
    label = sample.label

    def loss():
        return nll_loss(net.forward(x, train=True), label)

    net.zero_grads()
    log_probs = net.forward(x, train=True)
    input_grad = net.backward(nll_grad(log_probs, label))
    params = conftest.parameter_grads(net)

    worst = 0.0
    sites = 0
    for _ in range(60):
        value, grad = params[rng.integers(len(params))]
        j = int(rng.integers(value.size))
        orig = value.flat[j]
        value.flat[j] = orig + FD_STEP
        hi = loss()
        value.flat[j] = orig - FD_STEP
        lo = loss()
        value.flat[j] = orig
        numeric = (hi - lo) / (2.0 * FD_STEP)
        worst = max(worst, conftest.relative_error(
            np.asarray(grad.flat[j]), np.asarray(numeric)))
        sites += 1
    for _ in range(12):
        j = int(rng.integers(x.size))
        orig = x.flat[j]
        x.flat[j] = orig + FD_STEP
        hi = loss()
        x.flat[j] = orig - FD_STEP
        lo = loss()
        x.flat[j] = orig
        numeric = (hi - lo) / (2.0 * FD_STEP)
        worst = max(worst, conftest.relative_error(
            np.asarray(input_grad.flat[j]), np.asarray(numeric)))
        sites += 1
    return sites, worst


def test_gradient_fidelity(desk_split):
    name = "gradient-fidelity"
    try:
        started = time.perf_counter()
        rng = np.random.default_rng(8)
        layer_sites, layer_err = _layer_gradient_sites(rng)
        e2e_sites, e2e_err = _end_to_end_gradient_sites(rng, desk_split)
        elapsed = time.perf_counter() - started
        worst = max(layer_err, e2e_err)
        ok = (worst < FD_TOL and e2e_sites >= 50 and elapsed < 60.0)
        details = (f"max rel err {worst:.2e} over {layer_sites} layer + "
                   f"{e2e_sites} end-to-end sites, {elapsed:.1f}s")
    except Exception as exc:
        _report(name, False, f"crashed: {exc!r}")
        raise
    _report(name, ok, details)
    assert ok, details


FULL_STAGE_TRACE = [
    (1, 224, 224),
    (64, 55, 55),
    (64, 27, 27),
    (192, 27, 27),
    (192, 13, 13),
    (384, 13, 13),
    (256, 13, 13),
    (256, 13, 13),
    (256, 6, 6),
    (4096,),
    (4096,),
    (4096,),
    (24,),
]


def test_architecture_fidelity():
    name = "architecture-fidelity"
    try:
        spec = build_architecture()
        net = Network.from_spec(spec)

        convs = [l for l in net.layers if isinstance(l, Conv2d)]
        geometry_ok = [
            (c.out_channels, c.kernel_h, c.kernel_w, c.stride, c.padding)
            for c in convs
        ] == [(64, 11, 11, 4, 2), (192, 5, 5, 1, 2), (384, 5, 5, 1, 2),
              (256, 3, 3, 1, 1), (256, 3, 3, 1, 1)]

        net.initialize(0)
        total = 0
        total_sum = 0.0
        total_sq = 0.0
        for value in net.parameters():
            if value.ndim > 1:
                total += value.size
                total_sum += float(value.sum())
                total_sq += float(np.sum(value * value))
        mean = total_sum / total
        std = float(np.sqrt(total_sq / total - mean * mean))
        init_ok = abs(mean) < 1e-4 and abs(std - 0.01) < 1e-4

        # The kernels' own output shapes in one eval pass, not the spec's
        # trace, which would only check the spec against itself.
        out = np.random.default_rng(0).random((1, *spec.input_shape))
        stages = [spec.input_shape]
        for layer in net.layers:
            out = layer.forward(out)
            if isinstance(layer, (Conv2d, MaxPool2d, FullyConnected)):
                stages.append(out.shape[1:])
        trace_ok = stages == FULL_STAGE_TRACE and len(out) == 1

        fcs = [l for l in net.layers if isinstance(l, FullyConnected)]
        bias_ok = (
            [float(c.biases[0]) for c in convs] == [0.0, 1.0, 0.0, 1.0, 1.0]
            and all((c.biases == c.biases[0]).all() for c in convs)
            and [float(f.biases[0]) for f in fcs] == [1.0, 1.0, 1.0, 0.0]
            and all((f.biases == f.biases[0]).all() for f in fcs))
        del net

        ok = trace_ok and geometry_ok and init_ok and bias_ok
        details = (f"trace {'ok' if trace_ok else 'WRONG'}, kernels "
                   f"{'ok' if geometry_ok else 'WRONG'}, init mean "
                   f"{mean:.2e} std {std:.6f}, biases "
                   f"{'ok' if bias_ok else 'WRONG'}")
    except Exception as exc:
        _report(name, False, f"crashed: {exc!r}")
        raise
    _report(name, ok, details)
    assert ok, details


def test_desk_scale_learning(desk_split, trained):
    name = "desk-scale-learning"
    try:
        net, report, elapsed = trained
        sizes_ok = (len(desk_split.train) == 200
                    and len(desk_split.test) == 80)
        hits = sum(int(net.forward_classify(s.image)[1] == s.label)
                   for s in desk_split.test)
        accuracy = hits / len(desk_split.test)
        l1 = report.epoch_losses[0]
        l10 = report.epoch_losses[9]
        ok = (sizes_ok and accuracy >= 0.95 and l10 < 0.5 * l1
              and elapsed < 600.0)
        details = (f"test acc {accuracy:.4f}, epoch losses "
                   f"{l1:.3f} -> {l10:.3f} (x{l10 / l1:.3f}) -> "
                   f"{report.epoch_losses[-1]:.3f}, {elapsed:.0f}s train")
    except Exception as exc:
        _report(name, False, f"crashed: {exc!r}")
        raise
    _report(name, ok, details)
    assert ok, details


def _brute_force(index, net, image, layer, k, use_filter):
    """Full-scan oracle over the index rows, no vectorized shortcuts."""
    _, predicted, features = net.forward_classify(image)
    q = features[layer]
    scored = []
    for i in range(len(index)):
        if use_filter and int(index.predicted_labels[i]) != predicted:
            continue
        sq = float(np.sum((index.features[layer][i] - q) ** 2))
        scored.append((sq, str(index.source_ids[i]),
                       int(index.true_labels[i])))
    scored.sort(key=lambda t: (t[0], t[1]))
    return [(sid, float(np.sqrt(sq)), lbl)
            for sq, sid, lbl in scored[:k]]


def test_retrieval_oracle_equivalence(desk_split):
    name = "retrieval-oracle-equivalence"
    try:
        started = time.perf_counter()
        samples, _ = generate_synthetic_corpus(4, 125, 64, rng_seed=202)
        spec = build_architecture(input_shape=(1, 64, 64), num_classes=4,
                                  keep_prob=0.5, scale=0.1)
        net = Network.from_spec(spec)
        net.initialize(21, weight_std=DESK_INIT_STD)
        index = build_index(net, samples, [s.image for s in samples])
        assert len(index) == 500

        rng = np.random.default_rng(77)
        probes = [samples[i].image
                  for i in rng.choice(len(samples), size=16, replace=False)]
        probes += [s.image for s in desk_split.test[:8]]

        checked = 0
        mismatches = 0
        for layer in ("fc1", "fc2", "fc3"):
            for k in (1, 5, 20):
                for use_filter in (False, True):
                    for image in probes:
                        got = query(index, net, image, layer, k, use_filter)
                        want = _brute_force(index, net, image, layer, k,
                                            use_filter)
                        same = ([(i.source_id, i.distance, i.true_label)
                                 for i in got.items] == want)
                        mismatches += int(not same)
                        checked += 1
        elapsed = time.perf_counter() - started
        ok = mismatches == 0 and elapsed < 30.0
        details = (f"{checked} queries (500 records, k in 1/5/20, 3 layers, "
                   f"both filter modes) all exact, {elapsed:.1f}s"
                   if ok else
                   f"{mismatches}/{checked} queries diverged, {elapsed:.1f}s")
    except Exception as exc:
        _report(name, False, f"crashed: {exc!r}")
        raise
    _report(name, ok, details)
    assert ok, details


def test_class_filter_effect(desk_split, trained):
    name = "class-filter-effect"
    try:
        net, _, _ = trained
        index = build_index(net, desk_split.train,
                            [s.image for s in desk_split.train])
        db_counts = {}
        for label in index.true_labels.tolist():
            db_counts[label] = db_counts.get(label, 0) + 1

        maps = {}
        for layer in ("fc1", "fc2", "fc3"):
            for use_filter in (False, True):
                triples = []
                for s in desk_split.test:
                    result = query(index, net, s.image, layer, 20, use_filter)
                    ranked = [item.true_label for item in result.items]
                    triples.append((ranked, s.label,
                                    db_counts.get(s.label, 0)))
                maps[layer, use_filter] = mean_ap(
                    conftest.score_lists(triples))
        direction_ok = all(maps[layer, True] >= maps[layer, False]
                           for layer in ("fc1", "fc2", "fc3"))

        self_hits = 0
        probes = 0
        for layer in ("fc1", "fc2", "fc3"):
            for s in desk_split.train:
                result = query(index, net, s.image, layer, 1,
                               use_class_filter=False)
                item = result.items[0]
                probes += 1
                self_hits += int(item.source_id == s.source_id
                                 and item.distance == 0.0)
        self_ok = self_hits == probes

        ok = direction_ok and self_ok
        map_text = ", ".join(
            f"{layer} {maps[layer, True]:.3f}>={maps[layer, False]:.3f}"
            for layer in ("fc1", "fc2", "fc3"))
        details = (f"mAP on>=off per layer: {map_text}; self-retrieval "
                   f"{self_hits}/{probes}")
    except Exception as exc:
        _report(name, False, f"crashed: {exc!r}")
        raise
    _report(name, ok, details)
    assert ok, details


def test_metric_identities():
    name = "metric-identities"
    try:
        # hand-derived 2x2: rows are true classes
        cm = confusion_matrix([0, 0, 1], [0, 1, 1], ("a", "b"))
        rep = classification_report(cm)
        hand_ok = (
            tuple(rep.per_class_precision) == (1.0, 0.5)
            and tuple(rep.per_class_recall) == (0.5, 1.0)
            and rep.average_precision == 0.75
            and rep.average_recall == 0.75
            and abs(rep.f1 - 0.75) < 1e-12
            and abs(rep.accuracy - 2.0 / 3.0) < 1e-15)

        rng = np.random.default_rng(1234)
        f1_worst = 0.0
        for _ in range(300):
            n = int(rng.integers(2, 7))
            counts = rng.integers(0, 12, size=(n, n))
            if counts.sum() == 0:
                counts[0, 0] = 1
            r = classification_report(confusion_matrix(
                *_labels_from_counts(counts), [str(i) for i in range(n)]))
            denom = r.average_precision + r.average_recall
            if denom > 0:
                expect = 2 * r.average_precision * r.average_recall / denom
                f1_worst = max(f1_worst, abs(r.f1 - expect))
        f1_ok = f1_worst < 1e-12

        pr_failures = 0
        for _ in range(1000):
            depth = int(rng.integers(1, 41))
            rel = rng.integers(0, 2, size=depth)
            ranked = rel.tolist()  # query label 1 marks relevant items
            extra = int(rng.integers(0, 5))
            total_relevant = int(rel.sum()) + extra
            if total_relevant == 0:
                total_relevant = 1
            scores = score_rankings([ranked], [depth], [1], [total_relevant])
            hits = 0
            prev_recall = 0.0
            for k in range(1, depth + 1):
                hits += int(ranked[k - 1] == 1)
                recall = scores.recall[0, k - 1]
                precision = scores.precision[0, k - 1]
                if precision != hits / k:
                    pr_failures += 1
                if recall != hits / total_relevant:
                    pr_failures += 1
                if recall < prev_recall:
                    pr_failures += 1
                prev_recall = recall
        pr_ok = pr_failures == 0

        ok = hand_ok and f1_ok and pr_ok
        details = (f"2x2 {'exact' if hand_ok else 'WRONG'}, F1 identity "
                   f"max dev {f1_worst:.1e} over 300 matrices, PR counting "
                   f"identities {'exact' if pr_ok else 'WRONG'} over 1000 "
                   f"patterns")
    except Exception as exc:
        _report(name, False, f"crashed: {exc!r}")
        raise
    _report(name, ok, details)
    assert ok, details


def _labels_from_counts(counts):
    true, predicted = [], []
    n = counts.shape[0]
    for i in range(n):
        for j in range(n):
            true.extend([i] * int(counts[i, j]))
            predicted.extend([j] * int(counts[i, j]))
    return true, predicted


def _determinism_run(tmp_path, tag):
    samples, class_names = generate_synthetic_corpus(3, 12, 64, rng_seed=31)
    spec = build_architecture(input_shape=(1, 64, 64), num_classes=3,
                              keep_prob=0.5, scale=0.05)
    net = Network.from_spec(spec)
    net.initialize(41, weight_std=DESK_INIT_STD)
    train(net, samples, learning_rate=1e-4, max_epochs=3, seed=43,
          log_interval=0)
    ckpt = tmp_path / f"{tag}.ckpt"
    idx = tmp_path / f"{tag}.idx"
    save_checkpoint(ckpt, net, metadata={"class_names": list(class_names)})
    index = build_index(net, samples, [s.image for s in samples])
    save_index(index, idx)
    return net, ckpt.read_bytes(), idx.read_bytes(), ckpt, idx


def test_determinism_and_persistence(tmp_path):
    name = "determinism-persistence"
    try:
        net_a, ckpt_a, idx_a, ckpt_path, idx_path = _determinism_run(
            tmp_path, "a")
        net_b, ckpt_b, idx_b, _, _ = _determinism_run(tmp_path, "b")
        bitwise_ok = ckpt_a == ckpt_b and idx_a == idx_b

        loaded, _ = load_checkpoint(ckpt_path)
        round_trip_ok = loaded.fingerprint() == net_a.fingerprint()
        for va, vb in zip(net_a.parameters(), loaded.parameters()):
            round_trip_ok = round_trip_ok and bool((va == vb).all())

        reloaded = load_index(idx_path,
                              expected_fingerprint=net_a.fingerprint())
        index_rt_ok = len(reloaded) == 36
        fresh_samples, _ = generate_synthetic_corpus(3, 12, 64, rng_seed=31)
        fresh = build_index(net_a, fresh_samples,
                            [s.image for s in fresh_samples])
        for i in range(len(fresh)):
            index_rt_ok = (index_rt_ok
                           and fresh.source_ids[i] == reloaded.source_ids[i])
            for layer in ("fc1", "fc2", "fc3"):
                index_rt_ok = index_rt_ok and bool(
                    (fresh.features[layer][i]
                     == reloaded.features[layer][i]).all())

        other = Network.from_spec(net_a.spec)
        other.initialize(999, weight_std=DESK_INIT_STD)
        try:
            load_index(idx_path, expected_fingerprint=other.fingerprint())
            stale_ok = False
        except StaleIndexError:
            stale_ok = True

        ok = bitwise_ok and round_trip_ok and index_rt_ok and stale_ok
        details = (f"rerun checkpoint+index bytes "
                   f"{'identical' if bitwise_ok else 'DIFFER'}, round-trips "
                   f"{'bit-exact' if round_trip_ok and index_rt_ok else 'WRONG'}, "
                   f"stale fingerprint "
                   f"{'rejected' if stale_ok else 'ACCEPTED'}")
    except Exception as exc:
        _report(name, False, f"crashed: {exc!r}")
        raise
    _report(name, ok, details)
    assert ok, details


def test_dropout_semantics():
    name = "dropout-semantics"
    try:
        rng = np.random.default_rng(5150)
        x = rng.standard_normal(50)

        eval_ok = True
        for p in (0.5, 0.7):
            layer = Dropout(p, rng=np.random.default_rng(3))
            eval_ok = eval_ok and np.array_equal(
                layer.forward(x, train=False), x * p)

        worst_dev = 0.0
        mean_ok = True
        draws = 100_000
        ones = np.ones((1, 50))
        for p in (0.5, 0.7):
            layer = Dropout(p, rng=np.random.default_rng(90))
            acc = np.zeros((1, 50))
            for _ in range(draws):
                acc += layer.forward(ones, train=True)
            per_element = acc / draws
            dev = float(np.max(np.abs(per_element - p)))
            worst_dev = max(worst_dev, dev)
            mean_ok = mean_ok and dev <= 0.02 * p

        ok = eval_ok and mean_ok
        details = (f"eval output == input*p exactly; train per-element mean "
                   f"within {worst_dev:.4f} of p over {draws} masks "
                   f"(limit 2% of p)")
    except Exception as exc:
        _report(name, False, f"crashed: {exc!r}")
        raise
    _report(name, ok, details)
    assert ok, details
