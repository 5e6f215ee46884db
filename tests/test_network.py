"""Architecture geometry, initialization, feature taps, and checkpoints."""

import math
import os
import struct
import sys
import threading
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

import conftest
from cbirnet.errors import (
    ConfigurationError,
    FormatError,
    InputError,
    InternalError,
    TruncatedFileError,
    VersionMismatchError,
)
from cbirnet import network
from cbirnet.cli import EXIT_CONFIG, RunConfig, main
from cbirnet.data import PreprocessedImages, Sample
from cbirnet.layers import Conv2d, Dropout, FullyConnected
from cbirnet.network import (
    CHECKPOINT_MAGIC,
    DropoutSpec,
    FCSpec,
    LogSoftmaxSpec,
    MAX_LANES,
    Network,
    NetworkSpec,
    build_architecture,
    load_checkpoint,
    save_checkpoint,
)
from cbirnet.training import nll_grad, sgd_step

# Hand-computed stage-by-stage shapes for the full-size topology on a
# 1x224x224 input, using out = (in + 2p - k) // s + 1 at every stage.
FULL_TRACE = [
    (1, 224, 224),
    (64, 55, 55),    # conv 11x11 stride 4 pad 2
    (64, 55, 55),    # relu
    (64, 27, 27),    # pool 3 stride 2
    (192, 27, 27),   # conv 5x5 pad 2
    (192, 27, 27),
    (192, 13, 13),   # pool
    (384, 13, 13),   # conv 5x5 pad 2
    (384, 13, 13),
    (256, 13, 13),   # conv 3x3 pad 1
    (256, 13, 13),
    (256, 13, 13),   # conv 3x3 pad 1
    (256, 13, 13),
    (256, 6, 6),     # pool
    (4096,),         # fc
    (4096,),
    (4096,),         # dropout
    (4096,),         # fc
    (4096,),
    (4096,),         # dropout
    (4096,),         # fc
    (4096,),
    (24,),           # class head
    (24,),           # log-softmax
]

DESK = dict(input_shape=(1, 64, 64), num_classes=4, scale=0.1)


def desk_network(seed=0):
    net = Network.from_spec(build_architecture(**DESK))
    net.initialize(seed)
    return net


def refuse_layers(monkeypatch):
    """Make building a Conv2d or FullyConnected in network fail the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("a layer was built")

    for name in ("Conv2d", "FullyConnected"):
        monkeypatch.setattr(network, name, refuse)
    return refuse


class TestBuildArchitecture:
    def test_full_scale_shape_trace(self):
        spec = build_architecture()
        assert spec.shape_trace() == FULL_TRACE

    def test_flattened_conv_output_feeds_first_fc(self):
        net = Network.from_spec(build_architecture())
        first_fc = next(l for l in net.layers
                        if isinstance(l, FullyConnected))
        assert first_fc.in_features == 256 * 6 * 6

    def test_conv_geometry(self):
        net = Network.from_spec(build_architecture())
        convs = [l for l in net.layers if isinstance(l, Conv2d)]
        got = [(c.out_channels, c.kernel_h, c.stride, c.padding)
               for c in convs]
        assert got == [(64, 11, 4, 2), (192, 5, 1, 2), (384, 5, 1, 2),
                       (256, 3, 1, 1), (256, 3, 1, 1)]

    def test_scaled_widths_round_up(self):
        spec = build_architecture(**DESK)
        net = Network.from_spec(spec)
        convs = [l.out_channels for l in net.layers
                 if isinstance(l, Conv2d)]
        assert convs == [7, 20, 39, 26, 26]
        fcs = [l.out_features for l in net.layers
               if isinstance(l, FullyConnected)]
        assert fcs == [410, 410, 410, 4]

    def test_desk_scale_trace_ends_at_unit_spatial(self):
        trace = build_architecture(**DESK).shape_trace()
        assert (26, 1, 1) in trace
        assert trace[-1] == (4,)

    def test_scale_leaves_head_and_kernels_alone(self):
        net = Network.from_spec(build_architecture(num_classes=24, scale=0.05))
        convs = [l for l in net.layers if isinstance(l, Conv2d)]
        assert [c.kernel_h for c in convs] == [11, 5, 5, 3, 3]
        fcs = [l.out_features for l in net.layers
               if isinstance(l, FullyConnected)]
        assert fcs[-1] == 24

    def test_invalid_scale_rejected(self, tmp_path, capsys):
        # The rule lives on RunConfig.scale, which --scale sets.
        for bad in (0.0, -1.0, 1.5, float("nan")):
            with pytest.raises(ConfigurationError,
                               match=r"scale must be in \(0, 1\]"):
                RunConfig(scale=bad)
            assert main(["train", "--out", str(tmp_path / "o"),
                         "--scale", str(bad)]) == EXIT_CONFIG
            assert capsys.readouterr().err == (
                f"configuration error: scale must be in (0, 1], got {bad}\n")
        assert not (tmp_path / "o").exists()

    def test_too_small_input_rejected(self):
        with pytest.raises(ConfigurationError):
            build_architecture(input_shape=(1, 16, 16)).shape_trace()

    def test_shape_trace_builds_no_layer(self, monkeypatch):
        refuse = refuse_layers(monkeypatch)
        monkeypatch.setattr(Network, "from_spec", classmethod(refuse))
        assert build_architecture().shape_trace() == FULL_TRACE
        with pytest.raises(ConfigurationError):
            build_architecture(input_shape=(1, 16, 16)).shape_trace()

    @pytest.mark.parametrize("spec", [build_architecture(**DESK),
                                      build_architecture()],
                             ids=["desk", "full"])
    def test_parameter_shapes_match_network(self, spec):
        net = Network.from_spec(spec)
        assert spec.parameter_shapes() == [v.shape
                                           for v in net.parameters()]

    def test_built_and_loaded_networks_hold_only_parameters(self, tmp_path):
        # A built or loaded network can never step, so it holds no grads:
        # its memory peak is the parameters and little else. Conv grads
        # would add 0.31 MB here, FC grads 2.8 MB.
        spec = build_architecture(**DESK)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, Network.from_spec(spec))
        load_checkpoint(path)  # the first calls import what they need
        for build in (lambda: Network.from_spec(spec),
                      lambda: load_checkpoint(path)[0]):
            tracemalloc.start()
            try:
                net = build()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            params = sum(value.nbytes for value in net.parameters())
            assert peak < params + 64 * 1024, peak - params

    def test_spec_dict_round_trip(self):
        spec = build_architecture(**DESK)
        again = NetworkSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.canonical_json() == spec.canonical_json()


class TestInitialization:
    def test_weight_distribution(self):
        net = desk_network(seed=42)
        all_w = np.concatenate([v.ravel() for v in net.parameters()
                                if v.ndim > 1])
        assert abs(all_w.mean()) < 5e-4
        assert abs(all_w.std() - 0.01) < 5e-4

    def test_bias_constants(self):
        net = desk_network(seed=1)
        convs = [l for l in net.layers if isinstance(l, Conv2d)]
        fcs = [l for l in net.layers if isinstance(l, FullyConnected)]
        assert [c.biases[0] for c in convs] == [0.0, 1.0, 0.0, 1.0, 1.0]
        for c in convs:
            assert (c.biases == c.biases[0]).all()
        assert [f.biases[0] for f in fcs] == [1.0, 1.0, 1.0, 0.0]

    def test_same_seed_same_parameters(self):
        a, b = desk_network(seed=9), desk_network(seed=9)
        for va, vb in zip(a.parameters(), b.parameters()):
            npt.assert_array_equal(va, vb)
        assert a.fingerprint() == b.fingerprint()

    def test_different_seed_different_parameters(self):
        assert desk_network(0).fingerprint() != desk_network(1).fingerprint()

    def test_custom_weight_std(self):
        net = Network.from_spec(build_architecture(**DESK))
        net.initialize(42, weight_std=0.15)
        all_w = np.concatenate([v.ravel() for v in net.parameters()
                                if v.ndim > 1])
        assert abs(all_w.std() - 0.15) < 5e-3
        # bias pattern is independent of the std
        convs = [l for l in net.layers if isinstance(l, Conv2d)]
        assert [c.biases[0] for c in convs] == [0.0, 1.0, 0.0, 1.0, 1.0]

    def test_custom_weight_std_deterministic(self):
        a = Network.from_spec(build_architecture(**DESK))
        b = Network.from_spec(build_architecture(**DESK))
        a.initialize(7, weight_std=0.15)
        b.initialize(7, weight_std=0.15)
        assert a.fingerprint() == b.fingerprint()

    def test_nonpositive_weight_std_rejected(self):
        net = Network.from_spec(build_architecture(**DESK))
        for bad in (0.0, -0.01):
            with pytest.raises(ConfigurationError):
                net.initialize(0, weight_std=bad)


class TestForwardClassify:
    def test_output_contract(self):
        net = desk_network()
        log_probs, predicted, feats = net.forward_classify(
            np.random.default_rng(0).random((1, 64, 64)))
        assert log_probs.shape == (4,)
        npt.assert_allclose(np.exp(log_probs).sum(), 1.0, rtol=1e-12)
        assert predicted == int(np.argmax(log_probs))
        assert sorted(feats) == ["fc1", "fc2", "fc3"]
        assert all(f.shape == (410,) for f in feats.values())
        assert all((f >= 0).all() for f in feats.values())  # post-ReLU

    def test_eval_pass_stores_no_state(self):
        net = desk_network()
        net.forward_classify(np.zeros((1, 64, 64)))
        with pytest.raises(InternalError):
            net.backward(np.zeros(4))

    def test_deterministic_given_parameters(self):
        net = desk_network(seed=5)
        x = np.random.default_rng(2).random((1, 64, 64))
        a, _, fa = net.forward_classify(x)
        b, _, fb = net.forward_classify(x)
        npt.assert_array_equal(a, b)
        npt.assert_array_equal(fa["fc1"], fb["fc1"])

    def test_wrong_input_shape_rejected(self):
        with pytest.raises(ConfigurationError):
            desk_network().forward_classify(np.zeros((1, 32, 32)))

    def test_train_forward_applies_dropout_eval_does_not_draw(self):
        net = desk_network(seed=3)
        net.seed_dropout(0)
        x = np.random.default_rng(4).random((1, 64, 64))
        out_train = net.forward(x, train=True)
        out_eval = net.forward(x, train=False)
        # Train-mode masking makes the two passes differ somewhere.
        assert not np.array_equal(out_train, out_eval)


def probe_images(n, seed=0):
    """Random desk images; every third has a black band, so ReLUs give
    exact zeros and pooling windows hold ties."""
    images = np.random.default_rng(seed).random((n, 1, 64, 64))
    images[::3, :, :32] = 0.0
    return images


class TestClassify:
    def oracle_network(self):
        net = Network.from_spec(build_architecture(**DESK))
        net.initialize(11, weight_std=0.15)
        return net

    def laned_network(self, lanes):
        """The oracle network, classifying on `lanes` lanes."""
        net = self.oracle_network()
        net.lanes = lanes
        return net

    def probe_rasters(self, n):
        """uint8 rasters of two shapes, as PreprocessedImages reads them."""
        rasters = list(np.random.default_rng(n).integers(
            0, 256, (n, 70, 90), dtype=np.uint8))
        rasters[1::4] = [r[:60] for r in rasters[1::4]]
        return rasters

    def test_bit_identical_to_per_image_oracle(self):
        net = self.oracle_network()
        c = net.chunk_size
        assert c > 1
        batches = [list(probe_images(n, seed=n))
                   for n in (0, 1, c - 1, c, c + 1, 2 * c + 3, 5 * c + 2)]
        batches.append(PreprocessedImages(self.probe_rasters(2 * c + 3), 64))
        # Each image alone: a one-element slice of its batch.
        oracles = [[conftest.eval_forward_reference(net, batch[i:i + 1][0])
                    for i in range(len(batch))] for batch in batches]
        # Three lanes is above MAX_LANES, but the scheduler takes any count.
        for lanes in (1, 2, 3):
            net = self.laned_network(lanes)
            for batch, oracle in zip(batches, oracles):
                n = len(batch)
                log_probs, predicted, features = net.classify(batch)
                assert log_probs.shape == (n, 4)
                assert predicted.shape == (n,)
                assert {name: f.shape for name, f in features.items()} == {
                    name: (n, 410) for name in ("fc1", "fc2", "fc3")}
                for i, (want_lp, want_pred, want_feats) in enumerate(oracle):
                    assert log_probs[i].tobytes() == want_lp.tobytes()
                    assert predicted[i] == want_pred
                    for name, vec in want_feats.items():
                        assert features[name][i].tobytes() == vec.tobytes()

    def test_features_false_returns_no_taps(self):
        net = self.oracle_network()
        images = probe_images(net.chunk_size + 2)
        full = net.classify(images)
        log_probs, predicted, features = net.classify(images, features=False)
        assert features == {}
        assert log_probs.tobytes() == full[0].tobytes()
        npt.assert_array_equal(predicted, full[1])

    def test_oracle_probe_is_not_degenerate(self):
        # Bit equality means little if every tap were zero or constant.
        net = self.oracle_network()
        _, _, features = net.classify(list(probe_images(8)))
        for f in features.values():
            assert (f == 0.0).any() and (f > 0.0).any()
            assert len(np.unique(f)) > 100

    def test_array_batch_matches_list(self):
        net = self.oracle_network()
        images = probe_images(2 * net.chunk_size + 3)
        a = net.classify(images)
        b = net.classify(list(images))
        assert a[0].tobytes() == b[0].tobytes()
        npt.assert_array_equal(a[1], b[1])
        for name in a[2]:
            assert a[2][name].tobytes() == b[2][name].tobytes()

    def test_forward_classify_is_one_image_case(self):
        net = self.oracle_network()
        images = probe_images(3)
        log_probs, predicted, features = net.classify(images)
        for i, x in enumerate(images):
            lp, pred, feats = net.forward_classify(x)
            assert lp.tobytes() == log_probs[i].tobytes()
            assert pred == predicted[i]
            for name, vec in feats.items():
                assert vec.tobytes() == features[name][i].tobytes()

    def test_eval_forward_matches_classify(self):
        net = self.oracle_network()
        x = probe_images(1)[0]
        assert net.forward(x).tobytes() == net.classify([x])[0][0].tobytes()

    def test_wrong_shaped_image_anywhere_rejected(self):
        net = self.oracle_network()
        c = net.chunk_size
        for position in (0, c - 1, c, 2 * c + 2):
            images = list(probe_images(2 * c + 3))
            images[position] = np.zeros((1, 32, 32))
            with pytest.raises(ConfigurationError):
                net.classify(images)

    @pytest.mark.parametrize("lanes", [2, 3])
    def test_lowest_failing_chunk_raises_whatever_its_lane(self, lanes):
        # Lane k runs chunks k, k + lanes, ...; wrong images in chunks on
        # different lanes: the lower chunk on a helper lane, then on the
        # calling one, then every chunk from the third on, with threads
        # switching every microsecond. The lowest failure wins each time.
        serial = self.laned_network(1)
        net = self.laned_network(lanes)
        c = net.chunk_size
        cases = [(1, lanes), (lanes, lanes + 1), (2, 3, 4, 5)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for failing in cases * 5:
                images = list(probe_images(6 * c + 2))
                for j in failing:
                    images[j * c + 2 + j % 2] = np.zeros((1, 32, 32 + j))
                with pytest.raises(ConfigurationError) as want:
                    serial.classify(images)
                threads = threading.active_count()
                with pytest.raises(ConfigurationError) as got:
                    net.classify(images)
                assert threading.active_count() == threads
                assert str(got.value) == str(want.value)
                low = failing[0]
                assert str(got.value).startswith(
                    f"image {low * c + 2 + low % 2} shape ")
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("lanes", [2, 3])
    def test_unpreprocessable_raster_in_a_late_chunk(self, lanes):
        c = self.oracle_network().chunk_size
        rasters = self.probe_rasters(5 * c + 2)
        rasters[4 * c + 1] = rasters[4 * c + 1][:1]  # 1 row: too thin
        rasters[5 * c] = rasters[5 * c][:, :1]  # a later chunk, 1 column
        messages = []
        for count in (1, lanes):
            net = self.laned_network(count)
            threads = threading.active_count()
            with pytest.raises(InputError) as err:
                net.classify(PreprocessedImages(rasters, 64))
            assert threading.active_count() == threads
            messages.append(str(err.value))
        assert messages[1] == messages[0]
        assert "got shape (1, 90)" in messages[0]

    def test_one_chunk_starts_no_thread(self, monkeypatch):
        # Every query classifies one image, so it stays on its own thread.
        net = self.laned_network(2)
        images = probe_images(net.chunk_size + 1)

        def refuse(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading, "Thread", refuse)
        net.forward_classify(images[0])
        net.classify(images[:-1])
        threads = threading.active_count()
        with pytest.raises(AssertionError, match="a thread was started"):
            net.classify(images)
        assert threading.active_count() == threads

    def test_train_forward_rejects_batches(self):
        # Every layer type refuses a train-mode batch of more than one.
        net = self.oracle_network()
        out = probe_images(2)
        kinds = set()
        for layer in net.layers:
            with pytest.raises(InternalError):
                layer.forward(out, train=True)
            kinds.add(type(layer).__name__)
            out = layer.forward(out)
        assert kinds == {"Conv2d", "MaxPool2d", "ReLU", "FullyConnected",
                         "Dropout", "LogSoftmax"}

    def test_every_layer_output_has_its_traced_shape(self):
        # Kernels trust the spec's shape trace; this holds each of the 23
        # layers to it, in a train forward and in a batched classify.
        net = self.oracle_network()
        outputs = [(1, *shape) for shape in net.spec.shape_trace()[1:]]
        assert len(outputs) == len(net.layers) == 23
        seen = []
        for layer in net.layers:
            def record(x, train=False, forward=layer.forward):
                out = forward(x, train=train)
                seen.append(out.shape)
                return out
            layer.forward = record
        net.forward(probe_images(1)[0], train=True)
        assert seen == outputs
        seen.clear()
        net.classify(probe_images(2))
        assert seen == [(2, *shape[1:]) for shape in outputs]

    def test_chunk_budget_scales_with_input(self):
        # conv1 patches: 121 x 225 doubles at 64 px, 121 x 3025 at 224 px.
        assert self.oracle_network().chunk_size == 9
        full_size = Network.from_spec(build_architecture(scale=0.1))
        assert full_size.chunk_size == 1
        assert full_size.lanes == 1  # its GEMMs are BLAS-threaded already

    def test_lanes_follow_usable_cores_up_to_the_cap(self, monkeypatch):
        # Each lane holds one more chunk, so the count stops at MAX_LANES
        # however many cores there are; a one-image chunk keeps one lane.
        full_spec = build_architecture(scale=0.1)
        for cores in range(1, MAX_LANES + 3):
            monkeypatch.setattr(network, "_usable_cores", lambda: cores)
            assert self.oracle_network().lanes == min(cores, MAX_LANES)
            assert Network.from_spec(full_spec).lanes == 1


class TestFingerprint:
    def test_sensitive_to_any_weight(self):
        net = desk_network(seed=7)
        before = net.fingerprint()
        fc = next(l for l in net.layers if isinstance(l, FullyConnected))
        fc.weights[0, 0] += 1e-9
        assert net.fingerprint() != before

    def test_sensitive_to_spec(self):
        a = Network.from_spec(build_architecture(**DESK))
        b = Network.from_spec(build_architecture(
            input_shape=(1, 64, 64), num_classes=4, scale=0.1,
            keep_prob=0.6))
        assert a.fingerprint() != b.fingerprint()


class TestFrozen:
    def loaded(self, tmp_path):
        net = desk_network(seed=21)
        save_checkpoint(tmp_path / "model.ckpt", net)
        return net, load_checkpoint(tmp_path / "model.ckpt")[0]

    def test_loaded_parameters_are_read_only(self, tmp_path):
        _, loaded = self.loaded(tmp_path)
        assert not any(value.flags.writeable
                       for value in loaded.parameters())
        fc = next(l for l in loaded.layers if isinstance(l, FullyConnected))
        with pytest.raises(ValueError, match="read-only"):
            fc.weights[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            fc.biases += 1.0

    def test_initialize_and_sgd_step_raise(self, tmp_path):
        _, loaded = self.loaded(tmp_path)
        with pytest.raises(ValueError, match="read-only"):
            loaded.initialize(0)
        sample = Sample(image=np.random.default_rng(0).random((1, 64, 64)),
                        label=1, source_id="x")
        loaded.seed_dropout(0)
        with pytest.raises(ValueError, match="read-only"):
            sgd_step(loaded, sample, 0.01)

    def test_writable_parameter_is_hashed_again(self, tmp_path):
        _, loaded = self.loaded(tmp_path)
        before = loaded.fingerprint()
        fc = next(l for l in loaded.layers if isinstance(l, FullyConnected))
        fc.weights = fc.weights.copy()  # how a frozen network is edited
        old = fc.weights[0, 0]
        fc.weights[0, 0] += 1e-9
        changed = loaded.fingerprint()
        assert changed != before
        fc.weights[0, 0] = old
        assert loaded.fingerprint() == before
        fc.weights[0, 0] += 1e-9
        assert loaded.freeze().fingerprint() == changed

    def test_hand_toggled_writeable_flag_leaves_no_stale_digest(self,
                                                              tmp_path):
        net, loaded = self.loaded(tmp_path)
        before = loaded.fingerprint()
        conv = next(l for l in loaded.layers if isinstance(l, Conv2d))
        w = conv.weights
        with pytest.raises(ValueError):
            w.flags.writeable = True
            w[0, 0, 0, 0] += 1
            w.flags.writeable = False
        assert loaded.fingerprint() == before == net.fingerprint()
        # The same edit made on a copy, then set read-only by hand.
        conv.weights = w.copy()
        conv.weights[0, 0, 0, 0] += 1
        conv.weights.flags.writeable = False
        edited = next(l for l in net.layers if isinstance(l, Conv2d))
        edited.weights[0, 0, 0, 0] += 1
        assert loaded.fingerprint() == net.fingerprint() != before
        assert loaded.freeze().fingerprint() == net.fingerprint()

    @pytest.mark.parametrize("trained", [False, True])
    def test_eval_passes_write_no_layer_state(self, trained):
        # No index table is built and no winner or cache is stored, so a
        # frozen network stays safe to share.
        net = desk_network(seed=2)
        if trained:
            net.seed_dropout(0)
            sample = Sample(image=probe_images(1)[0], label=1, source_id="x")
            sgd_step(net, sample, 0.01)
        net.freeze()
        before = [dict(vars(layer)) for layer in net.layers]
        copies = [{k: v.copy() for k, v in state.items()
                   if isinstance(v, np.ndarray)} for state in before]
        images = probe_images(3, seed=4)
        net.classify(images)
        net.forward(images[0], train=False)
        net.forward_classify(images[1])
        for layer, state, arrays in zip(net.layers, before, copies):
            assert vars(layer).keys() == state.keys()
            assert all(vars(layer)[k] is v for k, v in state.items())
            assert all(state[k].tobytes() == v.tobytes()
                       for k, v in arrays.items())

    def test_in_memory_network_is_not_frozen(self):
        net = desk_network()
        assert all(value.flags.writeable for value in net.parameters())


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        net = desk_network(seed=21)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, net, metadata={"classes": ["a", "b", "c", "d"]})
        loaded, meta = load_checkpoint(path)
        assert meta == {"classes": ["a", "b", "c", "d"]}
        for va, vb in zip(net.parameters(), loaded.parameters()):
            npt.assert_array_equal(va, vb)
        assert loaded.fingerprint() == net.fingerprint()
        assert loaded.fingerprint() == net.fingerprint()  # the cached digest

    def test_save_is_deterministic(self, tmp_path):
        net = desk_network(seed=21)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, net, metadata={"k": 1})
        save_checkpoint(p2, net, metadata={"k": 1})
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_unsupported_version_rejected(self, tmp_path):
        net = desk_network()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, net)
        raw = bytearray(path.read_bytes())
        raw[8:12] = struct.pack("<I", 999)
        path.write_bytes(bytes(raw))
        with pytest.raises(VersionMismatchError):
            load_checkpoint(path)

    def test_version_checked_before_header(self, tmp_path):
        # The file ends after its version field: no header is read.
        path = tmp_path / "model.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", 2))
        with pytest.raises(VersionMismatchError, match=(
                r"^checkpoint format version 2 is not supported "
                r"\(this build reads version 1\)$")):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        net = desk_network()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, net)
        whole = path.read_bytes()
        path.write_bytes(whole[:len(whole) - 100])
        with pytest.raises(TruncatedFileError):
            load_checkpoint(path)

    def test_tensor_cut_short_names_its_payload_byte(self, tmp_path,
                                                     monkeypatch):
        # The file loses its tail after load_checkpoint checked its size,
        # so the read of the last tensor, the head's 4 biases, comes up
        # 8 bytes short.
        net = desk_network()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, net)
        payload = sum(1 + 4 * value.ndim + value.nbytes
                      for value in net.parameters())
        check = network.check_payload_size

        def check_then_shrink(f, size, what):
            check(f, size, what)
            os.truncate(path, path.stat().st_size - 8)

        monkeypatch.setattr(network, "check_payload_size", check_then_shrink)
        with pytest.raises(TruncatedFileError, match=(
                rf"^file ends inside the tensor at payload byte "
                rf"{payload - 37}: wanted 32 bytes, got 24$")):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        net = desk_network()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, net)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError) as raised:
            load_checkpoint(path)
        assert raised.type is FormatError

    def test_non_object_header_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, desk_network())
        conftest.rewrite_container_header(path, lambda h: [h])
        with pytest.raises(FormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        lambda h: conftest.with_layer_field(h, "conv", "stride", None),
        lambda h: conftest.with_layer_field(h, "conv", "stride", "2"),
        lambda h: conftest.with_layer_field(h, "conv", "stride", 2.0),
        lambda h: conftest.with_layer_field(h, "conv", "stride", True),
        lambda h: conftest.with_layer_field(h, "conv", "stride", 0),
        lambda h: conftest.with_layer_field(h, "conv", "out_channels", "x"),
        lambda h: conftest.with_layer_field(h, "conv", "out_channels", [7]),
        lambda h: conftest.with_layer_field(h, "conv", "bias_init", None),
        lambda h: conftest.with_layer_field(h, "conv", "no_such_field", 1),
        lambda h: conftest.with_layer_field(h, "conv", "type", ["conv"]),
        lambda h: dict(h, spec=dict(h["spec"], layers=[[1]])),
        lambda h: dict(h, spec=dict(h["spec"], input_shape=None)),
        lambda h: dict(h, spec=[]),
        lambda h: dict(h, spec=dict(h["spec"], layers=["relu"])),
        lambda h: dict(h, spec=dict(h["spec"], input_shape=[1, math.inf, 64])),
        lambda h: conftest.with_layer_field(h, "conv", "out_channels", 0),
        lambda h: conftest.with_layer_field(h, "conv", "kernel_h", 99),
        lambda h: conftest.with_layer_field(h, "conv", "padding", -1),
        lambda h: conftest.with_layer_field(h, "maxpool", "stride", 0),
        # conv1 leaves the first pool a 15x15 input.
        lambda h: conftest.with_layer_field(h, "maxpool", "window", 16),
        lambda h: conftest.with_layer_field(h, "fc", "out_features", 0),
        # The desk head gives 4 logits.
        lambda h: conftest.with_layer_field(h, "logsoftmax", "num_classes", 5),
        # JSON integers only, by exact type: true is not an int.
        lambda h: dict(h, spec=dict(h["spec"], input_shape=[1, "64", 64])),
        lambda h: dict(h, spec=dict(h["spec"], input_shape=[True, 64, 64.9])),
        lambda h: dict(h, spec=dict(h["spec"], input_shape=[1.0, 64, 64])),
        lambda h: dict(h, spec=dict(h["spec"], input_shape=[1, 64])),
        lambda h: conftest.with_layer_field(h, "dropout", "keep_prob", 7),
        lambda h: conftest.with_layer_field(h, "logsoftmax", "num_classes", 1),
    ], ids=["null-stride", "string-stride", "float-stride", "boolean-stride",
            "zero-stride", "string-out-channels", "list-out-channels",
            "null-bias", "unknown-field", "list-type", "list-layer",
            "null-input-shape", "list-spec", "string-layer",
            "infinite-input-shape", "zero-out-channels", "kernel-too-big",
            "negative-padding", "zero-pool-stride", "pool-window-too-big",
            "zero-out-features", "class-count-mismatch",
            "string-input-shape", "boolean-input-shape", "float-input-shape",
            "two-entry-input-shape", "keep-prob-above-one", "one-class-head"])
    def test_malformed_spec_rejected(self, tmp_path, edit):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, desk_network())
        conftest.rewrite_container_header(path, edit)
        with pytest.raises(FormatError, match="checkpoint spec is invalid"):
            load_checkpoint(path)

    @pytest.mark.parametrize("out_channels, error", [
        (2 ** 40, TruncatedFileError), (6, FormatError)])
    def test_payload_size_checked_before_allocation(
            self, tmp_path, monkeypatch, out_channels, error):
        # The file holds a 7-channel conv1: a wider spec asks for more
        # bytes than it has, a narrower one leaves bytes over.
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, desk_network())
        conftest.rewrite_container_header(
            path, lambda h: conftest.with_layer_field(
                h, "conv", "out_channels", out_channels))
        refuse_layers(monkeypatch)
        with pytest.raises(error, match="tensor payload") as raised:
            load_checkpoint(path)
        assert raised.type is error  # not a FormatError subclass

    def test_integer_valued_float_fields_accepted(self, tmp_path):
        net = desk_network(seed=3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, net)
        conftest.rewrite_container_header(
            path,
            lambda h: conftest.with_layer_field(h, "conv", "bias_init", 0))
        loaded, _ = load_checkpoint(path)
        for va, vb in zip(net.parameters(), loaded.parameters()):
            npt.assert_array_equal(va, vb)

    def test_failed_save_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, desk_network(seed=1))
        before = path.read_bytes()
        written = []

        def crash_on_third(shape):
            if len(written) == 2:
                raise OSError("disk gone")
            written.append(shape)
            return tensor_head(shape)

        tensor_head = network._tensor_head
        monkeypatch.setattr(network, "_tensor_head", crash_on_third)
        with pytest.raises(OSError, match="disk gone"):
            save_checkpoint(path, desk_network(seed=2))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    def test_save_holds_no_copy_of_a_tensor(self, tmp_path):
        # Each tensor goes to the file as it is: the traced peak of a
        # save stays below half the largest tensor (fc2 here, 5.4 MB).
        net = Network.from_spec(build_architecture(
            input_shape=(1, 64, 64), num_classes=4, scale=0.2))
        largest = max(value.nbytes for value in net.parameters())
        tracemalloc.start()
        try:
            save_checkpoint(tmp_path / "model.ckpt", net)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < largest / 2

    def test_save_replaces_existing_file(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, desk_network(seed=1))
        save_checkpoint(path, desk_network(seed=2))
        fresh = tmp_path / "fresh.ckpt"
        save_checkpoint(fresh, desk_network(seed=2))
        assert path.read_bytes() == fresh.read_bytes()

    def test_magic_is_eight_bytes(self):
        assert len(CHECKPOINT_MAGIC) == 8


class TestLayerSpecRules:
    """A layer spec checks its fields when it is made, in code or read."""

    @pytest.mark.parametrize("make, message", [
        (lambda: DropoutSpec(keep_prob=1.5),
         "keep_prob must be in (0, 1], got 1.5"),
        (lambda: DropoutSpec(keep_prob=math.nan),
         "keep_prob must be in (0, 1], got nan"),
        (lambda: LogSoftmaxSpec(num_classes=1),
         "num_classes must be >= 2, got 1"),
        (lambda: FCSpec(out_features="7"),
         "layer 'fc' field 'out_features' must be int, got '7'"),
    ], ids=["keep-prob-above-one", "keep-prob-nan", "one-class-head",
            "string-out-features"])
    def test_bad_field_refused_on_construction(self, make, message):
        with pytest.raises(ConfigurationError) as raised:
            make()
        assert str(raised.value) == message

    def test_build_architecture_leaves_num_classes_to_the_spec(self):
        with pytest.raises(ConfigurationError,
                           match="num_classes must be >= 2, got 1"):
            build_architecture(num_classes=1)


class TestDropoutSeeding:
    def test_seed_dropout_shares_one_stream(self):
        net = desk_network()
        net.seed_dropout(99)
        drops = [l for l in net.layers if isinstance(l, Dropout)]
        assert len(drops) == 2
        assert drops[0].rng is drops[1].rng


def fc_first_network():
    """The hand-traced step's topology, an FC head on the raw input."""
    net = Network.from_spec(NetworkSpec(
        input_shape=(1, 3, 3),
        layers=(FCSpec(2), LogSoftmaxSpec(num_classes=2))))
    net.initialize(0)
    return net


FIRST_LAYERS = {"conv": desk_network, "fc": fc_first_network}


class TestBackwardGrads:
    @pytest.fixture(params=sorted(FIRST_LAYERS))
    def twins(self, request):
        """Two networks with equal parameters and equal dropout streams."""
        nets = [FIRST_LAYERS[request.param]() for _ in range(2)]
        for net in nets:
            net.seed_dropout(0)
        return nets

    @staticmethod
    def backward_pass(net, x, input_grad=True):
        log_probs = net.forward(x, train=True)
        return net.backward(nll_grad(log_probs, 1), input_grad=input_grad)

    @staticmethod
    def images(net, n):
        return np.random.default_rng(1).random((n, *net.spec.input_shape))

    def test_each_backward_replaces_the_grads(self, twins):
        # With one sample per step, nothing adds up across backwards: a
        # conv layer's grads and an FC layer's factors are the last pass's
        # alone. The twin runs the first pass's forward only, so both draw
        # the same dropout masks, and its grads come from the second pass.
        later, alone = twins
        first, last = self.images(alone, 2)
        alone.forward(first, train=True)
        self.backward_pass(alone, last)
        expect = [grad.copy() for _, grad in conftest.parameter_grads(alone)]
        self.backward_pass(later, first)
        for _, grad in conftest.parameter_grads(later):
            grad.fill(np.nan)  # the next backward must not read them
        self.backward_pass(later, last)
        for e, (_, grad) in zip(expect, conftest.parameter_grads(later)):
            npt.assert_array_equal(grad, e)
        assert any(e.any() for e in expect)

    def test_no_input_grad_keeps_parameter_grads(self, twins):
        skipped, full = twins
        [x] = self.images(full, 1)
        assert self.backward_pass(skipped, x, input_grad=False) is None
        assert self.backward_pass(full, x).shape == full.spec.input_shape
        for (_, a), (_, b) in zip(conftest.parameter_grads(skipped),
                                  conftest.parameter_grads(full)):
            npt.assert_array_equal(a, b)
