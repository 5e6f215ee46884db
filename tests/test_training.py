"""Loss, SGD stepping and full training runs."""

from collections import Counter

import numpy as np
import numpy.testing as npt
import pytest

from cbirnet import training
from cbirnet.cli import RunConfig
from cbirnet.data import Sample, generate_synthetic_corpus
from cbirnet.errors import ConfigurationError, InputError, TrainingDiverged
from cbirnet.network import (
    Conv2d,
    ConvSpec,
    FCSpec,
    FullyConnected,
    LogSoftmaxSpec,
    MaxPoolSpec,
    Network,
    NetworkSpec,
    ReLUSpec,
    build_architecture,
)
from cbirnet.training import nll_grad, nll_loss, sgd_step, train

from conftest import parameter_grads, sgd_step_reference


def tiny_spec(num_classes=3, size=16):
    """A small but complete topology: conv, pool, two FCs, log-softmax."""
    return NetworkSpec(
        input_shape=(1, size, size),
        layers=(
            ConvSpec(4, 3, 3, stride=2, padding=1, bias_init=0.0),
            ReLUSpec(),
            MaxPoolSpec(window=2, stride=2),
            FCSpec(16, bias_init=1.0),
            ReLUSpec(),
            FCSpec(num_classes, bias_init=0.0),
            LogSoftmaxSpec(num_classes=num_classes),
        ))


def tiny_corpus(num_classes=3, per_class=10, size=16, seed=0):
    samples, names = generate_synthetic_corpus(num_classes, per_class, size,
                                               rng_seed=seed)
    return samples, names


class TestNllLoss:
    def test_uniform_over_24_classes(self):
        log_probs = np.full(24, -np.log(24.0))
        assert nll_loss(log_probs, 5) == pytest.approx(np.log(24.0))

    def test_certain_prediction_zero_loss(self):
        log_probs = np.full(4, -np.inf)
        log_probs[2] = 0.0
        assert nll_loss(log_probs, 2) == 0.0

    def test_gradient_minus_one_at_label(self):
        g = nll_grad(np.zeros(5), 3)
        npt.assert_array_equal(g, [0, 0, 0, -1, 0])

    def test_label_out_of_range_rejected(self):
        with pytest.raises(InputError):
            nll_loss(np.zeros(4), 4)
        with pytest.raises(InputError):
            nll_grad(np.zeros(4), -1)


class TestRunConfigTrainingSettings:
    """RunConfig holds and checks the settings train is passed."""

    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.learning_rate == 1e-4
        assert cfg.max_epochs == 30
        assert (cfg.train_seed, cfg.log_interval) == (0, 0)

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigurationError,
                           match="learning_rate must be >= 0, got -0.0001"):
            RunConfig(learning_rate=-1e-4)
        with pytest.raises(ConfigurationError,
                           match="max_epochs must be >= 1, got 0"):
            RunConfig(max_epochs=0)
        with pytest.raises(ConfigurationError,
                           match="log_interval must be >= 0, got -1"):
            RunConfig(log_interval=-1)
        RunConfig(learning_rate=0.0, max_epochs=1, log_interval=0)


class TestSgdStep:
    def make_sample(self, size=16, label=0, seed=0):
        img = np.random.default_rng(seed).random((1, size, size))
        return Sample(image=img, label=label, source_id="x")

    def test_zero_rate_leaves_parameters_bit_identical(self):
        net = Network.from_spec(tiny_spec())
        net.initialize(0)
        net.seed_dropout(0)
        before = [v.copy() for v in net.parameters()]
        sgd_step(net, self.make_sample(), 0.0)
        for old, new in zip(before, net.parameters()):
            npt.assert_array_equal(old, new)

    def test_hand_traced_linear_step(self):
        # One pixel into a 2-class head: z_i = w_i * x + b_i. With x = 1,
        # w = (0.3, -0.2), b = 0, label 0, softmax p_i = e^{z_i}/sum, the
        # update is w_i -= lr * (p_i - [i == 0]) * x.
        spec = NetworkSpec(input_shape=(1, 1, 1),
                           layers=(FCSpec(2), LogSoftmaxSpec(num_classes=2)))
        net = Network.from_spec(spec)
        fc = net.layers[0]
        fc.weights[:] = [[0.3], [-0.2]]
        fc.biases[:] = 0.0
        z = np.array([0.3, -0.2])
        p = np.exp(z) / np.exp(z).sum()
        lr = 0.1
        expect_w = np.array([[0.3 - lr * (p[0] - 1.0)],
                             [-0.2 - lr * p[1]]])
        expect_b = np.array([-lr * (p[0] - 1.0), -lr * p[1]])
        sample = Sample(image=np.ones((1, 1, 1)), label=0, source_id="x")
        loss = sgd_step(net, sample, lr)
        assert loss == pytest.approx(-np.log(p[0]))
        npt.assert_allclose(fc.weights, expect_w, rtol=1e-12)
        npt.assert_allclose(fc.biases, expect_b, rtol=1e-12)

    def test_two_steps_descend_on_fixed_sample(self):
        net = Network.from_spec(tiny_spec())
        net.initialize(1)
        net.seed_dropout(1)
        sample = self.make_sample(seed=3, label=1)
        first = sgd_step(net, sample, 1e-4)
        second = sgd_step(net, sample, 1e-4)
        assert second < first

    def test_nonfinite_loss_aborts(self):
        net = Network.from_spec(tiny_spec())
        net.initialize(0)
        net.seed_dropout(0)
        fc = [l for l in net.layers if isinstance(l, FullyConnected)][0]
        fc.weights[0, 0] = np.inf
        with np.errstate(invalid="ignore"):
            with pytest.raises(TrainingDiverged):
                sgd_step(net, self.make_sample(), 1e-4)

    @staticmethod
    def poison_head_upstream(net):
        head = [l for l in net.layers if isinstance(l, FullyConnected)][-1]
        head._g[0] = np.inf

    @staticmethod
    def poison_fc1_input(net):
        fc1 = [l for l in net.layers if isinstance(l, FullyConnected)][0]
        fc1._x[0] = np.nan

    @staticmethod
    def overflow_head_factors(net):
        # Each factor stays finite; only their product overflows.
        head = [l for l in net.layers if isinstance(l, FullyConnected)][-1]
        head._g[0] = 1e200
        head._x[0] = 1e200
        assert np.isfinite(head._g).all() and np.isfinite(head._x).all()

    @staticmethod
    def poison_conv_grad(net):
        conv = [l for l in net.layers if isinstance(l, Conv2d)][0]
        conv.weight_grads[0, 0, 0, 0] = np.inf

    @pytest.mark.parametrize("poison", [
        "poison_head_upstream", "poison_fc1_input", "overflow_head_factors",
        "poison_conv_grad"])
    def test_nonfinite_gradient_aborts(self, poison):
        # The loss stays finite; the poison lands after the backward, in
        # what the step reads: an FC's kept factors or a conv's grads.
        # Every layer is checked before the conv and fc1 parameters, which
        # come first, are updated, so no parameter moves.
        net = Network.from_spec(tiny_spec())
        net.initialize(0)
        backward = net.backward

        def poisoned(*args, **kwargs):
            out = backward(*args, **kwargs)
            getattr(self, poison)(net)
            return out

        net.backward = poisoned
        before = [value.tobytes() for value in net.parameters()]
        with pytest.raises(TrainingDiverged, match="gradient"):
            sgd_step(net, self.make_sample(), 1e-4)
        assert [value.tobytes() for value in net.parameters()] == before

    def test_bit_identical_to_reference_steps(self):
        # The desk network with dropout on, 40 steps from equal seeds.
        samples, _ = tiny_corpus(num_classes=4, size=64, seed=5)
        spec = build_architecture(input_shape=(1, 64, 64), num_classes=4,
                                  keep_prob=0.5, scale=0.1)
        fast, slow = (Network.from_spec(spec) for _ in range(2))
        for net in (fast, slow):
            net.initialize(11, weight_std=0.15)
            net.seed_dropout(13)
        start = [v.copy() for v in fast.parameters()]
        lr = 1e-3
        for sample in samples:
            assert (sgd_step(fast, sample, lr)
                    == sgd_step_reference(slow, sample, lr))
        for a, b, old in zip(fast.parameters(), slow.parameters(), start):
            npt.assert_array_equal(a, b)
            assert not np.array_equal(a, old)

    def test_initialize_leaves_grads_to_the_step(self):
        spec = build_architecture(input_shape=(1, 64, 64), num_classes=4,
                                  keep_prob=0.5, scale=0.1)
        fast, slow = (Network.from_spec(spec) for _ in range(2))
        for net in (fast, slow):
            net.initialize(11, weight_std=0.15)
            net.seed_dropout(13)
            assert all(layer.weight_grads is None
                       and layer.bias_grads is None
                       for layer in net.layers if isinstance(layer, Conv2d))
        sample = self.make_sample(size=64, label=2)
        lr = 1e-3
        assert (sgd_step(fast, sample, lr)
                == sgd_step_reference(slow, sample, lr))
        for a, b in zip(fast.parameters(), slow.parameters()):
            npt.assert_array_equal(a, b)

    def test_plain_backward_feeds_the_step(self):
        # Network.backward has one path: a plain call, then every layer's
        # check and update, is the reference step (desk net, dropout on).
        samples, _ = tiny_corpus(num_classes=4, size=64, seed=5)
        spec = build_architecture(input_shape=(1, 64, 64), num_classes=4,
                                  keep_prob=0.5, scale=0.1)
        fast, slow = (Network.from_spec(spec) for _ in range(2))
        for net in (fast, slow):
            net.initialize(11, weight_std=0.15)
            net.seed_dropout(13)
        lr = 1e-3
        for sample in samples[::5]:
            log_probs = fast.forward(sample.image, train=True)
            fast.backward(nll_grad(log_probs, sample.label))
            assert all(layer.step_finite() for layer in fast.layers)
            for layer in fast.layers:
                layer.step(lr)
            assert (nll_loss(log_probs, sample.label)
                    == sgd_step_reference(slow, sample, lr))
        for a, b in zip(fast.parameters(), slow.parameters()):
            assert a.tobytes() == b.tobytes()

    def test_each_traced_call_runs_once_per_step(self):
        # perfbench/tracing.py times a step's parts off these calls, each
        # wrapped per instance; a part that never runs reads NaN there.
        net = Network.from_spec(build_architecture(
            input_shape=(1, 64, 64), num_classes=4, scale=0.1))
        net.initialize(0)
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name, kwargs.get("train")] += 1
                return fn(*args, **kwargs)
            return wrapper

        for method in ("zero_grads", "forward", "backward"):
            setattr(net, method, counted(method, getattr(net, method)))
        for i, layer in enumerate(net.layers):
            layer.backward = counted(i, layer.backward)
        sample = Sample(image=np.random.default_rng(0).random((1, 64, 64)),
                        label=2, source_id="x")
        sgd_step(net, sample, 1e-4)
        expect = {("zero_grads", None): 1, ("forward", True): 1,
                  ("backward", None): 1}
        expect.update({(i, None): 1 for i in range(len(net.layers))})
        assert calls == expect


class TestTrain:
    def run_tiny(self, epochs=3, seed=0, lr=0.05, per_class=10):
        samples, _ = tiny_corpus(per_class=per_class)
        net = Network.from_spec(tiny_spec())
        net.initialize(0)
        return net, train(net, samples, learning_rate=lr, max_epochs=epochs,
                          seed=seed, log_interval=0)

    def test_report_shape_and_finiteness(self):
        _, report = self.run_tiny(epochs=3)
        assert len(report.epoch_losses) == 3
        assert all(np.isfinite(l) and l >= 0 for l in report.epoch_losses)
        assert 0.0 <= report.final_train_error <= 1.0

    def test_loss_decreases(self):
        _, report = self.run_tiny(epochs=5)
        assert report.epoch_losses[-1] < report.epoch_losses[0]

    def count_steps(self, monkeypatch, **kwargs):
        """Source ids of the samples train steps on, in order."""
        stepped = []
        step = training.sgd_step

        def counted(net, sample, learning_rate):
            stepped.append(sample.source_id)
            return step(net, sample, learning_rate)

        monkeypatch.setattr(training, "sgd_step", counted)
        self.run_tiny(**kwargs)
        return stepped

    def test_update_count(self, monkeypatch):
        stepped = self.count_steps(monkeypatch, epochs=2, per_class=11)
        assert len(stepped) == 2 * 33
        assert Counter(stepped) == Counter(
            {s.source_id: 2 for s in tiny_corpus(per_class=11)[0]})

    def test_single_epoch_one_update_per_sample(self, monkeypatch):
        stepped = self.count_steps(monkeypatch, epochs=1)
        assert sorted(stepped) == sorted(
            s.source_id for s in tiny_corpus()[0])

    def test_same_seed_identical_reports_and_parameters(self):
        net_a, rep_a = self.run_tiny(epochs=2, seed=7)
        net_b, rep_b = self.run_tiny(epochs=2, seed=7)
        assert rep_a == rep_b  # wall-clock excluded from equality
        for va, vb in zip(net_a.parameters(), net_b.parameters()):
            npt.assert_array_equal(va, vb)

    def test_different_seed_different_trajectory(self):
        _, rep_a = self.run_tiny(epochs=2, seed=1)
        _, rep_b = self.run_tiny(epochs=2, seed=2)
        assert rep_a.epoch_losses != rep_b.epoch_losses

    def test_zero_rate_many_epochs_bit_identical(self):
        samples, _ = tiny_corpus()
        net = Network.from_spec(tiny_spec())
        net.initialize(3)
        before = [v.copy() for v in net.parameters()]
        train(net, samples, learning_rate=0.0, max_epochs=3, seed=0,
              log_interval=0)
        for old, new in zip(before, net.parameters()):
            npt.assert_array_equal(old, new)

    def test_final_error_pass_allocates_no_taps(self, monkeypatch):
        # The training error needs only the predictions, so the closing
        # classify pass is asked for no feature taps.
        results = []
        classify = Network.classify

        def recorded(net, images, **kwargs):
            results.append(classify(net, images, **kwargs))
            return results[-1]

        monkeypatch.setattr(Network, "classify", recorded)
        _, report = self.run_tiny(epochs=1)
        [(_, predicted, features)] = results
        assert features == {}
        labels = [s.label for s in tiny_corpus()[0]]
        assert report.final_train_error == np.mean(predicted != labels)

    def test_empty_split_rejected(self):
        net = Network.from_spec(tiny_spec())
        with pytest.raises(InputError):
            train(net, [], learning_rate=1e-4, max_epochs=1, seed=0,
                  log_interval=0)

    def test_tsv_round_trip(self):
        _, report = self.run_tiny(epochs=2)
        lines = report.to_tsv().splitlines()
        assert lines[0] == "epoch\tmean_loss\tseconds"
        assert len(lines) == 3
        for i, line in enumerate(lines[1:], start=1):
            epoch, loss, _ = line.split("\t")
            assert int(epoch) == i
            assert float(loss) == report.epoch_losses[i - 1]


class TestEndToEndGradient:
    def test_network_gradient_matches_finite_differences(self):
        # Whole-net check through conv, pool, FCs, and the loss; dropout
        # is absent from the tiny topology so eval and train agree.
        net = Network.from_spec(tiny_spec(size=8))
        net.initialize(0)
        x = np.random.default_rng(5).random((1, 8, 8))
        label = 2
        log_probs = net.forward(x, train=True)
        net.backward(nll_grad(log_probs, label))

        rng = np.random.default_rng(6)
        worst = 0.0
        for value, grad in parameter_grads(net):
            flat_idx = rng.choice(value.size, size=min(10, value.size),
                                  replace=False)
            for fi in flat_idx:
                idx = np.unravel_index(fi, value.shape)
                orig = value[idx]
                value[idx] = orig + 1e-3
                hi = nll_loss(net.forward(x), label)
                value[idx] = orig - 1e-3
                lo = nll_loss(net.forward(x), label)
                value[idx] = orig
                numeric = (hi - lo) / 2e-3
                denom = max(1.0, abs(grad[idx]), abs(numeric))
                worst = max(worst, abs(grad[idx] - numeric) / denom)
        assert worst < 1e-4

