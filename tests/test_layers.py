"""Layer kernels against slow oracles and finite-difference gradients."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from cbirnet.errors import ConfigurationError, InternalError
from cbirnet.layers import (
    Conv2d,
    Dropout,
    FullyConnected,
    LogSoftmax,
    MaxPool2d,
    ReLU,
)
from cbirnet.network import DropoutSpec

from conftest import (
    col2im_reference,
    conv2d_reference,
    maxpool2d_reference,
    maxpool_backward_reference,
    maxpool_train_reference,
    numeric_gradient,
    parameter_grads,
    relative_error,
    sgd_update_reference,
)

RNG = np.random.default_rng(20240817)
FD_STEP = 1e-3
FD_TOL = 1e-4

# Ties, signed zeros and NaN for the window maxima; +-1e16 against 1.0
# makes a sum's value depend on the order of its terms.
PALETTE = (0.0, -0.0, 1.0, -1.0, 3.0, 1e16, -1e16, np.nan)


def palette_array(data, shape, palette=PALETTE):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    return rng.choice(np.array(palette), size=shape)


def check_gradients(layer, x, seed=0):
    """Compare layer.backward against central differences of a scalar loss.

    Loss is sum(out * r) for a fixed random r, so dLoss/dout = r exactly.
    Returns the worst relative error across input and all parameters.
    """
    rng = np.random.default_rng(seed)
    out = layer.forward(x, train=True)
    r = rng.standard_normal(out.shape)
    layer.zero_grads()
    dx = layer.backward(r)

    def loss():
        return float(np.sum(layer.forward(x, train=False) * r))

    worst = relative_error(dx, numeric_gradient(loss, x, FD_STEP))
    for value, grad in parameter_grads(layer):
        worst = max(worst, relative_error(
            grad, numeric_gradient(loss, value, FD_STEP)))
    return worst


class TestConv2d:
    def test_forward_matches_bruteforce(self):
        conv = Conv2d(3, 4, 3, 3, stride=2, padding=1)
        conv.weights[:] = RNG.standard_normal(conv.weights.shape)
        conv.biases[:] = RNG.standard_normal(conv.biases.shape)
        x = RNG.standard_normal((3, 9, 11))
        npt.assert_allclose(
            conv.forward(x[None])[0],
            conv2d_reference(x, conv.weights, conv.biases, 2, 1),
            rtol=1e-12, atol=1e-12)

    def test_forward_no_padding_unit_stride(self):
        conv = Conv2d(2, 3, 2, 4)
        conv.weights[:] = RNG.standard_normal(conv.weights.shape)
        conv.biases[:] = RNG.standard_normal(conv.biases.shape)
        x = RNG.standard_normal((2, 6, 7))
        npt.assert_allclose(
            conv.forward(x[None])[0],
            conv2d_reference(x, conv.weights, conv.biases, 1, 0),
            rtol=1e-12, atol=1e-12)

    def test_known_values_identity_kernel(self):
        # A 1x1 kernel of weight 2 with bias 3 is an affine map per pixel.
        conv = Conv2d(1, 1, 1, 1)
        conv.weights[0, 0, 0, 0] = 2.0
        conv.biases[0] = 3.0
        x = np.arange(6, dtype=float).reshape(1, 2, 3)
        npt.assert_array_equal(conv.forward(x[None])[0], 2.0 * x + 3.0)

    def test_gradients(self):
        conv = Conv2d(2, 3, 3, 3, stride=2, padding=1)
        conv.weights[:] = 0.5 * RNG.standard_normal(conv.weights.shape)
        conv.biases[:] = 0.5 * RNG.standard_normal(conv.biases.shape)
        x = RNG.standard_normal((2, 7, 8))
        assert check_gradients(conv, x[None]) < FD_TOL

    def test_gradients_accumulate(self):
        conv = Conv2d(1, 1, 2, 2)
        conv.weights[:] = RNG.standard_normal(conv.weights.shape)
        x = RNG.standard_normal((1, 4, 4))[None]
        g = RNG.standard_normal((1, 3, 3))[None]
        conv.forward(x, train=True)
        conv.backward(g)
        once = conv.weight_grads.copy()
        conv.forward(x, train=True)
        conv.backward(g)
        npt.assert_allclose(conv.weight_grads, 2.0 * once, rtol=1e-12)

    def test_backward_without_forward_rejected(self):
        with pytest.raises(InternalError):
            Conv2d(1, 1, 2, 2).backward(np.zeros((1, 1, 1, 1)))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), stride=st.sampled_from([1, 2, 4]),
           padding=st.integers(0, 2), kh=st.integers(1, 4),
           kw=st.integers(1, 4), c=st.integers(1, 3), oc=st.integers(1, 3))
    def test_input_gradient_matches_slice_add_oracle(
            self, data, stride, padding, kh, kw, c, oc):
        conv = Conv2d(c, oc, kh, kw, stride=stride, padding=padding)
        conv.weights[:] = palette_array(data, conv.weights.shape,
                                        PALETTE[:-1])
        # One instance fed two input shapes, and the first one again.
        lo_h, lo_w = max(1, kh - 2 * padding), max(1, kw - 2 * padding)
        first, second = data.draw(st.lists(
            st.tuples(st.integers(lo_h, lo_h + 6),
                      st.integers(lo_w, lo_w + 6)),
            min_size=2, max_size=2, unique=True))
        for h, w in (first, second, first):
            x = palette_array(data, (1, c, h, w))
            out = conv.forward(x, train=True)
            g = palette_array(data, out.shape)
            dcols = conv.weights.reshape(oc, -1).T @ g.reshape(oc, -1)
            expect = col2im_reference(dcols, (c, h, w), kh, kw, stride,
                                      padding)
            assert conv.backward(g)[0].tobytes() == expect.tobytes()

    def test_eval_forward_stores_nothing(self):
        conv = Conv2d(1, 1, 2, 2)
        conv.forward(np.zeros((1, 1, 4, 4)), train=False)
        with pytest.raises(InternalError):
            conv.backward(np.zeros((1, 1, 3, 3)))


class TestMaxPool2d:
    def test_forward_matches_bruteforce(self):
        pool = MaxPool2d(3, 2)
        x = RNG.standard_normal((4, 9, 9))
        npt.assert_array_equal(pool.forward(x[None])[0],
                               maxpool2d_reference(x, 3, 2))

    def test_overlapping_windows(self):
        # 3x3 window, stride 2 on a 5-wide input: windows share a column.
        pool = MaxPool2d(3, 2)
        x = np.arange(25, dtype=float).reshape(1, 5, 5)
        npt.assert_array_equal(pool.forward(x[None])[0],
                               [[[12.0, 14.0], [22.0, 24.0]]])

    def test_backward_routes_to_argmax(self):
        pool = MaxPool2d(2, 2)
        x = np.array([[[1.0, 5.0, 2.0, 0.0],
                       [3.0, 4.0, 1.0, 6.0],
                       [7.0, 0.0, 3.0, 3.0],
                       [2.0, 8.0, 9.0, 1.0]]])
        pool.forward(x[None], train=True)
        dx = pool.backward(np.array([[[[10.0, 20.0], [30.0, 40.0]]]]))[0]
        expect = np.zeros_like(x)
        expect[0, 0, 1] = 10.0   # max 5 of [[1,5],[3,4]]
        expect[0, 1, 3] = 20.0   # max 6 of [[2,0],[1,6]]
        expect[0, 3, 1] = 30.0   # max 8 of [[7,0],[2,8]]
        expect[0, 3, 2] = 40.0   # max 9 of [[3,3],[9,1]]
        npt.assert_array_equal(dx, expect)

    def test_backward_accumulates_across_overlaps(self):
        # Constant input: every window's max is its first element, and the
        # shared element of overlapping windows must collect both grads.
        pool = MaxPool2d(3, 2)
        x = np.zeros((1, 1, 5, 5))
        pool.forward(x, train=True)
        dx = pool.backward(np.ones((1, 1, 2, 2)))[0]
        assert dx.sum() == 4.0
        assert dx[0, 0, 0] == 1.0

    def test_eval_keeps_first_of_tied_signed_zeros(self):
        # -0.0 == 0.0; like the train-mode argmax, the eval window maximum
        # keeps the row-major first of them.
        pool = MaxPool2d(2, 2)
        x = np.array([[[[-0.0, 0.0], [0.0, 0.0]]],
                      [[[0.0, -0.0], [-0.0, -0.0]]]])
        out = pool.forward(x)
        assert np.signbit(out[0, 0, 0, 0])
        assert not np.signbit(out[1, 0, 0, 0])
        assert np.signbit(pool.forward(x[:1], train=True)[0, 0, 0, 0])

    def test_tie_breaks_to_first_position(self):
        pool = MaxPool2d(2, 2)
        x = np.full((1, 1, 2, 2), 7.0)
        pool.forward(x, train=True)
        dx = pool.backward(np.ones((1, 1, 1, 1)))[0]
        npt.assert_array_equal(dx, [[[1.0, 0.0], [0.0, 0.0]]])

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), window=st.integers(1, 4), stride=st.integers(1, 5))
    def test_train_path_matches_window_view_oracles(self, data, window,
                                                    stride):
        # stride < window overlaps windows, stride >= window does not;
        # one instance is fed two input shapes, then the first again.
        pool = MaxPool2d(window, stride)
        side = st.integers(window, window + 7)
        first, second = data.draw(st.lists(
            st.tuples(st.integers(1, 3), side, side),
            min_size=2, max_size=2, unique=True))
        for shape in (first, second, first):
            x = palette_array(data, shape)
            out, winners = maxpool_train_reference(x, window, stride)
            assert pool.forward(x[None], train=True)[0].tobytes() == \
                out.tobytes()
            g = palette_array(data, out.shape)
            assert pool.backward(g[None])[0].tobytes() == \
                maxpool_backward_reference(winners, g, shape).tobytes()

    def test_backward_sums_in_window_order(self):
        # The spike at (2, 2) wins all four overlapping 3x3 windows; the
        # sum of 1e16, 1, -1e16, 1 reads 1.0 only in window order.
        pool = MaxPool2d(3, 2)
        x = np.zeros((1, 5, 5))
        x[0, 2, 2] = 1.0
        out, winners = maxpool_train_reference(x, 3, 2)
        assert np.count_nonzero(winners == 12) == 4
        pool.forward(x[None], train=True)
        g = np.array([[[1e16, 1.0], [-1e16, 1.0]]])
        dx = pool.backward(g[None])[0]
        assert dx[0, 2, 2] == 1.0
        assert dx.tobytes() == \
            maxpool_backward_reference(winners, g, x.shape).tobytes()

    def test_gradients(self):
        pool = MaxPool2d(3, 2)
        # Well-separated values so the step never flips an argmax.
        x = RNG.permutation(np.arange(81, dtype=float)).reshape(1, 1, 9, 9)
        assert check_gradients(pool, x) < FD_TOL


class TestReLU:
    def test_forward(self):
        relu = ReLU()
        npt.assert_array_equal(relu.forward(np.array([-1.0, 0.0, 2.5])),
                               [0.0, 0.0, 2.5])

    def test_gradients(self):
        relu = ReLU()
        x = RNG.standard_normal((3, 4, 5)) + 0.05
        x[np.abs(x) < 0.01] = 0.5  # keep clear of the kink
        assert check_gradients(relu, x[None]) < FD_TOL

    def test_backward_masks_negatives(self):
        relu = ReLU()
        relu.forward(np.array([[-2.0, 3.0]]), train=True)
        npt.assert_array_equal(relu.backward(np.array([[5.0, 5.0]])),
                               [[0.0, 5.0]])


class TestZeroGrads:
    @pytest.mark.parametrize("make, x_shape, g_shape", [
        (lambda: Conv2d(2, 3, 2, 2), (2, 4, 5), (3, 3, 4)),
        (lambda: FullyConnected(12, 3), (3, 2, 2), (3,)),
    ], ids=["Conv2d", "FullyConnected"])
    def test_next_backward_writes_the_grads(self, make, x_shape, g_shape):
        # zero_grads() writes nothing: the grads are defined again only
        # by the next backward, which must not read what they held. An FC
        # layer has no grads: each backward replaces the g it kept, which
        # the NaN fill below poisons.
        layer = make()
        for value in layer.parameters():
            value[:] = RNG.standard_normal(value.shape)
        x = RNG.standard_normal(x_shape)[None]
        g = RNG.standard_normal(g_shape)[None]
        layer.forward(x, train=True)
        layer.backward(g)  # a conv adds into its new layer's zero grads
        once = [grad.tobytes() for _, grad in parameter_grads(layer)]
        for _, grad in parameter_grads(layer):
            grad.fill(np.nan)
        layer.zero_grads()
        layer.forward(x, train=True)
        layer.backward(g)
        assert [grad.tobytes() for _, grad in parameter_grads(layer)] == once


class TestFullyConnected:
    def test_forward_known_values(self):
        fc = FullyConnected(2, 2)
        fc.weights[:] = [[1.0, 2.0], [3.0, 4.0]]
        fc.biases[:] = [10.0, 20.0]
        npt.assert_array_equal(fc.forward(np.array([[1.0, 1.0]])),
                               [[13.0, 27.0]])

    def test_flattens_spatial_input(self):
        fc = FullyConnected(12, 3)
        fc.weights[:] = RNG.standard_normal(fc.weights.shape)
        x = RNG.standard_normal((3, 2, 2))
        npt.assert_allclose(fc.forward(x[None])[0],
                            fc.weights @ x.reshape(-1) + fc.biases)

    def test_gradients(self):
        fc = FullyConnected(8, 5)
        fc.weights[:] = RNG.standard_normal(fc.weights.shape)
        fc.biases[:] = RNG.standard_normal(fc.biases.shape)
        x = RNG.standard_normal((2, 2, 2))
        assert check_gradients(fc, x[None]) < FD_TOL

    def test_input_gradient_restores_shape(self):
        fc = FullyConnected(12, 3)
        fc.forward(RNG.standard_normal((1, 3, 2, 2)), train=True)
        assert fc.backward(np.ones((1, 3))).shape == (1, 3, 2, 2)

    # 20 rows of 4096 inputs span three row blocks, the last one partial.
    @pytest.mark.parametrize("n_in, n_out", [(1, 1), (7, 5), (4096, 20)])
    def test_factor_step_matches_zero_filled_grads(self, n_in, n_out):
        rng = np.random.default_rng(n_in)
        fast, slow = FullyConnected(n_in, n_out), FullyConnected(n_in, n_out)
        weights = rng.standard_normal((n_out, n_in))
        weights[0, 0] = -0.0  # a -0.0 product must leave it -0.0
        biases = rng.standard_normal(n_out)
        x = rng.standard_normal((1, n_in))
        x[0, 0] = 0.0
        g = rng.standard_normal((1, n_out))
        g[0, 0] = -abs(g[0, 0])
        lr = 0.37
        for fc in (fast, slow):
            fc.weights[:], fc.biases[:] = weights, biases
            fc.forward(x, train=True)
        g_fast = g.copy()
        dx = fast.backward(g_fast)
        g_fast.fill(np.nan)  # the layer keeps a copy of its factor
        npt.assert_array_equal(dx, slow.backward(g))
        assert fast.step_finite()
        fast.step(lr)
        sgd_update_reference(slow, lr)
        for value, ref in zip(fast.parameters(), slow.parameters()):
            assert value.tobytes() == ref.tobytes()


class TestDropout:
    def test_eval_scales_by_keep_prob(self):
        drop = Dropout(0.5)
        x = RNG.standard_normal((4, 4))
        npt.assert_array_equal(drop.forward(x, train=False), x * 0.5)

    def test_train_survivors_unscaled(self):
        drop = Dropout(0.5, rng=np.random.default_rng(7))
        x = np.full((1, 1000), 3.0)
        out = drop.forward(x, train=True)
        kept = out[out != 0.0]
        npt.assert_array_equal(kept, np.full(kept.size, 3.0))
        assert 0.4 < kept.size / 1000 < 0.6

    def test_train_keep_rate_converges(self):
        drop = Dropout(0.5, rng=np.random.default_rng(11))
        n, total = 100_000, 0
        x = np.ones((1, n))
        out = drop.forward(x, train=True)
        total = int(out.sum())
        assert abs(total / n - 0.5) < 0.01

    def test_keep_prob_one_is_identity_both_modes(self):
        drop = Dropout(1.0, rng=np.random.default_rng(3))
        x = RNG.standard_normal((1, 50))
        npt.assert_array_equal(drop.forward(x, train=True), x)
        npt.assert_array_equal(drop.forward(x, train=False), x)

    def test_keep_prob_one_skips_rng_draw(self):
        rng = np.random.default_rng(5)
        drop = Dropout(1.0, rng=rng)
        drop.forward(np.ones((1, 10)), train=True)
        assert rng.random() == np.random.default_rng(5).random()

    def test_backward_uses_same_mask(self):
        drop = Dropout(0.5, rng=np.random.default_rng(13))
        x = np.ones((1, 200))
        out = drop.forward(x, train=True)
        dx = drop.backward(np.full((1, 200), 2.0))
        npt.assert_array_equal(dx, out * 2.0)

    def test_invalid_keep_prob_rejected(self):
        # The rule lives on the spec a Dropout is built from.
        for bad in (0.0, -0.1, 1.5, float("nan")):
            with pytest.raises(ConfigurationError,
                               match=r"keep_prob must be in \(0, 1\]"):
                DropoutSpec(bad)

    def test_parameters_untouched(self):
        # Masking is an activation effect only; Dropout owns no parameters.
        assert Dropout(0.5).parameters() == []


class TestLogSoftmax:
    def test_forward_sums_to_one(self):
        ls = LogSoftmax()
        out = ls.forward(RNG.standard_normal((1, 5)))
        npt.assert_allclose(np.exp(out).sum(), 1.0, rtol=1e-12)

    def test_forward_known_values(self):
        ls = LogSoftmax()
        out = ls.forward(np.array([[0.0, 0.0]]))
        npt.assert_allclose(out, np.log([[0.5, 0.5]]), rtol=1e-12)

    def test_stable_under_large_logits(self):
        ls = LogSoftmax()
        out = ls.forward(np.array([[1000.0, 1000.0, 1000.0]]))
        assert np.isfinite(out).all()
        npt.assert_allclose(np.exp(out).sum(), 1.0, rtol=1e-12)

    def test_shift_invariance(self):
        ls = LogSoftmax()
        x = RNG.standard_normal((1, 4))
        npt.assert_allclose(ls.forward(x), ls.forward(x + 123.0),
                            rtol=0, atol=1e-10)

    def test_gradients(self):
        ls = LogSoftmax()
        x = RNG.standard_normal((1, 6))
        assert check_gradients(ls, x) < FD_TOL
