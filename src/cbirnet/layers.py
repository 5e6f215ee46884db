"""Forward and backward kernels for every layer type the network uses.

Every kernel is batch-first: forward takes N samples as one (N, ...)
array and returns their N outputs the same way. Kernels do not check
their input shape: they trust the shapes that Network checked against
spec.shape_trace(), and each takes its output size from work it does
anyway. Nor do layers check their settings (such as keep_prob):
they trust the values of the spec they are built from, which checked
its fields when it was made. All arithmetic is 64-bit.

Eval passes (train=False) run a whole batch through each kernel at once
and touch no layer state, so they are safe to run concurrently on a frozen
network. Batching never changes a bit of any sample's result. The exact
elementwise work (padding, window views, bias, ReLU, dropout scale, window
maxima, log-softmax along axis 1) is batched freely. The matrix products
go through a stacked np.matmul, which issues one BLAS call per sample on
the same operands as the unbatched product. One GEMM over the whole batch
(w2d @ [cols_1 ... cols_N], or X @ W.T for the FCs) would cut dispatch
further, but the BLAS then blocks and orders its sums differently, and the
float64 results drift from the one-sample pass at N of 7 or more.

Train passes (train=True) take a batch of exactly one sample and cache
what backward needs for it. backward(g, input_grad=False) computes only
what the parameters need and returns None; the first layer of an SGD step
needs no input gradient. With one sample, a layer's gradient is that
sample's alone, so each backward replaces what the last one left and
nothing adds up across backwards. A Conv2d backward writes the layer's
grads outright, into buffers its first train backward allocates, so a
layer that has never run one holds none. A FullyConnected layer has no grads: its weight gradient is the
outer product of the upstream gradient and the cached input, so each
backward keeps those two factors. Each layer's step_finite() and step(lr)
then check and apply the step: a conv layer's grads, or an FC layer's
factors.

The train path of MaxPool2d and the input gradient of Conv2d run through
index tables of flat positions: one gather and one argmax per pool
forward, one bincount per pool backward and per col2im. Each table is a
cache keyed on the input shape: built the first time a train pass needs
it at that shape, rebuilt when the shape changes, and never a second
shape check. Eval passes neither build nor read one. A bincount starts
each bin at +0.0 and adds its weights in array order, so every sum takes
its terms in the order of the slice-by-slice adds it replaced, bit for
bit.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError, InternalError

DTYPE = np.float64
UPDATE_BLOCK_BYTES = 1 << 18  # FC weight rows a factor step writes at a time


def _check_train_batch(x):
    """Train-mode caches hold one sample, so a train batch holds one too."""
    if x.shape[0] != 1:
        raise InternalError(
            f"train-mode forward takes a batch of one sample, "
            f"got {x.shape[0]}")


def _window_shape(input_shape, kernel_h, kernel_w, stride, padding=0):
    """(channels, out_h, out_w) of a window sliding over a (c, h, w) sample.

    The one floor rule of convolution and pooling; a pool is a window
    with padding 0. A window that fits the padded input yields out >= 1.
    """
    if len(input_shape) != 3:
        raise ConfigurationError(
            f"expected a (channels, height, width) sample, "
            f"got shape {tuple(input_shape)}")
    c, h, w = input_shape
    if (min(kernel_h, kernel_w, stride) < 1 or padding < 0
            or max(kernel_h - h, kernel_w - w) > 2 * padding):
        raise ConfigurationError(
            f"window {kernel_h}x{kernel_w} (stride {stride}, padding "
            f"{padding}) cannot slide over a {h}x{w} input")
    return (c, *((n + 2 * padding - k) // stride + 1
                 for n, k in ((h, kernel_h), (w, kernel_w))))


def _window_positions(shape, kernel_h, kernel_w, stride):
    """Flat index into a (c, h, w) array of every element of every window.

    Shaped (c, out_h, out_w, kernel_h, kernel_w): the window view of the
    array's positions, laid out as the window view of its values is.
    """
    grid = np.arange(math.prod(shape), dtype=np.intp).reshape(shape)
    return sliding_window_view(grid, (kernel_h, kernel_w),
                               axis=(1, 2))[:, ::stride, ::stride]


class Layer:
    """Base class: parameterless layers inherit the no-op step handling."""

    def parameters(self):
        """The parameter arrays, in the order checkpoints store them."""
        return []

    def forward(self, x, train=False):
        raise NotImplementedError

    def backward(self, grad_out, input_grad=True):
        raise NotImplementedError

    def step_finite(self):
        """True when every gradient element step() would apply is finite."""
        return True

    def step(self, learning_rate):
        """The SGD update value -= lr * grad, after the step's backward."""


class _Affine(Layer):
    """Weights and biases, zero until Network.initialize draws them."""

    def __init__(self, weight_shape, bias_size):
        self.weights = np.zeros(weight_shape, dtype=DTYPE)
        self.biases = np.zeros(bias_size, dtype=DTYPE)

    def parameters(self):
        return [self.weights, self.biases]


class Conv2d(_Affine):
    """2-D cross-correlation over (channels, height, width) samples.

    forward reads the output size off its strided window view, which
    follows the floor rule of _window_shape. The kernel is applied
    unflipped (cross-correlation, the usual CNN convention). The input
    gradient scatters dcols into the padded input with one bincount over
    a table of the padded position of each dcols element, in dcols' own
    (c, kh, kw, oh, ow) order, so each position sums its terms in (kh, kw)
    order. The table is built by the first backward that asks for an
    input gradient at a new input shape: the first layer of an SGD step
    never asks, and never builds one.

    Each train-mode backward writes weight_grads and bias_grads outright,
    so they hold the last sample's grads alone. The first one allocates
    them; until then they are None, so a built or loaded network holds
    none. step() scales them in place before subtracting them, so after a
    step they hold lr * grad.
    """

    def __init__(self, in_channels, out_channels, kernel_h, kernel_w,
                 stride=1, padding=0):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_h = kernel_h
        self.kernel_w = kernel_w
        self.stride = stride
        self.padding = padding
        super().__init__((out_channels, in_channels, kernel_h, kernel_w),
                         out_channels)
        self.weight_grads = None
        self.bias_grads = None
        self._cols = None
        self._in_shape = None
        self._out_shape = None
        self._col2im = None  # padded position of each dcols element
        self._col2im_shape = None  # the input shape _col2im was built for

    def step_finite(self):
        return all(np.isfinite(grad).all()
                   for grad in (self.weight_grads, self.bias_grads))

    def step(self, learning_rate):
        for value, grad in ((self.weights, self.weight_grads),
                            (self.biases, self.bias_grads)):
            np.multiply(grad, learning_rate, out=grad)
            np.subtract(value, grad, out=value)

    def _im2col(self, x):
        """(cols, out_h, out_w): patches of shape (N, c*kh*kw, out_h*out_w)."""
        p, s = self.padding, self.stride
        n, c, h, w = x.shape
        if p > 0:
            padded = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=DTYPE)
            padded[:, :, p:p + h, p:p + w] = x
            x = padded
        win = sliding_window_view(x, (self.kernel_h, self.kernel_w),
                                  axis=(2, 3))[:, :, ::s, ::s]
        oh, ow = win.shape[2:4]
        cols = win.transpose(0, 1, 4, 5, 2, 3).reshape(
            n, c * self.kernel_h * self.kernel_w, oh * ow)
        return np.ascontiguousarray(cols), oh, ow

    def forward(self, x, train=False):
        if train:
            _check_train_batch(x)
        cols, oh, ow = self._im2col(x)
        w2d = self.weights.reshape(self.out_channels, -1)
        # One GEMM per sample, as in the one-sample pass (module docstring).
        out = np.matmul(w2d, cols)
        out += self.biases[:, None]
        out = out.reshape(len(x), self.out_channels, oh, ow)
        if train:
            self._cols = cols[0]
            self._in_shape = x.shape[1:]
            self._out_shape = out.shape
        return out

    def backward(self, grad_out, input_grad=True):
        if self._cols is None:
            raise InternalError("backward called before a train-mode forward")
        c, h, w = self._in_shape
        kh, kw, s, p = self.kernel_h, self.kernel_w, self.stride, self.padding
        if grad_out.shape != self._out_shape:
            raise InternalError(
                f"upstream gradient shape {grad_out.shape} does not match "
                f"forward output {self._out_shape}")
        _, oc, oh, ow = self._out_shape
        g2d = grad_out.reshape(oc, oh * ow)
        if self.weight_grads is None:  # the first train backward
            self.weight_grads = np.empty(self.weights.shape, dtype=DTYPE)
            self.bias_grads = np.empty(self.biases.shape, dtype=DTYPE)
        np.sum(g2d, axis=1, out=self.bias_grads)
        np.matmul(g2d, self._cols.T, out=self.weight_grads.reshape(oc, -1))
        if not input_grad:
            return None
        dcols = self.weights.reshape(oc, -1).T @ g2d
        hp, wp = h + 2 * p, w + 2 * p
        if self._col2im_shape != self._in_shape:
            self._col2im = _window_positions((c, hp, wp), kh, kw, s).transpose(
                0, 3, 4, 1, 2).ravel()
            self._col2im_shape = self._in_shape
        dxp = np.bincount(self._col2im, weights=dcols.ravel(),
                          minlength=c * hp * wp).reshape(1, c, hp, wp)
        if p > 0:
            return dxp[:, :, p:-p, p:-p].copy()
        return dxp


class MaxPool2d(Layer):
    """Window-maximum downsampling; windows may overlap when stride < window.

    The train-mode forward gathers every window into one row of a
    (c*oh*ow, k*k) array through a table of flat input positions, takes
    each row's argmax (ties break toward the row-major first position) and
    records the winners' positions; backward sums each upstream element
    into its winner with one bincount, accumulating where windows overlap.
    The table is built on the first train-mode forward of each input shape
    and reused. The eval forward needs no winners and builds no table: it
    takes the running maximum of the window's k*k strided slices, which
    picks the same value bit for bit.
    """

    def __init__(self, window, stride):
        self.window = window
        self.stride = stride
        self._table = None  # flat input position of each window element
        self._row_starts = None  # flat table index of each row's start
        self._in_shape = None  # the input shape _table was built for
        self._out_shape = None
        self._winners = None

    def forward(self, x, train=False):
        k, s = self.window, self.stride
        if not train:
            c, oh, ow = _window_shape(x.shape[1:], k, k, s)
            rows, cols = s * (oh - 1) + 1, s * (ow - 1) + 1
            out = x[:, :, :rows:s, :cols:s].copy()
            for i in range(k):
                for j in range(k):
                    if i or j:
                        # np.maximum returns its second operand on ties
                        # (0.0 vs -0.0), so the row-major first value
                        # stays, as with argmax.
                        np.maximum(x[:, :, i:i + rows:s, j:j + cols:s], out,
                                   out=out)
            return out
        _check_train_batch(x)
        if self._in_shape != x.shape:
            c, oh, ow = _window_shape(x.shape[1:], k, k, s)
            # Rows in (c, oh, ow) order, each window's k*k row-major.
            self._table = _window_positions(x.shape[1:], k, k, s).reshape(
                -1, k * k)
            self._row_starts = np.arange(0, self._table.size, k * k)
            self._in_shape = x.shape
            self._out_shape = (1, c, oh, ow)
        flat = x.take(self._table)  # (c*oh*ow, k*k) window values
        pick = flat.argmax(axis=1)
        pick += self._row_starts
        self._winners = self._table.take(pick)
        return flat.take(pick).reshape(self._out_shape)

    def backward(self, grad_out, input_grad=True):
        if self._winners is None:
            raise InternalError("backward called before a train-mode forward")
        if grad_out.shape != self._out_shape:
            raise InternalError(
                f"upstream gradient shape {grad_out.shape} does not match "
                f"pooled output {self._out_shape}")
        if not input_grad:
            return None
        dx = np.bincount(self._winners, weights=grad_out.ravel(),
                         minlength=math.prod(self._in_shape))
        return dx.reshape(self._in_shape)


class ReLU(Layer):
    """Elementwise max(0, x)."""

    def __init__(self):
        self._mask = None

    def forward(self, x, train=False):
        if train:
            _check_train_batch(x)
            self._mask = x > 0
        return np.maximum(x, 0.0)

    def backward(self, grad_out, input_grad=True):
        if self._mask is None:
            raise InternalError("backward called before a train-mode forward")
        if not input_grad:
            return None
        return grad_out * self._mask


class FullyConnected(_Affine):
    """Affine map y = W x + b on each sample's flattened input vector.

    The layer has no grads. Each backward keeps a copy of the upstream
    gradient g next to the cached input x, in place of the ones the last
    backward kept; the weight gradient is g ⊗ x and the bias gradient g.
    step_finite() and step() read those two factors. step() walks the
    weights UPDATE_BLOCK_BYTES of rows at a time: t = g[blk] ⊗ x, t *= lr,
    W[blk] -= t, and b -= g * lr. Each element takes the roundings of
    value -= lr * grad, bit for bit. The outer product is an einsum, which
    sums into a zeroed output, so a -0.0 product enters as +0.0, as it does
    when added into a grad filled with zeros (the bias takes g's own zero
    sign); a zero's sign reaches a parameter only if the parameter is
    exactly -0.0.
    """

    def __init__(self, in_features, out_features):
        self.in_features = in_features
        self.out_features = out_features
        super().__init__((out_features, in_features), out_features)
        self._x = None
        self._in_shape = None
        self._g = None  # upstream gradient the last backward kept

    def forward(self, x, train=False):
        flat = x.reshape(len(x), -1)
        if train:
            _check_train_batch(x)
            self._x = flat[0]
            self._in_shape = x.shape
        # One gemv per sample, as in the one-sample pass (module docstring).
        out = np.matmul(self.weights, flat[:, :, None])[:, :, 0]
        out += self.biases
        return out

    def backward(self, grad_out, input_grad=True):
        if self._x is None:
            raise InternalError("backward called before a train-mode forward")
        if grad_out.shape != (1, self.out_features):
            raise InternalError(
                f"upstream gradient shape {grad_out.shape} does not match "
                f"forward output {(1, self.out_features)}")
        g = grad_out[0]
        # A copy, so that no later write to grad_out reaches the step.
        self._g = g.copy()
        if not input_grad:
            return None
        return (self.weights.T @ g).reshape(self._in_shape)

    def step_finite(self):
        # Rounding is monotone, so every g_i * x_j is finite exactly when
        # the largest is; a NaN or inf factor makes this product non-finite.
        # Python floats multiply as float64 and never warn on overflow.
        return math.isfinite(float(np.abs(self._g).max())
                             * float(np.abs(self._x).max()))

    def step(self, learning_rate):
        g, x = self._g, self._x
        rows = max(1, UPDATE_BLOCK_BYTES // x.nbytes)
        block = np.empty((min(rows, len(g)), len(x)), dtype=DTYPE)
        for start in range(0, len(g), rows):
            w = self.weights[start:start + rows]
            t = block[:len(w)]
            np.einsum("i,j->ij", g[start:start + rows], x, out=t)
            t *= learning_rate
            w -= t
        self.biases -= g * learning_rate


class Dropout(Layer):
    """Random zeroing in training, expectation-balancing scale at eval time.

    Training keeps each element with probability keep_prob and passes
    survivors through unscaled; eval multiplies everything by keep_prob so
    expected activations match between the two phases. Parameters are never
    modified by masking: a fresh mask is drawn per training forward.
    """

    def __init__(self, keep_prob, rng=None):
        self.keep_prob = keep_prob
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self._mask = None

    def forward(self, x, train=False):
        if not train:
            return x * self.keep_prob
        _check_train_batch(x)
        if self.keep_prob == 1.0:
            # No-op; skip the draw so the rng stream is untouched.
            self._mask = np.ones(x.shape, dtype=bool)
            return x.copy()
        self._mask = self.rng.random(x.shape) < self.keep_prob
        return x * self._mask

    def backward(self, grad_out, input_grad=True):
        if self._mask is None:
            raise InternalError("backward called before a train-mode forward")
        if not input_grad:
            return None
        return grad_out * self._mask


class LogSoftmax(Layer):
    """Log of the softmax over each sample's vector, with max subtraction."""

    def __init__(self):
        self._probs = None

    def forward(self, x, train=False):
        if train:
            _check_train_batch(x)
        flat = x.reshape(len(x), -1)
        shifted = flat - flat.max(axis=1, keepdims=True)
        out = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        if train:
            self._probs = np.exp(out)
        return out

    def backward(self, grad_out, input_grad=True):
        if self._probs is None:
            raise InternalError("backward called before a train-mode forward")
        if not input_grad:
            return None
        return grad_out - self._probs * grad_out.sum(axis=1, keepdims=True)
