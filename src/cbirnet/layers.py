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
elementwise work (gathers, bias, ReLU, dropout scale, window maxima,
log-softmax along axis 1) is batched freely. The matrix products
go through a stacked np.matmul, which issues one BLAS call per sample on
the same operands as the unbatched product. One GEMM over the whole batch
(w2d @ [cols_1 ... cols_N], or X @ W.T for the FCs) would cut dispatch
further, but the BLAS then blocks and orders its sums differently, and the
float64 results drift from the one-sample pass at N of 7 or more.

Train passes (train=True) take a batch of exactly one sample and cache
what backward needs for it. Only Conv2d and FullyConnected have
parameters and take part in an SGD step; their backward can skip the
input gradient, which the first layer of a step does not need, and
return None. The other layers only pass the gradient on. With one
sample, a layer's gradient is that sample's alone, so each backward
replaces what the last one left and nothing adds up across backwards. A
Conv2d backward writes its grads outright, into buffers its first train
backward allocates, so a layer that has never run one holds none. A
FullyConnected layer has no grads: each backward keeps the two factors
of its weight gradient, the upstream gradient and the cached input.
step_finite() and step(lr) check and apply the step from those.

Conv2d and the train path of MaxPool2d run through tables of flat input
positions (_patch_table): a convolution's im2col is one gather and its
input gradient one bincount; a pool's train forward is one gather and one
argmax, its backward one bincount. There is one read-only table per
window geometry, cached at module level and shared by every layer and
thread; the first pass at a geometry builds it, and no layer keeps one,
so an eval pass writes no layer state. A padded convolution gathers from
its input with one +0.0 slot appended, at which every position in the
padding points, and its bincount drops that slot's bin: no padded copy of
the input is made and no padded gradient is cropped. A bincount starts
each bin at +0.0 and adds its weights in array order, so every sum takes
its terms in the order of the slice-by-slice adds it replaced, bit for
bit.
"""

from __future__ import annotations

import functools
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


@functools.lru_cache(maxsize=64)  # bounded: a 224 px conv1 table is 8.8 MB
def _patch_table(shape, kernel_h, kernel_w, stride, padding=0, windows=False):
    """Flat input position of every element of every window, read-only.

    One table per geometry, shared by every layer and thread that asks for
    it. shape is a (c, h, w) sample, and the entries index its flattened
    c*h*w values. Every position in the padding points at one slot past
    them, index c*h*w, which a gather fills with +0.0 and a bincount
    drops; with padding 0 no entry is c*h*w. The table is
    (c*kh*kw, out_h, out_w), in the (c, kh, kw, oh, ow) order of im2col's
    patch rows; with windows=True it is (c, out_h, out_w, kh*kw), one
    row-major window to a row, as a pool takes its maxima.
    """
    c, h, w = shape
    p = padding
    grid = np.full((c, h + 2 * p, w + 2 * p), c * h * w, dtype=np.intp)
    grid[:, p:p + h, p:p + w] = np.arange(c * h * w).reshape(shape)
    win = sliding_window_view(grid, (kernel_h, kernel_w),
                              axis=(1, 2))[:, ::stride, ::stride]
    oh, ow = win.shape[1:3]
    base = (win if windows else win.transpose(0, 3, 4, 1, 2)).copy()
    # A view of a read-only base: numpy refuses to make it writable again.
    base.flags.writeable = False
    if windows:
        return base.reshape(c, oh, ow, -1)
    return base.reshape(-1, oh, ow)


class Layer:
    """Base class: a layer without parameters only passes gradients on."""

    def parameters(self):
        """The parameter arrays, in the order checkpoints store them."""
        return []

    def forward(self, x, train=False):
        raise NotImplementedError

    def backward(self, grad_out):
        raise NotImplementedError


class _Affine(Layer):
    """Weights and biases, zero until Network.initialize draws them."""

    def __init__(self, weight_shape, bias_size):
        self.weights = np.zeros(weight_shape, dtype=DTYPE)
        self.biases = np.zeros(bias_size, dtype=DTYPE)

    def parameters(self):
        return [self.weights, self.biases]

    def step_finite(self):
        """True when every gradient element step() would apply is finite."""
        raise NotImplementedError

    def step(self, learning_rate):
        """The SGD update value -= lr * grad, after the step's backward."""
        raise NotImplementedError


class Conv2d(_Affine):
    """2-D cross-correlation over (channels, height, width) samples.

    forward gathers each sample's (c*kh*kw, oh*ow) patches with one
    gather through the geometry's shared table, and reads the output size
    off that table, which follows the floor rule of _window_shape. The
    kernel is applied unflipped (cross-correlation, the usual CNN
    convention). The input gradient scatters dcols into the input with
    one bincount over the same table, in dcols' own (c, kh, kw, oh, ow)
    order, so each position sums its terms in (kh, kw) order; the zero
    slot's bin, which gathers the padding's terms, is dropped. The first
    layer of an SGD step asks for no input gradient and runs no bincount.

    Each train-mode backward writes weight_grads and bias_grads outright,
    so they hold the last sample's grads alone. The first one allocates
    them; until then they are None, so a built or loaded network holds
    none. step() scales them in place before subtracting them, so after a
    step they hold lr * grad.
    """

    def __init__(self, in_channels, out_channels, kernel_h, kernel_w,
                 stride=1, padding=0):
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

    def step_finite(self):
        return all(np.isfinite(grad).all()
                   for grad in (self.weight_grads, self.bias_grads))

    def step(self, learning_rate):
        for value, grad in ((self.weights, self.weight_grads),
                            (self.biases, self.bias_grads)):
            np.multiply(grad, learning_rate, out=grad)
            np.subtract(value, grad, out=value)

    def forward(self, x, train=False):
        if train:
            _check_train_batch(x)
        n, c, h, w = x.shape
        table = _patch_table(x.shape[1:], self.kernel_h, self.kernel_w,
                             self.stride, self.padding)
        flat = x.reshape(n, c * h * w)
        if self.padding:
            slotted = np.zeros((n, c * h * w + 1), dtype=DTYPE)
            slotted[:, :-1] = flat
            flat = slotted
        # np.take copies a read-only index array on every call, which for
        # one sample costs more than the gather; fancy indexing does not.
        cols = flat[0][table][None] if n == 1 else flat.take(table, axis=1)
        _, oh, ow = table.shape
        cols = cols.reshape(n, len(table), oh * ow)
        w2d = self.weights.reshape(self.out_channels, -1)
        # One GEMM per sample, as in the one-sample pass (module docstring).
        out = np.matmul(w2d, cols)
        out += self.biases[:, None]
        out = out.reshape(n, self.out_channels, oh, ow)
        if train:
            self._cols = cols[0]
            self._in_shape = x.shape[1:]
            self._out_shape = out.shape
        return out

    def backward(self, grad_out, input_grad=True):
        if self._cols is None:
            raise InternalError("backward called before a train-mode forward")
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
        table = _patch_table(self._in_shape, self.kernel_h, self.kernel_w,
                             self.stride, self.padding)
        size = math.prod(self._in_shape)
        dx = np.bincount(table.ravel(), weights=dcols.ravel(), minlength=size)
        return dx[:size].reshape(1, *self._in_shape)


class MaxPool2d(Layer):
    """Window-maximum downsampling; windows may overlap when stride < window.

    The train-mode forward gathers every window into one row of a
    (c*oh*ow, k*k) array through the geometry's shared table, takes each
    row's argmax (ties break toward the row-major first position) and
    records the winners' positions; backward sums each upstream element
    into its winner with one bincount, accumulating where windows overlap.
    The eval forward needs no winners and reads no table: it takes the
    running maximum of the window's k*k strided slices, which picks the
    same value bit for bit.
    """

    def __init__(self, window, stride):
        self.window = window
        self.stride = stride
        self._in_shape = None
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
        table = _patch_table(x.shape[1:], k, k, s, windows=True)
        c, oh, ow, kk = table.shape
        flat = x.reshape(-1)[table].reshape(-1, kk)  # a window to a row
        pick = flat.argmax(axis=1)
        pick += np.arange(0, flat.size, kk)
        self._winners = table.take(pick)
        self._in_shape = x.shape
        self._out_shape = (1, c, oh, ow)
        return flat.take(pick).reshape(self._out_shape)

    def backward(self, grad_out):
        if self._winners is None:
            raise InternalError("backward called before a train-mode forward")
        if grad_out.shape != self._out_shape:
            raise InternalError(
                f"upstream gradient shape {grad_out.shape} does not match "
                f"pooled output {self._out_shape}")
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

    def backward(self, grad_out):
        if self._mask is None:
            raise InternalError("backward called before a train-mode forward")
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

    def backward(self, grad_out):
        if self._mask is None:
            raise InternalError("backward called before a train-mode forward")
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

    def backward(self, grad_out):
        if self._probs is None:
            raise InternalError("backward called before a train-mode forward")
        return grad_out - self._probs * grad_out.sum(axis=1, keepdims=True)
