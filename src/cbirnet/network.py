"""Network assembly, initialization, feature taps, and checkpoint files.

A network is described by a NetworkSpec (pure data, JSON-serializable) and
realized as a Network holding live layers. NetworkSpec.shape_trace works
out every layer's shape from the spec alone; Network builds its layers
from it, and load_checkpoint sizes its payload by it before allocating.
The classifier architecture built by build_architecture() is five
convolution blocks followed by three hidden fully connected layers and a
log-softmax head; the hidden FC activations (taken after their ReLUs)
double as retrieval features named fc1, fc2, fc3.

A network loaded from a checkpoint is frozen: every parameter array is a
view of a read-only base, so a write to it raises (and so does making it
writable again) instead of leaving a stale hash behind, and its
fingerprint is hashed on the first call and cached. A query against a
loaded network therefore hashes nothing. Networks built
in memory (training, tests) are never frozen and hash on every call.

Every pass goes through one layer loop over batch-first kernels (see
layers). Network.classify is the eval pass over many images: it stacks
them a chunk at a time and runs each kernel once per chunk, and every
image's results are bit-identical to a pass of that image alone.
forward_classify is its one-image case; the train-mode forward and
backward are its batch-of-one case with per-sample caches. The chunk is
as many images as fit CHUNK_BYTES of im2col patches in the widest
convolution, sized from the spec's shape trace: 9 at 64 px and scale
0.1, 1 at the full 224 px. Larger chunks buy little once dispatch is
amortized and cost resident memory (32 images at 64 px raised peak RSS
by ~6 MB).

The chunks are independent (an eval pass writes no layer state, and each
chunk writes only its own output rows), so classify runs them on lanes,
one per usable core up to MAX_LANES (the affinity mask, capped by a
cgroup v2 CPU quota): the calling thread and a helper thread for each
further lane, each taking every lanes-th chunk. numpy releases the GIL
in the GEMMs and ufuncs, so on two cores two lanes classify desk images
~1.5x as fast as one. Each helper holds one more chunk of images and
patches (~2.4 MB at 64 px) in its own malloc arena, so the count is
capped at the two lanes measured. A network whose chunk is one image
(224 px) keeps one lane: its GEMMs are BLAS-threaded already, and on a
2-core VM two lanes took 56-71 ms per 224 px image against 52-54 on one,
slower in 15 of 16 alternating reps. A call of one chunk or less (every
query) runs inline and starts no thread.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import os
import struct
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from ._binio import (
    atomic_write,
    check_payload_size,
    read_container_header,
    read_exact,
    read_into,
    write_container_header,
)
from .errors import ConfigurationError, FormatError
from .layers import (
    DTYPE,
    Conv2d,
    Dropout,
    FullyConnected,
    LogSoftmax,
    MaxPool2d,
    ReLU,
    _window_shape,
)

CHECKPOINT_MAGIC = b"CBNCKPT\n"
CHECKPOINT_VERSION = 1
WEIGHT_STD = 0.01
CHUNK_BYTES = 2 * 1024 * 1024  # im2col budget of one classify chunk
MAX_LANES = 2  # classify threads; each holds a chunk, and more are unmeasured
CPU_MAX_PATH = "/sys/fs/cgroup/cpu.max"  # cgroup v2 CPU quota: "quota period"


# The types JSON decodes a value of each annotated field type to.
_JSON_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,),
               "str": (str,), "None": (type(None),)}


def rule(test, text):
    """Field metadata for check_fields: the values for which test is true.

    Written as what passes, so NaN fails any comparison; text completes
    the message "{name} must be {text}, got {value!r}".
    """
    return {"rule": (test, text)}


UNIT_INTERVAL = rule(lambda v: 0.0 < v <= 1.0, "in (0, 1]")


def check_fields(obj, what):
    """ConfigurationError for the first field of obj that breaks its rules.

    Each field's value must first be of its JSON type, then pass the rule
    the field may hold in its metadata (see rule). A field's annotation
    is a string, "T" or "T | None" (null also passes); what names the
    owner in a type message. JSON decodes to exact types, so true and
    false never pass for an int, and an int field takes no float; a float
    field takes any number.
    """
    for f in fields(obj):
        value = getattr(obj, f.name)
        if type(value) not in [
                t for part in f.type.split(" | ") for t in _JSON_TYPES[part]]:
            raise ConfigurationError(
                f"{what} field {f.name!r} must be {f.type}, got {value!r}")
        test, text = f.metadata.get("rule", (None, None))
        if test is not None and not test(value):
            raise ConfigurationError(f"{f.name} must be {text}, got {value!r}")


class _LayerSpec:
    """A layer description checks its own fields when it is made."""

    def __post_init__(self):
        check_fields(self, f"layer {self.type!r}")


@dataclass(frozen=True)
class ConvSpec(_LayerSpec):
    out_channels: int
    kernel_h: int
    kernel_w: int
    stride: int = 1
    padding: int = 0
    bias_init: float = 0.0
    type: str = field(default="conv", init=False)


@dataclass(frozen=True)
class MaxPoolSpec(_LayerSpec):
    window: int
    stride: int
    type: str = field(default="maxpool", init=False)


@dataclass(frozen=True)
class ReLUSpec(_LayerSpec):
    type: str = field(default="relu", init=False)


@dataclass(frozen=True)
class FCSpec(_LayerSpec):
    out_features: int
    bias_init: float = 0.0
    type: str = field(default="fc", init=False)


@dataclass(frozen=True)
class DropoutSpec(_LayerSpec):
    keep_prob: float = field(metadata=UNIT_INTERVAL)
    type: str = field(default="dropout", init=False)


@dataclass(frozen=True)
class LogSoftmaxSpec(_LayerSpec):
    num_classes: int = field(metadata=rule(lambda v: v >= 2, ">= 2"))
    type: str = field(default="logsoftmax", init=False)


_SPEC_TYPES = {cls.type: cls for cls in (
    ConvSpec, MaxPoolSpec, ReLUSpec, FCSpec, DropoutSpec, LogSoftmaxSpec)}


def _spec_from_dict(d):
    if not isinstance(d, dict):
        raise ConfigurationError(f"layer description {d!r} is not an object")
    kind = d.get("type")
    cls = _SPEC_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigurationError(f"unknown layer type {kind!r}")
    kwargs = {k: v for k, v in d.items() if k != "type"}
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigurationError(f"bad fields for layer {kind!r}: {exc}") from exc


@dataclass(frozen=True)
class NetworkSpec:
    """Input geometry plus an ordered list of layer descriptions."""

    input_shape: tuple
    layers: tuple

    def to_dict(self):
        return {
            "input_shape": list(self.input_shape),
            "layers": [asdict(s) for s in self.layers],
        }

    @classmethod
    def from_dict(cls, d):
        try:
            input_shape = d["input_shape"]
            layers = tuple(_spec_from_dict(s) for s in d["layers"])
        except (KeyError, TypeError) as exc:
            raise ConfigurationError(f"malformed network description: {exc}") from exc
        # Exact types, as check_fields takes them: true is not an int.
        if (not isinstance(input_shape, list) or len(input_shape) != 3
                or any(type(v) is not int for v in input_shape)):
            raise ConfigurationError(
                f"input_shape must be 3 integers, got {input_shape!r}")
        return cls(input_shape=tuple(input_shape), layers=layers)

    def canonical_json(self):
        """Stable byte encoding used for fingerprinting."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":")).encode("utf-8")

    def shape_trace(self):
        """Per-sample output shape after each layer, input_shape first.

        Worked out from the layer descriptions alone: no layer is built
        and nothing is allocated. Raises ConfigurationError as soon as a
        layer cannot accept the shape produced by its predecessor, or
        any shape would be empty.
        """
        shapes = [tuple(self.input_shape)]
        for ls in self.layers:
            shape = shapes[-1]
            if isinstance(ls, ConvSpec):
                _, oh, ow = _window_shape(shape, ls.kernel_h, ls.kernel_w,
                                          ls.stride, ls.padding)
                shape = (ls.out_channels, oh, ow)
            elif isinstance(ls, MaxPoolSpec):
                shape = _window_shape(shape, ls.window, ls.window, ls.stride)
            elif isinstance(ls, FCSpec):
                shape = (ls.out_features,)
            elif isinstance(ls, LogSoftmaxSpec):
                if math.prod(shape) != ls.num_classes:
                    raise ConfigurationError(
                        f"expected a vector of {ls.num_classes} logits, "
                        f"got {math.prod(shape)}")
                shape = (ls.num_classes,)
            shapes.append(shape)
        if min(min(shape) for shape in shapes) < 1:
            raise ConfigurationError(f"layer shapes {shapes} include an empty one")
        return shapes

    def parameter_shapes(self):
        """Shape of every parameter tensor, in Network.parameters() order."""
        out = []
        for ls, shape in zip(self.layers, self.shape_trace()):
            if isinstance(ls, ConvSpec):
                out += [(ls.out_channels, shape[0], ls.kernel_h, ls.kernel_w),
                        (ls.out_channels,)]
            elif isinstance(ls, FCSpec):
                out += [(ls.out_features, math.prod(shape)),
                        (ls.out_features,)]
        return out


def build_architecture(input_shape=(1, 224, 224), num_classes=24,
                       keep_prob=0.5, scale=1.0):
    """The fixed classifier topology, optionally width-scaled.

    scale multiplies every convolution's channel count and every hidden FC
    width (rounded up), leaving kernels, strides, and the class head alone.
    The full-size network expects 1x224x224 input; smaller inputs work as
    long as every stage keeps a positive spatial extent (64x64 does at
    scale <= 0.1 because the pools land exactly on 1x1 before the FCs).
    """
    def width(n):
        return math.ceil(n * scale)

    layers = [
        ConvSpec(width(64), 11, 11, stride=4, padding=2, bias_init=0.0),
        ReLUSpec(),
        MaxPoolSpec(window=3, stride=2),
        ConvSpec(width(192), 5, 5, stride=1, padding=2, bias_init=1.0),
        ReLUSpec(),
        MaxPoolSpec(window=3, stride=2),
        ConvSpec(width(384), 5, 5, stride=1, padding=2, bias_init=0.0),
        ReLUSpec(),
        ConvSpec(width(256), 3, 3, stride=1, padding=1, bias_init=1.0),
        ReLUSpec(),
        ConvSpec(width(256), 3, 3, stride=1, padding=1, bias_init=1.0),
        ReLUSpec(),
        MaxPoolSpec(window=3, stride=2),
        FCSpec(width(4096), bias_init=1.0),
        ReLUSpec(),
        DropoutSpec(keep_prob=keep_prob),
        FCSpec(width(4096), bias_init=1.0),
        ReLUSpec(),
        DropoutSpec(keep_prob=keep_prob),
        FCSpec(width(4096), bias_init=1.0),
        ReLUSpec(),
        FCSpec(num_classes, bias_init=0.0),
        LogSoftmaxSpec(num_classes=num_classes),
    ]
    return NetworkSpec(input_shape=tuple(input_shape), layers=tuple(layers))


class Network:
    """Live layers built from a NetworkSpec, with feature taps.

    Feature taps are the ReLU outputs directly above each hidden FC layer;
    they are named fc1, fc2, ... in depth order. The class head (an FC
    followed by log-softmax) is not a tap.
    """

    def __init__(self, spec, layers, shapes, feature_taps):
        self.spec = spec
        self.layers = layers
        self._shapes = shapes  # spec.shape_trace()
        self.feature_taps = feature_taps  # list of (name, layer_index)
        # (layer_index, width) of each tap's (N, width) classify output.
        self._tap_widths = [(idx, math.prod(shapes[idx + 1]))
                            for _, idx in feature_taps]
        # (spec, layer) of each layer with parameters, in layer order.
        self.stepped = [(ls, layer) for ls, layer in zip(spec.layers, layers)
                        if layer.parameters()]
        patch_elems = max(
            (shape[0] * ls.kernel_h * ls.kernel_w * math.prod(out[1:])
             for ls, shape, out in zip(spec.layers, shapes, shapes[1:])
             if isinstance(ls, ConvSpec)), default=1)
        itemsize = np.dtype(DTYPE).itemsize
        self.chunk_size = max(1, CHUNK_BYTES // (patch_elems * itemsize))
        # classify's lane count; one-image chunks are BLAS-threaded already.
        self.lanes = (1 if self.chunk_size == 1
                      else min(MAX_LANES, _usable_cores()))
        self._frozen = None  # the parameter arrays freeze() handed out
        self._fingerprint = None  # cached only while frozen

    @classmethod
    def from_spec(cls, spec):
        shapes = spec.shape_trace()
        layers = []
        taps = []
        for i, (ls, shape) in enumerate(zip(spec.layers, shapes)):
            if isinstance(ls, ConvSpec):
                layer = Conv2d(shape[0], ls.out_channels, ls.kernel_h,
                               ls.kernel_w, stride=ls.stride,
                               padding=ls.padding)
            elif isinstance(ls, MaxPoolSpec):
                layer = MaxPool2d(ls.window, ls.stride)
            elif isinstance(ls, ReLUSpec):
                layer = ReLU()
                if i > 0 and isinstance(spec.layers[i - 1], FCSpec):
                    taps.append((f"fc{len(taps) + 1}", i))
            elif isinstance(ls, FCSpec):
                layer = FullyConnected(math.prod(shape), ls.out_features)
            elif isinstance(ls, DropoutSpec):
                layer = Dropout(ls.keep_prob)
            elif isinstance(ls, LogSoftmaxSpec):
                layer = LogSoftmax()
            else:
                raise ConfigurationError(f"unhandled layer spec {ls!r}")
            layers.append(layer)
        return cls(spec, layers, shapes, taps)

    def initialize(self, seed, weight_std=WEIGHT_STD):
        """Draw all weights from N(0, weight_std^2); set biases to their constants.

        A single seeded generator is consumed in layer order, so equal seeds
        give bit-identical parameters. The 0.01 default suits full-width
        networks; narrow width-scaled networks need a larger std, otherwise
        input signal decays to nothing against the constant-1 biases and
        training stalls at chance. No grad is touched: each train backward
        writes its own (see backward).
        """
        if not weight_std > 0.0:
            raise ConfigurationError(
                f"weight_std must be positive, got {weight_std}")
        rng = np.random.default_rng(seed)
        for ls, layer in self.stepped:
            layer.weights[:] = rng.normal(
                0.0, weight_std, size=layer.weights.shape)
            layer.biases.fill(ls.bias_init)

    def seed_dropout(self, seed):
        """Point every dropout layer at one fresh generator (shared stream)."""
        rng = np.random.default_rng(seed)
        for layer in self.layers:
            if isinstance(layer, Dropout):
                layer.rng = rng

    def parameters(self):
        """Every layer's parameter arrays, in layer order."""
        return [value for _, layer in self.stepped
                for value in layer.parameters()]

    def zero_grads(self):
        """Does nothing: each train backward writes its grads outright.

        sgd_step still calls it once, because perfbench/tracing.py times
        training.zero_grads_ms off this method by name. ROADMAP item 1b
        decides that metric's fate, and with it this method's.
        """

    def _check_input(self, shape, what="input"):
        if tuple(shape) != self.spec.input_shape:
            raise ConfigurationError(
                f"{what} shape {tuple(shape)} does not match network input "
                f"{self.spec.input_shape}")

    def _run(self, batch, train=False, taps=None):
        """The layer loop of every pass: (N, *input_shape) to (N, classes).

        taps maps a layer index to an (N, dim) array that receives that
        layer's output.
        """
        out = batch
        for i, layer in enumerate(self.layers):
            out = layer.forward(out, train=train)
            if taps and i in taps:
                taps[i][...] = out.reshape(len(out), -1)
        return out

    def forward(self, x, train=False):
        """Log-probabilities of one sample; train=True caches for backward."""
        self._check_input(x.shape)
        return self._run(np.asarray(x, dtype=DTYPE)[None], train=train)[0]

    def backward(self, grad_out, input_grad=True):
        """Gradient of one sample's loss with respect to its input.

        Every Conv2d's grads become this sample's alone, and every
        FullyConnected keeps the factors of its weight gradient, which its
        step() applies (see layers). With input_grad=False the first layer
        computes only what its parameters need, and the call returns None.
        """
        g = np.asarray(grad_out)[None]
        first, *above = self.layers
        for layer in reversed(above):
            g = layer.backward(g)
        if input_grad:
            return first.backward(g)[0]
        if first.parameters():
            first.backward(g, input_grad=False)
        return None

    def classify(self, images, features=True):
        """Eval-mode pass over a batch: (log_probs, predicted, features).

        images is a sequence of input_shape arrays, one array with a
        leading batch axis, or any sized object whose slices are those
        (data.PreprocessedImages preprocesses rasters slice by slice).
        log_probs is (N, classes), predicted (N,) and features maps each
        tap name to an (N, dim) array; with features=False it is empty
        and no tap array is allocated. The images are read and run
        through the layers chunk_size at a time, on up to self.lanes
        threads (lane k runs chunks k, k + lanes, ...), and each image's
        results are bit-identical to a pass of that image alone. An
        error is the one a serial run raises: that of the lowest failing
        chunk, after every helper thread has ended. No layer state is
        written, so a frozen network may serve many callers at once.
        """
        n = len(images)
        log_probs = np.empty((n, *self._shapes[-1]), dtype=DTYPE)
        taps = {idx: np.empty((n, width), dtype=DTYPE)
                for idx, width in self._tap_widths} if features else {}
        if 0 < n <= self.chunk_size:  # one chunk, so every query: inline
            self._classify_chunk(images, 0, log_probs, taps)
        else:
            self._classify_lanes(images, log_probs, taps)
        return log_probs, log_probs.argmax(axis=1), {
            name: taps[idx] for name, idx in self.feature_taps if features}

    def _classify_lanes(self, images, log_probs, taps):
        """classify's chunks on up to self.lanes threads, with its errors."""
        starts = range(0, len(log_probs), self.chunk_size)
        lanes = max(1, min(self.lanes, len(starts)))
        # A chunk known to fail; no lane runs a chunk above it. It is only
        # ever set to a failing chunk, so the lowest failing one still runs.
        stop = [len(starts)]

        def lane(k):
            """Run chunks k, k + lanes, ...: (first failing chunk, error)."""
            for j in range(k, len(starts), lanes):
                if j > stop[0]:
                    break
                try:
                    self._classify_chunk(images, starts[j], log_probs, taps)
                except Exception as exc:
                    stop[0] = j
                    return j, exc
                except BaseException:
                    stop[0] = -1  # interrupted: the helpers stop too
                    raise
            return len(starts), None

        if lanes == 1:
            outcomes = [lane(0)]
        else:
            # The calling thread is lane 0: a helper thread's fresh malloc
            # arena costs resident memory, and the caller's is warm. The
            # with block joins the helpers on every path.
            with ThreadPoolExecutor(lanes - 1, "classify-lane") as helpers:
                outcomes = helpers.map(lane, range(1, lanes))
                outcomes = [lane(0), *outcomes]
        _, error = min(outcomes, key=operator.itemgetter(0))
        if error is not None:
            raise error

    def _classify_chunk(self, images, start, log_probs, taps):
        """Run images[start:start + chunk_size] into their output rows."""
        stop = min(start + self.chunk_size, len(log_probs))
        chunk = images[start:stop]
        for i, x in enumerate(chunk, start):
            self._check_input(np.shape(x), what=f"image {i}")
        log_probs[start:stop] = self._run(
            np.asarray(chunk, dtype=DTYPE),
            taps={idx: t[start:stop] for idx, t in taps.items()})

    def forward_classify(self, x):
        """classify() of one image: (log_probs, predicted, features).

        log_probs is (classes,), predicted an int and features maps each
        tap name to its activation vector.
        """
        log_probs, predicted, features = self.classify([x])
        return (log_probs[0], int(predicted[0]),
                {name: f[0] for name, f in features.items()})

    def freeze(self):
        """Make every parameter read-only for good; returns the network.

        Each parameter becomes a view of a read-only base, and numpy
        refuses to make such a view writable again. The digest is cached
        by the next fingerprint() call, not here. To change a weight of a
        frozen network, give its layer a copy of the array (layer.weights
        = layer.weights.copy()): fingerprint() hashes afresh while any
        parameter is not an array that freeze() handed out.
        """
        for _, layer in self.stepped:
            for name in ("weights", "biases"):
                base = getattr(layer, name)
                base.flags.writeable = False
                setattr(layer, name, base.view())
        self._frozen = self.parameters()
        self._fingerprint = None
        return self

    def fingerprint(self):
        """sha256 over the canonical spec plus every parameter's bytes.

        Hashed once while every parameter is the read-only array that
        freeze() handed out, on every call otherwise.
        """
        values = self.parameters()
        frozen = (self._frozen is not None
                  and all(map(operator.is_, values, self._frozen)))
        if frozen and self._fingerprint is not None:
            return self._fingerprint
        h = hashlib.sha256()
        h.update(self.spec.canonical_json())
        for value in values:
            h.update(np.ascontiguousarray(value, dtype=DTYPE))  # no copy
        digest = h.hexdigest()
        self._fingerprint = digest if frozen else None
        return digest


def _read_cpu_max():
    """The text of the cgroup v2 CPU quota file, or None if unreadable."""
    try:
        with open(CPU_MAX_PATH) as f:
            return f.read()
    except OSError:
        return None


def _usable_cores():
    """Cores this process may run on (all of them where that is unknown).

    The affinity mask, capped by a cgroup v2 CPU quota when cpu.max reads
    "quota period": a container held to 1.5 CPUs gets 2. A quota of
    "max", or a file that is missing or unreadable, caps nothing.
    """
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = os.cpu_count() or 1
    try:
        quota, period = map(int, (_read_cpu_max() or "").split())
    except ValueError:  # "max period", or no quota to read
        return cores
    if quota > 0 and period > 0:
        return min(cores, math.ceil(quota / period))
    return cores


def _tensor_head(shape):
    """u8 rank and u32 dims that precede each tensor's float64 payload."""
    return struct.pack(f"<B{len(shape)}I", len(shape), *shape)


def save_checkpoint(path, network, metadata=None):
    """Write spec, metadata, and all parameters to a deterministic binary file.

    Layout: 8-byte magic, u32 format version, u32 header length, UTF-8 JSON
    header (sorted keys), then each parameter tensor in layer order as
    u8 rank, u32 dims, little-endian float64 payload.
    """
    header = {
        "spec": network.spec.to_dict(),
        "metadata": metadata or {},
    }
    with atomic_write(path) as f:
        write_container_header(f, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                               header)
        for value in network.parameters():
            f.write(_tensor_head(value.shape))
            f.write(np.ascontiguousarray(value, dtype="<f8"))  # no copy


def load_checkpoint(path):
    """Rebuild a frozen Network (plus its metadata dict) from a checkpoint.

    The payload size, worked out from the spec, is checked against the
    file before any parameter is allocated; each tensor is then read
    straight into its parameter, so nothing else holds the payload.
    """
    with open(path, "rb") as f:
        header = read_container_header(
            f, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "checkpoint")
        try:
            spec = NetworkSpec.from_dict(header.get("spec", {}))
            check_payload_size(f, sum(
                1 + 4 * len(shape) + 8 * math.prod(shape)
                for shape in spec.parameter_shapes()), "tensor payload")
            network = Network.from_spec(spec)
        except ConfigurationError as exc:
            raise FormatError(f"checkpoint spec is invalid: {exc}") from exc
        start = f.tell()
        for value in network.parameters():
            offset = f.tell() - start
            head = _tensor_head(value.shape)
            if read_exact(f, len(head), "tensor head") != head:
                raise FormatError(
                    f"stored tensor at payload byte {offset} does not have "
                    f"the network's parameter shape {value.shape}")
            read_into(f, value, f"the tensor at payload byte {offset}")
            if sys.byteorder == "big":  # stored as little-endian float64
                value.byteswap(inplace=True)
    return network.freeze(), header.get("metadata", {})
