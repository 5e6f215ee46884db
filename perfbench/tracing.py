"""Span tracing of cbirnet from outside the package, and the per-layer metrics.

The tracer replaces the public functions of each cbirnet module, and the
public methods of ``Network`` and of every live layer, with wrappers that
record one span per call. A span holds an id, its parent span, the id of
the operation it belongs to (the enclosing command, SGD step or query),
a name, start and end in ``perf_counter_ns`` and optional attributes.
Spans stay in memory, as tuples so the garbage collector does not walk
them, until ``write_jsonl`` is called. Nothing in ``src/``
changes; the wrappers are installed only in a traced run.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import statistics
import time
from collections import defaultdict

# Span names that start a new operation; every span below one shares its id.
OPERATIONS = ("cli.cmd_", "training.sgd_step", "retrieval.query")

LAYER_NAMES = tuple(
    [f"conv{i}" for i in range(1, 6)] + [f"pool{i}" for i in range(1, 4)]
    + ["fc1", "fc2", "fc3", "head", "relu", "dropout", "logsoftmax"])

NETWORK_METHODS = ("initialize", "seed_dropout", "zero_grads", "forward",
                   "backward", "forward_classify", "fingerprint")

ID, PARENT, OP, NAME, START, END, ATTRS = range(7)


def _train_attr(position):
    """Attributes of a forward call whose ``train`` flag is at ``position``."""
    def attrs(args, kwargs, result):
        train = kwargs.get("train", len(args) > position and args[position])
        return {"train": bool(train)}
    return attrs


def _query_attrs(args, kwargs, result):
    call = dict(zip(("index", "net", "query_image", "layer", "k",
                     "use_class_filter"), args), **kwargs)
    index, layer = call["index"], call["layer"]
    use_filter = bool(call["use_class_filter"])
    if use_filter:
        rows = len(index.class_partitions.get(result.query_predicted_label, ()))
    else:
        rows = len(index)
    return {"layer": layer, "filter": use_filter, "rows": rows,
            "size": len(index)}


def _ingest_attrs(args, kwargs, result):
    return {"images": len(result[0])}


ATTRIBUTES = {
    "network.Network.forward": _train_attr(2),
    "retrieval.query": _query_attrs,
    "data.ingest_directory": _ingest_attrs,
}


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.spans = []  # appended when a call ends
        self._stack = []  # (span id, op id) of the calls in progress
        self._ids = itertools.count()

    def wrap(self, name, fn, attrs=None):
        spans, stack, ids = self.spans, self._stack, self._ids
        starts_op = name.startswith(OPERATIONS)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent, op = stack[-1] if stack else (None, span_id)
            if starts_op:
                op = span_id
            stack.append((span_id, op))
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
            spans.append((span_id, parent, op, name, start, end,
                          attrs(args, kwargs, result) if attrs else None))
            return result

        return traced

    def install(self, cbirnet_modules, network_cls, layer_types):
        """Wrap every public function and the Network/layer methods.

        ``cbirnet_modules`` maps a short module name to the module. A
        function imported into several modules (``cli`` imports most of
        them) is replaced everywhere it is bound, so calls through any
        name are traced. ``layer_types`` maps a layer class to its metric
        name prefix ("conv", "pool", "fc", ...).
        """
        replaced = {}
        for short, module in cbirnet_modules.items():
            for attr, obj in list(vars(module).items()):
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and (not attr.startswith("_")
                             or attr == "_load_pipeline_inputs")):
                    name = f"{short}.{attr}"
                    replaced[obj] = self.wrap(name, obj, ATTRIBUTES.get(name))
        for module in cbirnet_modules.values():
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(module, attr, replaced[obj])

        for method in NETWORK_METHODS:
            name = f"network.Network.{method}"
            setattr(network_cls, method,
                    self.wrap(name, vars(network_cls)[method],
                              ATTRIBUTES.get(name)))
        from_spec = self.wrap("network.Network.from_spec",
                              vars(network_cls)["from_spec"].__func__)
        tracer = self

        def from_spec_and_trace_layers(cls, spec):
            net = from_spec(cls, spec)
            tracer.trace_layers(net, layer_types)
            return net

        network_cls.from_spec = classmethod(from_spec_and_trace_layers)

    def trace_layers(self, net, layer_types):
        """Shadow each layer's forward/backward with a per-instance wrapper."""
        counts = defaultdict(int)
        last_fc = max(i for i, layer in enumerate(net.layers)
                      if layer_types[type(layer)] == "fc")
        for i, layer in enumerate(net.layers):
            kind = layer_types[type(layer)]
            if i == last_fc:
                label = "head"
            elif kind in ("conv", "pool", "fc"):
                counts[kind] += 1
                label = f"{kind}{counts[kind]}"
            else:
                label = kind
            layer.forward = self.wrap(f"layers.{label}.forward",
                                      layer.forward, _train_attr(1))
            layer.backward = self.wrap(f"layers.{label}.backward",
                                       layer.backward)

    def write_jsonl(self, path):
        with open(path, "w") as f:
            for s in sorted(self.spans):
                f.write(json.dumps({
                    "id": s[ID], "parent": s[PARENT], "op": s[OP],
                    "name": s[NAME], "start_ns": s[START], "end_ns": s[END],
                    "attrs": s[ATTRS]}, sort_keys=True) + "\n")


def _median(values):
    return statistics.median(values) if values else float("nan")


def _mean(values):
    return sum(values) / len(values) if values else float("nan")


def layer_metrics(spans, eval_images_per_command):
    """Derive the per-layer metrics from the spans of one traced pass.

    ``eval_images_per_command`` is the number of test images one
    ``evaluate`` command scores. Times are medians per call unless the
    name says otherwise; self time is a span's duration minus its
    children's (calls are sequential, so children never overlap).
    """
    children = defaultdict(list)
    by_name = defaultdict(list)
    by_id = {s[ID]: s for s in spans}
    for s in spans:
        by_name[s[NAME]].append(s)
        if s[PARENT] is not None:
            children[s[PARENT]].append(s)

    def dur(s):
        return s[END] - s[START]

    def self_ns(s):
        return dur(s) - sum(dur(c) for c in children[s[ID]])

    def ms(values_ns):
        return _median(values_ns) / 1e6

    def descendants(s, stop=()):
        for c in children[s[ID]]:
            if c[NAME] in stop:
                continue
            yield c
            yield from descendants(c, stop)

    out = {}
    for label in LAYER_NAMES:
        per_pass = {"train_fwd_ms": defaultdict(int), "bwd_ms": defaultdict(int),
                    "eval_fwd_ms": defaultdict(int)}
        for s in by_name[f"layers.{label}.forward"]:
            key = "train_fwd_ms" if s[ATTRS]["train"] else "eval_fwd_ms"
            per_pass[key][s[PARENT]] += dur(s)
        for s in by_name[f"layers.{label}.backward"]:
            per_pass["bwd_ms"][s[PARENT]] += dur(s)
        for key, sums in per_pass.items():
            out[f"layers.{label}.{key}"] = ms(list(sums.values()))

    steps = by_name["training.sgd_step"]
    step_parts = ("network.Network.zero_grads", "network.Network.forward",
                  "network.Network.backward")
    out["training.sgd_step_ms"] = ms([dur(s) for s in steps])
    out["training.zero_grads_ms"] = ms(
        [dur(s) for s in by_name["network.Network.zero_grads"]])
    out["training.forward_ms"] = ms(
        [dur(s) for s in by_name["network.Network.forward"]])
    out["training.backward_ms"] = ms(
        [dur(s) for s in by_name["network.Network.backward"]])
    out["training.update_ms"] = ms([
        dur(s) - sum(dur(c) for c in children[s[ID]] if c[NAME] in step_parts)
        for s in steps])
    out["training.final_error_ms"] = ms([
        sum(dur(c) for c in children[s[ID]]
            if c[NAME] == "network.Network.forward_classify")
        for s in by_name["training.train"]])

    queries = by_name["retrieval.query"]
    evaluates = by_name["cli.cmd_evaluate"]
    setup = ("cli._load_pipeline_inputs",)

    def calls_per_eval_image(name):
        return _median([
            sum(1 for d in descendants(e, setup) if d[NAME] == name)
            / eval_images_per_command for e in evaluates])

    out["network.fingerprint_ms"] = ms(
        [dur(s) for s in by_name["network.Network.fingerprint"]])
    out["network.fingerprint_calls_per_query"] = _mean([
        sum(1 for c in children[q[ID]]
            if c[NAME] == "network.Network.fingerprint") for q in queries])
    out["network.fingerprint_calls_per_eval_image"] = calls_per_eval_image(
        "network.Network.fingerprint")
    out["network.forward_classify_ms"] = ms(
        [dur(s) for s in by_name["network.Network.forward_classify"]])
    out["network.forward_calls_per_eval_image"] = calls_per_eval_image(
        "network.Network.forward_classify")
    for metric, name in (("load_checkpoint_ms", "network.load_checkpoint"),
                         ("from_spec_ms", "network.Network.from_spec"),
                         ("initialize_ms", "network.Network.initialize"),
                         ("save_checkpoint_ms", "network.save_checkpoint")):
        out[f"network.{metric}"] = ms([dur(s) for s in by_name[name]])

    for metric, use_filter in (("scan_ms", True), ("scan_nofilter_ms", False)):
        out[f"retrieval.{metric}"] = ms(
            [self_ns(q) for q in queries if q[ATTRS]["filter"] == use_filter])
    filtered = [q[ATTRS] for q in queries if q[ATTRS]["filter"]]
    out["retrieval.rows_scanned_per_query"] = _mean([a["rows"] for a in filtered])
    out["retrieval.rows_scanned_nofilter_per_query"] = _mean(
        [q[ATTRS]["rows"] for q in queries if not q[ATTRS]["filter"]])
    out["retrieval.filter_fraction"] = _mean(
        [a["rows"] / a["size"] for a in filtered])
    for metric, name in (("build_index_ms", "retrieval.build_index"),
                         ("save_index_ms", "retrieval.save_index"),
                         ("load_index_ms", "retrieval.load_index")):
        out[f"retrieval.{metric}"] = ms([dur(s) for s in by_name[name]])

    ingests = by_name["data.ingest_directory"]
    out["data.ingest_ms_per_image"] = _median(
        [dur(s) / s[ATTRS]["images"] for s in ingests]) / 1e6
    out["data.read_pgm_ms"] = ms([dur(s) for s in by_name["data.read_pgm"]])
    out["data.preprocess_ms"] = ms(
        [dur(s) for s in by_name["data.preprocess_image"]])
    out["data.images_ingested"] = sum(s[ATTRS]["images"] for s in ingests)

    out["metrics.evaluate_ms"] = ms([
        sum(dur(d) for d in descendants(e)
            if d[NAME].startswith("metrics.")
            and not by_id[d[PARENT]][NAME].startswith("metrics."))
        for e in evaluates])

    def outside_cli_ns(s):
        """Time under s spent in spans of other modules than cli."""
        return sum(outside_cli_ns(c) if c[NAME].startswith("cli.") else dur(c)
                   for c in children[s[ID]])

    for command in ("train", "index", "evaluate"):
        runs = by_name[f"cli.cmd_{command}"]
        out[f"cli.{command}_s"] = _median([dur(s) for s in runs]) / 1e9
        out[f"cli.{command}_self_ms"] = ms(
            [dur(s) - outside_cli_ns(s) for s in runs])
    return out
