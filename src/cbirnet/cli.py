"""Command-line pipeline: prepare, train, index, query, evaluate.

A JSON config file is the source of truth; command-line flags override
individual fields, and the materialized result (every default filled in)
is written as config.json in the output directory, in canonical form:
sorted keys, two-space indent, trailing newline. Re-serializing a parsed
canonical config reproduces it byte for byte. Commands downstream of
train read {output_dir}/config.json automatically unless --config points
elsewhere, so one training run anchors the whole pipeline. RunConfig is
the one home of every setting: each field holds its default and its
rule, and network.check_fields checks them all, so each command refuses
a bad value, from a flag or a file, before it reads or writes anything.

A command that reads the corpus lists it and splits the listing first,
then decodes only the side it uses. train builds and initializes its
network in between, and index and evaluate check their checkpoint
before they list, so every configuration error comes before the first
image is decoded.

Exit codes: 0 success, 2 input data error, 3 configuration error,
4 numerical abort during training, 5 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from ._binio import atomic_write, header_value
from .data import (
    PreprocessedImages,
    generate_synthetic_corpus,
    ingest_directory,
    list_directory,
    preprocess_image,
    read_pgm,
    split_dataset,
    write_corpus,
)
from .errors import (
    CbirError,
    ConfigurationError,
    FormatError,
    InputError,
    StaleIndexError,
    TrainingDiverged,
)
from .metrics import (
    classification_report,
    confusion_matrix,
    emit_pr_plot_data,
    format_report,
    mean_ap,
    mean_pr_curve,
    score_rankings,
)
from .network import (
    UNIT_INTERVAL,
    Network,
    build_architecture,
    check_fields,
    load_checkpoint,
    rule,
    save_checkpoint,
)
from .retrieval import build_index, load_index, query, save_index, scan_columns
from .training import train

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONFIG = 3
EXIT_NUMERIC = 4
EXIT_IO = 5

FEATURE_LAYERS = ("fc1", "fc2", "fc3")
# The stages evaluate times, in order, into timings.tsv.
EVALUATE_STAGES = ("ingest", "classify", "scan", "score", "write")

CHECKPOINT_NAME = "model.ckpt"
INDEX_NAME = "features.idx"
CONFIG_NAME = "config.json"
AT_LEAST_0 = rule(lambda v: v >= 0, ">= 0")
AT_LEAST_1 = rule(lambda v: v >= 1, ">= 1")


@dataclass(frozen=True)
class RunConfig:
    """Every knob of the pipeline, with defaults materialized.

    Each field's rule sits beside it (see network.rule); the fields
    without one take any value of their type.
    """

    data_dir: str | None = None
    output_dir: str = "run_output"
    image_size: int = 224
    train_fraction: float = field(
        default=0.7, metadata=rule(lambda v: 0.0 < v < 1.0, "in (0, 1)"))
    split_seed: int = field(default=0, metadata=AT_LEAST_0)
    scale: float = field(default=1.0, metadata=UNIT_INTERVAL)
    keep_prob: float = field(default=0.5, metadata=UNIT_INTERVAL)
    init_seed: int = field(default=0, metadata=AT_LEAST_0)
    init_std: float = field(
        default=0.01, metadata=rule(lambda v: v > 0.0, "positive"))
    # Zero is allowed so no-op determinism checks can run through the
    # public path; only negative rates are nonsense.
    learning_rate: float = field(default=1e-4, metadata=AT_LEAST_0)
    max_epochs: int = field(default=30, metadata=AT_LEAST_1)
    train_seed: int = field(default=0, metadata=AT_LEAST_0)
    log_interval: int = field(default=0, metadata=AT_LEAST_0)
    layer: str = field(default="fc1", metadata=rule(
        lambda v: v in FEATURE_LAYERS, f"one of {FEATURE_LAYERS}"))
    k: int = field(default=20, metadata=AT_LEAST_1)
    use_class_filter: bool = True

    def __post_init__(self):
        check_fields(self, "config")

    def to_json(self):
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"

    @classmethod
    def field_names(cls):
        return {f.name for f in fields(cls)}


def load_run_config(path):
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError(f"config {path} must be a JSON object")
    unknown = set(raw) - RunConfig.field_names()
    if unknown:
        raise ConfigurationError(
            f"config {path} has unknown fields: {sorted(unknown)}")
    try:
        return RunConfig(**raw)
    except ConfigurationError as exc:
        raise ConfigurationError(f"config {path}: {exc}") from exc


def resolve_config(args):
    """Config file (explicit, or inherited from the output dir) + flag overrides."""
    overrides = {name: getattr(args, name)
                 for name in RunConfig.field_names()
                 if getattr(args, name, None) is not None}
    config_path = getattr(args, "config", None)
    base = {}
    if config_path is not None:
        base = asdict(load_run_config(config_path))
    else:
        out = overrides.get("output_dir", RunConfig.output_dir)
        inherited = Path(out) / CONFIG_NAME
        if inherited.is_file():
            try:
                base = asdict(load_run_config(inherited))
            except ConfigurationError as exc:
                raise ConfigurationError(
                    f"{exc} (read from the output directory; fix the file "
                    f"or pass --config)") from exc
    base.update(overrides)
    return RunConfig(**base)


def write_run_config(cfg):
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    # Every later command reads this file before any flag applies, so a
    # crash mid-write must leave the old one whole.
    with atomic_write(out / CONFIG_NAME) as f:
        f.write(cfg.to_json().encode())


def _load_pipeline_inputs(cfg, need_index=False):
    """Checkpoint (and optionally index) from the configured output dir.

    The configured image_size must be the one the checkpoint was trained
    at, so every command preprocesses at cfg.image_size.
    """
    out = Path(cfg.output_dir)
    ckpt_path = out / CHECKPOINT_NAME
    if not ckpt_path.is_file():
        raise InputError(f"no checkpoint at {ckpt_path}; run train first")
    net, metadata = load_checkpoint(ckpt_path)
    what = f"checkpoint {ckpt_path} metadata"
    class_names = header_value(metadata, "class_names", list, what)
    image_size = header_value(metadata, "image_size", int, what)
    shapes = net.spec.shape_trace()
    if (shapes[0][1:] != (image_size, image_size)
            or shapes[-1] != (len(class_names),)):
        raise FormatError(
            f"{what} (image_size {image_size}, {len(class_names)} class "
            f"names) does not fit network shapes {shapes[0]} -> {shapes[-1]}")
    if cfg.image_size != image_size:
        raise ConfigurationError(
            f"image_size {cfg.image_size} differs from the checkpoint's "
            f"image_size {image_size} in {ckpt_path}")
    index = None
    if need_index:
        idx_path = out / INDEX_NAME
        if not idx_path.is_file():
            raise InputError(f"no index at {idx_path}; run index first")
        index = load_index(idx_path, expected_fingerprint=net.fingerprint())
        # load_index already refuses negative labels.
        labels = np.concatenate([index.true_labels, index.predicted_labels])
        if (labels >= len(class_names)).any():
            raise FormatError(f"index {idx_path} holds labels beyond the "
                              f"{len(class_names)} checkpoint classes")
    return net, metadata, index


def _split_corpus(cfg, expected_class_names=None):
    """The configured corpus's train/test split, made from its listing.

    The split follows the file names, so it does not depend on which
    files decode; nothing is decoded here. Returns a DatasetSplit of
    image-less samples.
    """
    if cfg.data_dir is None:
        raise ConfigurationError("data_dir is not set; pass --data-dir or a config")
    listed, class_names = list_directory(cfg.data_dir)
    if (expected_class_names is not None
            and list(class_names) != list(expected_class_names)):
        raise StaleIndexError(
            f"checkpoint was trained on classes {list(expected_class_names)} "
            f"but {cfg.data_dir} contains {list(class_names)}")
    return split_dataset(listed, class_names,
                         train_fraction=cfg.train_fraction,
                         rng_seed=cfg.split_seed)


def _decode_side(cfg, side):
    """The samples of one side of _split_corpus that decode, as rasters."""
    samples, skipped = ingest_directory(cfg.data_dir, side)
    if skipped:
        print(f"warning: skipped {skipped} undecodable file(s)",
              file=sys.stderr)
    return samples


def cmd_prepare(args):
    out = Path(args.out)
    if out.exists() and any(out.iterdir()) and not args.force:
        raise InputError(
            f"{out} already exists and is not empty; pass --force to overwrite")
    if not args.synthetic:
        raise ConfigurationError(
            "only synthetic corpus generation is supported; pass --synthetic")
    samples, class_names = generate_synthetic_corpus(
        args.classes, args.per_class, args.size, rng_seed=args.seed)
    manifest = write_corpus(samples, class_names, out,
                            extra={"seed": args.seed})
    print(f"wrote {manifest['num_files']} images in {len(class_names)} "
          f"classes to {out}")
    print(f"manifest sha256 {manifest['sha256']}")
    return EXIT_OK


def cmd_train(args):
    cfg = resolve_config(args)
    split = _split_corpus(cfg)
    # Every shape the network cannot take is refused before any decode.
    spec = build_architecture(
        input_shape=(1, cfg.image_size, cfg.image_size),
        num_classes=len(split.class_names),
        keep_prob=cfg.keep_prob,
        scale=cfg.scale)
    net = Network.from_spec(spec)
    net.initialize(cfg.init_seed, weight_std=cfg.init_std)
    train_set = _decode_side(cfg, split.train)
    train_samples = [
        replace(s, image=preprocess_image(s.image, out_size=cfg.image_size))
        for s in train_set]
    report = train(net, train_samples, learning_rate=cfg.learning_rate,
                   max_epochs=cfg.max_epochs, seed=cfg.train_seed,
                   log_interval=cfg.log_interval)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out / CHECKPOINT_NAME, net, metadata={
        "class_names": list(split.class_names),
        "image_size": cfg.image_size,
        "scale": cfg.scale,
        "final_train_error": report.final_train_error,
    })
    (out / "train_report.tsv").write_text(report.to_tsv())
    write_run_config(cfg)
    print(f"trained {cfg.max_epochs} epochs on {len(train_set)} samples; "
          f"final mean loss {report.epoch_losses[-1]:.6f}, "
          f"train error {report.final_train_error:.4f}")
    print(f"checkpoint written to {out / CHECKPOINT_NAME}")
    return EXIT_OK


def cmd_index(args):
    cfg = resolve_config(args)
    net, metadata, _ = _load_pipeline_inputs(cfg)
    train_set = _decode_side(cfg, _split_corpus(
        cfg, expected_class_names=metadata["class_names"]).train)
    index = build_index(net, train_set, PreprocessedImages(
        [s.image for s in train_set], cfg.image_size))
    out = Path(cfg.output_dir)
    save_index(index, out / INDEX_NAME)
    write_run_config(cfg)
    print(f"indexed {len(index)} training images "
          f"({len(index.class_partitions)} predicted-class partitions)")
    print(f"index written to {out / INDEX_NAME}")
    return EXIT_OK


def cmd_query(args):
    cfg = resolve_config(args)
    net, metadata, index = _load_pipeline_inputs(cfg, need_index=True)
    raw = read_pgm(args.image)
    image = preprocess_image(raw, out_size=cfg.image_size)
    timings = {} if args.json_lines else None
    result = query(index, net, image, cfg.layer, cfg.k,
                   use_class_filter=cfg.use_class_filter, timings=timings)
    class_names = metadata["class_names"]
    predicted_name = class_names[result.query_predicted_label]
    if args.json_lines:
        meta = {"query": str(args.image), "predicted_class": predicted_name,
                "layer": cfg.layer, "filter": cfg.use_class_filter,
                "status": result.status, "rows_scanned": result.rows_scanned,
                "rows_ranked": result.rows_ranked, **timings}
        print(json.dumps(meta, sort_keys=True))
        for rank, item in enumerate(result.items, start=1):
            print(json.dumps({
                "rank": rank, "source_id": item.source_id,
                "distance": item.distance,
                "true_class": class_names[item.true_label]}, sort_keys=True))
    else:
        print(f"query {args.image}: predicted class {predicted_name} "
              f"(layer {cfg.layer}, filter "
              f"{'on' if cfg.use_class_filter else 'off'})")
        if result.status == "empty-class":
            print("no indexed images share the predicted class")
        for rank, item in enumerate(result.items, start=1):
            print(f"{rank}\t{item.source_id}\t{item.distance:.9g}"
                  f"\t{class_names[item.true_label]}")
    return EXIT_OK


def _confusion_tsv(cm):
    names = cm.class_names
    lines = ["true\\predicted\t" + "\t".join(names)]
    for i, name in enumerate(names):
        row = "\t".join(str(int(v)) for v in cm.counts[i])
        lines.append(f"{name}\t{row}")
    return "\n".join(lines) + "\n"


def cmd_evaluate(args):
    cfg = resolve_config(args)
    net, metadata, index = _load_pipeline_inputs(cfg, need_index=True)
    out = Path(cfg.output_dir)
    laps = [time.perf_counter()]
    split = _split_corpus(cfg, expected_class_names=metadata["class_names"])
    test_set, class_names = _decode_side(cfg, split.test), split.class_names
    laps.append(time.perf_counter())
    _, predicted_labels, test_features = net.classify(PreprocessedImages(
        [s.image for s in test_set], cfg.image_size))
    laps.append(time.perf_counter())
    settings = [(layer, use_filter) for layer in FEATURE_LAYERS
                for use_filter in (False, True)]
    tops = [scan_columns(index, test_features[layer], predicted_labels,
                         layer, cfg.k, use_filter)
            for layer, use_filter in settings]
    laps.append(time.perf_counter())

    true_labels = np.array([s.label for s in test_set], dtype=np.int64)
    cm = confusion_matrix(true_labels, predicted_labels, class_names)
    report = classification_report(cm)
    totals = np.bincount(index.true_labels,
                         minlength=len(class_names))[true_labels]
    map_rows = []
    plot_curves = []
    for (layer, use_filter), top in zip(settings, tops):
        mode = "on" if use_filter else "off"
        scores = score_rankings(index.true_labels[top.rows], top.counts,
                                true_labels, totals)
        map_rows.append((layer, mode, mean_ap(scores),
                         int(scores.valid.sum())))
        curve = mean_pr_curve(scores)
        if curve is not None:
            plot_curves.append((layer, mode, curve))
    laps.append(time.perf_counter())

    (out / "confusion_matrix.tsv").write_text(_confusion_tsv(cm))
    (out / "classification_report.tsv").write_text(
        format_report(report, class_names))
    map_lines = ["layer\tfilter\tmap\tvalid_queries"]
    for layer, mode, value, valid in map_rows:
        map_lines.append(f"{layer}\t{mode}\t{value:.6f}\t{valid}")
    (out / "map_table.tsv").write_text("\n".join(map_lines) + "\n")
    emit_pr_plot_data(plot_curves, out / "pr_curves.csv")
    write_run_config(cfg)
    laps.append(time.perf_counter())
    (out / "timings.tsv").write_text("stage\tms\n" + "".join(
        f"{stage}\t{(end - start) * 1e3:.3f}\n"
        for stage, start, end in zip(EVALUATE_STAGES, laps, laps[1:])))

    print(f"test accuracy {report.accuracy:.6f} "
          f"({int(round(report.accuracy * cm.total))}/{cm.total})")
    for layer, mode, value, _ in map_rows:
        print(f"mAP {layer} filter_{mode} {value:.6f}")
    print(f"metric files written under {out}")
    return EXIT_OK


def _add_config_flags(p):
    p.add_argument("--config", type=Path, default=None,
                   help="JSON config file; flags override its fields")
    p.add_argument("--data-dir", dest="data_dir", default=None)
    p.add_argument("--out", dest="output_dir", default=None)
    p.add_argument("--image-size", dest="image_size", type=int, default=None)
    p.add_argument("--train-fraction", dest="train_fraction", type=float,
                   default=None)
    p.add_argument("--split-seed", dest="split_seed", type=int, default=None)
    p.add_argument("--scale", dest="scale", type=float, default=None)
    p.add_argument("--keep-prob", dest="keep_prob", type=float, default=None)
    p.add_argument("--init-seed", dest="init_seed", type=int, default=None)
    p.add_argument("--init-std", dest="init_std", type=float, default=None,
                   help="weight init std; raise above 0.01 for narrow "
                        "scaled-down networks")
    p.add_argument("--lr", dest="learning_rate", type=float, default=None)
    p.add_argument("--epochs", dest="max_epochs", type=int, default=None)
    p.add_argument("--train-seed", dest="train_seed", type=int, default=None)
    p.add_argument("--log-interval", dest="log_interval", type=int,
                   default=None)
    p.add_argument("--layer", dest="layer", choices=FEATURE_LAYERS,
                   default=None)
    p.add_argument("--k", dest="k", type=int, default=None)
    p.add_argument("--filter", dest="use_class_filter",
                   action=argparse.BooleanOptionalAction, default=None,
                   help="restrict search to the query's predicted class")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cbirnet",
        description="Train a convolutional classifier and retrieve images "
                    "by feature similarity.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="generate a synthetic corpus")
    p.add_argument("--synthetic", action="store_true")
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--per-class", dest="per_class", type=int, default=100)
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train a network, write a checkpoint")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("index", help="build the feature index")
    _add_config_flags(p)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("query", help="retrieve nearest images for one query")
    _add_config_flags(p)
    p.add_argument("--image", required=True, type=Path)
    p.add_argument("--json-lines", action="store_true")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("evaluate", help="classification + retrieval metrics")
    _add_config_flags(p)
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None):
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TrainingDiverged as exc:
        print(f"training aborted: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (InputError, FormatError, StaleIndexError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CbirError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
