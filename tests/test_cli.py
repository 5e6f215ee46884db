"""End-to-end pipeline through the command-line entry point."""

import csv
import dataclasses
import errno
import json
import math
import os
import shutil
import time
import tracemalloc

import numpy as np
import pytest

import conftest
from cbirnet import _binio, cli, data, metrics, retrieval
from cbirnet.cli import EXIT_CONFIG, EXIT_INPUT, RunConfig, main
from cbirnet.data import preprocess_image, read_pgm
from cbirnet.metrics import mean_ap
from cbirnet.network import CHUNK_BYTES, Network, load_checkpoint
from cbirnet.retrieval import load_index, query

DESK = ["--image-size", "64", "--scale", "0.05", "--epochs", "3",
        "--lr", "0.01", "--k", "10"]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """prepare -> train -> index, shared by the read-only tests below."""
    root = tmp_path_factory.mktemp("pipeline")
    data, run_dir = root / "data", root / "run"
    assert main(["prepare", "--synthetic", "--classes", "3",
                 "--per-class", "12", "--size", "64", "--seed", "5",
                 "--out", str(data)]) == 0
    assert main(["train", "--data-dir", str(data), "--out", str(run_dir),
                 *DESK]) == 0
    assert main(["index", "--out", str(run_dir)]) == 0
    return data, run_dir


class TestPrepare:
    def test_writes_corpus_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        code, stdout, _ = run(capsys, "prepare", "--synthetic",
                              "--classes", "3", "--per-class", "10",
                              "--size", "16", "--seed", "7",
                              "--out", str(out))
        assert code == 0
        assert "30 images" in stdout
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["num_files"] == 30
        assert sum(manifest["class_counts"].values()) == 30
        assert manifest["seed"] == 7
        pgms = list(out.rglob("*.pgm"))
        assert len(pgms) == 30

    def test_manifest_stable_across_runs(self, tmp_path, capsys):
        shas = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            code, stdout, _ = run(capsys, "prepare", "--synthetic",
                                  "--classes", "2", "--per-class", "10",
                                  "--size", "16", "--seed", "3",
                                  "--out", str(out))
            assert code == 0
            shas.append(json.loads(
                (out / "manifest.json").read_text())["sha256"])
        assert shas[0] == shas[1]

    def test_refuses_nonempty_dir_without_force(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        out.mkdir()
        (out / "keep.txt").write_text("x")
        code, _, stderr = run(capsys, "prepare", "--synthetic",
                              "--out", str(out))
        assert code == EXIT_INPUT
        assert (out / "keep.txt").read_text() == "x"  # untouched
        code, _, _ = run(capsys, "prepare", "--synthetic", "--classes", "2",
                         "--per-class", "10", "--size", "16",
                         "--out", str(out), "--force")
        assert code == 0


class TestTrain:
    def test_checkpoint_loadable(self, pipeline):
        _, run_dir = pipeline
        net, metadata = load_checkpoint(run_dir / "model.ckpt")
        assert metadata["class_names"] == ["c00_grating", "c01_polygon",
                                           "c02_blobs"]
        assert metadata["image_size"] == 64
        assert net.spec.input_shape == (1, 64, 64)

    def test_train_report_written(self, pipeline):
        _, run_dir = pipeline
        lines = (run_dir / "train_report.tsv").read_text().splitlines()
        assert lines[0] == "epoch\tmean_loss\tseconds"
        assert len(lines) == 4  # 3 epochs

    def test_rerun_identical_checkpoint_bytes(self, pipeline, tmp_path,
                                              capsys):
        data, run_dir = pipeline
        other = tmp_path / "rerun"
        code, _, _ = run(capsys, "train", "--data-dir", str(data),
                         "--out", str(other), *DESK)
        assert code == 0
        assert (other / "model.ckpt").read_bytes() == \
            (run_dir / "model.ckpt").read_bytes()

    def test_config_materialized_and_canonical(self, pipeline):
        _, run_dir = pipeline
        text = (run_dir / "config.json").read_text()
        parsed = json.loads(text)
        assert parsed["scale"] == 0.05
        assert parsed["layer"] == "fc1"  # default materialized
        assert RunConfig(**parsed).to_json() == text

    def test_config_write_failing_part_way_keeps_the_old_file(
            self, tmp_path, monkeypatch):
        # A full disk after half the bytes: the old config.json stays
        # whole, since every later command reads it first, and no
        # temporary file is left beside it.
        out = tmp_path / "o"
        cfg = RunConfig(data_dir=str(tmp_path), output_dir=str(out))
        cli.write_run_config(cfg)
        old = (out / "config.json").read_bytes()

        class HalfWrite:
            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self.f.__exit__(*exc)

            def write(self, b):
                self.f.write(b[:len(b) // 2])
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(_binio, "open", lambda *a: HalfWrite(open(*a)),
                            raising=False)
        with pytest.raises(OSError):
            cli.write_run_config(dataclasses.replace(cfg, k=cfg.k + 1))
        assert (out / "config.json").read_bytes() == old
        assert sorted(p.name for p in out.iterdir()) == ["config.json"]

    def test_unknown_config_field_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"no_such_knob": 1}))
        code, _, stderr = run(capsys, "train", "--config", str(cfg),
                              "--out", str(tmp_path / "o"))
        assert code == EXIT_CONFIG
        assert "no_such_knob" in stderr

    @pytest.mark.parametrize("name", sorted(RunConfig.field_names()))
    def test_wrong_typed_config_field_is_config_error(self, name, tmp_path,
                                                      capsys):
        # A JSON value of the wrong type for each field; an int field
        # takes no true, false or float.
        wrong = {"data_dir": 5, "output_dir": 5, "image_size": "64",
                 "train_fraction": "0.7", "split_seed": 1.5, "scale": "0.1",
                 "keep_prob": None, "init_seed": True, "init_std": [0.01],
                 "learning_rate": False, "max_epochs": 3.0,
                 "train_seed": "0", "log_interval": 0.5, "layer": 1, "k": True,
                 "use_class_filter": "yes"}[name]
        out = tmp_path / "o"
        out.mkdir()
        cfg = json.loads(RunConfig(data_dir=str(tmp_path)).to_json())
        cfg[name] = wrong
        (out / "config.json").write_text(json.dumps(cfg))
        for argv in (["train"], ["index"], ["query", "--image", "x.pgm"],
                     ["evaluate"]):
            code, _, stderr = run(capsys, *argv, "--out", str(out))
            assert code == EXIT_CONFIG
            assert (f"configuration error: config {out / 'config.json'}: "
                    f"config field {name!r}") in stderr
            assert "fix the file or pass --config" in stderr
            assert "Traceback" not in stderr

    def test_config_naming_shuffle_each_epoch_is_config_error(self, tmp_path,
                                                              capsys):
        # Every epoch shuffles, so the field that could turn that off is
        # gone, and a config.json that still names it is refused.
        out = tmp_path / "o"
        out.mkdir()
        cfg = json.loads(RunConfig(data_dir=str(tmp_path)).to_json())
        cfg["shuffle_each_epoch"] = True
        (out / "config.json").write_text(json.dumps(cfg))
        for argv in (["train"], ["index"], ["query", "--image", "x.pgm"],
                     ["evaluate"]):
            code, _, stderr = run(capsys, *argv, "--out", str(out))
            assert code == EXIT_CONFIG
            assert "unknown fields: ['shuffle_each_epoch']" in stderr
            assert "Traceback" not in stderr

    def test_config_numbers_and_null_data_dir_accepted(self):
        cfg = RunConfig(data_dir=None, scale=1, learning_rate=0.01)
        assert (cfg.data_dir, cfg.scale) == (None, 1)

    def test_invalid_learning_rate_is_config_error(self, pipeline, tmp_path,
                                                   capsys):
        data, _ = pipeline
        code, _, _ = run(capsys, "train", "--data-dir", str(data),
                         "--out", str(tmp_path / "o"), "--image-size", "64",
                         "--scale", "0.05", "--lr", "-1")
        assert code == EXIT_CONFIG

    def test_init_std_flag_materialized(self, pipeline, tmp_path, capsys):
        data, _ = pipeline
        out = tmp_path / "o"
        code, _, _ = run(capsys, "train", "--data-dir", str(data),
                         "--out", str(out), "--init-std", "0.15", *DESK)
        assert code == 0
        cfg = json.loads((out / "config.json").read_text())
        assert cfg["init_std"] == 0.15

    def test_nonpositive_init_std_is_config_error(self, pipeline, tmp_path,
                                                  capsys):
        data, _ = pipeline
        code, _, _ = run(capsys, "train", "--data-dir", str(data),
                         "--out", str(tmp_path / "o"), "--init-std", "0",
                         *DESK)
        assert code == EXIT_CONFIG

    def test_missing_data_dir_is_input_error(self, tmp_path, capsys):
        code, _, _ = run(capsys, "train", "--data-dir",
                         str(tmp_path / "nope"),
                         "--out", str(tmp_path / "o"), *DESK)
        assert code == EXIT_INPUT

    def test_training_settings_checked_before_the_corpus(self, tmp_path,
                                                         capsys):
        code, _, stderr = run(capsys, "train", "--epochs", "0",
                              "--data-dir", str(tmp_path / "nope"),
                              "--out", str(tmp_path / "o"))
        assert code == EXIT_CONFIG
        assert "configuration error: max_epochs" in stderr

    @pytest.mark.parametrize("size", ["0", "-3", "4"])
    def test_image_size_the_network_cannot_take_refused_before_any_decode(
            self, pipeline, tmp_path, capsys, caplog, monkeypatch, size):
        # The corpus holds a 1x1 PGM, which ingest would skip; the network
        # is built before any file is decoded, so none is read or skipped.
        corpus = tmp_path / "data"
        shutil.copytree(pipeline[0], corpus)
        data.write_pgm(corpus / "c00_grating" / "dot.pgm",
                       np.zeros((1, 1), dtype=np.uint8))
        read = []
        monkeypatch.setattr(data, "read_pgm",
                            lambda path: read.append(path) or read_pgm(path))
        code, _, stderr = run(capsys, "train", "--data-dir", str(corpus),
                              "--out", str(tmp_path / "o"), *DESK,
                              "--image-size", size)
        assert code == EXIT_CONFIG
        assert ("configuration error: window 11x11 (stride 4, padding 2) "
                f"cannot slide over a {size}x{size} input") in stderr
        assert "skipping" not in caplog.text + stderr
        assert "skipped" not in stderr
        assert "Traceback" not in stderr
        assert read == []


class TestIndex:
    def test_counts_match_training_split(self, pipeline):
        _, run_dir = pipeline
        index = load_index(run_dir / "features.idx")
        # floor(12 * 0.7) = 8 training images per class, 3 classes
        assert len(index) == 24

    def test_fingerprint_matches_checkpoint(self, pipeline):
        _, run_dir = pipeline
        net, _ = load_checkpoint(run_dir / "model.ckpt")
        index = load_index(run_dir / "features.idx",
                           expected_fingerprint=net.fingerprint())
        assert index.network_fingerprint == net.fingerprint()

    def test_rerun_identical_index_bytes(self, pipeline, tmp_path, capsys):
        data, run_dir = pipeline
        other = tmp_path / "rerun"
        assert run(capsys, "train", "--data-dir", str(data),
                   "--out", str(other), *DESK)[0] == 0
        assert run(capsys, "index", "--out", str(other))[0] == 0
        assert (other / "features.idx").read_bytes() == \
            (run_dir / "features.idx").read_bytes()

    def test_class_mismatch_is_staleness(self, pipeline, tmp_path, capsys):
        _, run_dir = pipeline
        other_data = tmp_path / "other_data"
        assert run(capsys, "prepare", "--synthetic", "--classes", "4",
                   "--per-class", "10", "--size", "64", "--seed", "1",
                   "--out", str(other_data))[0] == 0
        code, _, stderr = run(capsys, "index", "--out", str(run_dir),
                              "--data-dir", str(other_data))
        assert code == EXIT_INPUT
        assert "classes" in stderr

    def test_missing_checkpoint_is_input_error(self, tmp_path, capsys):
        code, _, _ = run(capsys, "index", "--out", str(tmp_path / "empty"),
                         "--data-dir", str(tmp_path))
        assert code == EXIT_INPUT


class TestQuery:
    def probe(self, pipeline):
        data, run_dir = pipeline
        index = load_index(run_dir / "features.idx")
        return data / index.source_ids[0]

    def test_indexed_image_rank_one_distance_zero(self, pipeline, capsys):
        data, run_dir = pipeline
        image = self.probe(pipeline)
        code, stdout, _ = run(capsys, "query", "--out", str(run_dir),
                              "--image", str(image), "--no-filter")
        assert code == 0
        first = stdout.splitlines()[1].split("\t")
        assert first[0] == "1"
        assert first[1] == str(image.relative_to(data))
        assert float(first[2]) == 0.0

    def test_repeated_invocations_identical(self, pipeline, capsys):
        _, run_dir = pipeline
        image = self.probe(pipeline)
        outputs = {run(capsys, "query", "--out", str(run_dir),
                       "--image", str(image), "--k", "5")[1]
                   for _ in range(3)}
        assert len(outputs) == 1

    def test_k_exceeding_candidates_returns_all(self, pipeline, capsys):
        _, run_dir = pipeline
        image = self.probe(pipeline)
        code, stdout, _ = run(capsys, "query", "--out", str(run_dir),
                              "--image", str(image), "--k", "5000",
                              "--no-filter")
        assert code == 0
        assert len(stdout.splitlines()) == 1 + 24  # header + whole index

    def test_json_lines_parse(self, pipeline, capsys):
        _, run_dir = pipeline
        image = self.probe(pipeline)
        code, stdout, _ = run(capsys, "query", "--out", str(run_dir),
                              "--image", str(image), "--k", "3",
                              "--json-lines")
        assert code == 0
        lines = [json.loads(l) for l in stdout.splitlines()]
        assert "predicted_class" in lines[0]
        assert lines[1]["rank"] == 1
        assert {"rank", "source_id", "distance", "true_class"} <= set(lines[1])
        # The meta line reports the scan's work and the stages' wall time.
        meta = lines[0]
        index = load_index(run_dir / "features.idx")
        class_names = load_checkpoint(run_dir / "model.ckpt")[1]["class_names"]
        label = class_names.index(meta["predicted_class"])
        assert meta["rows_scanned"] == len(index.class_partitions[label])
        assert len(lines) - 1 <= meta["rows_ranked"] <= meta["rows_scanned"]
        for key in ("forward_ms", "scan_ms"):
            assert isinstance(meta[key], float) and meta[key] >= 0.0
        code, stdout, _ = run(capsys, "query", "--out", str(run_dir),
                              "--image", str(image), "--k", "3",
                              "--json-lines", "--no-filter")
        assert code == 0
        meta = json.loads(stdout.splitlines()[0])
        assert meta["rows_scanned"] == len(index)
        assert 3 <= meta["rows_ranked"] <= len(index)

    def test_unreadable_image_is_input_error(self, pipeline, capsys):
        _, run_dir = pipeline
        code, _, _ = run(capsys, "query", "--out", str(run_dir),
                         "--image", "/no/such/file.pgm")
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("name, edit", [
        ("features.idx",
         lambda h: {k: v for k, v in h.items() if k != "fingerprint"}),
        ("features.idx", lambda h: dict(h, feature_dims={})),
        ("features.idx", lambda h: dict(h, records=[
            {k: v for k, v in h["records"][0].items() if k != "source_id"},
            *h["records"][1:]])),
        ("features.idx", lambda h: dict(h, feature_dims=dict(
            h["feature_dims"], fc1=2 ** 40))),
        ("model.ckpt", lambda h: [h]),
        ("model.ckpt",
         lambda h: conftest.with_layer_field(h, "conv", "stride", None)),
        ("model.ckpt",
         lambda h: conftest.with_layer_field(h, "conv", "out_channels", "x")),
        ("model.ckpt",
         lambda h: conftest.with_layer_field(h, "conv", "stride", 0)),
        ("model.ckpt", lambda h: dict(h, metadata={
            k: v for k, v in h["metadata"].items() if k != "class_names"})),
        ("model.ckpt", lambda h: dict(h, metadata={
            k: v for k, v in h["metadata"].items() if k != "image_size"})),
        ("model.ckpt", lambda h: conftest.with_layer_field(
            h, "conv", "out_channels", 2 ** 40)),
        ("model.ckpt", lambda h: dict(h, metadata=dict(
            h["metadata"], class_names=["a"]))),
        ("model.ckpt", lambda h: dict(h, metadata=dict(
            h["metadata"], image_size=32))),
        ("features.idx", lambda h: dict(h, records=[
            dict(h["records"][0], true_label=3), *h["records"][1:]])),
        ("model.ckpt", lambda h: dict(h, spec=dict(
            h["spec"], input_shape=[1, "64", 64]))),
        ("model.ckpt", lambda h: dict(h, spec=dict(
            h["spec"], input_shape=[True, 64, 64.9]))),
        ("model.ckpt", lambda h: dict(h, spec=dict(
            h["spec"], input_shape=[1.0, 64, 64]))),
        ("model.ckpt",
         lambda h: conftest.with_layer_field(h, "dropout", "keep_prob", 7)),
    ], ids=["index-no-fingerprint", "index-layer-without-dims",
            "index-record-without-source-id", "index-huge-dim",
            "checkpoint-list-header", "checkpoint-null-stride",
            "checkpoint-string-out-channels", "checkpoint-zero-stride",
            "checkpoint-without-class-names", "checkpoint-without-image-size",
            "checkpoint-huge-out-channels", "checkpoint-short-class-names",
            "checkpoint-wrong-image-size", "index-label-beyond-classes",
            "checkpoint-string-input-shape", "checkpoint-boolean-input-shape",
            "checkpoint-float-input-shape", "checkpoint-keep-prob-above-one"])
    def test_malformed_header_is_input_error(self, pipeline, tmp_path,
                                             capsys, name, edit):
        _, run_dir = pipeline
        image = self.probe(pipeline)
        copy = tmp_path / "run"
        shutil.copytree(run_dir, copy)
        conftest.rewrite_container_header(copy / name, edit)
        code, _, stderr = run(capsys, "query", "--out", str(copy),
                              "--image", str(image))
        assert code == EXIT_INPUT
        assert stderr.startswith("input error: ")


@pytest.mark.parametrize("command", ["index", "query", "evaluate"])
def test_image_size_unlike_the_checkpoint_is_config_error(
        pipeline, tmp_path, capsys, monkeypatch, command):
    # The checkpoint was trained at 64 px: a 32 px run fails before any
    # corpus is listed, naming both sizes.
    _, run_dir = pipeline
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)

    def unlisted(*args, **kwargs):
        raise AssertionError("the corpus was listed")

    monkeypatch.setattr(cli, "list_directory", unlisted)
    extra = ["--image", "x.pgm"] if command == "query" else []
    code, _, stderr = run(capsys, command, "--out", str(copy),
                          "--image-size", "32", *extra)
    assert code == EXIT_CONFIG
    assert ("configuration error: image_size 32 differs from the "
            "checkpoint's image_size 64") in stderr
    assert "Traceback" not in stderr


# (flag, its value, field, the same value in config.json, message)
BAD_TRAINING_SETTINGS = [
    ("--lr", "-1", "learning_rate", -1.0,
     "learning_rate must be >= 0, got -1.0"),
    ("--epochs", "0", "max_epochs", 0, "max_epochs must be >= 1, got 0"),
    ("--log-interval", "-1", "log_interval", -1,
     "log_interval must be >= 0, got -1"),
    ("--split-seed", "-1", "split_seed", -1, "split_seed must be >= 0, got -1"),
    ("--init-seed", "-1", "init_seed", -1, "init_seed must be >= 0, got -1"),
    ("--train-seed", "-1", "train_seed", -1, "train_seed must be >= 0, got -1"),
    ("--scale", "9", "scale", 9.0, "scale must be in (0, 1], got 9.0"),
    ("--keep-prob", "7", "keep_prob", 7.0,
     "keep_prob must be in (0, 1], got 7.0"),
    # NaN fails every comparison, so no rule lets it through.
    pytest.param(("--lr", "nan", "learning_rate", math.nan,
                  "learning_rate must be >= 0, got nan"),
                 id="learning_rate_nan"),
]
# The RunConfig fields that take any value of their type; every other
# field carries a rule.
FREE_FIELDS = {"data_dir", "output_dir", "image_size", "use_class_filter"}
NOT_TRAIN = [("index", []), ("query", ["--image", "x.pgm"]),
             ("evaluate", [])]


class TestEveryCommandChecksEverySetting:
    """Every command refuses a bad setting, from a flag or from
    config.json, before it reads or writes a file: train before it lists
    the corpus, the others before they read the checkpoint."""

    @pytest.fixture
    def run_copy(self, pipeline, tmp_path, monkeypatch):
        copy = tmp_path / "run"
        shutil.copytree(pipeline[1], copy)

        def unread(*args, **kwargs):
            raise AssertionError("the checkpoint was read")

        monkeypatch.setattr(cli, "load_checkpoint", unread)
        return copy

    @staticmethod
    def files(directory):
        return {p.name: p.read_bytes() for p in directory.iterdir()}

    @pytest.mark.parametrize("command, extra", NOT_TRAIN)
    @pytest.mark.parametrize("setting", BAD_TRAINING_SETTINGS,
                             ids=lambda s: s[2])
    def test_bad_flag_refused_and_nothing_written(
            self, run_copy, capsys, command, extra, setting):
        flag, value, _, _, message = setting
        before = self.files(run_copy)
        code, _, stderr = run(capsys, command, "--out", str(run_copy),
                              flag, value, *extra)
        assert code == EXIT_CONFIG
        assert f"configuration error: {message}" in stderr
        assert "Traceback" not in stderr
        assert self.files(run_copy) == before

    @pytest.mark.parametrize("command, extra", NOT_TRAIN)
    @pytest.mark.parametrize("setting", BAD_TRAINING_SETTINGS,
                             ids=lambda s: s[2])
    def test_bad_value_in_config_json_refused(
            self, run_copy, capsys, command, extra, setting):
        _, _, field, value, message = setting
        path = run_copy / "config.json"
        cfg = json.loads(path.read_text())
        cfg[field] = value
        path.write_text(json.dumps(cfg))
        before = self.files(run_copy)
        code, _, stderr = run(capsys, command, "--out", str(run_copy), *extra)
        assert code == EXIT_CONFIG
        assert f"configuration error: config {path}: {message}" in stderr
        assert "Traceback" not in stderr
        assert self.files(run_copy) == before

    @pytest.mark.parametrize("setting", BAD_TRAINING_SETTINGS,
                             ids=lambda s: s[2])
    def test_train_refuses_before_the_corpus(
            self, pipeline, tmp_path, capsys, monkeypatch, setting):
        flag, value, _, _, message = setting

        def unlisted(*args, **kwargs):
            raise AssertionError("the corpus was listed")

        monkeypatch.setattr(cli, "list_directory", unlisted)
        out = tmp_path / "o"
        code, _, stderr = run(capsys, "train", "--data-dir", str(pipeline[0]),
                              "--out", str(out), *DESK, flag, value)
        assert code == EXIT_CONFIG
        assert stderr == f"configuration error: {message}\n"
        assert not out.exists()

    def test_every_field_but_the_free_ones_has_a_rule(self):
        ruled = {f.name for f in dataclasses.fields(RunConfig)
                 if "rule" in f.metadata}
        assert ruled == RunConfig.field_names() - FREE_FIELDS
        assert FREE_FIELDS <= RunConfig.field_names()


class TestRefusedConfigNamesItself:
    LAYER = "layer must be one of ('fc1', 'fc2', 'fc3'), got 'fc9'"

    def test_explicit_config(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"layer": "fc9"}))
        code, _, stderr = run(capsys, "train", "--config", str(path),
                              "--out", str(tmp_path / "o"))
        assert code == EXIT_CONFIG
        assert stderr == f"configuration error: config {path}: {self.LAYER}\n"

    def test_undecodable_config(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"k": 5, "layer": "\xff\xfe"}')
        code, _, stderr = run(capsys, "index", "--config", str(path),
                              "--out", str(tmp_path / "o"))
        assert code == EXIT_CONFIG
        assert stderr.startswith(
            f"configuration error: config {path} is not valid JSON: ")
        assert "Traceback" not in stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, extra",
                             [("train", []), *NOT_TRAIN])
    def test_inherited_config_says_how_to_get_past_it(
            self, tmp_path, capsys, command, extra):
        out = tmp_path / "o"
        out.mkdir()
        path = out / "config.json"
        path.write_text(json.dumps({"layer": "fc9"}))
        code, _, stderr = run(capsys, command, "--out", str(out), *extra)
        assert code == EXIT_CONFIG
        assert stderr.startswith(
            f"configuration error: config {path}: {self.LAYER}")
        assert "fix the file or pass --config" in stderr


@pytest.fixture(scope="module")
def evaluated(pipeline):
    _, run_dir = pipeline
    assert main(["evaluate", "--out", str(run_dir), "--k", "10"]) == 0
    return run_dir


class TestPreprocessOnUse:
    """index and evaluate hold rasters and preprocess only what they use."""

    @pytest.fixture(scope="class")
    def corpus(self, tmp_path_factory):
        """600 images with the pipeline's class names."""
        out = tmp_path_factory.mktemp("corpus") / "big"
        assert main(["prepare", "--synthetic", "--classes", "3",
                     "--per-class", "200", "--size", "64", "--seed", "6",
                     "--out", str(out)]) == 0
        return out

    @pytest.fixture
    def run_copy(self, pipeline, tmp_path):
        copy = tmp_path / "run"
        shutil.copytree(pipeline[1], copy)
        return copy

    @pytest.mark.parametrize("command, side", [("index", "train"),
                                               ("evaluate", "test")])
    def test_preprocesses_only_its_split(self, run_copy, capsys, monkeypatch,
                                         command, side):
        samples = getattr(cli._split_corpus(cli.load_run_config(
            run_copy / "config.json")), side)
        counted = []

        def counting(fn):
            def wrapper(raw, out_size=224):
                raw = np.asarray(raw)
                counted.append(len(raw) if raw.ndim == 3 else 1)
                return fn(raw, out_size)
            return wrapper

        for module in (data, cli):
            monkeypatch.setattr(module, "preprocess_image",
                                counting(preprocess_image))
        code, _, _ = run(capsys, command, "--out", str(run_copy))
        assert code == 0
        assert sum(counted) == len(samples) > 0

    def test_traced_peak_holds_no_corpus_of_float_images(self, run_copy,
                                                         corpus, capsys):
        # Only the rasters and the index may grow with the corpus; the
        # rest is bounded by a few classify chunks, each of float64
        # images plus its im2col patches, and the network's parameters
        # and gradients. Every database image as float64 is 8x the
        # rasters (13.8 MB here) and breaks the bound.
        rasters = sum(read_pgm(path).nbytes for path in corpus.rglob("*.pgm"))
        net, _ = load_checkpoint(run_copy / "model.ckpt")
        network_bytes = 2 * sum(value.nbytes for value in net.parameters())
        chunk_bytes = net.chunk_size * 64 * 64 * 8 + CHUNK_BYTES
        tracemalloc.start()
        try:
            for command in ("index", "evaluate"):
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                code, _, _ = run(capsys, command, "--out", str(run_copy),
                                 "--data-dir", str(corpus))
                peak = tracemalloc.get_traced_memory()[1] - start
                assert code == 0
                index_bytes = (run_copy / cli.INDEX_NAME).stat().st_size
                assert peak < (rasters + index_bytes + network_bytes
                               + 4 * chunk_bytes), (command, peak)
        finally:
            tracemalloc.stop()


class TestSplitByListing:
    """The split comes from the file names; a command decodes only its side."""

    EVALUATE_OUTPUTS = ("confusion_matrix.tsv", "classification_report.tsv",
                        "map_table.tsv", "pr_curves.csv")

    @pytest.fixture
    def copies(self, pipeline, tmp_path):
        """A corpus and an evaluated run dir, both private to the test."""
        corpus, run_dir = tmp_path / "data", tmp_path / "run"
        shutil.copytree(pipeline[0], corpus)
        shutil.copytree(pipeline[1], run_dir)
        assert main(["evaluate", "--out", str(run_dir),
                     "--data-dir", str(corpus)]) == 0
        return corpus, run_dir

    @staticmethod
    def sides(run_dir):
        cfg = cli.load_run_config(run_dir / "config.json")
        return data.split_dataset(*data.list_directory(cfg.data_dir),
                                  train_fraction=cfg.train_fraction,
                                  rng_seed=cfg.split_seed)

    def test_a_broken_file_moves_no_other_file_across_the_split(
            self, copies, capsys):
        corpus, run_dir = copies
        split = self.sides(run_dir)
        def outputs(names):
            return {name: (run_dir / name).read_bytes() for name in names}

        evaluated, indexed = outputs(self.EVALUATE_OUTPUTS), outputs(
            [cli.INDEX_NAME])
        train_file = corpus / split.train[0].source_id
        saved = train_file.read_bytes()
        train_file.write_bytes(b"not a pgm")
        code, _, stderr = run(capsys, "evaluate", "--out", str(run_dir))
        assert code == 0
        assert "skipped" not in stderr  # the broken file was not decoded
        assert outputs(self.EVALUATE_OUTPUTS) == evaluated
        train_file.write_bytes(saved)
        (corpus / split.test[0].source_id).write_bytes(b"not a pgm")
        code, _, stderr = run(capsys, "index", "--out", str(run_dir))
        assert code == 0
        assert "skipped" not in stderr
        assert outputs([cli.INDEX_NAME]) == indexed

    def test_each_command_reads_exactly_its_side(self, copies, capsys,
                                                 monkeypatch):
        corpus, run_dir = copies
        split = self.sides(run_dir)
        read = []

        def counting(path):
            read.append(os.path.relpath(path, corpus).replace(os.sep, "/"))
            return read_pgm(path)

        monkeypatch.setattr(data, "read_pgm", counting)
        for command, side in (("train", split.train), ("index", split.train),
                              ("evaluate", split.test)):
            read.clear()
            extra = ["--data-dir", str(corpus), *DESK] if command == "train" \
                else []
            assert run(capsys, command, "--out", str(run_dir), *extra)[0] == 0
            assert sorted(read) == sorted(s.source_id for s in side), command

    def test_skip_warning_counts_only_the_decoded_side(self, copies, capsys,
                                                        caplog):
        corpus, run_dir = copies
        split = self.sides(run_dir)
        for s in (*split.train[:1], *split.test[:2]):
            (corpus / s.source_id).write_bytes(b"not a pgm")
        for command, broken in (("index", split.train[:1]),
                                ("evaluate", split.test[:2])):
            caplog.clear()
            code, _, stderr = run(capsys, command, "--out", str(run_dir))
            assert code == 0
            # One line per broken file, naming it once, and one summary.
            text = caplog.text + stderr
            for s in broken:
                assert text.count(s.source_id) == 1
            assert text.count("undecodable file(s)") == 1
            assert (f"warning: skipped {len(broken)} undecodable file(s)"
                    in stderr)

    def test_class_without_a_usable_file_on_its_side_is_input_error(
            self, copies, capsys):
        corpus, run_dir = copies
        split = self.sides(run_dir)
        for s in split.test:
            if s.label == 1:
                (corpus / s.source_id).write_bytes(b"not a pgm")
        code, _, stderr = run(capsys, "evaluate", "--out", str(run_dir))
        assert code == EXIT_INPUT
        assert str(corpus / split.class_names[1]) in stderr
        # The train side of that class is intact.
        assert run(capsys, "index", "--out", str(run_dir))[0] == 0

    def test_empty_class_dir_is_refused_before_any_decode(
            self, copies, capsys, monkeypatch):
        corpus, run_dir = copies
        (corpus / "empty").mkdir()
        read = []
        monkeypatch.setattr(data, "read_pgm",
                            lambda path: read.append(path) or read_pgm(path))
        code, _, stderr = run(capsys, "train", "--data-dir", str(corpus),
                              "--out", str(run_dir), *DESK)
        assert code == EXIT_INPUT
        assert str(corpus / "empty") in stderr
        assert read == []


class TestEvaluate:
    def test_one_fingerprint_and_no_query_forwards(self, pipeline, tmp_path,
                                                   capsys, monkeypatch):
        _, run_dir = pipeline
        copy = tmp_path / "run"
        shutil.copytree(run_dir, copy)
        calls = {"fingerprint": 0, "forward_classify": 0, "query": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("fingerprint", "forward_classify"):
            monkeypatch.setattr(Network, name,
                                counted(name, getattr(Network, name)))
        monkeypatch.setattr(cli, "query", counted("query", cli.query))
        code, _, _ = run(capsys, "evaluate", "--out", str(copy), "--k", "10")
        assert code == 0
        assert calls == {"fingerprint": 1, "forward_classify": 0, "query": 0}

    def test_timings_cover_the_stages_within_the_wall_time(
            self, pipeline, tmp_path, capsys):
        _, run_dir = pipeline
        copy = tmp_path / "run"
        shutil.copytree(run_dir, copy)
        started = time.perf_counter()
        code, _, _ = run(capsys, "evaluate", "--out", str(copy), "--k", "10")
        wall_ms = (time.perf_counter() - started) * 1e3
        assert code == 0
        rows = [line.split("\t") for line in
                (copy / "timings.tsv").read_text().splitlines()]
        assert rows[0] == ["stage", "ms"]
        assert [stage for stage, _ in rows[1:]] == [
            "ingest", "classify", "scan", "score", "write"]
        values = [float(ms) for _, ms in rows[1:]]
        assert all(math.isfinite(v) and v >= 0.0 for v in values)
        assert sum(values) <= wall_ms

    def test_scores_without_per_item_objects(self, pipeline, tmp_path,
                                             capsys, monkeypatch):
        # evaluate ranks and scores in columns: no RetrievedItem is built
        # and score_rankings runs once per (layer, filter) setting, not
        # once per query.
        _, run_dir = pipeline
        copy = tmp_path / "run"
        shutil.copytree(run_dir, copy)
        calls = {"RetrievedItem": 0, "score_rankings": 0}
        init, score = retrieval.RetrievedItem.__init__, metrics.score_rankings

        def counted_init(item, *args, **kwargs):
            calls["RetrievedItem"] += 1
            init(item, *args, **kwargs)

        def counted_score(*args, **kwargs):
            calls["score_rankings"] += 1
            return score(*args, **kwargs)

        monkeypatch.setattr(retrieval.RetrievedItem, "__init__", counted_init)
        monkeypatch.setattr(metrics, "score_rankings", counted_score)
        monkeypatch.setattr(cli, "score_rankings", counted_score)
        code, _, _ = run(capsys, "evaluate", "--out", str(copy), "--k", "10")
        assert code == 0
        settings = 2 * len(cli.FEATURE_LAYERS)
        assert calls == {"RetrievedItem": 0, "score_rankings": settings}
        # The counters do count: a query builds its items.
        net, _ = load_checkpoint(copy / "model.ckpt")
        index = load_index(copy / "features.idx")
        image = np.zeros(net.spec.input_shape)
        result = query(index, net, image, "fc1", 3, False)
        metrics.score_rankings([[i.true_label for i in result.items]],
                               [len(result.items)], [0], [1])
        assert calls == {"RetrievedItem": len(result.items),
                         "score_rankings": settings + 1}

    def test_map_table_matches_per_image_queries(self, evaluated):
        cfg = cli.load_run_config(evaluated / "config.json")
        net, _ = load_checkpoint(evaluated / "model.ckpt")
        index = load_index(evaluated / "features.idx")
        test_set = cli._decode_side(cfg, cli._split_corpus(cfg).test)
        totals = {}
        for label in index.true_labels.tolist():
            totals[label] = totals.get(label, 0) + 1
        want = ["layer\tfilter\tmap\tvalid_queries"]
        for layer in ("fc1", "fc2", "fc3"):
            for use_filter in (False, True):
                triples = []
                for s in test_set:
                    image = preprocess_image(s.image, out_size=cfg.image_size)
                    result = query(index, net, image, layer, 10, use_filter)
                    triples.append(([i.true_label for i in result.items],
                                    s.label, totals.get(s.label, 0)))
                valid = sum(1 for _, _, total in triples if total > 0)
                want.append(f"{layer}\t{'on' if use_filter else 'off'}\t"
                            f"{mean_ap(conftest.score_lists(triples)):.6f}"
                            f"\t{valid}")
        assert (evaluated / "map_table.tsv").read_text() == \
            "\n".join(want) + "\n"

    def test_map_table_six_rows(self, evaluated):
        lines = (evaluated / "map_table.tsv").read_text().splitlines()
        assert lines[0] == "layer\tfilter\tmap\tvalid_queries"
        assert len(lines) == 7
        combos = {tuple(l.split("\t")[:2]) for l in lines[1:]}
        assert combos == {(l, m) for l in ("fc1", "fc2", "fc3")
                          for m in ("off", "on")}

    def test_printed_accuracy_equals_confusion_trace(self, pipeline, capsys):
        _, run_dir = pipeline
        code, stdout, _ = run(capsys, "evaluate", "--out", str(run_dir),
                              "--k", "10")
        assert code == 0
        accuracy = float(stdout.splitlines()[0].split()[2])
        rows = (run_dir / "confusion_matrix.tsv").read_text().splitlines()[1:]
        counts = [[int(v) for v in r.split("\t")[1:]] for r in rows]
        trace = sum(counts[i][i] for i in range(len(counts)))
        total = sum(sum(r) for r in counts)
        assert accuracy == pytest.approx(trace / total, abs=1e-6)

    def test_pr_curves_have_six_series(self, evaluated):
        rows = list(csv.reader((evaluated / "pr_curves.csv").open()))[1:]
        series = {(r[0], r[1]) for r in rows}
        assert series == {(l, m) for l in ("fc1", "fc2", "fc3")
                          for m in ("off", "on")}

    def test_classification_report_file(self, evaluated):
        text = (evaluated / "classification_report.tsv").read_text()
        assert text.startswith("class\tprecision\trecall")
        assert "\nf1\t" in text
