"""cbirnet benchmark: the train -> index -> query -> evaluate pipeline.

Run one workload from the repository root:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 10 --trace 0

Workloads and metrics are described in perfbench/README.md. The run builds
its corpora from the seed with ``cbirnet prepare``, drives the pipeline
through ``cli.main`` and a closed-loop ``retrieval.query`` loop, checks
every output against perfbench/golden.json, prints one line per metric and
ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
pass untraced and then traced, and reports the per-layer metrics plus the
tracing overhead. Scratch files live under .perfbench/ in the repository
root; the span file and a result file stamped with the environment stay
there after the run.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
GOLDEN_PATH = BENCH_DIR / "golden.json"
OUT_DIR = ROOT / ".perfbench"

# Each seed maps to one of this many corpus variants, all with goldens.
VARIANTS = 4
FEATURE_LAYERS = ("fc1", "fc2", "fc3")
TOP_K = 20  # the CLI default
MIN_LATENCY_SAMPLES = 100  # leaves ten samples beyond the p90
WARMUP_QUERIES = len(FEATURE_LAYERS)

IMAGE_SIZE = 64
SPLIT_SEED = 7
TRAIN_FRACTION = "0.715"
DESK_CORPUS = {"classes": 4, "per_class": 70, "size": IMAGE_SIZE, "seed": 101}
EPOCHS = 5
TRAIN_FLAGS = ["--image-size", IMAGE_SIZE, "--scale", "0.1",
               "--init-std", "0.15", "--train-fraction", TRAIN_FRACTION,
               "--split-seed", SPLIT_SEED, "--init-seed", "11",
               "--train-seed", "13", "--lr", "1e-4", "--epochs", EPOCHS]


@dataclass(frozen=True)
class Workload:
    index_corpus: dict | None  # None: index and evaluate the training corpus
    index_train_fraction: str | None
    # Steps in run order. Repeated steps give the medians; interleaving
    # them spreads each metric's samples over the whole run.
    schedule: tuple
    setup_reps: int  # set-ups timed at each "serve" step
    oracle: bool


WORKLOADS = {
    # README walkthrough shape: every matrix is tiny, so per-call fixed
    # costs (fingerprint hashing, dispatch, allocation) dominate.
    "desk": Workload(
        index_corpus=None, index_train_fraction=None,
        schedule=("train", "index", "index", "index", "serve", "evaluate",
                  "serve") * 3,
        setup_reps=5, oracle=True),
    # The desk network over a 10 000-image index: an unfiltered scan reads
    # ~33 MB per layer, and ingest, index files and load_index grow with it.
    "catalog": Workload(
        index_corpus={"classes": 4, "per_class": 2510, "size": IMAGE_SIZE,
                      "seed": 202},
        index_train_fraction="0.996016",  # 2500 of 2510 per class indexed
        schedule=("train", "index", "serve", "train", "evaluate", "serve",
                  "train", "serve"),
        setup_reps=3, oracle=False),
}

EVALUATE_OUTPUTS = ("confusion_matrix.tsv", "classification_report.tsv",
                    "map_table.tsv", "pr_curves.csv")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="time spent in the query loop, split over the serve steps")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-golden", action="store_true",
                   help="store this run's digests as the goldens of its "
                        "corpus variant instead of checking them")
    return p.parse_args(argv)


def limit_threads():
    """Cap BLAS/OpenMP pools at the cores this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class GateFailure(Exception):
    """An output differs from its golden or from its oracle."""


class StepFailed(Exception):
    """A command failed, so the rest of the pass cannot run."""


@dataclass
class Counts:
    """Operations (commands and queries) attempted and failed in a run."""

    attempted: int = 0
    failed: int = 0


class Pipeline:
    """One pass of a workload over prepared corpora, in a fresh run dir."""

    def __init__(self, cb, workload, seed, corpora, run_dir, counts, golden,
                 oracle):
        self.cb = cb
        self.wl = workload
        self.oracle = oracle
        self.seed = seed
        self.corpora = corpora
        self.run_dir = run_dir
        self.counts = counts
        self.golden = golden
        self.digests = {}
        self.notes = []

    def command(self, argv):
        """One CLI command through cli.main; returns its wall time in s."""
        self.counts.attempted += 1
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sys.stderr):
                code = self.cb.cli.main([str(a) for a in argv])
        except (Exception, SystemExit):
            traceback.print_exc()
            code = None
        wall = time.perf_counter() - started
        if code != 0:
            self.counts.failed += 1
            raise StepFailed(f"command {argv[0]} exited with {code}")
        return wall

    def check(self, key, value):
        """Compare a digest with the golden, or store it when recording."""
        if self.digests.setdefault(key, value) != value:
            raise GateFailure(f"{key} changed between repetitions")
        if self.golden is not None and self.golden.get(key) != value:
            raise GateFailure(
                f"{key} digest {value} differs from golden {self.golden.get(key)}")

    def split(self, corpus_dir, train_fraction):
        """The CLI's own split of a corpus, with images loaded on demand."""
        samples, class_names = [], []
        for label, d in enumerate(sorted(p for p in corpus_dir.iterdir()
                                         if p.is_dir())):
            class_names.append(d.name)
            samples.extend(
                self.cb.Sample(image=None, label=label,
                               source_id=f"{d.name}/{f.name}")
                for f in sorted(p for p in d.iterdir() if p.is_file()))
        return self.cb.split_dataset(samples, class_names,
                                     float(train_fraction), rng_seed=SPLIT_SEED)

    def load(self, corpus_dir, samples):
        for s in samples:
            s.image = self.cb.preprocess_image(
                self.cb.read_pgm(corpus_dir / s.source_id), out_size=IMAGE_SIZE)
        return samples

    def run(self, schedule, seconds):
        """Run a schedule of steps once; return the end-to-end metrics.

        "train", "index" and "evaluate" are CLI commands. "serve" times
        set-ups and then spends its share of ``seconds`` in the query loop.
        A throughput is the work of all its commands over their summed
        wall time. Latencies and set-up time are medians of their samples.
        """
        wl, run_dir = self.wl, self.run_dir
        train_dir = self.corpora["train"]
        index_dir = self.corpora.get("index", train_dir)
        index_fraction = wl.index_train_fraction or TRAIN_FRACTION
        n_train = len(self.split(train_dir, TRAIN_FRACTION).train)
        index_split = self.split(index_dir, index_fraction)
        n_db, n_test = len(index_split.train), len(index_split.test)
        ckpt, idx = run_dir / "model.ckpt", run_dir / "features.idx"
        train_argv = ["train", "--data-dir", train_dir, "--out", run_dir,
                      *TRAIN_FLAGS]
        # Explicit, because each train rewrites config.json with its corpus.
        corpus_flags = ["--out", run_dir, "--data-dir", index_dir,
                        "--train-fraction", index_fraction]

        tests = self.load(index_dir, index_split.test)
        rng = self.cb.np.random.default_rng(self.seed)
        plan = [(tests[i], layer) for i in rng.permutation(n_test)
                for layer in FEATURE_LAYERS]
        self.cursor = 0
        self.results = {}
        self.latencies = {True: [], False: []}
        self.setup_times = []
        work = {"train": EPOCHS * n_train, "index": n_db, "evaluate": n_test}
        walls = {step: 0.0 for step in work}
        n_serves, served = schedule.count("serve"), 0
        for step in schedule:
            if step == "train":
                walls["train"] += self.command(train_argv)
                self.check("checkpoint", sha256_file(ckpt))
            elif step == "index":
                walls["index"] += self.command(["index", *corpus_flags])
                self.check("index", sha256_file(idx))
            elif step == "evaluate":
                walls["evaluate"] += self.command(["evaluate", *corpus_flags])
                for name in EVALUATE_OUTPUTS:
                    self.check(f"evaluate/{name}", sha256_file(run_dir / name))
            else:
                served += 1
                self.serve(ckpt, idx, plan, seconds / n_serves,
                           finish=served == n_serves)

        self.check("queries", query_digest(self.results))
        if self.oracle:
            db = self.load(index_dir, index_split.train)
            net, _ = self.cb.network.load_checkpoint(ckpt)
            check_oracle(self.cb.np, net, db, tests, self.results)
        metrics = {
            f"{step}_{unit}": schedule.count(step) * work[step] / walls[step]
            for step, unit in (("train", "samples_per_s"),
                               ("index", "images_per_s"),
                               ("evaluate", "images_per_s"))}
        metrics["setup_s"] = statistics.median(self.setup_times)
        for use_filter, name in ((True, "query_ms"), (False, "query_nofilter_ms")):
            lat = self.latencies[use_filter]
            metrics[f"{name}_p50"] = statistics.median(lat)
            metrics[f"{name}_p90"] = nearest_rank(lat, 0.9)
            self.notes.append(f"{name}: {len(lat)} timed queries "
                              f"(p90 has {len(lat) - math.ceil(0.9 * len(lat))} "
                              f"samples beyond it)")
        self.sizes = {"checkpoint": ckpt.stat().st_size,
                      "index": idx.stat().st_size, "test_images": n_test}
        return metrics

    def serve(self, ckpt, idx, plan, seconds, finish):
        """Time ``setup_reps`` set-ups, then query the last one for ``seconds``.

        The network and index go out of scope on return, so ``evaluate``
        never runs next to a second copy of them.
        """
        for _ in range(self.wl.setup_reps):
            started = time.perf_counter()
            net, _ = self.cb.network.load_checkpoint(ckpt)
            index = self.cb.retrieval.load_index(
                idx, expected_fingerprint=net.fingerprint())
            self.setup_times.append(time.perf_counter() - started)
        self.query_loop(net, index, plan, seconds, finish)

    def query_loop(self, net, index, plan, seconds, finish):
        """Closed loop, one caller: the next query starts when one returns.

        Each (image, layer) of the plan is queried with the class filter on
        and then off. The first WARMUP_QUERIES plan entries of the run warm
        up and are not timed. With ``finish`` the loop goes on until the
        whole plan has been digested and each filter mode holds at least
        MIN_LATENCY_SAMPLES latencies. A failed query counts as missing
        every percentile (infinite latency).
        """
        query = self.cb.retrieval.query
        started = time.perf_counter()
        while (time.perf_counter() - started < seconds
               or finish and (self.cursor < len(plan) + WARMUP_QUERIES
                              or min(map(len, self.latencies.values()))
                              < MIN_LATENCY_SAMPLES)):
            sample, layer = plan[self.cursor % len(plan)]
            warmup = self.cursor < WARMUP_QUERIES
            self.cursor += 1
            for use_filter in (True, False):
                self.counts.attempted += 1
                t0 = time.perf_counter_ns()
                try:
                    result = query(index, net, sample.image, layer, TOP_K,
                                   use_filter)
                except Exception:
                    traceback.print_exc()
                    self.counts.failed += 1
                    result, elapsed = None, math.inf
                else:
                    elapsed = (time.perf_counter_ns() - t0) / 1e6
                if warmup:
                    continue
                self.latencies[use_filter].append(elapsed)
                if result is None:
                    continue
                key = (sample.source_id, layer, use_filter)
                got = (result.query_predicted_label, result.status,
                       tuple((it.source_id, it.distance, it.true_label)
                             for it in result.items))
                if self.results.setdefault(key, got) != got:
                    raise GateFailure(f"query {key} changed between repeats")


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def query_digest(results):
    """sha256 over every distinct query result: ids and float64 distances."""
    h = hashlib.sha256()
    for (sid, layer, use_filter), (pred, status, items) in sorted(results.items()):
        h.update(f"{sid}\t{layer}\t{int(use_filter)}\t{pred}\t{status}".encode())
        for item_sid, distance, label in items:
            h.update(f"\t{item_sid}\t{distance.hex()}\t{label}".encode())
        h.update(b"\n")
    return h.hexdigest()


def check_oracle(np, net, db, tests, results):
    """Brute-force top-k from forward_classify features, ties by source_id."""
    db_out = [net.forward_classify(s.image)[1:] for s in db]
    test_out = {s.source_id: net.forward_classify(s.image)[1:] for s in tests}
    for (sid, layer, use_filter), (pred, _, items) in results.items():
        q_pred, q_features = test_out[sid]
        scored = sorted(
            (float(np.sum((features[layer] - q_features[layer]) ** 2)),
             s.source_id)
            for s, (db_pred, features) in zip(db, db_out)
            if not use_filter or db_pred == q_pred)
        want = (q_pred, [(s, float(np.sqrt(sq))) for sq, s in scored[:TOP_K]])
        if (pred, [(s, d) for s, d, _ in items]) != want:
            raise GateFailure(f"query {sid} {layer} filter={use_filter} "
                              f"differs from the brute-force oracle")


def environment(nproc):
    """Tags that tell a golden mismatch apart from a change of machine."""
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    tags = {"numpy": np.__version__, "python": platform.python_version(),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "nproc": nproc, "cpu": platform.processor() or platform.machine(),
            "git_sha": None}
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                tags["cpu"] = line.split(":", 1)[1].strip()
                break
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(
        np.__file__)), "numpy.libs", "*openblas*"))
    if libs:
        import ctypes
        lib = ctypes.CDLL(libs[0])
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            tags["blas_threads"] = get()
        config = getattr(lib, "scipy_openblas_get_config64_", None)
        if config is not None:
            config.restype = ctypes.c_char_p
            tags["blas"] = config().decode()
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            tags["git_sha"] = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                capture_output=True, text=True, timeout=30).stdout.strip()
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cbirnet").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    tags["src_sha256"] = src.hexdigest()
    return tags


def prepare(corpus, variant, out):
    """Generate one corpus in a child process so its memory stays out of the
    measured peak RSS."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, "-m", "cbirnet.cli", "prepare", "--synthetic",
         "--classes", str(corpus["classes"]),
         "--per-class", str(corpus["per_class"]), "--size", str(corpus["size"]),
         "--seed", str(corpus["seed"] + variant), "--out", str(out)],
        check=True, env=env, stdout=subprocess.DEVNULL, timeout=170)
    return out


class Cbirnet:
    """The modules under test, imported from this checkout's src/."""

    def __init__(self):
        sys.path.insert(0, str(ROOT / "src"))
        import numpy
        import cbirnet
        from cbirnet import cli, data, layers, metrics, network, retrieval, training
        if Path(cbirnet.__file__).resolve().parent != ROOT / "src" / "cbirnet":
            raise ImportError(f"cbirnet imported from {cbirnet.__file__}")
        self.np = numpy
        self.cli, self.data, self.layers = cli, data, layers
        # Bound now, so the benchmark's own reads stay out of a trace.
        self.Sample, self.split_dataset = data.Sample, data.split_dataset
        self.read_pgm, self.preprocess_image = data.read_pgm, data.preprocess_image
        self.metrics, self.network = metrics, network
        self.retrieval, self.training = retrieval, training


def install_tracer(cb):
    from tracing import Tracer
    tracer = Tracer()
    layers = cb.layers
    tracer.install(
        {"cli": cb.cli, "data": cb.data, "metrics": cb.metrics,
         "network": cb.network, "retrieval": cb.retrieval,
         "training": cb.training},
        cb.network.Network,
        {layers.Conv2d: "conv", layers.MaxPool2d: "pool",
         layers.FullyConnected: "fc", layers.ReLU: "relu",
         layers.Dropout: "dropout", layers.LogSoftmax: "logsoftmax"})
    return tracer


def overhead(untraced, traced):
    """Per cent the traced pass was slower, per end-to-end timing."""
    out = {}
    for name in ("setup_s", "query_ms_p50", "query_nofilter_ms_p50"):
        out[f"trace.overhead.{name}"] = 100.0 * (traced[name] / untraced[name] - 1)
    for name in ("train_samples_per_s", "index_images_per_s",
                 "evaluate_images_per_s"):
        out[f"trace.overhead.{name}"] = 100.0 * (untraced[name] / traced[name] - 1)
    return out


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "cbirnet" / "__init__.py").is_file():
        print(f"error: no cbirnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = limit_threads()
    cb = Cbirnet()
    wl = WORKLOADS[args.workload]
    variant = args.seed % VARIANTS
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    goldens = json.loads(GOLDEN_PATH.read_text())
    key = f"{args.workload}/{variant}"
    golden = None if args.record_golden else goldens.get(key)
    if golden is None and not args.record_golden:
        print(f"error: no golden for {key} in {GOLDEN_PATH}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    counts = Counts()
    correct, error = True, None
    per_pass, digests, notes = [], {}, []
    tracer = None
    # A traced run makes each step once per pass, to stay within its time.
    schedule = tuple(dict.fromkeys(wl.schedule)) if args.trace else wl.schedule
    try:
        corpora = {"train": prepare(DESK_CORPUS, variant, work / "train-corpus")}
        if wl.index_corpus is not None:
            corpora["index"] = prepare(wl.index_corpus, variant,
                                       work / "index-corpus")
        manifests = {f"manifest/{name}": sha256_file(path / "manifest.json")
                     for name, path in corpora.items()}
        for traced in ([False, True] if args.trace else [False]):
            if traced:
                tracer = install_tracer(cb)
            # The untraced pass already held the same outputs to the oracle.
            pipe = Pipeline(cb, wl, args.seed, corpora,
                            work / f"run-{len(per_pass)}", counts, golden,
                            oracle=wl.oracle and not traced)
            for name, value in manifests.items():
                pipe.check(name, value)
            per_pass.append(pipe.run(schedule, args.seconds))
            per_pass[-1]["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
            digests.update(pipe.digests)
            notes += pipe.notes
            sizes = pipe.sizes
    except (GateFailure, StepFailed) as exc:
        correct, error = False, str(exc)
    except Exception as exc:
        traceback.print_exc()
        correct, error = False, f"{type(exc).__name__}: {exc}"
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if counts.failed:
        correct = False

    if args.record_golden and correct:
        goldens[key] = digests
        GOLDEN_PATH.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")
        print(f"recorded goldens for {key}", file=sys.stderr)

    tags = environment(nproc)
    if error:
        print(f"FAILED: {error}", file=sys.stderr)
    if not per_pass or (args.trace and len(per_pass) < 2):
        metrics = {}
    elif args.trace:
        from tracing import layer_metrics
        values = layer_metrics(tracer.spans, sizes["test_images"])
        values["network.checkpoint_mb"] = sizes["checkpoint"] / 1e6
        values["retrieval.index_mb"] = sizes["index"] / 1e6
        values.update(overhead(per_pass[0], per_pass[1]))
        values["trace.spans"] = len(tracer.spans)
        spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write_jsonl(spans_path)
        print(f"spans written to {spans_path}")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": per_pass[0][m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    for note in notes:
        print(note)
    print("environment " + json.dumps(tags, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    error_rate = counts.failed / counts.attempted if counts.attempted else 1.0
    print(f"error_rate {error_rate:.6g} fraction "
          f"({counts.failed} failed of {counts.attempted} attempted)")
    result = {"correct": correct, "attempted": max(counts.attempted, 1),
              "failed": counts.failed, "metrics": metrics}
    (OUT_DIR / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(dict(result, environment=tags), indent=2) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
