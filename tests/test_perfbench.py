"""The benchmark's traced run: one strict-JSON result with every metric.

perfbench/run.py --trace 1 reads each per-layer metric that BENCHMARK.json
names off the spans of the functions it wraps. A function the pipeline
stops calling leaves its metric NaN, which json.dumps writes as a bare
NaN token, while the run itself still reports correct outputs. So the
last line must parse under a JSON parser that refuses NaN and Infinity,
and every per-layer value must be finite.
"""

import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

from cbirnet.network import Network

ROOT = Path(__file__).resolve().parent.parent


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_traced_desk_run_reports_every_per_layer_metric():
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk",
         "--seed", "0", "--seconds", "0.5", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    result = json.loads(run.stdout.splitlines()[-1],
                        parse_constant=refuse_constant)
    assert result["correct"] is True, run.stderr[-2000:]
    assert result["failed"] == 0
    assert run.returncode == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {m["name"]: result["metrics"].get(m["name"], {}).get("value")
              for m in spec["per_layer"]}
    assert {name: value for name, value in values.items()
            if not isinstance(value, (int, float))
            or not math.isfinite(value)} == {}


def test_tracer_wraps_only_defined_network_methods():
    # The tracer wraps these by name; a missing one would surface only as
    # a KeyError inside the traced run's subprocess above.
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = (*tracing.NETWORK_METHODS, "from_spec")
    assert [name for name in names if name not in vars(Network)] == []
