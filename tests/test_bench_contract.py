"""What `bench/run.py` needs of the package, checked here so that a change
that breaks the traced benchmark run fails these tests first.

The benchmark reads the cumulative import time of `scipy.stats` and
`scipy.integrate` from `python -X importtime`. `bench/spans.py` rebinds
the package's functions (and `pricing.norm`) to trace them, and
`engine.NoiseDraw.sample` to count the normals drawn and read. Its
speed-up child (`bench/child.py speedup`) times `mape_asset` at 1 and 2
threads. Each of these checks runs in a fresh interpreter with `src/` and
`bench/` on the path, as the benchmark's own children do.

The benchmark also judges every output it times (`reference.check_grid`);
the gated grid workloads are run here in-process, with their own argv and
check from `bench/run.py`, so a change that would make the benchmark
report `correct: false` fails here first.

ROADMAP item 1 (benchmark v2) makes a missing import read 0.0 instead of
failing; it retires the import-time half of this file.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import bench_module
from twinassets.cli import main

ROOT = Path(__file__).resolve().parent.parent


def python(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])}
    result = subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=120)
    assert result.returncode == 0, result.stderr.decode()
    return result


def test_importtime_lists_the_scipy_modules():
    log = python("-X", "importtime", "-c", "import twinassets.cli").stderr.decode()
    modules = {line.split("|")[-1].strip() for line in log.splitlines() if line.count("|") == 2}
    assert {"twinassets", "numpy", "scipy.stats", "scipy.integrate"} <= modules


TRACED_GRID = """
import json, sys
import spans, twinassets, twinassets.cli

tracer = spans.Tracer()
spans.install(tracer, twinassets)
code = twinassets.cli.main(["mape", "--mode", sys.argv[1], "--rho-grid", "0,0.5",
                            "--alpha-grid", "1,1.2", "--n", "100", "--seed", "3",
                            "--out", sys.argv[2] + ".csv"])
assert code == 0, code
tracer.dump(sys.argv[2])
with open(sys.argv[2], encoding="utf-8") as fh:
    print(json.dumps(spans.layer_metrics(json.load(fh))))
"""


# both grids draw z_x and z_y once per replication and read both; the
# option grid prices its 4 cells and its Black-Scholes benchmark through
# twin_call, which calls normal_cdf twice
@pytest.mark.parametrize("mode", ["asset", "option"])
def test_traced_grid_runs(mode, tmp_path):
    twin_calls = {"asset": 0, "option": 4 + 1}[mode]
    metrics = json.loads(python("-c", TRACED_GRID, mode, str(tmp_path / "trace.json")).stdout)
    assert metrics["harness.cells"] == 4
    assert metrics["engine.normal_draws"] == 2 * 100
    assert metrics["engine.draws_used_ratio"] == 1.0
    assert metrics["pricing.twin_call_calls"] == twin_calls
    assert metrics["pricing.normal_cdf_calls"] == 2 * twin_calls


TRACED_SIMULATE = """
import json, sys
import spans, twinassets, twinassets.cli

tracer = spans.Tracer()
spans.install(tracer, twinassets)
code = twinassets.cli.main(["simulate", "--steps", "50", "--seed", "3",
                            "--out", sys.argv[1] + ".csv"])
assert code == 0, code
tracer.dump(sys.argv[1])
with open(sys.argv[1], encoding="utf-8") as fh:
    print(json.dumps(spans.layer_metrics(json.load(fh))))
"""


# simulate_paths draws (z_j, z_tilde) and the twin prediction (z_x, z_y)
# per step, both through engine, and every normal drawn is read
def test_traced_simulate_runs(tmp_path):
    metrics = json.loads(python("-c", TRACED_SIMULATE, str(tmp_path / "trace.json")).stdout)
    assert metrics["engine.normal_draws"] == 4 * 50
    assert metrics["engine.draws_used_ratio"] == 1.0


def test_speedup_child_times_both_thread_counts(tmp_path):
    # the only traced caller of mape_asset(threads=) and GridSpec(horizon=)
    result = tmp_path / "speedup.json"
    python(str(ROOT / "bench" / "child.py"), "speedup", str(result), str(ROOT / "src"), "7", "200")
    timings = json.loads(result.read_text(encoding="utf-8"))
    assert timings["threads_1_s"] > 0 and timings["threads_2_s"] > 0


@pytest.mark.parametrize("seed", [7, 20200917])
@pytest.mark.parametrize("name", ["asset-grid", "option-grid"])
def test_gated_grid_passes_the_benchmark_check(name, seed, tmp_path):
    workload = bench_module("run").WORKLOADS[name]
    out = tmp_path / "grid.csv"
    assert main(workload.argv(seed, out)) == 0
    assert workload.check(out.read_bytes()) == []
