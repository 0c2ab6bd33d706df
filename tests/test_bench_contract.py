"""What `bench/run.py` needs of the package, checked here so that a change
that breaks the traced benchmark run fails these tests first.

The benchmark reads the cumulative import time of `scipy.stats` and
`scipy.integrate` from `python -X importtime`, and `bench/spans.py`
rebinds the package's functions (and `pricing.norm`) to trace them. Its
speed-up child (`bench/child.py speedup`) times `mape_asset` at 1 and 2
threads. Each check runs in a fresh interpreter with `src/` and `bench/` on the path,
as the benchmark's own children do.

ROADMAP item 1 (benchmark v2) makes a missing import read 0.0 instead of
failing; it retires the import-time half of this file.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("mode", ["asset", "option"])
def test_traced_grid_runs(mode, tmp_path):
    metrics = json.loads(python("-c", TRACED_GRID, mode, str(tmp_path / "trace.json")).stdout)
    assert metrics["harness.cells"] == 4


def test_speedup_child_times_both_thread_counts(tmp_path):
    # the only traced caller of mape_asset(threads=) and GridSpec(horizon=)
    result = tmp_path / "speedup.json"
    python(str(ROOT / "bench" / "child.py"), "speedup", str(result), str(ROOT / "src"), "7", "200")
    timings = json.loads(result.read_text(encoding="utf-8"))
    assert timings["threads_1_s"] > 0 and timings["threads_2_s"] > 0
