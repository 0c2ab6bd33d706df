"""Benchmark of the twinassets CLI: three workloads, each operation a fresh
interpreter running `twinassets.cli.main(argv)`.

    python3 bench/run.py --workload asset-grid|option-grid|minute-path
                         --seed N --seconds S --trace 0|1

Runs operations back to back (a closed loop of one client) for S seconds
and at least MIN_OPS times, checks every output against bench/reference.py,
and prints one JSON line last: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end medians
(wall_s, setup_s, compute_s, peak_rss_mib); with --trace 1 they are the
per-module medians of traced operations, the import breakdown, the thread
speed-up and the tracing overhead. See bench/README.md.
"""

import argparse
import hashlib
import json
import os
import random
import signal
import statistics
import sys
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass
from decimal import Decimal
from functools import partial
from pathlib import Path

import numpy as np

import reference
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
CHILD = BENCH / "child.py"

MIN_OPS = 3
CHILD_TIMEOUT_S = 120.0
IMPORTTIME_RUNS = 3

RHO_GRID, ALPHA_GRID = "-1:1:21", "0.5:1.5:21"
RHO_VALUES = [float(v) for v in np.linspace(-1.0, 1.0, 21)]
ALPHA_VALUES = [float(v) for v in np.linspace(0.5, 1.5, 21)]
ASSET_N, OPTION_N = 40000, 10000
# one year of one-minute bars: 252 days x 390 minutes
PATH_RHO, PATH_ALPHA, PATH_STEPS = 0.8, 1.1, 252 * 390
PATH_DT = 1.0 / PATH_STEPS


@dataclass(frozen=True)
class Workload:
    """One CLI invocation; BENCHMARK.json and README.md say why each was chosen."""

    name: str
    args: tuple  # CLI argv without --seed and --out
    check: Callable[[bytes], list[str]]  # output -> failure messages

    def argv(self, cli_seed: int, out: Path) -> list[str]:
        return [*self.args, "--seed", str(cli_seed), "--out", str(out)]


GRID = ("mape", f"--rho-grid={RHO_GRID}", "--alpha-grid", ALPHA_GRID)
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "asset-grid",
            (*GRID, "--mode", "asset", "--n", str(ASSET_N), "--threads", "2"),
            partial(reference.check_grid, reference=reference.asset_mape,
                    rho_values=RHO_VALUES, alpha_values=ALPHA_VALUES, n=ASSET_N),
        ),
        Workload(
            "option-grid",
            (*GRID, "--mode", "option", "--n", str(OPTION_N), "--threads", "1"),
            partial(reference.check_grid, reference=reference.option_mape,
                    rho_values=RHO_VALUES, alpha_values=ALPHA_VALUES, n=OPTION_N),
        ),
        Workload(
            "minute-path",
            (
                "simulate", "--rho", str(PATH_RHO), "--alpha", str(PATH_ALPHA),
                "--steps", str(PATH_STEPS), "--dt", format(Decimal(repr(PATH_DT)), "f"),
            ),
            partial(reference.check_path, rho=PATH_RHO, alpha=PATH_ALPHA, steps=PATH_STEPS, dt=PATH_DT),
        ),
    )
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "compute_s": "s", "peak_rss_mib": "MiB"}
IMPORTS = {
    "import.twinassets_s": "twinassets",
    "import.numpy_s": "numpy",
    "import.scipy_stats_s": "scipy.stats",
    "import.scipy_integrate_s": "scipy.integrate",
}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_speedup"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    """Spawns and reaps the children of one benchmark run."""

    def __init__(self, tag: str):
        self.tag = tag
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.files = set()

    def path(self, suffix: str) -> Path:
        """A scratch file of this run, removed by `cleanup`."""
        path = OUT / f"{self.tag}.{suffix}"
        self.files.add(path)
        return path

    def spawn(self, args: list[str], stderr: Path | None = None):
        """Run `python args...` to completion; stdout goes to our stderr so
        that the result line stays last on our stdout.

        Returns (spawn time, wall seconds, exit code, peak RSS in MiB).
        """
        actions = [(os.POSIX_SPAWN_DUP2, 2, 1)]
        if stderr is not None:
            actions.append((os.POSIX_SPAWN_OPEN, 2, str(stderr), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644))
        start = _now()
        pid = os.posix_spawn(sys.executable, [sys.executable, *args], self.env, file_actions=actions)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = _now() - start
        return start, wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0

    def operation(self, workload: Workload, cli_seed: int, trace: Path | None):
        """One CLI run; returns (sample dict or None on failure, output bytes)."""
        out, result = self.path("csv"), self.path("result.json")
        for path in (out, result):
            path.unlink(missing_ok=True)
        args = [str(CHILD), "run", str(result), str(trace) if trace else "-", str(SRC), "--"]
        start, wall, code, rss = self.spawn(args + workload.argv(cli_seed, out))
        if code != 0 or not result.exists() or not out.exists():
            print(f"{workload.name}: operation failed with exit code {code}", file=sys.stderr)
            return None, b""
        timing = json.loads(result.read_text())
        sample = {
            "wall_s": wall,
            "setup_s": timing["imported"] - start,
            "compute_s": timing["compute_s"],
            "peak_rss_mib": rss,
        }
        return sample, out.read_bytes()

    def import_times(self) -> dict[str, float]:
        """Cumulative import seconds from `python -X importtime`, median of runs."""
        log = self.path("importtime")
        runs = []
        for _ in range(IMPORTTIME_RUNS):
            _, _, code, _ = self.spawn(["-X", "importtime", "-c", "import twinassets.cli"], stderr=log)
            if code != 0:
                raise SystemExit("error: import twinassets.cli failed")
            cumulative = {}
            for line in log.read_text().splitlines():
                fields = line.split("|")
                if len(fields) == 3 and fields[1].strip().isdigit():
                    cumulative.setdefault(fields[2].strip(), int(fields[1]) / 1e6)
            runs.append({metric: cumulative[module] for metric, module in IMPORTS.items()})
        return {metric: statistics.median(r[metric] for r in runs) for metric in IMPORTS}

    def thread_speedup(self, cli_seed: int) -> float:
        result = self.path("speedup.json")
        _, _, code, _ = self.spawn([str(CHILD), "speedup", str(result), str(SRC), str(cli_seed), str(ASSET_N)])
        if code != 0:
            raise SystemExit("error: thread speed-up child failed")
        times = json.loads(result.read_text())
        return times["threads_1_s"] / times["threads_2_s"]

    def cleanup(self) -> None:
        for path in self.files:
            path.unlink(missing_ok=True)


def median_metrics(samples: list[dict]) -> dict[str, float]:
    return {name: statistics.median(s[name] for s in samples) for name in samples[0]}


def run(workload: Workload, seed: int, seconds: float, traced: bool) -> dict:
    cli_seed = random.Random(seed).randrange(2**31)
    OUT.mkdir(exist_ok=True)
    runner = Runner(f"{workload.name}-{seed}-{os.getpid()}")
    try:
        deadline = _now() + seconds
        extra = {}
        if traced:
            extra.update(runner.import_times())
            extra["harness.thread_speedup"] = runner.thread_speedup(cli_seed)
        verdicts = {}  # output digest -> check errors, so identical bytes are checked once
        plain, layered = [], []
        attempted = failed = 0
        while attempted < MIN_OPS or _now() < deadline:
            # traced and untraced operations alternate; the last trace is kept
            trace = OUT / f"trace-{workload.name}-{seed}.json" if traced and attempted % 2 else None
            attempted += 1
            sample, data = runner.operation(workload, cli_seed, trace)
            if sample is None:
                failed += 1
                continue
            digest = hashlib.sha256(data).hexdigest()
            if digest not in verdicts:
                verdicts[digest] = workload.check(data)
                for message in verdicts[digest][:10]:
                    print(f"{workload.name}: {message}", file=sys.stderr)
            if trace is None:
                plain.append(sample)
            else:
                layers = spans.layer_metrics(json.loads(trace.read_text()))
                layers["compute_s"] = sample["compute_s"]
                layers["cli.output_rows"] = data.count(b"\n") - 1
                layers["cli.output_bytes"] = len(data)
                layered.append(layers)
        if not plain or (traced and not layered):
            raise SystemExit(f"error: {workload.name}: every operation failed")
        metrics = median_metrics(plain)
        if traced:
            traced_metrics = median_metrics(layered)
            traced_metrics["trace.overhead_s"] = traced_metrics.pop("compute_s") - metrics["compute_s"]
            metrics = {**extra, **traced_metrics}
            units = {name: _unit(name) for name in metrics}
        else:
            units = END_TO_END_UNITS
        return {
            "correct": not any(verdicts.values()),
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in sorted(metrics)},
        }
    finally:
        runner.cleanup()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "twinassets" / "__init__.py").is_file():
        print(f"error: no twinassets sources under {SRC}", file=sys.stderr)
        return 2
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{name:32s} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
