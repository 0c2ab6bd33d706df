"""One benchmark operation in a fresh interpreter.

    child.py run RESULT_JSON TRACE_JSON|- SRC_DIR -- CLI_ARGV...
        import twinassets.cli, stamp the monotonic clock, then time
        cli.main(CLI_ARGV); with a TRACE_JSON path the package is traced
        (see spans.py) and the spans are written there afterwards.
    child.py speedup RESULT_JSON SRC_DIR SEED N
        time mape_asset on the 21x21 README grid at 1 and at 2 threads.

RESULT_JSON receives the timings. Only what the package itself needs is
imported before the set-up stamp, so set-up is interpreter start plus the
package import, as for the `twinassets` console script.
"""

import os
import sys
import time


def _import_package(src: str):
    import twinassets.cli

    imported = time.clock_gettime(time.CLOCK_MONOTONIC)
    where = os.path.realpath(twinassets.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        sys.exit(f"twinassets imported from {where}, not from {src}")
    return twinassets, imported


def run(result_path: str, trace_path: str, src: str, argv: list[str]) -> int:
    twinassets, imported = _import_package(src)
    tracer = None
    if trace_path != "-":
        import spans

        tracer = spans.Tracer()
        spans.install(tracer, twinassets)
    start = time.perf_counter()
    code = twinassets.cli.main(argv)
    compute_s = time.perf_counter() - start
    if tracer is not None:
        tracer.dump(trace_path)
    _write(result_path, {"imported": imported, "compute_s": compute_s})
    return code


def speedup(result_path: str, src: str, seed: int, n: int) -> int:
    twinassets, _ = _import_package(src)
    import math

    import numpy as np

    base = twinassets.TwinPair(
        asset_i=twinassets.AssetParams(mu=0.4, sigma=0.2, spot=80.0),
        asset_j=twinassets.AssetParams(mu=0.8, sigma=0.4, spot=90.0),
        rho=1.0,
    )
    grid = twinassets.GridSpec(
        rho_values=tuple(np.linspace(-1.0, 1.0, 21)),
        alpha_values=tuple(np.linspace(0.5, 1.5, 21)),
        n_replications=n,
        horizon=1.0 / 252.0,
        master_seed=seed,
    )
    # two alternating rounds, fastest of each: the first grid after import
    # runs on cold caches and would inflate whichever thread count went first
    seconds = {1: math.inf, 2: math.inf}
    for threads in (1, 2, 1, 2):
        start = time.perf_counter()
        twinassets.mape_asset(base, grid, threads=threads)
        seconds[threads] = min(seconds[threads], time.perf_counter() - start)
    _write(result_path, {"threads_1_s": seconds[1], "threads_2_s": seconds[2]})
    return 0


def _write(path: str, record: dict) -> None:
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


def main(args: list[str]) -> int:
    if args[:1] == ["run"] and len(args) >= 5 and args[4] == "--":
        return run(args[1], args[2], args[3], args[5:])
    if args[:1] == ["speedup"] and len(args) == 5:
        return speedup(args[1], args[2], int(args[3]), int(args[4]))
    sys.exit(__doc__)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
