"""MAPE grid experiments over (rho, alpha).

Every cell takes its (rho, alpha) as given: the cells of a rho row share
one pair, the base with that rho, and each passes its own alpha label to
the twin relation as it is. No drift is read. Asset experiments compare
the twin prediction of the simulated terminal value against the truth;
option experiments compare per-replication twin call prices against a
fixed Black-Scholes benchmark.

Both compare through log B, the stochastic term of the twin relation.
Every cell of a grid reads the same two-normal draw of n replications,
taken once per grid from the substream (master seed, stream), and forms
its own log B of it in its worker's scratch by `twin.stochastic_term`,
the one log-B formula: common random numbers, so differences between
cells carry little Monte Carlo noise. A cell's value depends only on the
seed, n and its own (rho, alpha), never on the rest of the grid, the
thread count or the schedule. A grid returns two plain (n_rho, n_alpha)
arrays, the MAPE and its Monte Carlo standard error, both in percent.

The option grid evaluates its cells over the draw in a locality order
(`_locality_order`): nearly all of an option cell's time is the normal CDF,
whose branches are mispredicted on arguments in random order, so walking
the draw in a serpentine over the (z_x, z_y) plane roughly halves that
time. Every operation before a cell's reduction is elementwise, and the
cell gathers its errors back to draw order before it reduces them, so
every output byte is the same as over the draw in draw order. The asset
grid keeps the draw order: its cell is one `expm1` of log B, which gains
nothing reliable from the order, so the gather back would only add time.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .engine import NoiseDraw, TwinPair, _check_rho
from .errors import InvalidParameterError, NumericalError
from .pricing import OptionSpec, bs_call, twin_call
from .seeding import STREAM_ASSET_MAPE, STREAM_OPTION_MAPE, substream
from .twin import stochastic_term


def _check_alpha(alpha: float) -> float:
    """alpha, if finite and > 0 (the grids)."""
    if not 0 < alpha < math.inf:
        raise InvalidParameterError(f"alpha must be finite and > 0, got {alpha}")
    return alpha


@dataclass(frozen=True)
class GridSpec:
    """Experiment grid: rho values, alpha values, replication count,
    prediction horizon (years) and master seed."""

    rho_values: tuple
    alpha_values: tuple
    n_replications: int
    horizon: float
    master_seed: int

    def __post_init__(self):
        object.__setattr__(self, "rho_values", tuple(float(r) for r in self.rho_values))
        object.__setattr__(self, "alpha_values", tuple(float(a) for a in self.alpha_values))
        if not (self.rho_values and self.alpha_values):
            raise InvalidParameterError("rho_values and alpha_values must not be empty")
        for rho in self.rho_values:
            _check_rho(rho)
        for alpha in self.alpha_values:
            _check_alpha(alpha)
        if self.n_replications < 1:
            raise InvalidParameterError("n_replications must be >= 1")
        if not 0 < self.horizon < math.inf:
            raise InvalidParameterError(f"horizon must be finite and > 0, got {self.horizon}")


def _mean_std(x: np.ndarray) -> tuple[float, float]:
    """Mean and sample standard deviation (ddof = 1) of the 1-d array x,
    bit-identical to np.mean(x) and np.std(x, ddof=1): one sum gives the
    mean, then the squared deviations are formed in x, which is overwritten.

    The standard deviation is exactly 0.0, not rounding noise, when x has
    one element or when its mean is finite and every element is equal (the
    ends are compared first, so a varying x costs O(1) here).
    """
    n = x.size
    mean = np.add.reduce(x) / n
    if n == 1 or (np.isfinite(mean) and x[0] == x[-1] and np.all(x == x[0])):
        return mean, 0.0
    np.subtract(x, mean, out=x)
    np.square(x, out=x)
    return mean, np.sqrt(np.add.reduce(x) / (n - 1))


def _check_threads(threads: int) -> None:
    if threads < 1:
        raise InvalidParameterError(f"threads must be >= 1, got {threads}")


def _run_grid(grid: GridSpec, cell_fn, threads: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate cell_fn(l, m, scratch) -> (mean, std) of the cell's
    absolute percentage errors over every cell, as MAPE and SE in percent,
    returned as the two (n_rho, n_alpha) arrays (mape, se), indexed
    (rho_index, alpha_index); `grid` is the caller's.

    scratch is a (2, n) float array owned by one worker: a cell may
    overwrite it, and the next cell of that worker gets it back. threads
    is at least 1: the callers check it with `_check_threads` before they draw.
    A MAPE or SE that is not finite is a NumericalError naming the first
    such cell in grid order, so the error does not depend on the thread count.
    """
    n_rho, n_alpha = len(grid.rho_values), len(grid.alpha_values)
    mape = np.empty((n_rho, n_alpha))
    se = np.empty((n_rho, n_alpha))
    cells = [(l, m) for l in range(n_rho) for m in range(n_alpha)]
    root_n = np.sqrt(grid.n_replications)
    # numpy's floating-point error state is local to a thread's context,
    # so the workers re-enter the caller's
    errors = np.geterr()

    def run_cells(share):
        scratch = np.empty((2, grid.n_replications))
        with np.errstate(**errors):
            # each cell writes only its own (l, m) slot, so workers never collide
            for l, m in share:
                mean, std = cell_fn(l, m, scratch)
                mape[l, m] = 100.0 * mean
                se[l, m] = 100.0 * std / root_n

    # One contiguous run of cells per worker, the calling thread taking the
    # first: a cell takes well under a millisecond, so handing cells over one
    # at a time costs more than it saves. Results are read in grid order, so
    # a failing grid raises the error of its first failing cell at any count.
    size = -(-len(cells) // threads)
    first, *rest = [cells[k : k + size] for k in range(0, len(cells), size)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(run_cells, share) for share in rest]
        run_cells(first)
        for future in futures:
            future.result()
    bad = np.argwhere(~(np.isfinite(mape) & np.isfinite(se)))
    if len(bad):
        l, m = bad[0]
        raise NumericalError(
            f"non-finite MAPE at rho={grid.rho_values[l]!r}, "
            f"alpha={grid.alpha_values[m]!r}: mape={mape[l, m]}, se={se[l, m]}"
        )
    return mape, se


# Strip count of `_locality_order`, chosen by timing `ndtr` on the normal
# CDF arguments of the README option grid (2-core Xeon VM): at 32 to 128
# strips they took about as long as each array sorted, half their time in
# draw order; 1 strip (z_y alone) kept most of that time, 1024 some of it
_ORDER_STRIPS = 64


def _locality_order(z_x: np.ndarray, z_y: np.ndarray) -> np.ndarray:
    """Permutation of the replications that walks the (z_x, z_y) plane in
    a serpentine: `_ORDER_STRIPS` equal-count strips of z_x rank, z_y
    ascending in even strips and descending in odd ones. Consecutive
    replications are then close in the plane, so log B, which is linear in
    (z_x, z_y), varies slowly along the order in every cell."""
    n = z_x.size
    strip = np.empty(n, dtype=np.intp)
    strip[np.argsort(z_x)] = np.arange(n) * _ORDER_STRIPS // n
    return np.lexsort((np.where(strip % 2 == 1, -z_y, z_y), strip))


def mape_asset(base: TwinPair, grid: GridSpec,
               threads: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Asset-prediction MAPE: 100/N * sum |S'_j - S_j| / S_j per cell.

    The truth S_j is simulated over the horizon tau from the pair's own
    noises (z_j, z_tilde), the prediction S'_j from S_i and fresh noises.
    log(S'_j / S_j) is log B at the differences of the two, which are
    independent N(0, 2) (see `twin.stochastic_term`), so the relative error
    is |expm1| of it and a cell needs no simulated pair. Of base, only
    sigma_j is read.
    """
    _check_threads(threads)
    pairs = [replace(base, rho=rho) for rho in grid.rho_values]  # one per rho row
    # kappa(2*tau) = sqrt(2)*kappa(tau), so log B over 2*tau at unit normals
    # has the law of log B over tau at the N(0, 2) differences
    horizon = 2 * grid.horizon
    draw = NoiseDraw.sample(substream(grid.master_seed, STREAM_ASSET_MAPE), grid.n_replications)
    z_x, z_y = draw.z_x, draw.z_y

    def cell(l: int, m: int, scratch: np.ndarray) -> tuple[float, float]:
        ape = stochastic_term(pairs[l], grid.alpha_values[m], horizon, z_x, z_y, out=scratch)
        np.expm1(ape, out=ape)
        np.abs(ape, out=ape)
        return _mean_std(ape)

    return _run_grid(grid, cell, threads)


def mape_option(base: TwinPair, spec: OptionSpec, grid: GridSpec,
                threads: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Option-pricing MAPE: 100/N * sum |c'_j - c_j| / c_j per cell.

    The benchmark c_j is the Black-Scholes price of the call on asset j,
    computed once; only the twin estimate varies per replication, through
    log B over the option maturity, so the grid horizon is not read. A
    benchmark that is not finite and > 0 leaves every APE undefined, and
    fails before the draw. Of base, sigma_i, sigma_j and both spots are read.

    The draw is permuted once into the locality order (see the module
    docstring), which keeps neighbours close in the (z_x, z_y) plane and
    so serves every cell, whatever its direction (kappa_x, kappa_y). A
    cell's APEs are the same floats in either order, and it takes them back
    to draw order before it reduces them, so the MAPE and SE are the bytes
    of a draw-order evaluation. The permuted draw and the inverse order
    hold 3n beside each worker's scratch and `twin_call` temporaries.
    """
    _check_threads(threads)
    asset_j = base.asset_j
    benchmark = bs_call(asset_j.spot, spec, asset_j.sigma)
    if not 0 < benchmark < math.inf:
        raise NumericalError(
            f"Black-Scholes benchmark c_j = {benchmark} is not finite and > 0 at "
            f"spot_j={asset_j.spot!r}, sigma_j={asset_j.sigma!r}, strike={spec.strike!r}, "
            f"maturity={spec.maturity!r}, rate={spec.rate!r}"
        )
    pairs = [replace(base, rho=rho) for rho in grid.rho_values]  # one per rho row
    draw = NoiseDraw.sample(substream(grid.master_seed, STREAM_OPTION_MAPE), grid.n_replications)
    order = _locality_order(draw.z_x, draw.z_y)
    z_x, z_y = draw.z_x[order], draw.z_y[order]
    # position of each replication of the draw in the evaluation order
    inverse = np.argsort(order)
    del draw, order

    def cell(l: int, m: int, scratch: np.ndarray) -> tuple[float, float]:
        pair, alpha = pairs[l], grid.alpha_values[m]
        # |c' - c| / c in the fresh price array, in the evaluation order
        log_b = stochastic_term(pair, alpha, spec.maturity, z_x, z_y, out=scratch)
        ape = twin_call(pair, alpha, spec, log_b)
        np.subtract(ape, benchmark, out=ape)
        np.abs(ape, out=ape)
        np.divide(ape, benchmark, out=ape)
        # back in draw order, the reduction sums what an unordered cell sums
        # ("clip" never clips a permutation, and unlike "raise" it writes
        # straight into out instead of through a buffer)
        return _mean_std(np.take(ape, inverse, out=scratch[1], mode="clip"))

    return _run_grid(grid, cell, threads)
