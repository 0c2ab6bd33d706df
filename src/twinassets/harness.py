"""MAPE grid experiments over (rho, alpha).

For every grid cell the target drift mu_j is set so the pair's similarity
ratio equals the cell's alpha (the baseline parameters are perturbed
through mu_j only). Asset experiments compare the twin prediction of the
simulated terminal value against the truth; option experiments compare
per-replication twin call prices against a fixed Black-Scholes benchmark.

Every cell of a grid reads the same draw of n replications, taken once
per grid from the substream (master seed, stream): common random numbers,
so differences between cells carry little Monte Carlo noise. A cell's
value depends only on the seed, n and its own (rho, alpha), never on the
rest of the grid, the thread count or the schedule.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .engine import AssetParams, NoiseDraw, TwinPair
from .errors import InvalidParameterError, NumericalError
from .pricing import OptionSpec, bs_call, twin_call
from .seeding import STREAM_ASSET_MAPE, STREAM_OPTION_MAPE, substream
from .twin import stochastic_term


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
        if any(not -1.0 <= r <= 1.0 for r in self.rho_values):
            raise InvalidParameterError("all rho values must lie in [-1, 1]")
        if any(a <= 0 for a in self.alpha_values):
            raise InvalidParameterError("all alpha values must be > 0")
        if self.n_replications < 1:
            raise InvalidParameterError("n_replications must be >= 1")
        if not self.horizon > 0:
            raise InvalidParameterError("horizon must be > 0")


@dataclass(frozen=True)
class MapeGrid:
    """MAPE surface (percent) indexed (rho_index, alpha_index), with
    matching Monte Carlo standard errors and the spec that produced it.
    A non-finite value or error is a NumericalError naming its cell."""

    grid: np.ndarray
    spec: GridSpec
    standard_errors: np.ndarray

    def __post_init__(self):
        expected = (len(self.spec.rho_values), len(self.spec.alpha_values))
        if self.grid.shape != expected or self.standard_errors.shape != expected:
            raise InvalidParameterError(f"grid shape must be {expected}")
        bad = np.argwhere(~(np.isfinite(self.grid) & np.isfinite(self.standard_errors)))
        if len(bad):
            l, m = bad[0]
            raise NumericalError(
                f"non-finite MAPE at rho={self.spec.rho_values[l]!r}, "
                f"alpha={self.spec.alpha_values[m]!r}: "
                f"mape={self.grid[l, m]}, se={self.standard_errors[l, m]}"
            )
        if np.any(self.grid < 0):
            raise InvalidParameterError("MAPE values must be >= 0")


def alpha_to_mu_j(alpha_target: float, mu_i: float, sigma_i: float, sigma_j: float) -> float:
    """Drift mu_j that makes the pair's similarity ratio equal alpha_target."""
    if sigma_i <= 0 or sigma_j <= 0:
        raise InvalidParameterError("volatilities must be > 0")
    if mu_i == 0:
        raise InvalidParameterError("mu_i must be nonzero")
    if alpha_target <= 0:
        raise InvalidParameterError(f"alpha_target must be > 0, got {alpha_target}")
    return alpha_target * sigma_j * mu_i / sigma_i


def _cell_pair(base: TwinPair, rho: float, alpha_value: float) -> TwinPair:
    mu_j = alpha_to_mu_j(
        alpha_value, base.asset_i.mu, base.asset_i.sigma, base.asset_j.sigma
    )
    return TwinPair(
        asset_i=base.asset_i,
        asset_j=replace(base.asset_j, mu=mu_j),
        rho=rho,
    )


def _mape_from_ape(ape: np.ndarray) -> tuple[float, float]:
    n = len(ape)
    se = 100.0 * np.std(ape, ddof=1) / np.sqrt(n) if n > 1 else 0.0
    return 100.0 * float(np.mean(ape)), float(se)


def _run_grid(grid: GridSpec, cell_fn, threads: int = 1) -> MapeGrid:
    n_rho, n_alpha = len(grid.rho_values), len(grid.alpha_values)
    mape = np.empty((n_rho, n_alpha))
    se = np.empty((n_rho, n_alpha))
    cells = [(l, m) for l in range(n_rho) for m in range(n_alpha)]

    def run_cells(share):
        # each cell writes only its own (l, m) slot, so workers never collide
        for l, m in share:
            mape[l, m], se[l, m] = cell_fn(l, m)

    if threads > 1:
        # One contiguous run of cells per worker: a cell takes well under a
        # millisecond, so handing cells over one at a time costs more than
        # it saves. Results are consumed in grid order, so a failing grid
        # raises the error of its first failing cell at any thread count.
        size = -(-len(cells) // threads)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run_cells, [cells[k : k + size] for k in range(0, len(cells), size)]))
    else:
        run_cells(cells)
    return MapeGrid(grid=mape, spec=grid, standard_errors=se)


def mape_asset(base: TwinPair, grid: GridSpec, threads: int = 1) -> MapeGrid:
    """Asset-prediction MAPE: 100/N * sum |S'_j - S_j| / S_j per cell.

    Each replication simulates the correlated pair over the horizon from
    (z_j, z_tilde) and predicts S_j from S_i with the fresh noises
    (z_x, z_y). log(S'_j / S_j) is the stochastic term log B at
    u = z_x - z_j and v = z_y - z_tilde (see `twin.stochastic_term`), so
    the relative error is |expm1| of it, and the shared draw is read only
    through u and v, formed once per grid.
    """
    tau = grid.horizon
    draw = NoiseDraw.sample(substream(grid.master_seed, STREAM_ASSET_MAPE), grid.n_replications)
    u, v = draw.z_x - draw.z_j, draw.z_y - draw.z_tilde

    def cell(l: int, m: int) -> tuple[float, float]:
        pair = _cell_pair(base, grid.rho_values[l], grid.alpha_values[m])
        return _mape_from_ape(np.abs(np.expm1(stochastic_term(pair, tau, u, v))))

    return _run_grid(grid, cell, threads)


def mape_option(base: TwinPair, spec: OptionSpec, grid: GridSpec, threads: int = 1) -> MapeGrid:
    """Option-pricing MAPE: 100/N * sum |c'_j - c_j| / c_j per cell.

    The benchmark c_j is the Black-Scholes price of the call on asset j,
    computed once; only the twin estimate varies per replication, through
    the (z_x, z_y) of the grid's shared draw. The grid horizon is ignored
    here: the noises in the twin price live over the option maturity.
    """
    benchmark = bs_call(base.asset_j.spot, spec, base.asset_j.sigma)
    draw = NoiseDraw.sample(substream(grid.master_seed, STREAM_OPTION_MAPE), grid.n_replications)

    def cell(l: int, m: int) -> tuple[float, float]:
        pair = _cell_pair(base, grid.rho_values[l], grid.alpha_values[m])
        return _mape_from_ape(np.abs(twin_call(pair, spec, draw) - benchmark) / benchmark)

    return _run_grid(grid, cell, threads)


def sigma_sweep(base: TwinPair, sigmas_j, grid: GridSpec, threads: int = 1) -> list[MapeGrid]:
    """Asset MAPE grids for several target volatilities sigma_j.

    The shared draw does not depend on sigma_j, so repeated values give
    identical grids and cross-sigma comparisons share their noise.
    """
    if any(s <= 0 for s in sigmas_j):
        raise InvalidParameterError("all sigma_j values must be > 0")
    grids = []
    for sigma_j in sigmas_j:
        swept = TwinPair(
            asset_i=base.asset_i,
            asset_j=replace(base.asset_j, sigma=float(sigma_j)),
            rho=base.rho,
        )
        grids.append(mape_asset(swept, grid, threads=threads))
    return grids
