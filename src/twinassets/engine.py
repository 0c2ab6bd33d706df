"""Correlated lognormal asset dynamics, and the noise of the twin approximation.

`AssetParams` and `TwinPair` check their fields: each asset's own
domain, and rho in [-1, 1]. Results are plain arrays.

`simulate_paths` samples both assets on a time grid through the exact
lognormal solution, one step at a time, so there is no discretization
bias at any step size, and returns the times and the two paths. Asset j
is driven by z_j alone, asset i by the mix rho*z_j + sqrt(1-rho^2)*z_tilde,
so their log-returns have correlation rho.

`NoiseDraw` holds the two fresh noises (z_x, z_y) of the twin
approximation. Its stochastic term log B reads nothing else of a
replication, and neither do the MAPE cells and the twin price.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .seeding import STREAM_PATHS, substream


def _check_sigma(sigma: float) -> float:
    """sigma, if finite and > 0 with sigma**2 finite (`AssetParams`, a swept sigma_j)."""
    if not math.isfinite(sigma):
        raise InvalidParameterError(f"sigma must be finite, got {sigma}")
    if not sigma > 0:
        raise InvalidParameterError(f"sigma must be > 0, got {sigma}")
    # sigma**2 of a Python float raises OverflowError where sigma*sigma is inf
    if not math.isfinite(sigma * sigma):
        raise InvalidParameterError(f"sigma**2 must be finite, got sigma = {sigma}")
    return sigma


def _check_rho(rho: float) -> float:
    """rho, if in [-1, 1] (`TwinPair`, the grids)."""
    if not -1.0 <= rho <= 1.0:
        raise InvalidParameterError(f"rho must lie in [-1, 1], got {rho}")
    return rho


@dataclass(frozen=True)
class AssetParams:
    """One lognormal asset: drift mu (per year), volatility sigma
    (per sqrt-year), and spot price at the reference time."""

    mu: float
    sigma: float
    spot: float

    def __post_init__(self):
        for name in ("mu", "sigma", "spot"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InvalidParameterError(f"{name} must be finite, got {value}")
        _check_sigma(self.sigma)
        if not self.spot > 0:
            raise InvalidParameterError(f"spot must be > 0, got {self.spot}")


@dataclass(frozen=True)
class TwinPair:
    """Two assets plus the correlation rho of their returns, which must lie
    in [-1, 1]. Asset i is the proxy (traded) asset, asset j the target.
    The drifts are not checked against each other: `twin.alpha`, the one
    formula that divides by sigma_j*mu_i, rejects a zero denominator.
    """

    asset_i: AssetParams
    asset_j: AssetParams
    rho: float

    def __post_init__(self):
        _check_rho(self.rho)


@dataclass(frozen=True)
class NoiseDraw:
    """The two fresh independent unit normals (z_x, z_y) of the twin
    approximation, the only noise its stochastic term log B reads; `sample`
    draws them for the price, both MAPE grids and the simulated prediction.
    Wiener increments over a horizon tau are z * sqrt(tau). Fields may be
    scalars or equal-shape numpy arrays (one entry per replication or step).
    """

    z_x: float | np.ndarray
    z_y: float | np.ndarray

    @classmethod
    def sample(cls, rng: np.random.Generator, n: int) -> "NoiseDraw":
        """Draw n values of z_x, then n of z_y, from `rng`."""
        return cls(z_x=rng.standard_normal(n), z_y=rng.standard_normal(n))


def simulate_paths(pair: TwinPair, n_steps: int, dt: float,
                   seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simulate both assets on the grid {0, dt, ..., n_steps*dt}, returned
    as (times, path_i, path_j), three arrays of n_steps + 1 values.

    Each step applies the exact lognormal solution with a fresh pair of
    unit normals (z_j shared between the assets), so the path law is exact
    at every grid point regardless of dt.
    """
    if n_steps < 1:
        raise InvalidParameterError(f"n_steps must be >= 1, got {n_steps}")
    if not 0 < dt < math.inf:
        raise InvalidParameterError(f"dt must be finite and > 0, got {dt}")

    rng = substream(seed, STREAM_PATHS)
    z_j = rng.standard_normal(n_steps)
    z_tilde = rng.standard_normal(n_steps)
    z_i = pair.rho * z_j + np.sqrt(1.0 - pair.rho**2) * z_tilde
    log_i, log_j = [
        (asset.mu - 0.5 * asset.sigma**2) * dt + asset.sigma * np.sqrt(dt) * z
        for asset, z in ((pair.asset_i, z_i), (pair.asset_j, z_j))
    ]

    times = dt * np.arange(n_steps + 1)
    path_i = pair.asset_i.spot * np.exp(np.concatenate([[0.0], np.cumsum(log_i)]))
    path_j = pair.asset_j.spot * np.exp(np.concatenate([[0.0], np.cumsum(log_j)]))
    return times, path_i, path_j
