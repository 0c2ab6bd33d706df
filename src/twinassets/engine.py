"""Correlated lognormal asset dynamics, sampled through the exact solution.

Two assets share a driving noise: asset j is driven by z_j alone, asset i
by the mix rho*z_j + sqrt(1-rho^2)*z_tilde, so their log-returns have
correlation rho. Terminal values come from the closed-form lognormal
solution; path simulation applies the same closed form per step, so there
is no discretization bias at any step size.

All operations accept either scalars or numpy arrays in the NoiseDraw
slots and broadcast accordingly.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .seeding import STREAM_PATHS, substream


@dataclass(frozen=True)
class AssetParams:
    """One lognormal asset: drift mu (per year), volatility sigma
    (per sqrt-year), and spot price at the reference time."""

    mu: float
    sigma: float
    spot: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise InvalidParameterError(f"sigma must be > 0, got {self.sigma}")
        if not self.spot > 0:
            raise InvalidParameterError(f"spot must be > 0, got {self.spot}")


@dataclass(frozen=True)
class TwinPair:
    """Two assets plus the correlation rho of their returns.

    Asset i is the proxy (traded) asset, asset j the target. The drift of
    asset i must be nonzero so the similarity ratio alpha is defined.
    """

    asset_i: AssetParams
    asset_j: AssetParams
    rho: float

    def __post_init__(self):
        if not -1.0 <= self.rho <= 1.0:
            raise InvalidParameterError(f"rho must lie in [-1, 1], got {self.rho}")
        if self.asset_i.mu == 0:
            raise InvalidParameterError("asset_i.mu must be nonzero for alpha to be defined")


@dataclass(frozen=True)
class NoiseDraw:
    """Unit-normal components of one replication.

    z_j and z_tilde drive the simulated pair; z_x and z_y are the fresh
    independent noises of the twin approximation. Wiener increments over a
    horizon tau are z * sqrt(tau). Fields may be scalars or equal-shape
    numpy arrays (one entry per replication).
    """

    z_j: float | np.ndarray
    z_tilde: float | np.ndarray
    z_x: float | np.ndarray
    z_y: float | np.ndarray

    @classmethod
    def sample(cls, rng: np.random.Generator, n: int | None = None) -> "NoiseDraw":
        """Draw the four components from `rng` (scalars if n is None)."""
        size = None if n is None else int(n)
        return cls(
            z_j=rng.standard_normal(size),
            z_tilde=rng.standard_normal(size),
            z_x=rng.standard_normal(size),
            z_y=rng.standard_normal(size),
        )


@dataclass(frozen=True)
class PathPair:
    """Joint trajectory of both assets on a shared time grid."""

    times: np.ndarray
    path_i: np.ndarray
    path_j: np.ndarray


def gbm_terminal(params: AssetParams, tau: float, z):
    """Exact lognormal terminal value after horizon tau given unit normal z."""
    if not tau > 0:
        raise InvalidParameterError(f"tau must be > 0, got {tau}")
    drift = (params.mu - 0.5 * params.sigma**2) * tau
    return params.spot * np.exp(drift + params.sigma * np.sqrt(tau) * z)


def terminal_pair(pair: TwinPair, tau: float, draw: NoiseDraw):
    """Terminal values (S_i, S_j) of the correlated pair over horizon tau.

    Asset j sees z_j; asset i sees rho*z_j + sqrt(1-rho^2)*z_tilde, which
    realises the target return correlation rho while sharing z_j.
    """
    z_i = pair.rho * draw.z_j + np.sqrt(1.0 - pair.rho**2) * draw.z_tilde
    s_i = gbm_terminal(pair.asset_i, tau, z_i)
    s_j = gbm_terminal(pair.asset_j, tau, draw.z_j)
    return s_i, s_j


def simulate_paths(pair: TwinPair, n_steps: int, dt: float, seed: int) -> PathPair:
    """Simulate both assets on the grid {0, dt, ..., n_steps*dt}.

    Each step applies the exact lognormal solution with a fresh pair of
    unit normals (z_j shared between the assets), so the path law is exact
    at every grid point regardless of dt.
    """
    if n_steps < 1:
        raise InvalidParameterError(f"n_steps must be >= 1, got {n_steps}")
    if not dt > 0:
        raise InvalidParameterError(f"dt must be > 0, got {dt}")

    rng = substream(seed, STREAM_PATHS)
    z_j = rng.standard_normal(n_steps)
    z_tilde = rng.standard_normal(n_steps)
    z_i = pair.rho * z_j + np.sqrt(1.0 - pair.rho**2) * z_tilde

    sqrt_dt = np.sqrt(dt)
    log_i = (pair.asset_i.mu - 0.5 * pair.asset_i.sigma**2) * dt + pair.asset_i.sigma * sqrt_dt * z_i
    log_j = (pair.asset_j.mu - 0.5 * pair.asset_j.sigma**2) * dt + pair.asset_j.sigma * sqrt_dt * z_j

    times = dt * np.arange(n_steps + 1)
    path_i = pair.asset_i.spot * np.exp(np.concatenate([[0.0], np.cumsum(log_i)]))
    path_j = pair.asset_j.spot * np.exp(np.concatenate([[0.0], np.cumsum(log_j)]))
    return PathPair(times=times, path_i=path_i, path_j=path_j)

