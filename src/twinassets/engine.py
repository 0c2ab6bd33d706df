"""Correlated lognormal asset dynamics, sampled through the exact solution.

Two assets share a driving noise: asset j is driven by z_j alone, asset i
by the mix rho*z_j + sqrt(1-rho^2)*z_tilde, so their log-returns have
correlation rho. Terminal values come from the closed-form lognormal
solution; path simulation applies the same closed form per step, so there
is no discretization bias at any step size.

All operations accept either scalars or numpy arrays in the NoiseDraw
slots and broadcast accordingly.
"""

import math
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
        for name in ("mu", "sigma", "spot"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InvalidParameterError(f"{name} must be finite, got {value}")
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


def _log_returns(pair: TwinPair, tau, z_j, z_tilde):
    """Exact log-returns (mu - sigma^2/2)*tau + sigma*sqrt(tau)*z of assets i and j
    over horizon tau: j sees z_j, i the mix rho*z_j + sqrt(1-rho^2)*z_tilde."""
    z_i = pair.rho * z_j + np.sqrt(1.0 - pair.rho**2) * z_tilde
    return [
        (asset.mu - 0.5 * asset.sigma**2) * tau + asset.sigma * np.sqrt(tau) * z
        for asset, z in ((pair.asset_i, z_i), (pair.asset_j, z_j))
    ]


def terminal_pair(pair: TwinPair, tau: float, draw: NoiseDraw):
    """Terminal values (S_i, S_j) of the correlated pair over horizon tau.

    Asset j sees z_j; asset i sees rho*z_j + sqrt(1-rho^2)*z_tilde, which
    realises the target return correlation rho while sharing z_j.
    """
    if not tau > 0:
        raise InvalidParameterError(f"tau must be > 0, got {tau}")
    log_i, log_j = _log_returns(pair, tau, draw.z_j, draw.z_tilde)
    return pair.asset_i.spot * np.exp(log_i), pair.asset_j.spot * np.exp(log_j)


def simulate_paths(pair: TwinPair, n_steps: int, dt: float, seed: int) -> PathPair:
    """Simulate both assets on the grid {0, dt, ..., n_steps*dt}.

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
    log_i, log_j = _log_returns(pair, dt, z_j, z_tilde)

    times = dt * np.arange(n_steps + 1)
    path_i = pair.asset_i.spot * np.exp(np.concatenate([[0.0], np.cumsum(log_i)]))
    path_j = pair.asset_j.spot * np.exp(np.concatenate([[0.0], np.cumsum(log_j)]))
    return PathPair(times=times, path_i=path_i, path_j=path_j)
