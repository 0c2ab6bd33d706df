"""Similarity parameter alpha and the twin approximation S_j ~ A*B*S_i^e.

alpha is the ratio of the two assets' coefficients of variation
(sigma/mu); together with the return correlation rho it controls how
faithfully asset i proxies asset j. The approximation factors into a
deterministic term A and a stochastic term B driven by two fresh
independent noises; `predict_twin` evaluates the relation and
`log_ratio` its log error against the simulated truth, in which drifts
and spots cancel. With the fresh noises replaced by the pair's own
driving noises the relation is an exact identity, which
`exact_relation_residual` checks on the same terms in log space, where
S_i^e cannot overflow.
"""

import math

import numpy as np

from .engine import NoiseDraw, TwinPair, terminal_pair
from .errors import InvalidParameterError


def alpha(pair: TwinPair) -> float:
    """Similarity ratio sigma_i*mu_j / (sigma_j*mu_i).

    Equals the quotient of the assets' coefficients of variation; 1 for
    identical twins, and alpha(i,j)*alpha(j,i) = 1 always. Defined
    because TwinPair rejects a zero drift of asset i.
    """
    return pair.asset_i.sigma * pair.asset_j.mu / (pair.asset_j.sigma * pair.asset_i.mu)


def twin_exponent(pair: TwinPair) -> float:
    """Power alpha*sigma_j/sigma_i applied to S_i in the approximation."""
    return alpha(pair) * pair.asset_j.sigma / pair.asset_i.sigma


def deterministic_term(pair: TwinPair, tau: float, log: bool = False) -> float:
    """A = spot_j * spot_i^(-alpha*sigma_j/sigma_i)
           * exp(sigma_j*(alpha*sigma_i - sigma_j)*tau/2), or log A if `log`."""
    if not tau > 0:
        raise InvalidParameterError(f"tau must be > 0, got {tau}")
    a = alpha(pair)
    sig_i, sig_j = pair.asset_i.sigma, pair.asset_j.sigma
    expo = a * sig_j / sig_i
    # log-space form: exact A = 1 for identical twins (the log terms cancel
    # to zero), which keeps the twin price consistent with Black-Scholes to
    # machine precision in that limit
    log_a = (
        np.log(pair.asset_j.spot)
        - expo * np.log(pair.asset_i.spot)
        + 0.5 * sig_j * (a * sig_i - sig_j) * tau
    )
    return log_a if log else np.exp(log_a)


def stochastic_term(pair: TwinPair, tau: float, draw: NoiseDraw):
    """B = exp(sigma_j*(1 - rho*alpha)*W_x - alpha*sigma_j*sqrt(1-rho^2)*W_y)
    with W = z*sqrt(tau). Identically 1 when (rho, alpha) = (1, 1)."""
    if not tau > 0:
        raise InvalidParameterError(f"tau must be > 0, got {tau}")
    return stochastic_term_from(pair, tau, draw.z_x, draw.z_y)


def stochastic_term_from(pair: TwinPair, tau: float, z_x, z_y, log: bool = False):
    """B driven by the given unit normals (z_x, z_y) in place of a draw's; log B if `log`."""
    a = alpha(pair)
    sig_j = pair.asset_j.sigma
    # math.sqrt rounds exactly like np.sqrt and is cheaper on loop scalars
    sqrt_tau = math.sqrt(tau)
    log_b = (
        sig_j * (1.0 - pair.rho * a) * z_x * sqrt_tau
        - a * sig_j * math.sqrt(1.0 - pair.rho**2) * z_y * sqrt_tau
    )
    return log_b if log else np.exp(log_b)


def predict_twin(pair: TwinPair, tau: float, s_i, b_term):
    """Predicted S_j after horizon tau: A * B * S_i^(alpha*sigma_j/sigma_i).

    b_term is the stochastic term B of one draw (or an array of draws);
    s_i may be a scalar or an array broadcasting against it.
    """
    return deterministic_term(pair, tau) * b_term * s_i ** twin_exponent(pair)


def log_ratio(pair: TwinPair, tau: float, u, v):
    """log(S'_j / S_j) of the twin prediction against the simulated truth.

    u = z_x - z_j and v = z_y - z_tilde are differences of one draw's
    fresh and driving noises. Drifts and spots cancel exactly, leaving
    sigma_j*sqrt(tau) * ((1 - rho*alpha)*u - alpha*sqrt(1-rho^2)*v),
    so |expm1| of it is the relative prediction error. Identically 0
    when (rho, alpha) = (1, 1).
    """
    if not tau > 0:
        raise InvalidParameterError(f"tau must be > 0, got {tau}")
    a = alpha(pair)
    scale = pair.asset_j.sigma * math.sqrt(tau)
    kappa_u = scale * (1.0 - pair.rho * a)
    kappa_v = scale * a * math.sqrt(1.0 - pair.rho**2)
    return kappa_u * u - kappa_v * v


def exact_relation_residual(pair: TwinPair, tau: float, draw: NoiseDraw):
    """Relative gap of the exact twin relation under shared noise, in log space.

    Simulates (S_i, S_j) from (z_j, z_tilde), then evaluates the
    approximation with the stochastic term driven by those SAME noises
    (W_x := W_j, W_y := W_tilde). The relation is then an algebraic
    identity, so the residual is pure floating-point noise (<= 1e-12).
    """
    s_i, s_j = terminal_pair(pair, tau, draw)
    log_gap = deterministic_term(pair, tau, log=True) + twin_exponent(pair) * np.log(s_i) - np.log(s_j)
    return np.abs(np.expm1(log_gap + stochastic_term_from(pair, tau, draw.z_j, draw.z_tilde, log=True)))
