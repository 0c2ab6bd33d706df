"""Similarity parameter alpha and the twin approximation S_j ~ A*B*S_i^e.

alpha is the ratio of the two assets' coefficients of variation
(sigma/mu); together with the return correlation rho it controls how
faithfully asset i proxies asset j. The approximation factors into a
deterministic term A and a stochastic term B driven by two fresh
independent noises. The relation is evaluated only in log space, as
log A + log B + e*log S_i with e = alpha*sigma_j/sigma_i, so S_i^e never
has to be representable on its own: `deterministic_term` and
`stochastic_term` return log A and log B (the one log-B formula, which
every caller uses), and `predict_twin` exponentiates the sum. Each term
takes alpha as given and reads no drift: a MAPE cell passes its alpha
label, `simulate` and `price` the `alpha(pair)` of their drifts, the one
formula that divides by sigma_j*mu_i and so the one that checks it. With the
fresh noises replaced by the pair's own driving noises the relation is
an exact identity; the residual oracle that checks it lives with the
tests (`tests/conftest.py`).
"""

import math

import numpy as np

from .engine import TwinPair
from .errors import InvalidParameterError


def alpha(pair: TwinPair) -> float:
    """Similarity ratio sigma_i*mu_j / (sigma_j*mu_i).

    Equals the quotient of the assets' coefficients of variation; 1 for
    identical twins, and alpha(i,j)*alpha(j,i) = 1 always. Undefined, an
    InvalidParameterError, when the denominator sigma_j*mu_i is 0: a zero
    drift of asset i, or a product that rounds to 0 (a subnormal drift).
    """
    denominator = pair.asset_j.sigma * pair.asset_i.mu
    if denominator == 0:
        raise InvalidParameterError(f"alpha is undefined: sigma_j*mu_i = 0 at mu_i = "
                                    f"{pair.asset_i.mu}, sigma_j = {pair.asset_j.sigma}")
    return pair.asset_i.sigma * pair.asset_j.mu / denominator


def twin_exponent(pair: TwinPair, alpha: float) -> float:
    """Power alpha*sigma_j/sigma_i applied to S_i in the approximation."""
    return alpha * pair.asset_j.sigma / pair.asset_i.sigma


def deterministic_term(pair: TwinPair, alpha: float, tau):
    """log A = log spot_j - e*log spot_i + sigma_j*(alpha*sigma_i - sigma_j)*tau/2.

    tau may be a scalar or an array of horizons. Exactly 0 for identical
    twins, so that in that limit the twin price is Black-Scholes exactly.
    """
    if not np.all(np.greater(tau, 0)):
        raise InvalidParameterError(f"tau must be > 0, got {tau}")
    sig_i, sig_j = pair.asset_i.sigma, pair.asset_j.sigma
    return (
        np.log(pair.asset_j.spot)
        - twin_exponent(pair, alpha) * np.log(pair.asset_i.spot)
        + 0.5 * sig_j * (alpha * sig_i - sig_j) * tau
    )


def stochastic_coefficients(pair: TwinPair, alpha: float, tau: float) -> tuple[float, float]:
    """(kappa_x, kappa_y) of log B = kappa_x*z_x - kappa_y*z_y:
    sigma_j*sqrt(tau)*(1 - rho*alpha) and sigma_j*sqrt(tau)*alpha*sqrt(1-rho^2).

    Both are exactly 0 when (rho, alpha) = (1, 1); log B is then
    identically 0 and every replication of a draw gives the same value.
    """
    if not tau > 0:
        raise InvalidParameterError(f"tau must be > 0, got {tau}")
    scale = pair.asset_j.sigma * math.sqrt(tau)
    return scale * (1.0 - pair.rho * alpha), scale * alpha * math.sqrt(1.0 - pair.rho**2)


def stochastic_term(pair: TwinPair, alpha: float, tau: float, z_x, z_y, out=None):
    """log B = sigma_j*sqrt(tau) * ((1 - rho*alpha)*z_x - alpha*sqrt(1-rho^2)*z_y).

    z_x and z_y are unit normals (scalars or arrays), so the Wiener
    increments are z*sqrt(tau). Identically 0 when (rho, alpha) = (1, 1).
    log B is linear in the noises, so at u = z_x - z_j and v = z_y - z_tilde
    it is log(S'_j / S_j), the log error of the prediction against the
    truth simulated from (z_j, z_tilde): drifts and spots cancel. Given
    out, two rows shaped as z_x, log B is formed in out[0] with the same
    operations, so the same bits, and returned; out[1] is overwritten.
    Scalar noises give an np.float64.
    """
    kappa_x, kappa_y = stochastic_coefficients(pair, alpha, tau)
    x, y = (None, None) if out is None else out
    return np.subtract(np.multiply(kappa_x, z_x, out=x), np.multiply(kappa_y, z_y, out=y), out=x)


def predict_twin(pair: TwinPair, alpha: float, tau, s_i, log_b):
    """Predicted S_j after horizon tau: exp(log A + log B + e*log S_i).

    log_b is the stochastic term log B of one draw (or an array of
    draws); tau and s_i may be scalars or arrays broadcasting against it.
    """
    return np.exp(deterministic_term(pair, alpha, tau) + log_b
                  + twin_exponent(pair, alpha) * np.log(s_i))
