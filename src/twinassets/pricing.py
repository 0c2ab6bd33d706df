"""Black-Scholes call pricing and the twin-asset call approximation.

The twin price values a call on the (nontraded) asset j through its proxy
asset i: the payoff is rewritten as (A*B*(S_i^T)^(alpha*sigma_j/sigma_i)
- K_j)^+, and the risk-neutral expectation over S_i^T is solved in closed
form with the d1/d2 analogues g1 and g2 (g1 = g2 + alpha*sigma_j*sqrt(tau)),
every product of the twin relation taken as a sum of logs. Because B is
stochastic, the closed form is conditional on one draw of its two noises;
averaging over draws is the caller's job (see the experiment harness).
The quadrature oracle that checks the closed form lives with the tests
(`tests/conftest.py`) and shares none of its arithmetic.

`normal_cdf` is the one standard normal CDF Phi of both closed forms:
`scipy.special.ndtr` on float64, bit-identical to `scipy.stats.norm.cdf`
without that method's argument checks and support masks.
`scipy.stats.norm` is still imported and bound as `norm`, and
`scipy.integrate` imported, only because the benchmark's traced run reads
the import times of `scipy.stats` and `scipy.integrate` (`bench/run.py`)
and rebinds `pricing.norm` (`bench/spans.py`).
"""

from dataclasses import dataclass

import numpy as np
import scipy.integrate  # noqa: F401 -- kept for bench/run.py
from scipy.special import ndtr
from scipy.stats import norm  # noqa: F401 -- kept for bench/run.py and bench/spans.py

from .engine import NoiseDraw, TwinPair
from .errors import InvalidParameterError, UnsupportedSimilarityError
from .twin import alpha, deterministic_term, stochastic_coefficients, twin_exponent


@dataclass(frozen=True)
class OptionSpec:
    """Vanilla call contract: strike, time to maturity (years), risk-free rate."""

    strike: float
    maturity: float
    rate: float

    def __post_init__(self):
        if not self.strike > 0:
            raise InvalidParameterError(f"strike must be > 0, got {self.strike}")
        if not self.maturity > 0:
            raise InvalidParameterError(f"maturity must be > 0, got {self.maturity}")


def normal_cdf(x):
    """Standard normal CDF, elementwise: `scipy.special.ndtr` on x as float64.

    Bit-identical to `scipy.stats.norm.cdf(x)`, value and type (a numpy
    float64 for scalar input), including at +-0.0, +-inf and nan.
    """
    return ndtr(np.asarray(x, dtype=np.float64))


def bs_call(spot: float, spec: OptionSpec, sigma: float) -> float:
    """Black-Scholes price of a European call.

    c = S*N(d1) - K*exp(-r*tau)*N(d2), d1 = (ln(S/K) + (r + sigma^2/2)*tau)
    / (sigma*sqrt(tau)), d2 = d1 - sigma*sqrt(tau).
    """
    if np.any(np.less_equal(spot, 0)):
        raise InvalidParameterError(f"spot must be > 0, got {spot}")
    if not sigma > 0:
        raise InvalidParameterError(f"sigma must be > 0, got {sigma}")
    tau = spec.maturity
    sqrt_tau = np.sqrt(tau)
    # split logs and build d1 from d2 so the identical-twin reduction of
    # the twin formula reproduces this path bit-for-bit
    d2 = (np.log(spot) - np.log(spec.strike) + (spec.rate - 0.5 * sigma**2) * tau) / (
        sigma * sqrt_tau
    )
    d1 = d2 + sigma * sqrt_tau
    return spot * normal_cdf(d1) - spec.strike * np.exp(-spec.rate * tau) * normal_cdf(d2)


def twin_call(pair: TwinPair, spec: OptionSpec, draw: NoiseDraw):
    """Closed-form twin call price conditional on one draw of (z_x, z_y).

    c ~ F*N(g1) - K*exp(-r*tau)*N(g2),   e = alpha*sigma_j/sigma_i,
    F = exp(log A + log B + e*log S_i + (e-1)*(r + alpha*sigma_j*sigma_i/2)*tau),
    with g1 = g2 + alpha*sigma_j*sqrt(tau); an array of prices when the
    draw components are arrays. F is taken as one exp of a log sum, so
    neither S_i^e nor A*B has to be representable on its own. Tiny
    negative closed-form values from cancellation are clipped to 0.
    """
    a = alpha(pair)
    if a <= 0:
        raise UnsupportedSimilarityError(f"twin pricing requires alpha > 0, got alpha = {a}")
    tau = spec.maturity
    sig_i, sig_j = pair.asset_i.sigma, pair.asset_j.sigma
    kappa_x, kappa_y = stochastic_coefficients(pair, tau)
    shape = np.broadcast_shapes(np.shape(draw.z_x), np.shape(draw.z_y))
    log_ab, g2 = np.empty(shape), np.empty(shape)
    # log B = kappa_x*z_x - kappa_y*z_y, then log A + log B
    np.multiply(kappa_x, draw.z_x, out=log_ab)
    np.multiply(kappa_y, draw.z_y, out=g2)
    np.subtract(log_ab, g2, out=log_ab)
    np.add(deterministic_term(pair, tau), log_ab, out=log_ab)
    log_spot = np.log(pair.asset_i.spot)
    drift = (spec.rate - 0.5 * sig_i**2) * tau
    vol = sig_i * np.sqrt(tau)
    # ln(S_i / K_i^(1/e)) with the transformed strike K_i = K/(A*B):
    # (log S_i - (sigma_i/(alpha*sigma_j))*(log K - log(A*B)) + drift) / vol
    np.subtract(np.log(spec.strike), log_ab, out=g2)
    np.multiply(sig_i / (a * sig_j), g2, out=g2)
    np.subtract(log_spot, g2, out=g2)
    np.add(g2, drift, out=g2)
    np.divide(g2, vol, out=g2)
    expo = twin_exponent(pair)
    g1 = np.add(g2, a * sig_j * np.sqrt(tau), out=np.empty_like(g2))
    # F with one S_i kept out of the exp: identical twins (e = 1,
    # log A = log B = 0) then give F = S_i exactly, and the price reduces
    # to bs_call bit for bit. F and the price are built in log(A*B)'s array.
    price = np.add(
        log_ab,
        (expo - 1.0) * (log_spot + (spec.rate + 0.5 * a * sig_j * sig_i) * tau),
        out=log_ab,
    )
    np.exp(price, out=price)
    np.multiply(pair.asset_i.spot, price, out=price)
    np.multiply(price, normal_cdf(g1), out=price)
    discounted = np.multiply(spec.strike * np.exp(-spec.rate * tau), normal_cdf(g2), out=g2)
    np.subtract(price, discounted, out=price)
    # [()] hands a scalar draw back a scalar price
    return np.maximum(price, 0.0, out=price)[()]
