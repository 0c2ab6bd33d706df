"""Black-Scholes call pricing and the twin-asset call approximation.

The twin price values a call on the (nontraded) asset j through its proxy
asset i: the payoff is rewritten as (A*B*(S_i^T)^(alpha*sigma_j/sigma_i)
- K_j)^+, and the risk-neutral expectation over S_i^T is solved in closed
form with the d1/d2 analogues g1 and g2 (g1 = g2 + alpha*sigma_j*sqrt(tau)),
every product of the twin relation taken as a sum of logs. Because B is
stochastic, the closed form is conditional on one draw of its two noises;
averaging over draws is the caller's job (see the experiment harness).

`twin_call_quadrature` evaluates the same price by numerically integrating
the truncated lognormal expectation, serving as an independent oracle for
the closed form.

`normal_cdf` is the one standard normal CDF Phi of both closed forms:
`scipy.special.ndtr` on float64, bit-identical to `scipy.stats.norm.cdf`
without that method's argument checks and support masks.
`scipy.stats.norm` is still imported and bound as `norm`, and `quad` at
module level, only because the benchmark's traced run reads the import
times of `scipy.stats` and `scipy.integrate` (`bench/run.py`) and rebinds
`pricing.norm` (`bench/spans.py`).
"""

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import ndtr
from scipy.stats import norm  # noqa: F401 -- kept for bench/run.py and bench/spans.py

from .engine import NoiseDraw, TwinPair
from .errors import InvalidParameterError, NumericalError, UnsupportedSimilarityError
from .twin import alpha, deterministic_term, stochastic_term, twin_exponent


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


def _twin_setup(pair: TwinPair, spec: OptionSpec, draw: NoiseDraw):
    """alpha, log(A*B), g2, and the risk-neutral mean and standard
    deviation of ln S_i at maturity, for one draw."""
    a = alpha(pair)
    if a <= 0:
        raise UnsupportedSimilarityError(
            f"twin pricing requires alpha > 0, got alpha = {a}"
        )
    tau = spec.maturity
    sig_i, sig_j = pair.asset_i.sigma, pair.asset_j.sigma
    log_ab = deterministic_term(pair, tau) + stochastic_term(pair, tau, draw.z_x, draw.z_y)
    log_spot = np.log(pair.asset_i.spot)
    drift = (spec.rate - 0.5 * sig_i**2) * tau
    vol = sig_i * np.sqrt(tau)
    # ln(S_i / K_i^(1/e)) with the transformed strike K_i = K/(A*B)
    g2 = (log_spot - (sig_i / (a * sig_j)) * (np.log(spec.strike) - log_ab) + drift) / vol
    return a, log_ab, g2, log_spot + drift, vol


def twin_call(pair: TwinPair, spec: OptionSpec, draw: NoiseDraw):
    """Closed-form twin call price conditional on one draw of (z_x, z_y).

    c ~ F*N(g1) - K*exp(-r*tau)*N(g2),   e = alpha*sigma_j/sigma_i,
    F = exp(log A + log B + e*log S_i + (e-1)*(r + alpha*sigma_j*sigma_i/2)*tau),
    with g1 = g2 + alpha*sigma_j*sqrt(tau); an array of prices when the
    draw components are arrays. F is taken as one exp of a log sum, so
    neither S_i^e nor A*B has to be representable on its own. Tiny
    negative closed-form values from cancellation are clipped to 0.
    """
    a, log_ab, g2, _, _ = _twin_setup(pair, spec, draw)
    tau = spec.maturity
    sig_i, sig_j = pair.asset_i.sigma, pair.asset_j.sigma
    expo = twin_exponent(pair)
    g1 = g2 + a * sig_j * np.sqrt(tau)
    # F with one S_i kept out of the exp: identical twins (e = 1,
    # log A = log B = 0) then give F = S_i exactly, and the price reduces
    # to bs_call bit for bit.
    spot_i = pair.asset_i.spot
    forward = spot_i * np.exp(
        log_ab + (expo - 1.0) * (np.log(spot_i) + (spec.rate + 0.5 * a * sig_j * sig_i) * tau)
    )
    price = (
        forward * normal_cdf(g1)
        - spec.strike * np.exp(-spec.rate * tau) * normal_cdf(g2)
    )
    return np.maximum(price, 0.0)


def twin_call_quadrature(pair: TwinPair, spec: OptionSpec, draw: NoiseDraw) -> float:
    """Twin call price via adaptive quadrature of the risk-neutral integral.

    c ~ exp(-r*tau)/sqrt(2*pi) * int_{-g2}^{inf}
        [ A*B*(S_i * exp((r - sigma_i^2/2)*tau + w*sigma_i*sqrt(tau)))^e - K ]
        * exp(-w^2/2) dw

    The first term is evaluated as one exp of its log, kernel included.
    Independent oracle for `twin_call`; agreement to 1e-6 relative.
    """
    _, log_ab, g2, log_mean, vol = _twin_setup(pair, spec, draw)
    expo = twin_exponent(pair)

    def integrand(w):
        kernel = -0.5 * w * w
        return np.exp(log_ab + expo * (log_mean + w * vol) + kernel) - spec.strike * np.exp(kernel)

    # The Gaussian kernel times exp(expo*vol*w) peaks at w = expo*vol;
    # 14 standard deviations beyond the peak bounds the tail far below tol.
    # Below w = -37 the kernel underflows, so a deeply negative -g2 is
    # clipped rather than handed to the integrator.
    upper = expo * vol + 14.0
    lower = max(-g2, -37.0)
    value, abserr = quad(
        integrand, lower, max(upper, lower + 1.0),
        epsabs=1e-14, epsrel=1e-10, limit=500,
    )
    if not np.isfinite(value) or (value != 0 and abserr > 1e-7 * abs(value) + 1e-12):
        raise NumericalError(
            f"quadrature did not converge: value={value}, abserr={abserr}, "
            f"interval=({-g2}, {upper})"
        )
    price = np.exp(-spec.rate * spec.maturity) / np.sqrt(2.0 * np.pi) * value
    return max(price, 0.0)
