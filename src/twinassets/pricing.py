"""Black-Scholes call pricing and the twin-asset call approximation.

The twin price values a call on the (nontraded) asset j through its proxy
asset i: the payoff is rewritten as A*B*((S_i^T)^(alpha*sigma_j/sigma_i)
- K_i)^+ with transformed strike K_i = K_j/(A*B), and the risk-neutral
expectation over S_i^T is solved in closed form with the d1/d2 analogues
g1 and g2 (g1 = g2 + alpha*sigma_j*sqrt(tau)). Because B is stochastic,
the closed form is conditional on one draw of its two noises; averaging
over draws is the caller's job (see the experiment harness).

`twin_call_quadrature` evaluates the same price by numerically integrating
the truncated lognormal expectation, serving as an independent oracle for
the closed form.
"""

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.stats import norm

from .engine import NoiseDraw, TwinPair
from .errors import InvalidParameterError, NumericalError, UnsupportedSimilarityError
from .twin import alpha, predict_twin, stochastic_term, twin_exponent


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


@dataclass(frozen=True)
class TwinPriceResult:
    """Twin call price with its intermediate quantities.

    g1 = g2 + alpha*sigma_j*sqrt(tau); k_i = strike/(A*B) is the
    per-replication transformed strike. Fields are arrays when the draw
    components are arrays.
    """

    price: float | np.ndarray
    g1: float | np.ndarray
    g2: float | np.ndarray
    k_i: float | np.ndarray


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
    return spot * norm.cdf(d1) - spec.strike * np.exp(-spec.rate * tau) * norm.cdf(d2)


def _twin_setup(pair: TwinPair, spec: OptionSpec, draw: NoiseDraw):
    """alpha, A*B, K_i = K_j/(A*B), g2, and the risk-neutral mean and
    standard deviation of ln S_i at maturity, for one draw.

    A*B is the twin relation at S_i = 1 (1.0**e is exactly 1), so A is
    evaluated once per call.
    """
    a = alpha(pair)
    if a <= 0:
        raise UnsupportedSimilarityError(
            f"twin pricing requires alpha > 0, got alpha = {a}"
        )
    tau = spec.maturity
    sig_i, sig_j = pair.asset_i.sigma, pair.asset_j.sigma
    ab = predict_twin(pair, tau, 1.0, stochastic_term(pair, tau, draw))
    k_i = spec.strike / ab
    log_spot = np.log(pair.asset_i.spot)
    drift = (spec.rate - 0.5 * sig_i**2) * tau
    vol = sig_i * np.sqrt(tau)
    # ln(S_i / K_i^(sig_i/(a*sig_j))) expanded in logs for stability
    g2 = (log_spot - (sig_i / (a * sig_j)) * np.log(k_i) + drift) / vol
    return a, ab, k_i, g2, log_spot + drift, vol


def twin_call(pair: TwinPair, spec: OptionSpec, draw: NoiseDraw) -> TwinPriceResult:
    """Closed-form twin call price conditional on one draw of (z_x, z_y).

    c ~ A*B*(S_i)^e * exp((e-1)*(r + alpha*sigma_j*sigma_i/2)*tau)*N(g1)
        - A*B*K_i*exp(-r*tau)*N(g2),   e = alpha*sigma_j/sigma_i,
    with K_i = K_j/(A*B) recomputed per draw since B is stochastic.
    Tiny negative closed-form values from cancellation are clipped to 0.
    """
    a, ab, k_i, g2, _, _ = _twin_setup(pair, spec, draw)
    tau = spec.maturity
    sig_i, sig_j = pair.asset_i.sigma, pair.asset_j.sigma
    expo = twin_exponent(pair)
    g1 = g2 + a * sig_j * np.sqrt(tau)

    growth = np.exp((expo - 1.0) * (spec.rate + 0.5 * a * sig_j * sig_i) * tau)
    price = (
        ab * pair.asset_i.spot**expo * growth * norm.cdf(g1)
        - ab * k_i * np.exp(-spec.rate * tau) * norm.cdf(g2)
    )
    price = np.maximum(price, 0.0)
    return TwinPriceResult(price=price, g1=g1, g2=g2, k_i=k_i)


def twin_call_quadrature(pair: TwinPair, spec: OptionSpec, draw: NoiseDraw) -> float:
    """Twin call price via adaptive quadrature of the risk-neutral integral.

    c ~ A*B * exp(-r*tau)/sqrt(2*pi) * int_{-g2}^{inf}
        [ (S_i * exp((r - sigma_i^2/2)*tau + w*sigma_i*sqrt(tau)))^e - K_i ]
        * exp(-w^2/2) dw

    Independent oracle for `twin_call`; agreement to 1e-6 relative.
    """
    _, ab, k_i, g2, log_mean, vol = _twin_setup(pair, spec, draw)
    expo = twin_exponent(pair)

    def integrand(w):
        powered = np.exp(expo * (log_mean + w * vol))
        return (powered - k_i) * np.exp(-0.5 * w * w)

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
    price = ab * np.exp(-spec.rate * spec.maturity) / np.sqrt(2.0 * np.pi) * value
    return max(price, 0.0)
