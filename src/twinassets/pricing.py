"""The twin-asset call approximation, and Black-Scholes as its identical-twin case.

The twin price values a call on the (nontraded) asset j through its proxy
asset i: the payoff is rewritten as (A*B*(S_i^T)^(alpha*sigma_j/sigma_i)
- K_j)^+, and the risk-neutral expectation over S_i^T is solved in closed
form with the d1/d2 analogues g1 and g2 (g1 = g2 + alpha*sigma_j*sqrt(tau)),
every product of the twin relation taken as a sum of logs. Because B is
stochastic, the closed form is conditional on one value of log B, which
the caller forms from a draw of its two noises (`twin.stochastic_term`);
averaging over draws is the caller's job too (see the experiment harness).
`bs_call` is the closed form at identical twins. The oracles that check
both live with the tests (`tests/conftest.py`) and share no arithmetic.

`normal_cdf` is the standard normal CDF Phi of the closed form:
`scipy.special.ndtr` on float64, bit-identical to `scipy.stats.norm.cdf`
without that method's argument checks and support masks.
`scipy.stats.norm` is still imported and bound as `norm`, and
`scipy.integrate` imported, only because the benchmark's traced run reads
the import times of `scipy.stats` and `scipy.integrate` (`bench/run.py`)
and rebinds `pricing.norm` (`bench/spans.py`).
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.integrate  # noqa: F401 -- kept for bench/run.py
from scipy.special import ndtr
from scipy.stats import norm  # noqa: F401 -- kept for bench/run.py and bench/spans.py

from .engine import AssetParams, TwinPair
from .errors import InvalidParameterError
from .twin import deterministic_term, twin_exponent


@dataclass(frozen=True)
class OptionSpec:
    """Vanilla call contract: strike, time to maturity (years), risk-free rate."""

    strike: float
    maturity: float
    rate: float

    def __post_init__(self):
        for name in ("strike", "maturity", "rate"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InvalidParameterError(f"{name} must be finite, got {value}")
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
    """Black-Scholes price of a European call on a scalar spot: `twin_call`
    at identical twins and alpha = 1 (`twin.alpha` of equal assets, exactly),
    so e = 1, log A = 0, and at log B = 0 the forward is S: g2, g1 are d2, d1
    op for op. The drift, which twin_call does not read, is 1."""
    asset = AssetParams(mu=1.0, sigma=sigma, spot=spot)
    return twin_call(TwinPair(asset, asset, rho=1.0), 1.0, spec, 0.0)


def twin_call(pair: TwinPair, alpha: float, spec: OptionSpec, log_b):
    """Closed-form twin call price at alpha > 0, conditional on the stochastic
    term log B over the maturity (a scalar, or an array of one per replication).

    c ~ F*N(g1) - K*exp(-r*tau)*N(g2),   e = alpha*sigma_j/sigma_i,
    F = S_i*exp(log(A*B) + (e-1)*(log S_i + (r + alpha*sigma_j*sigma_i/2)*tau)),
    g2 = (log S_i - (log K - log(A*B))/e + (r - sigma_i^2/2)*tau) / (sigma_i*sqrt(tau)),
    g1 = g2 + alpha*sigma_j*sqrt(tau), log(A*B) = `deterministic_term` +
    log_b; an array of prices when log_b is an array. F is taken as one exp
    of a log sum, so neither S_i^e nor A*B has to be representable on its
    own, and with one S_i kept out of the exp identical twins (e = 1,
    log A = log B = 0) give F = S_i exactly: the price is Black-Scholes,
    `bs_call`. Tiny negative closed-form values from cancellation are
    clipped to 0.
    """
    if alpha <= 0:
        raise InvalidParameterError(f"twin pricing requires alpha > 0, got alpha = {alpha}")
    tau, rate = spec.maturity, spec.rate
    sig_i, sig_j = pair.asset_i.sigma, pair.asset_j.sigma
    log_ab = deterministic_term(pair, alpha, tau) + log_b
    log_spot = np.log(pair.asset_i.spot)
    e = twin_exponent(pair, alpha)
    growth = (e - 1.0) * (log_spot + (rate + 0.5 * alpha * sig_j * sig_i) * tau)
    forward = pair.asset_i.spot * np.exp(log_ab + growth)
    # ln(S_i / K_i^(1/e)) with the transformed strike K_i = K/(A*B), over vol
    g2 = (log_spot - sig_i / (alpha * sig_j) * (np.log(spec.strike) - log_ab)
          + (rate - 0.5 * sig_i**2) * tau) / (sig_i * np.sqrt(tau))
    # each array is dropped once dead and the terms are combined in place
    # (a product commutes bit for bit), so at most four are alive at once
    del log_ab
    price = normal_cdf(g2 + alpha * sig_j * np.sqrt(tau))  # N(g1)
    price *= forward
    del forward
    price -= spec.strike * np.exp(-rate * tau) * normal_cdf(g2)
    return np.maximum(price, 0.0)
