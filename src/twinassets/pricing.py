"""The twin-asset call approximation, and Black-Scholes as its identical-twin case.

The twin price values a call on the (nontraded) asset j through its proxy
asset i: the payoff is rewritten as (A*B*(S_i^T)^(alpha*sigma_j/sigma_i)
- K_j)^+, and the risk-neutral expectation over S_i^T is solved in closed
form. S_i cancels from it: given log B, the twin call is Black-Scholes on
asset j at a shifted spot and the twin's volatility alpha*sigma_j, the two
explicit error factors of the approximation. Because B is stochastic, the
closed form is conditional on one value of log B, which the caller forms
from a draw of its two noises (`twin.stochastic_term`); averaging over
draws is the caller's job too (see the experiment harness). `bs_call` is
the closed form at identical twins. The oracles that check both live with
the tests (`tests/conftest.py`) and share no arithmetic.

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
from .twin import twin_exponent


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
    so e = 1, log_f = 0 and the twin's spot is S: d2, d1 are Black-Scholes op
    for op. The drift, which twin_call does not read, is 1."""
    asset = AssetParams(mu=1.0, sigma=sigma, spot=spot)
    return twin_call(TwinPair(asset, asset, rho=1.0), 1.0, spec, 0.0)


def twin_call(pair: TwinPair, alpha: float, spec: OptionSpec, log_b):
    """Closed-form twin call price at alpha > 0, conditional on the stochastic
    term log B over the maturity (a scalar, or an array of one per replication).

    Black-Scholes at the twin's spot F and volatility v, e = alpha*sigma_j/sigma_i:
    c ~ F*N(d1) - K*exp(-r*tau)*N(d2),  F = S_j*exp(log_f),  v = alpha*sigma_j*sqrt(tau),
    log_f = log B + ((e-1)*r + (alpha^2-1)*sigma_j^2/2)*tau,
    d2 = (log_f + log(S_j/K) + (r - alpha^2*sigma_j^2/2)*tau) / v,  d1 = d2 + v.
    It is E[(A*B*(S_i^T)^e - K)^+] over S_i^T written out: log A = log S_j
    - e*log S_i + sigma_j*(alpha*sigma_i - sigma_j)*tau/2, so every S_i term
    cancels, and e*sigma_i = alpha*sigma_j turns e*alpha*sigma_i*sigma_j/2
    into alpha^2*sigma_j^2/2. Identical twins (e = alpha = 1, log B = 0) give
    log_f = 0 exactly, so F = S_j: the price is Black-Scholes, `bs_call`.
    Tiny negative closed-form values from cancellation are clipped to 0.
    """
    if alpha <= 0:
        raise InvalidParameterError(f"twin pricing requires alpha > 0, got alpha = {alpha}")
    tau, rate = spec.maturity, spec.rate
    sig_j, spot_j = pair.asset_j.sigma, pair.asset_j.spot
    sig = alpha * sig_j  # the twin's volatility
    vol = sig * np.sqrt(tau)
    log_f = log_b + ((twin_exponent(pair, alpha) - 1.0) * rate
                     + 0.5 * (alpha * alpha - 1.0) * sig_j * sig_j) * tau
    d2 = (log_f + (np.log(spot_j / spec.strike) + (rate - 0.5 * sig * sig) * tau)) / vol
    # each array is dropped once dead and the terms are combined in place
    # (a product commutes bit for bit), so at most four are alive at once
    forward = spot_j * np.exp(log_f)
    del log_f
    price = normal_cdf(d2 + vol)  # N(d1)
    price *= forward
    del forward
    price -= spec.strike * np.exp(-rate * tau) * normal_cdf(d2)
    return np.maximum(price, 0.0)
