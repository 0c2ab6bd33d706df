import decimal
import math

import numpy as np
import pytest
from scipy.integrate import quad

from twinassets import AssetParams, NumericalError, TwinPair, UnsupportedSimilarityError
from twinassets.engine import terminal_pair
from twinassets.twin import alpha, deterministic_term, stochastic_term, twin_exponent


@pytest.fixture
def section3_pair():
    """Baseline illustration parameters (sigma_j = 0.4 so alpha = 1)."""
    return TwinPair(
        asset_i=AssetParams(mu=0.4, sigma=0.2, spot=80.0),
        asset_j=AssetParams(mu=0.8, sigma=0.4, spot=90.0),
        rho=1.0,
    )


def reference_bs_call(spot, strike, rate, sigma, tau):
    """Scalar Black-Scholes oracle using only the math module.

    Independent of the scipy-based implementation under test.
    """

    def ncdf(x):
        return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))

    d1 = (math.log(spot / strike) + (rate + 0.5 * sigma**2) * tau) / (sigma * math.sqrt(tau))
    d2 = d1 - sigma * math.sqrt(tau)
    return spot * ncdf(d1) - strike * math.exp(-rate * tau) * ncdf(d2)


def twin_call_quadrature(pair, spec, draw) -> float:
    """Twin call price of one scalar draw via adaptive quadrature of the
    risk-neutral integral:

    c ~ exp(-r*tau)/sqrt(2*pi) * int_{-g2}^{inf}
        [ A*B*(S_i * exp((r - sigma_i^2/2)*tau + w*sigma_i*sqrt(tau)))^e - K ]
        * exp(-w^2/2) dw

    The first term is evaluated as one exp of its log, kernel included.
    Oracle for `twin_call`, agreeing to 1e-6 relative: log(A*B) and g2 are
    formed here from the public twin terms, not by `twin_call`'s code.
    """
    a = alpha(pair)
    if a <= 0:
        raise UnsupportedSimilarityError(
            f"twin pricing requires alpha > 0, got alpha = {a}"
        )
    tau = spec.maturity
    sig_i = pair.asset_i.sigma
    expo = twin_exponent(pair)
    log_ab = deterministic_term(pair, tau) + stochastic_term(pair, tau, draw.z_x, draw.z_y)
    # ln S_i at maturity is normal with this mean and standard deviation
    log_mean = math.log(pair.asset_i.spot) + (spec.rate - 0.5 * sig_i**2) * tau
    vol = sig_i * math.sqrt(tau)
    # exercise boundary: A*B*S_i^e >= K, i.e. ln S_i >= (log K - log(A*B)) / e
    g2 = (log_mean - (math.log(spec.strike) - log_ab) / expo) / vol

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


def exact_relation_residual(pair, tau, draw):
    """Relative gap of the exact twin relation under shared noise.

    Simulates (S_i, S_j) from (z_j, z_tilde), then evaluates the relation's
    log sum log A + log B + e*log S_i with the stochastic term driven by
    those SAME noises (W_x := W_j, W_y := W_tilde). The relation is then an
    algebraic identity, so the residual is pure floating-point noise
    (<= 1e-12).
    """
    s_i, s_j = terminal_pair(pair, tau, draw)
    log_b = stochastic_term(pair, tau, draw.z_j, draw.z_tilde)
    log_prediction = deterministic_term(pair, tau) + log_b + twin_exponent(pair) * np.log(s_i)
    return np.abs(np.expm1(log_prediction - np.log(s_j)))


def decimal_twin_terms(pair, tau, s_i, w_x, w_y):
    """Terms of the twin relation's log, log A + log B + e*log S_i, in
    decimal arithmetic from the exact values of the float inputs; w_x and
    w_y are the Wiener values of the fresh noises (z*sqrt(tau) for one draw).

    Returns (alpha, e, terms) as Decimals. Independent of the numpy code
    under test: `decimal` rounds ln, exp and sqrt correctly, so the sum of
    the terms is exact to far below double precision.
    """
    dec = decimal.Decimal
    mu_i, mu_j = dec(pair.asset_i.mu), dec(pair.asset_j.mu)
    sig_i, sig_j = dec(pair.asset_i.sigma), dec(pair.asset_j.sigma)
    rho, tau = dec(pair.rho), dec(tau)
    a = sig_i * mu_j / (sig_j * mu_i)
    e = a * sig_j / sig_i
    terms = (
        dec(pair.asset_j.spot).ln(),
        -e * dec(pair.asset_i.spot).ln(),
        sig_j * (a * sig_i - sig_j) * tau / 2,
        sig_j * ((1 - rho * a) * dec(w_x) - a * (1 - rho * rho).sqrt() * dec(w_y)),
        e * dec(s_i).ln(),
    )
    return a, e, terms


def decimal_predict_twin(pair, tau, s_i, w_x, w_y):
    """exp(log A + log B + e*log S_i) in decimal, and the sum of the
    terms' magnitudes, which scales the rounding error of a double
    evaluation."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        _, _, terms = decimal_twin_terms(pair, tau, s_i, w_x, w_y)
        return float(sum(terms).exp()), float(sum(abs(t) for t in terms))


def decimal_twin_call(pair, spec, z_x, z_y):
    """Twin call price of one draw with its forward and g2 in decimal, Phi
    through `math.erfc`, and the sum of the magnitudes of the forward's
    log terms."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        dec = decimal.Decimal
        tau, rate = dec(spec.maturity), dec(spec.rate)
        sig_i, sig_j = dec(pair.asset_i.sigma), dec(pair.asset_j.sigma)
        w_x, w_y = dec(z_x) * tau.sqrt(), dec(z_y) * tau.sqrt()
        a, e, terms = decimal_twin_terms(pair, spec.maturity, pair.asset_i.spot, w_x, w_y)
        growth = (e - 1) * (rate + a * sig_j * sig_i / 2) * tau
        log_forward = sum(terms) + growth
        # log(A*B) is the relation at S_i = 1: every term but e*log S_i
        log_ab = sum(terms[:4])
        vol = sig_i * tau.sqrt()
        g2 = (dec(pair.asset_i.spot).ln() - (dec(spec.strike).ln() - log_ab) / e
              + (rate - sig_i * sig_i / 2) * tau) / vol
        g1 = g2 + a * sig_j * tau.sqrt()

        def ncdf(g):
            return dec(0.5 * math.erfc(-float(g) / math.sqrt(2.0)))

        price = log_forward.exp() * ncdf(g1) - dec(spec.strike) * (-rate * tau).exp() * ncdf(g2)
        magnitude = float(sum(abs(t) for t in terms) + abs(growth))
        return max(price, dec(0)), magnitude
