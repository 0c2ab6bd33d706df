import decimal
import math

import pytest

from twinassets import AssetParams, TwinPair


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
