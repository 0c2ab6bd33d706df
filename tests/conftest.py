import decimal
import importlib
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from twinassets import AssetParams, InvalidParameterError, NumericalError, TwinPair
from twinassets.twin import alpha, deterministic_term, predict_twin, stochastic_term, twin_exponent


BENCH = Path(__file__).resolve().parent.parent / "bench"


def bench_module(name: str):
    """The module bench/<name>.py, imported with bench/ on the path as the
    benchmark's own processes have it. bench/ imports nothing of twinassets,
    so its reference values and output checks are independent of the package."""
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    return importlib.import_module(name)


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


def asset_mape_closed_form(sigma_j, tau, rho, alpha_value):
    """100*E|e^X - 1| for X ~ N(0, s^2), s^2 = 2*sigma_j^2*tau*(1 - 2*rho*alpha + alpha^2):
    100*e^(s^2/2)*(2*Phi(s) - 1), with 2*Phi(s) - 1 = erf(s/sqrt(2))."""
    # 1 - 2*rho*alpha + alpha^2 as a sum of non-negative terms
    s2 = 2 * sigma_j**2 * tau * ((1 - alpha_value) ** 2 + 2 * alpha_value * (1 - rho))
    return 100 * math.exp(s2 / 2) * math.erf(math.sqrt(s2) / math.sqrt(2))


def expected_twin_call(spot_j, sigma_i, sigma_j, rho, alpha_value, strike, maturity, rate):
    """Mean of the twin call price over log B, using only the math module.

    Given S_i, log B ~ N(0, sigma_j^2*tau*(1 - 2*rho*alpha + alpha^2)) is
    independent of S_i, so A*B*S_i^e at maturity is lognormal and the mean
    twin price is the discounted Black-76 price on the forward
    S_j*exp(e*r*tau + alpha*(alpha - rho)*sigma_j^2*tau), e = alpha*sigma_j/sigma_i,
    at the volatility sigma_j*sqrt(1 - 2*rho*alpha + 2*alpha^2). Against
    Black-Scholes (forward S_j*e^(r*tau), volatility sigma_j) these are the
    two explicit factors of the twin price's error.
    """

    def ncdf(x):
        return 0.5 * math.erfc(-x / math.sqrt(2.0))

    e = alpha_value * sigma_j / sigma_i
    forward = spot_j * math.exp(
        e * rate * maturity + alpha_value * (alpha_value - rho) * sigma_j**2 * maturity)
    sd = sigma_j * math.sqrt((1 - 2 * rho * alpha_value + 2 * alpha_value**2) * maturity)
    d1 = (math.log(forward / strike) + 0.5 * sd * sd) / sd
    return math.exp(-rate * maturity) * (forward * ncdf(d1) - strike * ncdf(d1 - sd))


def terminal_pair(pair, tau, z_j, z_tilde):
    """Terminal values (S_i, S_j) of the correlated pair over horizon tau,
    each spot * exp((mu - sigma^2/2)*tau + sigma*sqrt(tau)*z): asset j sees
    z_j, asset i the mix rho*z_j + sqrt(1-rho^2)*z_tilde.

    Oracle of the unreduced model, the truth that the twin relation
    predicts; the package samples the same law step by step in
    `simulate_paths`.
    """
    z_i = pair.rho * z_j + np.sqrt(1.0 - pair.rho**2) * z_tilde
    s_i = pair.asset_i.spot * np.exp(
        (pair.asset_i.mu - 0.5 * pair.asset_i.sigma**2) * tau
        + pair.asset_i.sigma * np.sqrt(tau) * z_i)
    s_j = pair.asset_j.spot * np.exp(
        (pair.asset_j.mu - 0.5 * pair.asset_j.sigma**2) * tau
        + pair.asset_j.sigma * np.sqrt(tau) * z_j)
    return s_i, s_j


def unreduced_ape(pair, alpha_value, tau, z):
    """|S'_j - S_j| / S_j per replication of the four-normal draw
    z = (z_j, z_tilde, z_x, z_y): the truth simulated by `terminal_pair`
    from (z_j, z_tilde), the prediction `predict_twin` makes at alpha_value
    from its S_i with the fresh noises (z_x, z_y). The drifts cancel from
    the error when alpha_value is the pair's alpha (up to its rounding)."""
    z_j, z_tilde, z_x, z_y = z
    s_i, s_j = terminal_pair(pair, tau, z_j, z_tilde)
    log_b = stochastic_term(pair, alpha_value, tau, z_x, z_y)
    return np.abs(predict_twin(pair, alpha_value, tau, s_i, log_b) - s_j) / s_j


def twin_call_quadrature(pair, alpha_value, spec, log_b) -> float:
    """Twin call price at one scalar log B via adaptive quadrature of the
    risk-neutral integral:

    c ~ exp(-r*tau)/sqrt(2*pi) * int_{-g2}^{inf}
        [ A*B*(S_i * exp((r - sigma_i^2/2)*tau + w*sigma_i*sqrt(tau)))^e - K ]
        * exp(-w^2/2) dw

    The first term is evaluated as one exp of its log, kernel included.
    Oracle for `twin_call`, agreeing to 1e-6 relative: log(A*B) and g2 are
    formed here from log A and log_b, not by `twin_call`'s code.
    """
    if alpha_value <= 0:
        raise InvalidParameterError(
            f"twin pricing requires alpha > 0, got alpha = {alpha_value}"
        )
    tau = spec.maturity
    sig_i = pair.asset_i.sigma
    expo = twin_exponent(pair, alpha_value)
    log_ab = deterministic_term(pair, alpha_value, tau) + log_b
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


def exact_relation_residual(pair, tau, z_j, z_tilde):
    """Relative gap of the exact twin relation under shared noise.

    Simulates (S_i, S_j) from (z_j, z_tilde) by `terminal_pair`, then evaluates the relation's
    log sum log A + log B + e*log S_i with the stochastic term driven by
    those SAME noises (W_x := W_j, W_y := W_tilde). The relation is then an
    algebraic identity, so the residual is pure floating-point noise
    (<= 1e-12). For a scalar draw the log sum and its gap to log S_j are
    taken in decimal (`decimal_twin_terms`), so terms near 1000 that cancel
    add no rounding of their own: what is left is that of the simulated
    pair. An array draw takes them in float arithmetic.
    """
    s_i, s_j = terminal_pair(pair, tau, z_j, z_tilde)
    if np.ndim(s_i) == 0:
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            dec = decimal.Decimal
            root_tau = dec(tau).sqrt()
            _, _, terms = decimal_twin_terms(
                pair, tau, s_i, dec(z_j) * root_tau, dec(z_tilde) * root_tau
            )
            return abs(float((sum(terms) - dec(s_j).ln()).exp() - 1))
    a = alpha(pair)
    log_b = stochastic_term(pair, a, tau, z_j, z_tilde)
    log_prediction = deterministic_term(pair, a, tau) + log_b + twin_exponent(pair, a) * np.log(s_i)
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
