import math

import numpy as np
import pytest
from scipy.stats import norm

from twinassets import (
    AssetParams,
    GridSpec,
    InvalidParameterError,
    NoiseDraw,
    OptionSpec,
    TwinPair,
    UnsupportedSimilarityError,
    bs_call,
    mape_option,
    normal_cdf,
    twin_call,
)
from twinassets import pricing
from conftest import reference_bs_call, twin_call_quadrature


def zero_draw():
    return NoiseDraw(0.0, 0.0, 0.0, 0.0)


class TestNormalCdf:
    def test_bit_identical_to_scipy_stats_on_dense_grid(self):
        x = np.concatenate([
            np.linspace(-40.0, 40.0, 800_001),
            [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e300, -1e300],
        ])
        assert normal_cdf(x).dtype == np.float64
        assert normal_cdf(x).tobytes() == norm.cdf(x).tobytes()

    @pytest.mark.parametrize(
        "x", [0.0, -0.0, 1.5, -38.5, 40.0, math.inf, -math.inf, math.nan, 2, np.float64(0.3),
              np.float32(0.3), np.int16(-3)],
    )
    def test_scalar_type_and_value(self, x):
        got, expected = normal_cdf(x), norm.cdf(x)
        assert type(got) is type(expected)
        assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()

    def test_closed_forms_never_call_scipy_stats(self, monkeypatch, section3_pair):
        spec = OptionSpec(strike=90.0, maturity=0.25, rate=0.05)
        pair = TwinPair(asset_i=section3_pair.asset_i, asset_j=section3_pair.asset_j, rho=0.6)
        draw = NoiseDraw.sample(np.random.default_rng(4), 300)
        g = GridSpec(rho_values=(0.0, 0.8), alpha_values=(0.9, 1.2), n_replications=300,
                     horizon=0.25, master_seed=5)

        def values():
            grid = mape_option(section3_pair, spec, g)
            return (bs_call(90.0, spec, 0.4), twin_call(pair, spec, draw).tobytes(),
                    grid.grid.tobytes(), grid.standard_errors.tobytes())

        expected = values()

        class Raising:
            def cdf(self, *args, **kwargs):
                raise AssertionError("scipy.stats.norm.cdf called")

        monkeypatch.setattr(pricing, "norm", Raising())
        assert values() == expected


class TestBsCall:
    def test_frozen_reference_value(self):
        # Frozen from the standalone math.erf oracle in conftest.
        spec = OptionSpec(strike=90.0, maturity=0.25, rate=0.05)
        assert bs_call(90.0, spec, 0.4) == pytest.approx(7.697346193411981, rel=1e-12)

    @pytest.mark.parametrize(
        "spot,strike,rate,sigma,tau",
        [(90, 90, 0.05, 0.4, 0.25), (100, 95, 0.03, 0.25, 0.5), (80, 120, 0.05, 0.3, 1.0)],
    )
    def test_matches_independent_oracle(self, spot, strike, rate, sigma, tau):
        spec = OptionSpec(strike=strike, maturity=tau, rate=rate)
        assert bs_call(spot, spec, sigma) == pytest.approx(
            reference_bs_call(spot, strike, rate, sigma, tau), rel=1e-12
        )

    def test_worthless_strike_limit(self):
        spec = OptionSpec(strike=1e-10, maturity=0.25, rate=0.05)
        assert bs_call(90.0, spec, 0.4) == pytest.approx(90.0, rel=1e-9)

    def test_vanishing_vol_limit(self):
        spec = OptionSpec(strike=80.0, maturity=0.5, rate=0.05)
        expected = 90.0 - 80.0 * math.exp(-0.05 * 0.5)
        assert bs_call(90.0, spec, 1e-8) == pytest.approx(expected, rel=1e-9)

    def test_bounds(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            spot = rng.uniform(10, 200)
            spec = OptionSpec(strike=rng.uniform(10, 200), maturity=rng.uniform(0.05, 2),
                              rate=rng.uniform(0, 0.1))
            price = bs_call(spot, spec, rng.uniform(0.05, 0.8))
            lower = max(spot - spec.strike * math.exp(-spec.rate * spec.maturity), 0.0)
            # deep ITM saturates the lower bound at float precision
            assert lower <= price < spot

    def test_monotone_in_spot_and_vol(self):
        spec = OptionSpec(strike=100.0, maturity=0.5, rate=0.03)
        prices_spot = [bs_call(s, spec, 0.3) for s in np.linspace(60, 140, 20)]
        assert np.all(np.diff(prices_spot) > 0)
        prices_vol = [bs_call(100.0, spec, v) for v in np.linspace(0.05, 0.9, 20)]
        assert np.all(np.diff(prices_vol) > 0)

    def test_delta_finite_difference(self):
        from scipy.stats import norm

        spot, sigma = 105.0, 0.35
        spec = OptionSpec(strike=100.0, maturity=0.5, rate=0.03)
        h = 1e-5 * spot
        delta_fd = (bs_call(spot + h, spec, sigma) - bs_call(spot - h, spec, sigma)) / (2 * h)
        d1 = (math.log(spot / 100.0) + (0.03 + 0.5 * sigma**2) * 0.5) / (sigma * math.sqrt(0.5))
        assert delta_fd == pytest.approx(norm.cdf(d1), rel=1e-6)

    def test_invalid_params(self):
        spec = OptionSpec(strike=100.0, maturity=0.5, rate=0.03)
        with pytest.raises(InvalidParameterError):
            bs_call(-5.0, spec, 0.3)
        with pytest.raises(InvalidParameterError):
            bs_call(100.0, spec, 0.0)
        with pytest.raises(InvalidParameterError):
            OptionSpec(strike=0.0, maturity=0.5, rate=0.03)
        with pytest.raises(InvalidParameterError):
            OptionSpec(strike=100.0, maturity=-1.0, rate=0.03)


def identical_twin_pair(rng):
    params = AssetParams(mu=rng.uniform(0.05, 1.0), sigma=rng.uniform(0.05, 0.8),
                         spot=rng.uniform(20, 200))
    return TwinPair(asset_i=params, asset_j=params, rho=1.0)


def random_positive_alpha_pair(rng):
    while True:
        pair = TwinPair(
            asset_i=AssetParams(mu=rng.uniform(0.05, 0.8), sigma=rng.uniform(0.1, 0.6),
                                spot=rng.uniform(40, 150)),
            asset_j=AssetParams(mu=rng.uniform(0.05, 0.8), sigma=rng.uniform(0.1, 0.6),
                                spot=rng.uniform(40, 150)),
            rho=rng.uniform(-1, 1),
        )
        from twinassets import alpha

        if 0.2 <= alpha(pair) <= 3.0:
            return pair


class TestTwinCall:
    def test_identical_twin_reduces_to_bs(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            pair = identical_twin_pair(rng)
            spec = OptionSpec(strike=rng.uniform(20, 200), maturity=rng.uniform(0.05, 2),
                              rate=rng.uniform(0, 0.1))
            draw = NoiseDraw.sample(rng)
            # e = 1 and log A = log B = 0 exactly, so the twin forward is S_i
            assert twin_call(pair, spec, draw) == bs_call(pair.asset_j.spot, spec,
                                                          pair.asset_j.sigma)

    def test_section3_perfect_twin_finite_price(self, section3_pair):
        # Frozen closed-form value at (rho, alpha) = (1, 1); B = 1 for any draw.
        spec = OptionSpec(strike=90.0, maturity=0.25, rate=0.05)
        price = twin_call(section3_pair, spec, NoiseDraw(0.7, -0.2, 1.4, 0.5))
        assert price == pytest.approx(8.350349700908367, rel=1e-12)

    def test_negative_alpha_rejected(self):
        pair = TwinPair(
            asset_i=AssetParams(mu=0.4, sigma=0.2, spot=80.0),
            asset_j=AssetParams(mu=-0.8, sigma=0.4, spot=90.0),
            rho=0.5,
        )
        spec = OptionSpec(strike=90.0, maturity=0.25, rate=0.05)
        with pytest.raises(UnsupportedSimilarityError):
            twin_call(pair, spec, zero_draw())
        with pytest.raises(UnsupportedSimilarityError):
            twin_call_quadrature(pair, spec, zero_draw())

    def test_vectorized_draw(self, section3_pair):
        spec = OptionSpec(strike=90.0, maturity=0.25, rate=0.05)
        pair = TwinPair(asset_i=section3_pair.asset_i, asset_j=section3_pair.asset_j, rho=0.6)
        draw = NoiseDraw.sample(np.random.default_rng(1), 64)
        prices = twin_call(pair, spec, draw)
        assert prices.shape == (64,)
        assert np.all(prices >= 0)
        # a scalar draw gives a scalar, the same as its entry of the array draw
        for k, z in enumerate(zip(draw.z_j.tolist(), draw.z_tilde.tolist(),
                                  draw.z_x.tolist(), draw.z_y.tolist())):
            price = twin_call(pair, spec, NoiseDraw(*z))
            assert type(price) is np.float64
            assert price.tobytes() == prices[k].tobytes()


class TestQuadratureOracle:
    def test_matches_closed_form_randomized(self):
        rng = np.random.default_rng(77)
        for _ in range(120):
            pair = random_positive_alpha_pair(rng)
            spec = OptionSpec(strike=rng.uniform(40, 150), maturity=rng.uniform(0.05, 1.0),
                              rate=rng.uniform(0, 0.1))
            draw = NoiseDraw.sample(rng)
            closed = float(twin_call(pair, spec, draw))
            quad = twin_call_quadrature(pair, spec, draw)
            assert quad == pytest.approx(closed, rel=1e-6)

    def test_deep_itm_limit(self, section3_pair):
        # K -> 0: both routes approach the discounted power-forward value.
        from twinassets import deterministic_term

        spec = OptionSpec(strike=1e-9, maturity=0.25, rate=0.05)
        draw = zero_draw()
        a_term = math.exp(deterministic_term(section3_pair, 0.25))
        expo = 2.0  # alpha * sigma_j / sigma_i at section-3 parameters
        forward = a_term * 80.0**expo * math.exp((expo - 1) * (0.05 + 0.5 * 0.4 * 0.2) * 0.25)
        closed = float(twin_call(section3_pair, spec, draw))
        quad = twin_call_quadrature(section3_pair, spec, draw)
        assert closed == pytest.approx(forward, rel=1e-9)
        assert quad == pytest.approx(forward, rel=1e-6)

    def test_independent_of_twin_call(self, section3_pair, monkeypatch):
        # the oracle forms log(A*B) itself, so a wrong log A inside
        # twin_call shows as a gap instead of moving both prices together
        spec = OptionSpec(strike=90.0, maturity=0.25, rate=0.05)
        pair = TwinPair(section3_pair.asset_i, section3_pair.asset_j, rho=0.6)
        draw = NoiseDraw(0.7, -0.2, 1.4, 0.5)
        oracle = twin_call_quadrature(pair, spec, draw)
        assert float(twin_call(pair, spec, draw)) == pytest.approx(oracle, rel=1e-6)
        log_a = pricing.deterministic_term
        monkeypatch.setattr(pricing, "deterministic_term", lambda p, tau: log_a(p, tau) + 1e-3)
        closed = float(twin_call(pair, spec, draw))
        assert abs(closed - twin_call_quadrature(pair, spec, draw)) > 1e-4 * oracle

    def test_deep_otm_limit(self, section3_pair):
        spec = OptionSpec(strike=1e7, maturity=0.25, rate=0.05)
        draw = zero_draw()
        assert float(twin_call(section3_pair, spec, draw)) < 1e-8
        assert twin_call_quadrature(section3_pair, spec, draw) < 1e-8
