import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss
from scipy.stats import norm

from twinassets import (
    AssetParams,
    GridSpec,
    InvalidParameterError,
    NoiseDraw,
    OptionSpec,
    TwinPair,
    alpha,
    bs_call,
    mape_option,
    normal_cdf,
    stochastic_term,
    twin_call,
)
from twinassets import pricing
from twinassets.cli import main
from conftest import expected_twin_call, reference_bs_call, twin_call_quadrature


def log_b_of(pair, spec, draw):
    """log B over the maturity of a draw at the pair's alpha, as `price` forms it."""
    return stochastic_term(pair, alpha(pair), spec.maturity, draw.z_x, draw.z_y)


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
        log_b = log_b_of(pair, spec, NoiseDraw.sample(np.random.default_rng(4), 300))
        g = GridSpec(rho_values=(0.0, 0.8), alpha_values=(0.9, 1.2), n_replications=300,
                     horizon=0.25, master_seed=5)

        def values():
            mape, se = mape_option(section3_pair, spec, g)
            return (bs_call(90.0, spec, 0.4), twin_call(pair, alpha(pair), spec, log_b).tobytes(),
                    mape.tobytes(), se.tobytes())

        expected = values()

        def raising(*args, **kwargs):
            raise AssertionError("scipy.stats.norm.cdf called")

        # patched on scipy's own object, so the check holds whatever pricing imports
        monkeypatch.setattr(norm, "cdf", raising)
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

    def test_never_negative_far_out_of_the_money(self):
        # S*N(d1) and the discounted K*N(d2) cancel to rounding noise or
        # underflow to 0 here; the price is never below 0
        rng = np.random.default_rng(11)
        for _ in range(300):
            spot = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
            spec = OptionSpec(strike=spot * math.exp(rng.uniform(2.0, 700.0)),
                              maturity=math.exp(rng.uniform(-6.0, 3.0)),
                              rate=rng.uniform(-0.2, 0.3))
            assert bs_call(spot, spec, math.exp(rng.uniform(math.log(1e-3), math.log(3.0)))) >= 0

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
        with pytest.raises(InvalidParameterError, match="spot must be > 0"):
            bs_call(-5.0, spec, 0.3)
        with pytest.raises(InvalidParameterError, match="sigma must be > 0"):
            bs_call(100.0, spec, 0.0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidParameterError, match=f"spot must be finite, got {bad}"):
                bs_call(bad, spec, 0.3)
            with pytest.raises(InvalidParameterError, match=f"sigma must be finite, got {bad}"):
                bs_call(100.0, spec, bad)
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
        if 0.2 <= alpha(pair) <= 3.0:
            return pair


class TestTwinCall:
    def test_identical_twin_reduces_to_bs(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            pair = identical_twin_pair(rng)
            spec = OptionSpec(strike=rng.uniform(20, 200), maturity=rng.uniform(0.05, 2),
                              rate=rng.uniform(0, 0.1))
            log_b = log_b_of(pair, spec, NoiseDraw(*rng.standard_normal(2)))
            # e = 1 and log A = log B = 0 exactly whatever the drift and the
            # draw, so the twin forward is S_i; bs_call prices at drift 1
            assert twin_call(pair, alpha(pair), spec, log_b) == bs_call(
                pair.asset_j.spot, spec, pair.asset_j.sigma)

    def test_section3_perfect_twin_finite_price(self, section3_pair):
        # Frozen closed-form value at (rho, alpha) = (1, 1); B = 1 for any draw.
        spec = OptionSpec(strike=90.0, maturity=0.25, rate=0.05)
        log_b = log_b_of(section3_pair, spec, NoiseDraw(1.4, 0.5))
        price = twin_call(section3_pair, alpha(section3_pair), spec, log_b)
        assert price == pytest.approx(8.350349700908367, rel=1e-12)

    def test_negative_alpha_rejected(self):
        pair = TwinPair(
            asset_i=AssetParams(mu=0.4, sigma=0.2, spot=80.0),
            asset_j=AssetParams(mu=-0.8, sigma=0.4, spot=90.0),
            rho=0.5,
        )
        spec = OptionSpec(strike=90.0, maturity=0.25, rate=0.05)
        with pytest.raises(InvalidParameterError, match="requires alpha > 0"):
            twin_call(pair, alpha(pair), spec, 0.0)
        with pytest.raises(InvalidParameterError, match="requires alpha > 0"):
            twin_call_quadrature(pair, alpha(pair), spec, 0.0)

    def test_vectorized_draw(self, section3_pair):
        spec = OptionSpec(strike=90.0, maturity=0.25, rate=0.05)
        pair = TwinPair(asset_i=section3_pair.asset_i, asset_j=section3_pair.asset_j, rho=0.6)
        log_b = log_b_of(pair, spec, NoiseDraw.sample(np.random.default_rng(1), 64))
        prices = twin_call(pair, alpha(pair), spec, log_b)
        assert prices.shape == (64,)
        assert np.all(prices >= 0)
        # a scalar log B gives a scalar, the same as its entry of the array
        for k, value in enumerate(log_b.tolist()):
            price = twin_call(pair, alpha(pair), spec, value)
            assert type(price) is np.float64
            assert price.tobytes() == prices[k].tobytes()

    def test_peak_memory_four_arrays(self, section3_pair):
        # each temporary is dropped once dead, so at most four arrays of the
        # replications' size are alive at once, the returned prices included
        n = 100_000
        spec = OptionSpec(strike=90.0, maturity=0.25, rate=0.05)
        pair = TwinPair(asset_i=section3_pair.asset_i, asset_j=section3_pair.asset_j, rho=0.6)
        log_b = log_b_of(pair, spec, NoiseDraw.sample(np.random.default_rng(2), n))
        tracemalloc.start()
        try:
            twin_call(pair, alpha(pair), spec, log_b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (8 * n) <= 4 + 0.1


class TestQuadratureOracle:
    def test_matches_closed_form_randomized(self):
        rng = np.random.default_rng(77)
        for _ in range(120):
            pair = random_positive_alpha_pair(rng)
            spec = OptionSpec(strike=rng.uniform(40, 150), maturity=rng.uniform(0.05, 1.0),
                              rate=rng.uniform(0, 0.1))
            log_b = log_b_of(pair, spec, NoiseDraw(*rng.standard_normal(2)))
            closed = float(twin_call(pair, alpha(pair), spec, log_b))
            quad = twin_call_quadrature(pair, alpha(pair), spec, log_b)
            assert quad == pytest.approx(closed, rel=1e-6)

    def test_deep_itm_limit(self, section3_pair):
        # K -> 0: both routes approach the discounted power-forward value.
        from twinassets import deterministic_term

        spec = OptionSpec(strike=1e-9, maturity=0.25, rate=0.05)
        a_term = math.exp(deterministic_term(section3_pair, 1.0, 0.25))
        expo = 2.0  # alpha * sigma_j / sigma_i at section-3 parameters
        forward = a_term * 80.0**expo * math.exp((expo - 1) * (0.05 + 0.5 * 0.4 * 0.2) * 0.25)
        closed = float(twin_call(section3_pair, 1.0, spec, 0.0))
        quad = twin_call_quadrature(section3_pair, 1.0, spec, 0.0)
        assert closed == pytest.approx(forward, rel=1e-9)
        assert quad == pytest.approx(forward, rel=1e-6)

    def test_independent_of_twin_call(self, section3_pair, monkeypatch):
        # the oracle forms log(A*B) itself, so a wrong log A inside
        # twin_call shows as a gap instead of moving both prices together
        spec = OptionSpec(strike=90.0, maturity=0.25, rate=0.05)
        pair = TwinPair(section3_pair.asset_i, section3_pair.asset_j, rho=0.6)
        log_b = log_b_of(pair, spec, NoiseDraw(1.4, 0.5))
        a = alpha(pair)
        oracle = twin_call_quadrature(pair, a, spec, log_b)
        assert float(twin_call(pair, a, spec, log_b)) == pytest.approx(oracle, rel=1e-6)
        log_a = pricing.deterministic_term
        monkeypatch.setattr(pricing, "deterministic_term",
                            lambda p, alpha_value, tau: log_a(p, alpha_value, tau) + 1e-3)
        closed = float(twin_call(pair, a, spec, log_b))
        assert abs(closed - twin_call_quadrature(pair, a, spec, log_b)) > 1e-4 * oracle

    def test_deep_otm_limit(self, section3_pair):
        spec = OptionSpec(strike=1e7, maturity=0.25, rate=0.05)
        assert float(twin_call(section3_pair, 1.0, spec, 0.0)) < 1e-8
        assert twin_call_quadrature(section3_pair, 1.0, spec, 0.0) < 1e-8


class TestExpectedTwinPrice:
    """The mean of the twin price over log B against `expected_twin_call`,
    the Black-76 form that makes the twin price's error explicit (README
    "Known limitation"). Parameters are the README defaults."""

    SPEC = OptionSpec(strike=90.0, maturity=0.25, rate=0.05)

    @staticmethod
    def oracle(pair, alpha_value, spec):
        return expected_twin_call(pair.asset_j.spot, pair.asset_i.sigma, pair.asset_j.sigma,
                                  pair.rho, alpha_value, spec.strike, spec.maturity, spec.rate)

    def test_gauss_hermite_mean_on_the_readme_option_cells(self, section3_pair):
        # worst relative gap over the 441 cells, measured: 8.3e-15 at 160
        # nodes (1.1e-13 at 120, where the quadrature's own error still shows)
        nodes, weights = hermegauss(160)
        weights = weights / math.sqrt(2 * math.pi)
        spec = self.SPEC
        worst = 0.0
        for rho in np.linspace(-1, 1, 21):
            for alpha_value in np.linspace(0.5, 1.5, 21):
                pair, a = TwinPair(section3_pair.asset_i, section3_pair.asset_j, rho), alpha_value
                # log B ~ N(0, sigma_j^2*tau*(1 - 2*rho*alpha + alpha^2))
                sd = pair.asset_j.sigma * math.sqrt(
                    spec.maturity * ((1 - a) ** 2 + 2 * a * (1 - rho)))
                mean = float(np.dot(weights, twin_call(pair, a, spec, sd * nodes)))
                expected = self.oracle(pair, a, spec)
                worst = max(worst, abs(mean - expected) / expected)
        assert worst <= 5e-14

    @pytest.mark.parametrize("rho, alpha_value", [(0.8, 1.1), (-0.5, 1.4), (0.0, 1.0)])
    def test_price_mean_within_4_se_over_seeds(self, section3_pair, rho, alpha_value, capsys):
        # at the grid value of alpha, which `--alpha` takes through mu_j
        pair = TwinPair(section3_pair.asset_i, section3_pair.asset_j, rho)
        expected = self.oracle(pair, alpha_value, self.SPEC)
        z_scores = []
        for seed in range(40):
            argv = f"price --rho={rho} --alpha {alpha_value} --n 10000 --seed {seed}".split()
            assert main(argv) == 0
            record = dict(line.split("=") for line in capsys.readouterr().out.splitlines())
            mean, se = float(record["twin_price_mean"]), float(record["twin_price_se"])
            z_scores.append((mean - expected) / se)
        assert np.max(np.abs(z_scores)) <= 4.0, z_scores
        # and the seeds' mean z-score within 4 of its standard errors
        assert abs(np.mean(z_scores)) <= 4.0 / math.sqrt(len(z_scores)), z_scores
