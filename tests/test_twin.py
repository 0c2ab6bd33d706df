import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twinassets import (
    AssetParams,
    InvalidParameterError,
    NoiseDraw,
    TwinPair,
    alpha,
    deterministic_term,
    predict_twin,
    stochastic_term,
    terminal_pair,
)
from conftest import exact_relation_residual

finite_drift = st.floats(min_value=0.01, max_value=2.0)
vol = st.floats(min_value=0.05, max_value=1.0)
price = st.floats(min_value=1.0, max_value=500.0)
corr = st.floats(min_value=-1.0, max_value=1.0)


def random_pair(rng):
    return TwinPair(
        asset_i=AssetParams(mu=rng.uniform(0.05, 1.0), sigma=rng.uniform(0.05, 0.8),
                            spot=rng.uniform(10, 200)),
        asset_j=AssetParams(mu=rng.uniform(0.05, 1.0), sigma=rng.uniform(0.05, 0.8),
                            spot=rng.uniform(10, 200)),
        rho=rng.uniform(-1, 1),
    )


class TestAlpha:
    def test_section3_value(self, section3_pair):
        assert alpha(section3_pair) == pytest.approx(1.0, rel=1e-15)

    def test_identical_assets(self):
        a = AssetParams(mu=0.3, sigma=0.25, spot=70.0)
        assert alpha(TwinPair(asset_i=a, asset_j=a, rho=0.9)) == 1.0

    def test_linear_in_mu_j(self, section3_pair):
        doubled = TwinPair(
            asset_i=section3_pair.asset_i,
            asset_j=AssetParams(mu=1.6, sigma=0.4, spot=90.0),
            rho=1.0,
        )
        assert alpha(doubled) == pytest.approx(2 * alpha(section3_pair), rel=1e-15)

    def test_zero_drift_undefined(self):
        # alpha divides by mu_i, so TwinPair rejects mu_i = 0 up front.
        a = AssetParams(mu=0.0, sigma=0.2, spot=50.0)
        b = AssetParams(mu=0.2, sigma=0.2, spot=50.0)
        with pytest.raises(InvalidParameterError):
            TwinPair(asset_i=a, asset_j=b, rho=0.0)

    @given(mu_i=finite_drift, mu_j=finite_drift, sig_i=vol, sig_j=vol,
           s_i=price, s_j=price, rho=corr)
    def test_reciprocity(self, mu_i, mu_j, sig_i, sig_j, s_i, s_j, rho):
        pair = TwinPair(
            asset_i=AssetParams(mu=mu_i, sigma=sig_i, spot=s_i),
            asset_j=AssetParams(mu=mu_j, sigma=sig_j, spot=s_j),
            rho=rho,
        )
        swapped = TwinPair(asset_i=pair.asset_j, asset_j=pair.asset_i, rho=rho)
        assert alpha(pair) * alpha(swapped) == pytest.approx(1.0, rel=1e-12)


class TestDeterministicTerm:
    def test_identical_twin_reduction(self):
        a = AssetParams(mu=0.3, sigma=0.25, spot=70.0)
        pair = TwinPair(asset_i=a, asset_j=a, rho=1.0)
        assert deterministic_term(pair, 0.5) == 0.0

    def test_section3_frozen_value(self, section3_pair):
        # Independent scalar re-evaluation: 90 * 80^-2 * e^{0.2*(0.2-0.4)/252}.
        assert math.exp(deterministic_term(section3_pair, 1 / 252)) == pytest.approx(
            0.01406026803428768, rel=1e-14
        )

    def test_small_tau_limit(self, section3_pair):
        expected = 90.0 * 80.0 ** (-2.0)
        assert math.exp(deterministic_term(section3_pair, 1e-14)) == pytest.approx(
            expected, rel=1e-12
        )


class TestStochasticTerm:
    def test_perfect_twin_degeneracy(self, section3_pair):
        assert stochastic_term(section3_pair, 0.5, 2.3, -1.7) == 0.0

    def test_rho_one_depends_only_on_z_x(self):
        pair = TwinPair(
            asset_i=AssetParams(mu=0.4, sigma=0.2, spot=80.0),
            asset_j=AssetParams(mu=1.2, sigma=0.4, spot=90.0),  # alpha = 1.5
            rho=1.0,
        )
        b1 = stochastic_term(pair, 0.5, 0.8, 3.0)
        b2 = stochastic_term(pair, 0.5, 0.8, -2.0)
        assert b1 == b2

    def test_lognormal_mean_identity(self):
        pair = TwinPair(
            asset_i=AssetParams(mu=0.4, sigma=0.2, spot=80.0),
            asset_j=AssetParams(mu=0.6, sigma=0.4, spot=90.0),
            rho=0.3,
        )
        a = alpha(pair)
        sig_j, rho, tau = 0.4, 0.3, 0.25
        n = 400000
        draw = NoiseDraw.sample(np.random.default_rng(17), n)
        b = np.exp(stochastic_term(pair, tau, draw.z_x, draw.z_y))
        log_var = tau * (sig_j**2 * (1 - rho * a) ** 2 + a**2 * sig_j**2 * (1 - rho**2))
        expected = math.exp(0.5 * log_var)
        se = np.std(b, ddof=1) / np.sqrt(n)
        assert abs(np.mean(b) - expected) < 4 * se


class TestPredictTwin:
    def test_twin_of_itself(self):
        a = AssetParams(mu=0.3, sigma=0.25, spot=70.0)
        pair = TwinPair(asset_i=a, asset_j=a, rho=1.0)
        draw = NoiseDraw(z_j=0.4, z_tilde=0.0, z_x=1.2, z_y=-0.3)
        s_i, _ = terminal_pair(pair, 0.5, draw)
        log_b = stochastic_term(pair, 0.5, draw.z_x, draw.z_y)
        assert predict_twin(pair, 0.5, s_i, log_b) == pytest.approx(s_i, rel=1e-14)

    def test_perfect_twin_reproduces_truth_per_path(self, section3_pair):
        draw = NoiseDraw.sample(np.random.default_rng(2), 1000)
        s_i, s_j = terminal_pair(section3_pair, 1 / 252, draw)
        log_b = stochastic_term(section3_pair, 1 / 252, draw.z_x, draw.z_y)
        predicted = predict_twin(section3_pair, 1 / 252, s_i, log_b)
        assert np.max(np.abs(predicted - s_j) / s_j) < 1e-12

    def test_positivity(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            pair = random_pair(rng)
            draw = NoiseDraw.sample(rng)
            s_i, _ = terminal_pair(pair, rng.uniform(0.01, 2.0), draw)
            log_b = stochastic_term(pair, 0.5, draw.z_x, draw.z_y)
            assert predict_twin(pair, 0.5, s_i, log_b) > 0


class TestExactRelation:
    def test_identity_random_samples(self):
        rng = np.random.default_rng(123)
        worst = 0.0
        for _ in range(500):
            pair = random_pair(rng)
            tau = rng.uniform(1 / 252, 2.0)
            draw = NoiseDraw.sample(rng)
            worst = max(worst, float(exact_relation_residual(pair, tau, draw)))
        assert worst <= 1e-12

    def test_identity_zero_correlation(self, section3_pair):
        pair = TwinPair(section3_pair.asset_i, section3_pair.asset_j, rho=0.0)
        draw = NoiseDraw.sample(np.random.default_rng(4), 100)
        assert np.max(exact_relation_residual(pair, 0.5, draw)) <= 1e-12

    def test_perfect_twin_residual(self, section3_pair):
        draw = NoiseDraw.sample(np.random.default_rng(6), 100)
        assert np.max(exact_relation_residual(section3_pair, 1 / 252, draw)) <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(mu_i=finite_drift, mu_j=finite_drift, sig_i=vol, sig_j=vol,
           s_i=price, s_j=price, rho=corr,
           tau=st.floats(min_value=1e-3, max_value=3.0),
           z=st.tuples(*[st.floats(min_value=-4, max_value=4)] * 4))
    # S_i^e = 40**200 overflows to inf here while S_j stays finite
    @example(mu_i=0.01, mu_j=2.0, sig_i=0.5, sig_j=1.0, s_i=40.0, s_j=1.0,
             rho=0.0, tau=1.0, z=(0.0, 0.0, 0.0, 0.0))
    def test_identity_property(self, mu_i, mu_j, sig_i, sig_j, s_i, s_j, rho, tau, z):
        pair = TwinPair(
            asset_i=AssetParams(mu=mu_i, sigma=sig_i, spot=s_i),
            asset_j=AssetParams(mu=mu_j, sigma=sig_j, spot=s_j),
            rho=rho,
        )
        draw = NoiseDraw(*z)
        assert exact_relation_residual(pair, tau, draw) <= 1e-12
