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
    predict_twin,
    stochastic_term,
)
from twinassets.twin import stochastic_coefficients
from conftest import exact_relation_residual, terminal_pair

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
        # alpha divides by sigma_j*mu_i, so it rejects mu_i = 0 itself;
        # the pair, which checks rho alone, may hold it
        a = AssetParams(mu=0.0, sigma=0.2, spot=50.0)
        b = AssetParams(mu=0.2, sigma=0.2, spot=50.0)
        with pytest.raises(InvalidParameterError):
            alpha(TwinPair(asset_i=a, asset_j=b, rho=0.0))

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
    """A, read through `predict_twin` at S_i = S_i(0) and log B = 0, where
    the prediction is A*S_i(0)^e."""

    def test_identical_twin_reduction(self):
        # A = 1 and e = 1, so the prediction is S_i(0) exactly
        a = AssetParams(mu=0.3, sigma=0.25, spot=70.0)
        pair = TwinPair(asset_i=a, asset_j=a, rho=1.0)
        assert predict_twin(pair, alpha(pair), 0.5, a.spot, 0.0) == a.spot

    def test_section3_frozen_value(self, section3_pair):
        # Independent scalar re-evaluation: 90 * 80^-2 * e^{0.2*(0.2-0.4)/252}, times 80^2.
        assert predict_twin(section3_pair, 1.0, 1 / 252, 80.0, 0.0) == pytest.approx(
            0.01406026803428768 * 80.0**2, rel=1e-14
        )

    def test_small_tau_limit(self, section3_pair):
        # A -> 90 * 80^-2 as tau -> 0, times 80^2
        assert predict_twin(section3_pair, 1.0, 1e-14, 80.0, 0.0) == pytest.approx(90.0, rel=1e-12)


class TestStochasticTerm:
    def test_perfect_twin_degeneracy(self, section3_pair):
        assert stochastic_term(section3_pair, 1.0, 0.5, 2.3, -1.7) == 0.0

    def test_rho_one_depends_only_on_z_x(self):
        pair = TwinPair(
            asset_i=AssetParams(mu=0.4, sigma=0.2, spot=80.0),
            asset_j=AssetParams(mu=1.2, sigma=0.4, spot=90.0),  # alpha = 1.5
            rho=1.0,
        )
        b1 = stochastic_term(pair, alpha(pair), 0.5, 0.8, 3.0)
        b2 = stochastic_term(pair, alpha(pair), 0.5, 0.8, -2.0)
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
        b = np.exp(stochastic_term(pair, a, tau, draw.z_x, draw.z_y))
        log_var = tau * (sig_j**2 * (1 - rho * a) ** 2 + a**2 * sig_j**2 * (1 - rho**2))
        expected = math.exp(0.5 * log_var)
        se = np.std(b, ddof=1) / np.sqrt(n)
        assert abs(np.mean(b) - expected) < 4 * se

    @pytest.mark.parametrize("n", [1, 2, 2000])
    @pytest.mark.parametrize("rho, alpha_value", [(1.0, 1.0), (0.6, 1.3), (-1.0, 0.5)])
    def test_out_is_the_allocating_call_in_place(self, section3_pair, n, rho, alpha_value):
        # the grid cells' form: log B in out[0], out[1] its scratch; the
        # noises are read-only, so writing anything outside out raises
        pair = TwinPair(section3_pair.asset_i, section3_pair.asset_j, rho)
        z_x, z_y = np.random.default_rng(n).standard_normal((2, n))
        z_x.flags.writeable = z_y.flags.writeable = False
        kappa_x, kappa_y = stochastic_coefficients(pair, alpha_value, 0.25)
        expected = stochastic_term(pair, alpha_value, 0.25, z_x, z_y)
        assert expected.tobytes() == (kappa_x * z_x - kappa_y * z_y).tobytes()
        out = np.full((2, n), np.nan)
        log_b = stochastic_term(pair, alpha_value, 0.25, z_x, z_y, out=out)
        assert log_b.base is out and log_b.ctypes.data == out.ctypes.data
        assert log_b.shape == (n,)
        assert log_b.tobytes() == expected.tobytes()
        # Python-float noises: the same formula in Python floats, bit for bit
        x, y = float(z_x[0]), float(z_y[0])
        scalar = stochastic_term(pair, alpha_value, 0.25, x, y)
        assert isinstance(scalar, float)
        assert np.float64(scalar).tobytes() == np.float64(kappa_x * x - kappa_y * y).tobytes()


class TestPredictTwin:
    def test_twin_of_itself(self):
        a = AssetParams(mu=0.3, sigma=0.25, spot=70.0)
        pair = TwinPair(asset_i=a, asset_j=a, rho=1.0)
        s_i, _ = terminal_pair(pair, 0.5, 0.4, 0.0)
        log_b = stochastic_term(pair, 1.0, 0.5, 1.2, -0.3)
        assert predict_twin(pair, 1.0, 0.5, s_i, log_b) == pytest.approx(s_i, rel=1e-14)

    def test_perfect_twin_reproduces_truth_per_path(self, section3_pair):
        z_j, z_tilde, z_x, z_y = np.random.default_rng(2).standard_normal((4, 1000))
        s_i, s_j = terminal_pair(section3_pair, 1 / 252, z_j, z_tilde)
        log_b = stochastic_term(section3_pair, 1.0, 1 / 252, z_x, z_y)
        predicted = predict_twin(section3_pair, 1.0, 1 / 252, s_i, log_b)
        assert np.max(np.abs(predicted - s_j) / s_j) < 1e-12

    def test_positivity(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            pair = random_pair(rng)
            z_j, z_tilde, z_x, z_y = rng.standard_normal(4)
            s_i, _ = terminal_pair(pair, rng.uniform(0.01, 2.0), z_j, z_tilde)
            log_b = stochastic_term(pair, alpha(pair), 0.5, z_x, z_y)
            assert predict_twin(pair, alpha(pair), 0.5, s_i, log_b) > 0


class TestExactRelation:
    def test_identity_random_samples(self):
        rng = np.random.default_rng(123)
        worst = 0.0
        for _ in range(500):
            pair = random_pair(rng)
            tau = rng.uniform(1 / 252, 2.0)
            z_j, z_tilde = rng.standard_normal(2)
            worst = max(worst, float(exact_relation_residual(pair, tau, z_j, z_tilde)))
        assert worst <= 1e-12

    def test_identity_zero_correlation(self, section3_pair):
        pair = TwinPair(section3_pair.asset_i, section3_pair.asset_j, rho=0.0)
        z_j, z_tilde = np.random.default_rng(4).standard_normal((2, 100))
        assert np.max(exact_relation_residual(pair, 0.5, z_j, z_tilde)) <= 1e-12

    def test_perfect_twin_residual(self, section3_pair):
        z_j, z_tilde = np.random.default_rng(6).standard_normal((2, 100))
        assert np.max(exact_relation_residual(section3_pair, 1 / 252, z_j, z_tilde)) <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(mu_i=finite_drift, mu_j=finite_drift, sig_i=vol, sig_j=vol,
           s_i=price, s_j=price, rho=corr,
           tau=st.floats(min_value=1e-3, max_value=3.0),
           z=st.tuples(*[st.floats(min_value=-4, max_value=4)] * 2))
    # S_i^e = 40**200 overflows to inf here while S_j stays finite
    @example(mu_i=0.01, mu_j=2.0, sig_i=0.5, sig_j=1.0, s_i=40.0, s_j=1.0,
             rho=0.0, tau=1.0, z=(0.0, 0.0))
    # log terms near 1000 cancel: the float log sum was off by 1.04e-12 here
    @example(mu_i=0.010751514195473006, mu_j=1.9880062046842122,
             sig_i=0.9537109007844528, sig_j=0.5373499645550837,
             s_i=156.95194940537294, s_j=82.43692140482645,
             rho=-0.38013334280358424, tau=2.3285022088747316,
             z=(-3.359971527187076, 3.9970380559961676))
    def test_identity_property(self, mu_i, mu_j, sig_i, sig_j, s_i, s_j, rho, tau, z):
        pair = TwinPair(
            asset_i=AssetParams(mu=mu_i, sigma=sig_i, spot=s_i),
            asset_j=AssetParams(mu=mu_j, sigma=sig_j, spot=s_j),
            rho=rho,
        )
        assert exact_relation_residual(pair, tau, *z) <= 1e-12
