import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import terminal_pair
from twinassets import (
    AssetParams,
    InvalidParameterError,
    NoiseDraw,
    TwinPair,
    alpha,
    simulate_paths,
)
from twinassets.seeding import STREAM_PATHS, substream

BASE_I = AssetParams(mu=0.4, sigma=0.2, spot=80.0)
BASE_J = AssetParams(mu=0.8, sigma=0.4, spot=90.0)


def step_log_returns(pair, n_steps, dt, seed):
    """The log-returns of the n_steps steps of one `simulate_paths` run."""
    _, path_i, path_j = simulate_paths(pair, n_steps, dt, seed)
    return np.diff(np.log(path_i)), np.diff(np.log(path_j))


class TestValidation:
    def test_sigma_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            AssetParams(mu=0.1, sigma=0.0, spot=100.0)

    def test_sigma_square_must_be_finite(self):
        # the largest sigma whose square the model can form, and the next float
        largest = math.sqrt(np.finfo(float).max)
        assert largest**2 < math.inf
        AssetParams(mu=0.1, sigma=largest, spot=100.0)
        with pytest.raises(InvalidParameterError, match="sigma\\*\\*2 must be finite"):
            AssetParams(mu=0.1, sigma=math.nextafter(largest, math.inf), spot=100.0)

    def test_spot_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            AssetParams(mu=0.1, sigma=0.2, spot=-5.0)

    def test_rho_range(self):
        a = AssetParams(mu=0.1, sigma=0.2, spot=100.0)
        with pytest.raises(InvalidParameterError):
            TwinPair(asset_i=a, asset_j=a, rho=1.5)

    # the pair itself checks rho alone; alpha, which divides by
    # sigma_j*mu_i, rejects a zero denominator
    def test_zero_drift_reference_rejected(self):
        a = AssetParams(mu=0.0, sigma=0.2, spot=100.0)
        b = AssetParams(mu=0.1, sigma=0.2, spot=100.0)
        with pytest.raises(InvalidParameterError):
            alpha(TwinPair(asset_i=a, asset_j=b, rho=0.5))

    def test_drift_whose_alpha_denominator_rounds_to_zero_rejected(self):
        a = AssetParams(mu=5e-324, sigma=0.2, spot=100.0)
        b = AssetParams(mu=0.1, sigma=0.4, spot=100.0)
        assert b.sigma * a.mu == 0
        with pytest.raises(InvalidParameterError, match="alpha is undefined"):
            alpha(TwinPair(asset_i=a, asset_j=b, rho=0.5))

    def test_negative_master_seed_named_with_its_value(self):
        with pytest.raises(ValueError, match="^master seed must be non-negative, got -1$"):
            substream(-1, STREAM_PATHS)


class TestNoiseDraw:
    def test_draws_z_x_then_z_y(self):
        draw = NoiseDraw.sample(np.random.default_rng(9), 5)
        z = np.random.default_rng(9).standard_normal(10)
        assert draw.z_x.tobytes() == z[:5].tobytes()
        assert draw.z_y.tobytes() == z[5:].tobytes()


class TestTerminalPair:
    """One step of `simulate_paths` is the exact terminal pair over dt;
    these check the law of its steps."""

    def test_deterministic_drift_limit(self):
        # sigma -> 0: each step collapses onto the drift.
        a = AssetParams(mu=0.3, sigma=1e-12, spot=50.0)
        pair = TwinPair(asset_i=a, asset_j=a, rho=0.5)
        _, path_i, path_j = simulate_paths(pair, 1, 1.0, seed=4)
        assert path_i[1] == pytest.approx(50.0 * math.exp(0.3), rel=1e-9)
        assert path_j[1] == pytest.approx(50.0 * math.exp(0.3), rel=1e-9)

    def test_rho_one_ignores_z_tilde(self):
        # at rho = 1 asset i sees z_j alone: both standardised step returns
        # are the same z_j
        pair = TwinPair(asset_i=BASE_I, asset_j=BASE_J, rho=1.0)
        dt = 0.5
        r_i, r_j = step_log_returns(pair, 1000, dt, seed=12)
        z = [(r - (a.mu - 0.5 * a.sigma**2) * dt) / (a.sigma * math.sqrt(dt))
             for r, a in ((r_i, BASE_I), (r_j, BASE_J))]
        np.testing.assert_allclose(z[0], z[1], rtol=0, atol=1e-9)

    def test_drift_discounted_martingale(self):
        n = 40000
        dt = 1 / 252
        pair = TwinPair(asset_i=BASE_I, asset_j=BASE_J, rho=1.0)
        for r, params in zip(step_log_returns(pair, n, dt, seed=42), (BASE_I, BASE_J)):
            discounted = np.exp(r - params.mu * dt)
            se = np.std(discounted, ddof=1) / np.sqrt(n)
            assert abs(np.mean(discounted) - 1.0) < 4 * se

    @pytest.mark.parametrize("rho", [-0.8, 0.0, 0.6])
    def test_return_correlation_matches_rho(self, rho):
        pair = TwinPair(asset_i=BASE_I, asset_j=BASE_J, rho=rho)
        n = 40000
        r_i, r_j = step_log_returns(pair, n, 1 / 252, seed=7)
        sample = np.corrcoef(r_i, r_j)[0, 1]
        se = (1 - rho**2) / np.sqrt(n)
        assert abs(sample - rho) < 3 * se

    def test_perfect_correlation(self):
        pair = TwinPair(asset_i=BASE_I, asset_j=BASE_J, rho=1.0)
        r_i, r_j = step_log_returns(pair, 40000, 1 / 252, seed=3)
        assert np.corrcoef(r_i, r_j)[0, 1] >= 0.999


class TestSimulatePaths:
    def test_grid_construction(self, section3_pair):
        times, path_i, path_j = simulate_paths(section3_pair, n_steps=252, dt=1 / 252, seed=1)
        assert len(times) == 253
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(1.0)
        assert path_i[0] == 80.0 and path_j[0] == 90.0

    def test_identical_seed_bit_identical(self, section3_pair):
        _, i1, j1 = simulate_paths(section3_pair, 100, 1 / 252, seed=99)
        _, i2, j2 = simulate_paths(section3_pair, 100, 1 / 252, seed=99)
        assert np.array_equal(i1, i2)
        assert np.array_equal(j1, j2)

    def test_step_log_return_correlation(self):
        pair = TwinPair(
            asset_i=AssetParams(mu=0.4, sigma=0.2, spot=80.0),
            asset_j=AssetParams(mu=0.8, sigma=0.4, spot=90.0),
            rho=0.5,
        )
        n = 40000
        _, path_i, path_j = simulate_paths(pair, n_steps=n, dt=1 / 252, seed=11)
        r_i = np.diff(np.log(path_i))
        r_j = np.diff(np.log(path_j))
        sample = np.corrcoef(r_i, r_j)[0, 1]
        se = (1 - 0.5**2) / np.sqrt(n)
        assert abs(sample - 0.5) < 3 * se

    def test_first_step_is_terminal_pair(self, section3_pair):
        pair = replace(section3_pair, rho=0.3)
        _, path_i, path_j = simulate_paths(pair, 4, 0.01, seed=8)
        rng = substream(8, STREAM_PATHS)
        z_j, z_tilde = rng.standard_normal(4), rng.standard_normal(4)
        s_i, s_j = terminal_pair(pair, 0.01, z_j[0], z_tilde[0])
        assert path_i[1].tobytes() == np.float64(s_i).tobytes()
        assert path_j[1].tobytes() == np.float64(s_j).tobytes()

    def test_invalid_steps(self, section3_pair):
        with pytest.raises(InvalidParameterError):
            simulate_paths(section3_pair, 0, 1 / 252, seed=1)
        with pytest.raises(InvalidParameterError):
            simulate_paths(section3_pair, 10, -0.1, seed=1)


class TestLogReturn:
    def test_moments_match_lognormal_solution(self):
        params = AssetParams(mu=0.25, sigma=0.35, spot=60.0)
        pair = TwinPair(asset_i=params, asset_j=params, rho=0.0)
        n = 40000
        dt = 0.75 / 252
        _, r = step_log_returns(pair, n, dt, seed=5)
        mean_target = (0.25 - 0.5 * 0.35**2) * dt
        var_target = 0.35**2 * dt
        se_mean = np.std(r, ddof=1) / np.sqrt(n)
        se_var = var_target * np.sqrt(2.0 / (n - 1))
        assert abs(np.mean(r) - mean_target) < 4 * se_mean
        assert abs(np.var(r, ddof=1) - var_target) < 4 * se_var
