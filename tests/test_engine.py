import math
from dataclasses import replace

import numpy as np
import pytest

from twinassets import (
    AssetParams,
    InvalidParameterError,
    NoiseDraw,
    TwinPair,
    simulate_paths,
    terminal_pair,
)
from twinassets.seeding import STREAM_PATHS, substream


def zero_draw():
    return NoiseDraw(z_j=0.0, z_tilde=0.0, z_x=0.0, z_y=0.0)


class TestValidation:
    def test_sigma_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            AssetParams(mu=0.1, sigma=0.0, spot=100.0)

    def test_spot_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            AssetParams(mu=0.1, sigma=0.2, spot=-5.0)

    def test_rho_range(self):
        a = AssetParams(mu=0.1, sigma=0.2, spot=100.0)
        with pytest.raises(InvalidParameterError):
            TwinPair(asset_i=a, asset_j=a, rho=1.5)

    def test_zero_drift_reference_rejected(self):
        a = AssetParams(mu=0.0, sigma=0.2, spot=100.0)
        b = AssetParams(mu=0.1, sigma=0.2, spot=100.0)
        with pytest.raises(InvalidParameterError):
            TwinPair(asset_i=a, asset_j=b, rho=0.5)

    def test_nonpositive_tau(self, section3_pair):
        with pytest.raises(InvalidParameterError):
            terminal_pair(section3_pair, 0.0, zero_draw())


class TestTerminalPair:
    def test_deterministic_drift_limit(self):
        # sigma -> 0: terminal value collapses onto the drift.
        a = AssetParams(mu=0.3, sigma=1e-12, spot=50.0)
        pair = TwinPair(asset_i=a, asset_j=a, rho=0.5)
        s_i, _ = terminal_pair(pair, 1.0, zero_draw())
        assert s_i == pytest.approx(50.0 * math.exp(0.3), rel=1e-9)

    def test_section3_zero_noise_value(self, section3_pair):
        # Frozen from direct scalar evaluation: 80 * e^{0.4 - 0.02}.
        s_i, s_j = terminal_pair(section3_pair, 1.0, zero_draw())
        assert s_i == pytest.approx(116.98276715473796, rel=1e-14)
        assert s_j == pytest.approx(90.0 * math.exp(0.8 - 0.08), rel=1e-14)

    def test_rho_one_ignores_z_tilde(self, section3_pair):
        d1 = NoiseDraw(z_j=0.7, z_tilde=5.0, z_x=0.0, z_y=0.0)
        d2 = NoiseDraw(z_j=0.7, z_tilde=-3.0, z_x=0.0, z_y=0.0)
        assert terminal_pair(section3_pair, 0.5, d1) == terminal_pair(section3_pair, 0.5, d2)

    def test_pure_function_bit_identical(self, section3_pair):
        d = NoiseDraw(z_j=0.3, z_tilde=-1.1, z_x=0.2, z_y=0.9)
        assert terminal_pair(section3_pair, 0.25, d) == terminal_pair(section3_pair, 0.25, d)

    def test_drift_discounted_martingale(self, section3_pair):
        n = 40000
        rng = np.random.default_rng(42)
        draw = NoiseDraw.sample(rng, n)
        tau = 0.5
        s_i, s_j = terminal_pair(section3_pair, tau, draw)
        for s, params in ((s_i, section3_pair.asset_i), (s_j, section3_pair.asset_j)):
            discounted = s * np.exp(-params.mu * tau)
            se = np.std(discounted, ddof=1) / np.sqrt(n)
            assert abs(np.mean(discounted) - params.spot) < 4 * se

    @pytest.mark.parametrize("rho", [-0.8, 0.0, 0.6])
    def test_return_correlation_matches_rho(self, rho):
        pair = TwinPair(
            asset_i=AssetParams(mu=0.4, sigma=0.2, spot=80.0),
            asset_j=AssetParams(mu=0.8, sigma=0.4, spot=90.0),
            rho=rho,
        )
        n = 40000
        draw = NoiseDraw.sample(np.random.default_rng(7), n)
        s_i, s_j = terminal_pair(pair, 1.0, draw)
        r_i = np.log(s_i / 80.0)
        r_j = np.log(s_j / 90.0)
        sample = np.corrcoef(r_i, r_j)[0, 1]
        se = (1 - rho**2) / np.sqrt(n)
        assert abs(sample - rho) < 3 * se

    def test_perfect_correlation(self, section3_pair):
        n = 40000
        draw = NoiseDraw.sample(np.random.default_rng(3), n)
        s_i, s_j = terminal_pair(section3_pair, 1.0, draw)
        sample = np.corrcoef(np.log(s_i), np.log(s_j))[0, 1]
        assert sample >= 0.999


class TestSimulatePaths:
    def test_grid_construction(self, section3_pair):
        paths = simulate_paths(section3_pair, n_steps=252, dt=1 / 252, seed=1)
        assert len(paths.times) == 253
        assert paths.times[0] == 0.0
        assert paths.times[-1] == pytest.approx(1.0)
        assert paths.path_i[0] == 80.0 and paths.path_j[0] == 90.0

    def test_identical_seed_bit_identical(self, section3_pair):
        p1 = simulate_paths(section3_pair, 100, 1 / 252, seed=99)
        p2 = simulate_paths(section3_pair, 100, 1 / 252, seed=99)
        assert np.array_equal(p1.path_i, p2.path_i)
        assert np.array_equal(p1.path_j, p2.path_j)

    def test_step_log_return_correlation(self):
        pair = TwinPair(
            asset_i=AssetParams(mu=0.4, sigma=0.2, spot=80.0),
            asset_j=AssetParams(mu=0.8, sigma=0.4, spot=90.0),
            rho=0.5,
        )
        n = 40000
        paths = simulate_paths(pair, n_steps=n, dt=1 / 252, seed=11)
        r_i = np.diff(np.log(paths.path_i))
        r_j = np.diff(np.log(paths.path_j))
        sample = np.corrcoef(r_i, r_j)[0, 1]
        se = (1 - 0.5**2) / np.sqrt(n)
        assert abs(sample - 0.5) < 3 * se

    def test_first_step_is_terminal_pair(self, section3_pair):
        pair = replace(section3_pair, rho=0.3)
        paths = simulate_paths(pair, 4, 0.01, seed=8)
        rng = substream(8, STREAM_PATHS)
        z_j, z_tilde = rng.standard_normal(4), rng.standard_normal(4)
        s_i, s_j = terminal_pair(pair, 0.01, NoiseDraw(z_j[0], z_tilde[0], 0.0, 0.0))
        assert paths.path_i[1].tobytes() == np.float64(s_i).tobytes()
        assert paths.path_j[1].tobytes() == np.float64(s_j).tobytes()

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
        tau = 0.75
        draw = NoiseDraw.sample(np.random.default_rng(5), n)
        _, s_j = terminal_pair(pair, tau, draw)
        r = np.log(s_j / 60.0)
        mean_target = (0.25 - 0.5 * 0.35**2) * tau
        var_target = 0.35**2 * tau
        se_mean = np.std(r, ddof=1) / np.sqrt(n)
        se_var = var_target * np.sqrt(2.0 / (n - 1))
        assert abs(np.mean(r) - mean_target) < 4 * se_mean
        assert abs(np.var(r, ddof=1) - var_target) < 4 * se_var
