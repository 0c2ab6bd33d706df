import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from twinassets import (
    AssetParams,
    GridSpec,
    InvalidParameterError,
    MapeGrid,
    NoiseDraw,
    NumericalError,
    OptionSpec,
    TwinPair,
    alpha,
    alpha_to_mu_j,
    bs_call,
    mape_asset,
    mape_option,
    predict_twin,
    stochastic_term,
    terminal_pair,
    twin_call,
)
from twinassets.cli import main
from twinassets.seeding import STREAM_ASSET_MAPE, STREAM_OPTION_MAPE, substream

ONE_DAY = 1 / 252
ONE_MONTH = 21 / 252
# the README surface
README_RHOS = np.linspace(-1, 1, 21)
README_ALPHAS = np.linspace(0.5, 1.5, 21)


def grid(rhos, alphas, n=10000, horizon=ONE_DAY, seed=7):
    return GridSpec(rho_values=tuple(rhos), alpha_values=tuple(alphas),
                    n_replications=n, horizon=horizon, master_seed=seed)


class TestGridSpec:
    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(InvalidParameterError):
            grid([0.5], [0.0])

    def test_rejects_out_of_range_rho(self):
        with pytest.raises(InvalidParameterError):
            grid([1.2], [1.0])

    def test_rejects_zero_replications(self):
        with pytest.raises(InvalidParameterError):
            grid([0.5], [1.0], n=0)

    @pytest.mark.parametrize("rhos, alphas", [([], [1.0]), ([0.5], []), ([], [])])
    def test_rejects_empty_values(self, rhos, alphas):
        with pytest.raises(InvalidParameterError, match="must not be empty"):
            grid(rhos, alphas)


class TestAlphaToMuJ:
    def test_section3_consistency(self):
        assert alpha_to_mu_j(1.0, 0.4, 0.2, 0.4) == pytest.approx(0.8, rel=1e-15)

    def test_linearity(self):
        assert alpha_to_mu_j(2.0, 0.4, 0.2, 0.4) == pytest.approx(1.6, rel=1e-15)

    @given(target=st.floats(min_value=0.01, max_value=10.0))
    def test_round_trip(self, target):
        mu_j = alpha_to_mu_j(target, 0.4, 0.2, 0.4)
        pair = TwinPair(
            asset_i=AssetParams(mu=0.4, sigma=0.2, spot=80.0),
            asset_j=AssetParams(mu=mu_j, sigma=0.4, spot=90.0),
            rho=0.5,
        )
        assert alpha(pair) == pytest.approx(target, rel=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidParameterError):
            alpha_to_mu_j(-1.0, 0.4, 0.2, 0.4)
        with pytest.raises(InvalidParameterError):
            alpha_to_mu_j(1.0, 0.0, 0.2, 0.4)
        with pytest.raises(InvalidParameterError):
            alpha_to_mu_j(1.0, 0.4, -0.2, 0.4)


class TestMapeAsset:
    def test_perfect_twin_zero(self, section3_pair):
        result = mape_asset(section3_pair, grid([1.0], [1.0], n=40000))
        assert result.grid[0, 0] <= 1e-8

    def test_monotone_decreasing_in_rho(self, section3_pair):
        g = grid([-1.0, -0.5, 0.0, 0.5, 1.0], [1.0], n=40000)
        result = mape_asset(section3_pair, g)
        row = result.grid[:, 0]
        se = result.standard_errors[:, 0]
        for k in range(len(row) - 1):
            assert row[k + 1] < row[k] + 2 * (se[k] + se[k + 1])

    def test_horizon_amplification(self, section3_pair):
        rhos, alphas = np.linspace(-1, 1, 5), np.linspace(0.5, 1.5, 5)
        day = mape_asset(section3_pair, grid(rhos, alphas, horizon=ONE_DAY))
        month = mape_asset(section3_pair, grid(rhos, alphas, horizon=ONE_MONTH))
        slack = 2 * (day.standard_errors + month.standard_errors)
        assert np.all(month.grid + slack >= day.grid)

    def test_deterministic_and_thread_invariant(self, section3_pair):
        g = grid(np.linspace(-1, 1, 4), np.linspace(0.6, 1.4, 4), n=2000)
        r1 = mape_asset(section3_pair, g, threads=1)
        r2 = mape_asset(section3_pair, g, threads=4)
        assert np.array_equal(r1.grid, r2.grid)
        assert np.array_equal(r1.standard_errors, r2.standard_errors)

    def test_shape_and_metadata(self, section3_pair):
        g = grid([0.0, 0.5], [0.8, 1.0, 1.2], n=500)
        result = mape_asset(section3_pair, g)
        assert result.grid.shape == (2, 3)
        assert result.standard_errors.shape == (2, 3)
        assert result.spec == g
        assert np.all(result.grid >= 0)


def asset_mape_closed_form(sigma_j, tau, rho, alpha_value):
    """100*E|e^X - 1| for X ~ N(0, s^2), s^2 = 2*sigma_j^2*tau*(1 - 2*rho*alpha + alpha^2):
    100*e^(s^2/2)*(2*Phi(s) - 1), with 2*Phi(s) - 1 = erf(s/sqrt(2))."""
    # 1 - 2*rho*alpha + alpha^2 as a sum of non-negative terms
    s2 = 2 * sigma_j**2 * tau * ((1 - alpha_value) ** 2 + 2 * alpha_value * (1 - rho))
    return 100 * math.exp(s2 / 2) * math.erf(math.sqrt(s2) / math.sqrt(2))


class TestLogRatioKernel:
    @pytest.mark.parametrize("tau", [ONE_DAY, ONE_MONTH, 1.0])
    def test_matches_unreduced_relation(self, section3_pair, tau):
        # per replication, the reduced kernel log B(u, v) against the
        # prediction A*B*S_i^e vs the simulated S_j
        draw = NoiseDraw.sample(np.random.default_rng(11), 500)
        u, v = draw.z_x - draw.z_j, draw.z_y - draw.z_tilde
        worst = 0.0
        for rho in README_RHOS:
            for alpha_value in README_ALPHAS:
                mu_j = alpha_to_mu_j(alpha_value, 0.4, 0.2, 0.4)
                pair = replace(section3_pair, asset_j=replace(section3_pair.asset_j, mu=mu_j),
                               rho=float(rho))
                s_i, s_j = terminal_pair(pair, tau, draw)
                log_b = stochastic_term(pair, tau, draw.z_x, draw.z_y)
                expected = np.abs(predict_twin(pair, tau, s_i, log_b) - s_j) / s_j
                ape = np.abs(np.expm1(stochastic_term(pair, tau, u, v)))
                worst = max(worst, float(np.max(np.abs(ape - expected) / (1 + expected))))
        assert worst <= 1e-13

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_readme_grid_within_6_se_of_closed_form(self, section3_pair, seed):
        result = mape_asset(section3_pair, grid(README_RHOS, README_ALPHAS, n=40000, seed=seed))
        for l, rho in enumerate(result.spec.rho_values):
            for m, alpha_value in enumerate(result.spec.alpha_values):
                reference = asset_mape_closed_form(0.4, ONE_DAY, rho, alpha_value)
                value, se = result.grid[l, m], result.standard_errors[l, m]
                assert abs(value - reference) <= 6 * se, (rho, alpha_value, value, reference, se)
        assert result.grid[20, 10] == 0.0  # (rho, alpha) = (1, 1)
        assert result.standard_errors[20, 10] == 0.0

    @pytest.mark.parametrize("mode", ["asset", "option"])
    def test_cell_independent_of_grid(self, section3_pair, mode):
        # common random numbers: a cell reads the same draw in any grid
        def run(g):
            if mode == "asset":
                return mape_asset(section3_pair, g)
            return mape_option(section3_pair, TestMapeOption.SPEC, g)

        big = run(grid(np.linspace(-1, 1, 5), np.linspace(0.5, 1.5, 5), n=3000))
        one = run(grid([big.spec.rho_values[3]], [big.spec.alpha_values[1]], n=3000))
        assert big.grid[3, 1].tobytes() == one.grid[0, 0].tobytes()
        assert big.standard_errors[3, 1].tobytes() == one.standard_errors[0, 0].tobytes()


class TestThreadSplit:
    @pytest.mark.parametrize("mode", ["asset", "option"])
    @pytest.mark.parametrize(
        "rhos, alphas, threads",
        # 3 and 7 workers split 20 cells unevenly; 4 workers share one cell
        [((-1, -0.5, 0.5, 1), (0.6, 0.8, 1.0, 1.2, 1.4), t) for t in (2, 3, 7)]
        + [((0.5,), (1.1,), 4)],
    )
    def test_byte_identical_to_one_thread(self, section3_pair, mode, rhos, alphas, threads):
        def run(t):
            g = grid(rhos, alphas, n=2000)
            if mode == "asset":
                return mape_asset(section3_pair, g, threads=t)
            return mape_option(section3_pair, TestMapeOption.SPEC, g, threads=t)

        serial, split = run(1), run(threads)
        assert split.grid.tobytes() == serial.grid.tobytes()
        assert split.standard_errors.tobytes() == serial.standard_errors.tobytes()

    def test_first_failing_cell_reported_at_any_thread_count(self):
        # e = alpha*sigma_j/sigma_i is 2400 at alpha = 40 and 3000 at alpha = 50;
        # the twin forward overflows in both, and grid order reaches alpha = 40 first
        base = TwinPair(asset_i=AssetParams(mu=0.4, sigma=0.05, spot=80.0),
                        asset_j=AssetParams(mu=0.8, sigma=3.0, spot=90.0), rho=0.0)
        spec = OptionSpec(strike=90.0, maturity=2.0, rate=0.05)
        g = grid([0.0, 0.5], [1.0, 40.0, 50.0], n=100)
        messages = set()
        # the library call warns on the overflow before the grid raises
        with np.errstate(over="ignore", invalid="ignore"):
            for threads in (1, 2, 3, 6):
                with pytest.raises(NumericalError, match=r"rho=0\.0, alpha=40\.0") as exc:
                    mape_option(base, spec, g, threads=threads)
                messages.add(str(exc.value))
        assert len(messages) == 1

    @pytest.mark.parametrize("threads", [0, -2])
    def test_rejects_fewer_than_one_thread(self, section3_pair, threads):
        with pytest.raises(InvalidParameterError, match="threads must be >= 1"):
            mape_asset(section3_pair, grid([0.5], [1.0], n=100), threads=threads)


class TestPlainOracle:
    """Every cell of the in-place kernels against the plain formulation on
    fresh arrays, bit for bit. The one exception: where (rho, alpha) = (1, 1)
    log B is identically 0, every replication is equal and the SE is 0."""

    RHOS = (-1.0, 0.0, 0.6, 1.0)
    ALPHAS = (0.5, 1.0, 1.3)

    @pytest.mark.parametrize("mode", ["asset", "option"])
    @pytest.mark.parametrize("n", [1, 2, 2000])
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_cells_bit_identical(self, section3_pair, mode, n, threads):
        g = grid(self.RHOS, self.ALPHAS, n=n, seed=5)
        spec = TestMapeOption.SPEC
        if mode == "asset":
            result = mape_asset(section3_pair, g, threads=threads)
            draw = NoiseDraw.sample(substream(5, STREAM_ASSET_MAPE), n)
            u, v = draw.z_x - draw.z_j, draw.z_y - draw.z_tilde
        else:
            result = mape_option(section3_pair, spec, g, threads=threads)
            draw = NoiseDraw.sample(substream(5, STREAM_OPTION_MAPE), n)
            benchmark = bs_call(90.0, spec, 0.4)
        for l, rho in enumerate(self.RHOS):
            for m, alpha_value in enumerate(self.ALPHAS):
                mu_j = alpha_to_mu_j(alpha_value, 0.4, 0.2, 0.4)
                pair = replace(section3_pair, asset_j=replace(section3_pair.asset_j, mu=mu_j),
                               rho=rho)
                if mode == "asset":
                    ape = np.abs(np.expm1(stochastic_term(pair, ONE_DAY, u, v)))
                else:
                    ape = np.abs(twin_call(pair, spec, draw) - benchmark) / benchmark
                mape = 100 * np.mean(ape)
                if n == 1 or (rho, alpha_value) == (1.0, 1.0):
                    se = 0.0
                else:
                    se = 100 * np.std(ape, ddof=1) / np.sqrt(n)
                assert result.grid[l, m].tobytes() == np.float64(mape).tobytes(), (rho, alpha_value)
                assert result.standard_errors[l, m].tobytes() == np.float64(se).tobytes(), (
                    rho, alpha_value)


class TestMapeGrid:
    @pytest.mark.parametrize("value, err", [(np.nan, 1.0), (np.inf, 1.0), (1.0, np.nan)])
    def test_non_finite_cell_named(self, value, err):
        g = grid([0.0, 0.5], [1.0, 5.0])
        mape = np.ones((2, 2))
        se = np.ones((2, 2))
        mape[1, 0], se[1, 0] = value, err
        with pytest.raises(NumericalError, match=r"rho=0\.5, alpha=1\.0"):
            MapeGrid(grid=mape, spec=g, standard_errors=se)


class TestMapeOption:
    SPEC = OptionSpec(strike=90.0, maturity=0.25, rate=0.05)

    def test_near_one_alpha_band(self, section3_pair):
        g = grid([1.0], [0.8, 0.95, 1.0], n=10000)
        result = mape_option(section3_pair, self.SPEC, g)
        assert result.grid[0, 0] < 40.0   # alpha = 0.8
        assert result.grid[0, 1] < 10.0   # alpha = 0.95
        assert result.grid[0, 2] < 10.0   # alpha = 1.0

    def test_far_from_one_error_exceeds_100(self, section3_pair):
        result = mape_option(section3_pair, self.SPEC, grid([-1.0], [0.5], n=10000))
        assert result.grid[0, 0] > 100.0

    def test_rho_sign_asymmetry(self, section3_pair):
        result = mape_option(section3_pair, self.SPEC, grid([-0.5, 0.5], [1.0], n=10000))
        assert result.grid[0, 0] != result.grid[1, 0]
        # and the error falls as rho rises
        assert result.grid[1, 0] < result.grid[0, 0]

    def test_deterministic(self, section3_pair):
        g = grid([0.3], [1.1], n=3000)
        r1 = mape_option(section3_pair, self.SPEC, g)
        r2 = mape_option(section3_pair, self.SPEC, g, threads=3)
        assert np.array_equal(r1.grid, r2.grid)


class TestSpotScaling:
    """Exact metamorphic relations under a common scaling of the spots by
    lambda. The twin call is homogeneous of degree 1 in (S_i, S_j, K)
    jointly, as is the Black-Scholes benchmark, so every option APE is
    invariant up to rounding. The asset cell reads no spot at all."""

    LAMBDAS = (2.0, 0.25, 1024.0, 1e-3, 7.3)
    G = grid(np.linspace(-1, 1, 7), np.linspace(0.5, 1.5, 7), n=2000)

    @staticmethod
    def scaled(pair, lam):
        return replace(pair, asset_i=replace(pair.asset_i, spot=lam * pair.asset_i.spot),
                       asset_j=replace(pair.asset_j, spot=lam * pair.asset_j.spot))

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_option_cells_invariant(self, section3_pair, lam):
        spec = TestMapeOption.SPEC
        ref = mape_option(section3_pair, spec, self.G)
        got = mape_option(self.scaled(section3_pair, lam),
                          replace(spec, strike=lam * spec.strike), self.G)
        np.testing.assert_allclose(got.grid, ref.grid, rtol=1e-12, atol=0)
        np.testing.assert_allclose(got.standard_errors, ref.standard_errors, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_asset_cells_bit_identical(self, section3_pair, lam):
        ref = mape_asset(section3_pair, self.G)
        got = mape_asset(self.scaled(section3_pair, lam), self.G)
        assert got.grid.tobytes() == ref.grid.tobytes()
        assert got.standard_errors.tobytes() == ref.standard_errors.tobytes()


def with_sigma_j(base, sigma_j):
    """base with asset j's volatility swept to sigma_j, as `mape --mode sigma-sweep` does."""
    return replace(base, asset_j=replace(base.asset_j, sigma=sigma_j))


class TestSigmaSweep:
    def test_ordering_in_sigma_j(self, section3_pair):
        g = grid([0.0, 0.5, 1.0], [0.7, 1.0, 1.3], n=10000)
        low, mid, high = (mape_asset(with_sigma_j(section3_pair, s), g) for s in (0.2, 0.4, 0.6))
        for a, b in ((low, mid), (mid, high)):
            slack = 2 * (a.standard_errors + b.standard_errors)
            assert np.all(b.grid + slack >= a.grid)

    def test_identical_sigmas_identical_grids(self, tmp_path):
        # every swept grid reads the same draw, so a repeated sigma_j repeats its rows
        out = tmp_path / "sweep.csv"
        assert main(["mape", "--mode", "sigma-sweep", "--rho-grid", "0.2", "--alpha-grid", "0.9",
                     "--n", "2000", "--sigma-j-values", "0.3,0.3", "--out", str(out)]) == 0
        first, second = out.read_text().splitlines()[1:]
        assert first == second

    def test_perfect_twin_zero_for_all_sigmas(self, section3_pair):
        g = grid([1.0], [1.0], n=5000)
        for sigma_j in (0.2, 0.4, 0.6):
            assert mape_asset(with_sigma_j(section3_pair, sigma_j), g).grid[0, 0] <= 1e-8

    def test_rejects_nonpositive_sigma(self, section3_pair):
        with pytest.raises(InvalidParameterError):
            with_sigma_j(section3_pair, -0.1)
