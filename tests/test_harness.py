import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from twinassets import (
    AssetParams,
    GridSpec,
    InvalidParameterError,
    MapeGrid,
    NoiseDraw,
    NumericalError,
    OptionSpec,
    TwinPair,
    bs_call,
    mape_asset,
    mape_option,
    stochastic_term,
    twin_call,
)
from conftest import asset_mape_closed_form, unreduced_ape
from twinassets.cli import main
from twinassets.harness import _ORDER_STRIPS, _locality_order, _mean_std, _run_grid
from twinassets.seeding import STREAM_ASSET_MAPE, STREAM_OPTION_MAPE, substream
from twinassets.twin import stochastic_coefficients

ONE_DAY = 1 / 252
ONE_MONTH = 21 / 252
# the README surface
README_RHOS = np.linspace(-1, 1, 21)
README_ALPHAS = np.linspace(0.5, 1.5, 21)


def grid(rhos, alphas, n=10000, horizon=ONE_DAY, seed=7):
    return GridSpec(rho_values=tuple(rhos), alpha_values=tuple(alphas),
                    n_replications=n, horizon=horizon, master_seed=seed)


def cell_pair(base, rho, alpha_value):
    """The pair of the unreduced model at the grid cell (rho, alpha) over
    base: mu_j set so that the pair's alpha is alpha_value up to rounding,
    which the simulated truth needs. A grid cell itself reads no drift."""
    mu_j = alpha_value * base.asset_j.sigma * base.asset_i.mu / base.asset_i.sigma
    return replace(base, asset_j=replace(base.asset_j, mu=mu_j), rho=float(rho))


class TestGridSpec:
    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(InvalidParameterError, match=r"^alpha must be finite and > 0, got 0\.0"):
            grid([0.5], [0.0])

    def test_rejects_out_of_range_rho(self):
        with pytest.raises(InvalidParameterError, match=r"^rho must lie in \[-1, 1\], got 1\.2$"):
            grid([1.2], [1.0])

    def test_rejects_zero_replications(self):
        with pytest.raises(InvalidParameterError):
            grid([0.5], [1.0], n=0)

    @pytest.mark.parametrize("rhos, alphas", [([], [1.0]), ([0.5], []), ([], [])])
    def test_rejects_empty_values(self, rhos, alphas):
        with pytest.raises(InvalidParameterError, match="must not be empty"):
            grid(rhos, alphas)


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
        assert np.all(result.grid >= 0)


class TestLogRatioKernel:
    @pytest.mark.parametrize("tau", [ONE_DAY, ONE_MONTH, 1.0])
    def test_matches_unreduced_relation(self, section3_pair, tau):
        # per replication, the reduced kernel log B(u, v) against the
        # prediction A*B*S_i^e vs the simulated S_j
        z = np.random.default_rng(11).standard_normal((4, 500))
        z_j, z_tilde, z_x, z_y = z
        u, v = z_x - z_j, z_y - z_tilde
        worst = 0.0
        for rho in README_RHOS:
            for alpha_value in README_ALPHAS:
                pair = cell_pair(section3_pair, rho, alpha_value)
                expected = unreduced_ape(pair, alpha_value, tau, z)
                ape = np.abs(np.expm1(stochastic_term(pair, alpha_value, tau, u, v)))
                worst = max(worst, float(np.max(np.abs(ape - expected) / (1 + expected))))
        assert worst <= 1e-13

    def test_coefficients_at_twice_the_horizon(self, section3_pair):
        # what lets the asset cell read log B over 2*tau at unit normals
        for tau in (ONE_DAY, ONE_MONTH, 1.0):
            for rho in README_RHOS:
                for alpha_value in README_ALPHAS:
                    pair = replace(section3_pair, rho=rho)
                    twice = stochastic_coefficients(pair, alpha_value, 2 * tau)
                    for k2, k in zip(twice, stochastic_coefficients(pair, alpha_value, tau)):
                        assert abs(k2 - math.sqrt(2) * k) <= 4 * math.ulp(k2), (rho, alpha_value)

    @pytest.mark.parametrize("tau", [ONE_DAY, ONE_MONTH])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_grid_within_4_se_of_unreduced_path(self, section3_pair, tau, seed):
        # the grid against the simulated pair and its prediction, on an
        # independent four-normal draw: two estimates of each cell's MAPE
        n = 20000
        rhos, alphas = np.linspace(-1, 1, 9), np.linspace(0.5, 1.5, 9)
        result = mape_asset(section3_pair, grid(rhos, alphas, n=n, horizon=tau, seed=seed))
        z = np.random.default_rng(1000 + seed).standard_normal((4, n))
        for l, rho in enumerate(rhos):
            for m, alpha_value in enumerate(alphas):
                pair = cell_pair(section3_pair, rho, alpha_value)
                ape = 100 * unreduced_ape(pair, alpha_value, tau, z)
                value, se = result.grid[l, m], result.standard_errors[l, m]
                if (rho, alpha_value) == (1.0, 1.0):
                    assert value == 0.0 and np.max(ape) < 1e-11
                    continue
                se_diff = math.hypot(se, np.std(ape, ddof=1) / math.sqrt(n))
                assert abs(value - np.mean(ape)) <= 4 * se_diff, (rho, alpha_value)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_readme_grid_within_6_se_of_closed_form(self, section3_pair, seed):
        g = grid(README_RHOS, README_ALPHAS, n=40000, seed=seed)
        result = mape_asset(section3_pair, g)
        for l, rho in enumerate(g.rho_values):
            for m, alpha_value in enumerate(g.alpha_values):
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

        g = grid(np.linspace(-1, 1, 5), np.linspace(0.5, 1.5, 5), n=3000)
        big = run(g)
        one = run(grid([g.rho_values[3]], [g.alpha_values[1]], n=3000))
        assert big.grid[3, 1].tobytes() == one.grid[0, 0].tobytes()
        assert big.standard_errors[3, 1].tobytes() == one.standard_errors[0, 0].tobytes()


class TestExactAlpha:
    """A cell is evaluated at its alpha label itself. Here each cell of the
    README asset grid is formed from scratch at alpha = alpha_values[m]:
    kappa_x, kappa_y at the horizon 2*tau, log B over the grid's draw, and
    the mean and sample SD of |expm1(log B)|, which the grid must give bit
    for bit. Before 0.6.0, 10 of the 21 alpha labels reached the cells
    through mu_j and back, one ulp off, and those columns differed."""

    def test_readme_asset_cells_at_their_alpha_labels(self, section3_pair):
        n, seed, tau = 40000, 42, 2 * ONE_DAY
        g = grid(README_RHOS, README_ALPHAS, n=n, seed=seed)
        result = mape_asset(section3_pair, g)
        draw = NoiseDraw.sample(substream(seed, STREAM_ASSET_MAPE), n)
        scale = 0.4 * math.sqrt(tau)
        for l, rho in enumerate(g.rho_values):
            for m, a in enumerate(g.alpha_values):
                kappa_x, kappa_y = scale * (1.0 - rho * a), scale * a * math.sqrt(1.0 - rho**2)
                ape = np.abs(np.expm1(kappa_x * draw.z_x - kappa_y * draw.z_y))
                se = 0.0 if (rho, a) == (1.0, 1.0) else np.std(ape, ddof=1)
                expected = (100 * np.mean(ape), 100 * se / np.sqrt(n))
                assert (result.grid[l, m], result.standard_errors[l, m]) == expected, (rho, a)


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


class TestWorkingMemory:
    """Peak of the memory numpy reports to tracemalloc, in doubles per
    replication, while a grid runs. Both grids hold their two-normal draw
    (2n) and a (2, n) scratch per worker, in which each cell forms its log B.
    The option grid's draw is permuted into its evaluation order, and it
    adds the inverse order (n indices of 8 bytes); each option cell adds the
    4n temporaries of `twin_call` at its peak."""

    N = 100_000
    SLACK = 0.1

    def peak_doubles_per_replication(self, run):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (8 * self.N)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_asset_grid_holds_u_v_and_scratch(self, section3_pair, threads):
        g = grid([0.0, 0.5], [0.9, 1.1], n=self.N)
        peak = self.peak_doubles_per_replication(lambda: mape_asset(section3_pair, g, threads))
        assert peak <= 2 + 2 * threads + self.SLACK

    def test_option_grid_one_thread(self, section3_pair):
        g = grid([0.0, 0.5], [0.9, 1.1], n=self.N)
        spec = TestMapeOption.SPEC
        peak = self.peak_doubles_per_replication(lambda: mape_option(section3_pair, spec, g))
        assert peak <= 2 + 2 + 1 + 4 + self.SLACK


class TestLocalityOrder:
    """The option grid's evaluation order; `TestPlainOracle` and
    `tests/test_golden.py` check that it leaves every output bit as it is."""

    @pytest.mark.parametrize("n", [1, 2, 2000])
    def test_permutation_of_the_replications(self, n):
        draw = NoiseDraw.sample(np.random.default_rng(n), n)
        ties = [np.round(draw.z_x), np.round(draw.z_y)]
        for z_x, z_y in ([draw.z_x, draw.z_y], ties, [np.zeros(n), np.zeros(n)]):
            order = _locality_order(z_x, z_y)
            assert order.dtype.kind == "i"
            assert np.array_equal(np.sort(order), np.arange(n))

    def test_serpentine_over_strips_of_z_x_rank(self):
        n = 2000
        draw = NoiseDraw.sample(np.random.default_rng(3), n)
        order = _locality_order(draw.z_x, draw.z_y)
        strip = np.argsort(np.argsort(draw.z_x))[order] * _ORDER_STRIPS // n
        assert np.all(np.diff(strip) >= 0)
        assert np.array_equal(np.unique(strip), np.arange(_ORDER_STRIPS))
        for s in range(_ORDER_STRIPS):
            z_y = draw.z_y[order][strip == s]
            assert np.all(np.diff(z_y) * (-1) ** s >= 0), s


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
        else:
            result = mape_option(section3_pair, spec, g, threads=threads)
            draw = NoiseDraw.sample(substream(5, STREAM_OPTION_MAPE), n)
            benchmark = bs_call(90.0, spec, 0.4)
        for l, rho in enumerate(self.RHOS):
            for m, alpha_value in enumerate(self.ALPHAS):
                pair = replace(section3_pair, rho=rho)
                if mode == "asset":
                    log_b = stochastic_term(pair, alpha_value, 2 * ONE_DAY, draw.z_x, draw.z_y)
                    ape = np.abs(np.expm1(log_b))
                else:
                    log_b = stochastic_term(pair, alpha_value, spec.maturity, draw.z_x, draw.z_y)
                    ape = np.abs(twin_call(pair, alpha_value, spec, log_b) - benchmark) / benchmark
                mape = 100 * np.mean(ape)
                if n == 1 or (rho, alpha_value) == (1.0, 1.0):
                    se = 0.0
                else:
                    se = 100 * np.std(ape, ddof=1) / np.sqrt(n)
                assert result.grid[l, m].tobytes() == np.float64(mape).tobytes(), (rho, alpha_value)
                assert result.standard_errors[l, m].tobytes() == np.float64(se).tobytes(), (
                    rho, alpha_value)


class TestMeanStd:
    def test_equal_finite_values_exact_zero(self):
        x = np.full(1000, 0.1)
        assert np.std(x, ddof=1) > 0  # the deviations from the rounded mean
        mean, std = _mean_std(x.copy())
        assert mean == np.mean(x)
        assert std == 0.0

    def test_all_inf_is_not_zero(self):
        # an all-inf cell must report se=nan, as the exit-4 message shows
        with np.errstate(invalid="ignore"):
            mean, std = _mean_std(np.full(5, np.inf))
        assert mean == np.inf
        assert np.isnan(std)

    def test_single_value_zero(self):
        assert _mean_std(np.array([0.3])) == (0.3, 0.0)

    def test_varying_values_match_numpy(self):
        x = np.random.default_rng(3).standard_normal(101)
        x[-1] = x[0]  # equal ends, varying inside
        mean, std = _mean_std(x.copy())
        assert (mean, std) == (np.mean(x), np.std(x, ddof=1))


class TestMapeGrid:
    @pytest.mark.parametrize("value, err", [(np.nan, 1.0), (np.inf, 1.0), (1.0, np.nan)])
    def test_non_finite_cell_named(self, value, err):
        # _run_grid, which builds every MapeGrid, names the first non-finite
        # cell in grid order, (1, 0) before (1, 1), at any thread count
        g = grid([0.0, 0.5], [1.0, 5.0], n=4)

        def cell(l, m, scratch):
            return (value, err) if l == 1 else (1.0, 1.0)

        for threads in (1, 3):
            with pytest.raises(NumericalError, match=r"^non-finite MAPE at rho=0\.5, alpha=1\.0"):
                _run_grid(g, cell, threads)
        assert isinstance(_run_grid(g, lambda l, m, scratch: (1.0, 1.0)), MapeGrid)


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


class TestDriftInvariance:
    """At fixed alpha the asset error does not depend on mu_i: mu_j follows
    mu_i, and the drifts cancel from log(S'_j / S_j), which is log B at
    (u, v). Each cell's mean APE through the unreduced path agrees across
    drifts within RTOL relative; `mape_asset`, which reads no drift, gives
    the same bytes. At (rho, alpha) = (1, 1) the exact error is 0; there
    the unreduced path gives rounding noise of a few 1e-15."""

    RTOL = 1e-12
    MU_I = (-0.3, 0.05, 1.0, 3.0)
    RHOS = np.linspace(-1, 1, 9)
    ALPHAS = np.linspace(0.5, 1.5, 9)

    @staticmethod
    def at_drift(base, mu_i):
        return replace(base, asset_i=replace(base.asset_i, mu=mu_i))

    @pytest.mark.parametrize("tau", [ONE_DAY, ONE_MONTH, 1.0])
    @pytest.mark.parametrize("mu_i", MU_I)
    def test_unreduced_ape_invariant(self, section3_pair, tau, mu_i):
        z = np.random.default_rng(13).standard_normal((4, 2000))

        def mean_ape(base, rho, alpha_value):
            pair = cell_pair(base, rho, alpha_value)
            return np.mean(unreduced_ape(pair, alpha_value, tau, z))

        for rho in self.RHOS:
            for alpha_value in self.ALPHAS:
                ref = mean_ape(section3_pair, rho, alpha_value)
                got = mean_ape(self.at_drift(section3_pair, mu_i), rho, alpha_value)
                if (rho, alpha_value) == (1.0, 1.0):
                    assert max(ref, got) < 1e-13
                else:
                    assert abs(got - ref) <= self.RTOL * ref, (rho, alpha_value, got, ref)

    @pytest.mark.parametrize("mu_i", MU_I)
    def test_asset_grid_invariant(self, section3_pair, mu_i):
        g = grid(self.RHOS, self.ALPHAS, n=4000)
        ref = mape_asset(section3_pair, g)
        got = mape_asset(self.at_drift(section3_pair, mu_i), g)
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
