"""Tests of the benchmark's reference formulas and output checks."""

import math

import numpy as np
import pytest

import reference as ref
import spans


@pytest.mark.parametrize(
    "spot, strike, rate, maturity, sigma",
    [(90.0, 90.0, 0.05, 0.25, 0.4), (80.0, 100.0, 0.01, 2.0, 0.2), (120.0, 90.0, 0.0, 0.1, 0.6)],
)
def test_black76_on_the_forward_is_black_scholes(spot, strike, rate, maturity, sigma):
    forward = spot * math.exp(rate * maturity)
    b76 = float(ref.black76_call(forward, strike, rate, maturity, sigma * math.sqrt(maturity)))
    assert b76 == pytest.approx(ref.bs_call(spot, strike, rate, maturity, sigma), rel=1e-12)


def test_identical_twins_price_as_black_scholes():
    # sigma_j = sigma_i and alpha = 1 give e = 1, A*S_i = S_j and B = 1 at rho = 1
    twins = ref.Baseline(sigma_j=0.2, spot_j=80.0)
    mape, se = ref.option_mape(1.0, 1.0, 10000, twins)
    assert se == 0.0
    assert mape < 1e-10


def test_asset_closed_form_is_zero_at_s_zero():
    assert ref.asset_mape(1.0, 1.0, 40000) == (0.0, 0.0)
    assert ref.dissimilarity(1.0, 1.0) == 0.0


@pytest.mark.parametrize("rho, alpha", [(-1.0, 1.5), (0.0, 1.0), (0.95, 1.05)])
def test_asset_closed_form_matches_monte_carlo(rho, alpha):
    month = ref.Baseline(horizon=21.0 / 252.0)
    s = math.sqrt(2.0 * month.sigma_j**2 * month.horizon * ref.dissimilarity(rho, alpha))
    ape = np.abs(np.expm1(s * np.random.default_rng(7).standard_normal(400_000)))
    mape, se = ref.asset_mape(rho, alpha, ape.size, month)
    assert abs(100.0 * ape.mean() - mape) < 5.0 * se
    assert 100.0 * ape.std() / math.sqrt(ape.size) == pytest.approx(se, rel=0.02)


@pytest.mark.parametrize("rho, alpha", [(-1.0, 1.5), (0.0, 1.0), (0.9, 1.05), (1.0, 0.5)])
def test_option_quadrature_matches_brute_force_monte_carlo(rho, alpha):
    base = ref.BASE
    log_f, e = ref.twin_log_forward(alpha)
    v = base.sigma_j * math.sqrt(base.maturity * ref.dissimilarity(rho, alpha))
    z = np.random.default_rng(11).standard_normal(200_000)
    calls = ref.black76_call(
        np.exp(log_f + v * z), base.strike, base.rate, base.maturity,
        e * base.sigma_i * math.sqrt(base.maturity),
    )
    c_bs = ref.bs_call(base.spot_j, base.strike, base.rate, base.maturity, base.sigma_j)
    ape = np.abs(calls - c_bs) / c_bs
    mape, se = ref.option_mape(rho, alpha, z.size)
    assert abs(100.0 * ape.mean() - mape) < 5.0 * se
    assert 100.0 * ape.std() / math.sqrt(z.size) == pytest.approx(se, rel=0.05)


def test_option_quadrature_is_converged():
    for rho, alpha in [(-1.0, 1.5), (0.5, 0.75), (1.0, 1.05)]:
        coarse = ref.option_mape(rho, alpha, 1, nodes=60)
        assert ref.option_mape(rho, alpha, 1) == pytest.approx(coarse, rel=1e-9)


def _grid_csv(cells) -> bytes:
    lines = ["rho,alpha,mape,se"] + [f"{r!r},{a!r},{m!r},{s!r}" for r, a, m, s in cells]
    return ("\n".join(lines) + "\n").encode()


def test_check_grid_accepts_reference_and_rejects_a_shifted_cell():
    rhos, alphas = [0.0, 1.0], [0.5, 1.0]
    cells = [(r, a, *ref.asset_mape(r, a, 1000)) for r in rhos for a in alphas]
    assert ref.check_grid(_grid_csv(cells), ref.asset_mape, rhos, alphas, 1000) == []
    r, a, m, s = cells[0]
    shifted = [(r, a, m + 7.0 * s, s)] + cells[1:]
    assert len(ref.check_grid(_grid_csv(shifted), ref.asset_mape, rhos, alphas, 1000)) == 1
    nan = cells[:-1] + [(1.0, 1.0, float("nan"), 0.0)]
    assert ref.check_grid(_grid_csv(nan), ref.asset_mape, rhos, alphas, 1000)


def _model_path(rho, alpha, steps, dt, sigma_j_scale=1.0):
    """A path drawn straight from the model, independently of twinassets."""
    b = ref.BASE
    rng = np.random.default_rng(3)
    z_j, z_t, w_x, w_y = rng.standard_normal((4, steps))
    mu_j = alpha * b.sigma_j * b.mu_i / b.sigma_i
    sig_j = b.sigma_j * sigma_j_scale
    z_i = rho * z_j + math.sqrt(1.0 - rho * rho) * z_t
    t = dt * np.arange(steps + 1)

    def walk(x):
        return np.concatenate([[0.0], np.cumsum(x)])

    s_i = b.spot_i * np.exp(walk((b.mu_i - 0.5 * b.sigma_i**2) * dt + b.sigma_i * math.sqrt(dt) * z_i))
    s_j = b.spot_j * np.exp(walk((mu_j - 0.5 * sig_j**2) * dt + sig_j * math.sqrt(dt) * z_j))
    e = alpha * b.sigma_j / b.sigma_i
    log_a = math.log(b.spot_j) - e * math.log(b.spot_i) + 0.5 * b.sigma_j * (alpha * b.sigma_i - b.sigma_j) * t
    log_b = walk(b.sigma_j * math.sqrt(dt) * ((1 - rho * alpha) * w_x - alpha * math.sqrt(1 - rho**2) * w_y))
    pred = np.exp(log_a + log_b + e * np.log(s_i))
    lines = ["t,s_i,s_j,s_j_predicted"] + [
        ",".join(repr(float(v)) for v in row) for row in zip(t, s_i, s_j, pred)
    ]
    return ("\n".join(lines) + "\n").encode()


def test_check_path_accepts_the_model_and_rejects_a_wrong_volatility():
    steps, dt = 20_000, 1.0 / 20_000
    assert ref.check_path(_model_path(0.8, 1.1, steps, dt), 0.8, 1.1, steps, dt) == []
    errors = ref.check_path(_model_path(0.8, 1.1, steps, dt, sigma_j_scale=1.05), 0.8, 1.1, steps, dt)
    assert any("log s_j increment variance" in e for e in errors)


def test_self_time_subtracts_the_union_of_children():
    trace = {
        "spans": [
            (1, 0, "cli.run_mape", 1, 0, 100),
            (2, 1, "harness._run_grid", 1, 10, 60),
            (3, 2, "harness.cell", 2, 20, 50),
            (4, 2, "harness.cell", 3, 30, 70),  # overlaps its sibling, outlives its parent
        ],
        "draws": {"engine.NoiseDraw.sample": 8, "cli.run_simulate": 5},
        "reads": 4,
    }
    metrics = spans.layer_metrics(trace)
    assert metrics["cli.run_self_s"] == pytest.approx(50e-9)
    assert metrics["harness.cells"] == 2
    assert metrics["harness.cell_busy_s"] == pytest.approx(70e-9)
    assert metrics["engine.normal_draws"] == 8
    assert metrics["engine.draws_used_ratio"] == 0.5
