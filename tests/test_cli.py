import decimal
import shlex
from pathlib import Path

import numpy as np
import pytest

from conftest import decimal_predict_twin, decimal_twin_call
from twinassets import AssetParams, NoiseDraw, OptionSpec, TwinPair, alpha_to_mu_j, twin_call
from twinassets.cli import main
from twinassets.seeding import STREAM_DRAWS, STREAM_PRICE, substream

README = Path(__file__).resolve().parent.parent / "README.md"


def run(tmp_path, *args, name="out.csv"):
    out = tmp_path / name
    code = main([*args, "--out", str(out)])
    return code, out


def exit_code(argv):
    """Exit status of the console script; argparse exits by SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def default_pair(alpha, sigma_j=0.4, rho=1.0):
    """The pair the CLI builds from its defaults and --alpha."""
    return TwinPair(
        asset_i=AssetParams(mu=0.4, sigma=0.2, spot=80.0),
        asset_j=AssetParams(mu=alpha_to_mu_j(alpha, 0.4, 0.2, sigma_j), sigma=sigma_j, spot=90.0),
        rho=rho,
    )


# A double evaluation of the twin relation's log sum is off from the
# exact sum by a few roundings of its largest partial sums, so the
# relative error of its exp is bounded by a small multiple of
# eps * sum(|log terms|).
LOG_SUM_ROUNDINGS = 4
EPS = np.finfo(float).eps


def readme_commands():
    """argv of every `twinassets ...` command shown in README.md."""
    text = README.read_text(encoding="utf-8").replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in text.splitlines() if line.startswith("twinassets ")]


class TestSimulate:
    def test_row_count_default(self, tmp_path):
        code, out = run(tmp_path, "simulate", "--seed", "1")
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,s_i,s_j,s_j_predicted"
        assert len(lines) == 1 + 253

    def test_perfect_twin_prediction_matches(self, tmp_path):
        code, out = run(tmp_path, "simulate", "--seed", "5", "--rho", "1", "--alpha", "1")
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        s_j = np.array([float(r[2]) for r in rows])
        pred = np.array([float(r[3]) for r in rows])
        assert np.max(np.abs(pred - s_j) / s_j) < 1e-12

    def test_same_seed_byte_identical(self, tmp_path):
        _, out1 = run(tmp_path, "simulate", "--seed", "9", name="a.csv")
        _, out2 = run(tmp_path, "simulate", "--seed", "9", name="b.csv")
        assert out1.read_bytes() == out2.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        _, out1 = run(tmp_path, "simulate", "--seed", "9", name="a.csv")
        _, out2 = run(tmp_path, "simulate", "--seed", "10", name="b.csv")
        assert out1.read_bytes() != out2.read_bytes()

    def test_non_finite_prediction_numerical_error(self, capsys):
        # e = alpha*sigma_j/sigma_i = mu_j/mu_i = 8000: over one year the
        # log prediction leaves the float range while both paths stay finite
        code = main(["simulate", "--mu-i", "0.0001", "--dt", "1", "--steps", "5"])
        captured = capsys.readouterr()
        assert code == 4
        assert "non-finite or non-positive s_j_predicted at step 1, t=1:" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv, message", [
        # mu_j = 800: s_j overflows where the log-space prediction need not
        ("simulate --mu-j 800 --dt 1 --steps 5",
         "non-finite or non-positive s_j at step 1, t=1: s_j=inf"),
        # sigma_j = 30: s_j underflows to 0
        ("simulate --sigma-j 30 --dt 1 --steps 5",
         "non-finite or non-positive s_j at step 2, t=2: s_j=0.0"),
    ])
    def test_path_out_of_range_numerical_error(self, argv, message, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code = main([*argv.split(), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 4
        assert message in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_large_exponent_prediction_is_finite(self, capsys):
        # e = 800: S_i**e alone overflows, the log sum does not
        assert main(["simulate", "--alpha", "400", "--steps", "5"]) == 0
        rows = np.array([[float(v) for v in line.split(",")]
                         for line in capsys.readouterr().out.splitlines()[1:]])
        assert np.all(np.isfinite(rows)) and np.all(rows[:, 1:] > 0)
        rng = substream(12345, STREAM_DRAWS)
        w_x = np.cumsum(np.sqrt(1 / 252) * rng.standard_normal(5))
        w_y = np.cumsum(np.sqrt(1 / 252) * rng.standard_normal(5))
        pair = default_pair(400.0)
        for (t, s_i, _, predicted), wx, wy in zip(rows[1:], w_x, w_y):
            exact, magnitude = decimal_predict_twin(pair, t, s_i, wx, wy)
            assert abs(predicted - exact) <= LOG_SUM_ROUNDINGS * EPS * magnitude * exact


class TestPrice:
    def test_identical_twins_zero_se(self, tmp_path):
        code, out = run(
            tmp_path, "price", "--seed", "3", "--n", "500",
            "--mu-j", "0.4", "--sigma-j", "0.2", "--spot-j", "80", "--rho", "1",
        )
        assert code == 0
        record = dict(line.split("=") for line in out.read_text().splitlines())
        mean, bs = float(record["twin_price_mean"]), float(record["bs_price"])
        assert mean == pytest.approx(bs, rel=1e-14)
        assert float(record["twin_price_se"]) == 0.0

    @pytest.mark.parametrize("n", [1, 2, 1000])
    @pytest.mark.parametrize("rho, alpha", [(0.8, 1.1), (1.0, 1.0)])
    def test_mean_and_se_bit_identical_to_numpy(self, n, rho, alpha, capsys):
        # at (rho, alpha) = (1, 1) log B is identically 0, every price is
        # the same and the SE is exactly 0 rather than rounding noise
        assert main(f"price --rho {rho} --alpha {alpha} --n {n} --seed 3".split()) == 0
        record = dict(line.split("=") for line in capsys.readouterr().out.splitlines())
        spec = OptionSpec(strike=90.0, maturity=0.25, rate=0.05)
        draw = NoiseDraw.sample(substream(3, STREAM_PRICE), n)
        prices = twin_call(default_pair(alpha, rho=rho), spec, draw)
        deterministic = n == 1 or (rho, alpha) == (1.0, 1.0)
        se = 0.0 if deterministic else np.std(prices, ddof=1) / np.sqrt(n)
        assert float(record["twin_price_mean"]).hex() == float(np.mean(prices)).hex()
        assert float(record["twin_price_se"]).hex() == float(se).hex()

    def test_section3_defaults_positive_prices(self, tmp_path):
        code, out = run(tmp_path, "price", "--seed", "3", "--n", "2000")
        assert code == 0
        record = dict(line.split("=") for line in out.read_text().splitlines())
        assert float(record["bs_price"]) > 0
        assert float(record["twin_price_mean"]) > 0

    def test_rerun_with_new_seed_within_se_band(self, tmp_path):
        records = []
        for seed, name in (("3", "a.txt"), ("4", "b.txt")):
            code, out = run(tmp_path, "price", "--seed", seed, "--n", "20000",
                            "--alpha", "1.1", "--rho", "0.8", name=name)
            assert code == 0
            records.append(dict(line.split("=") for line in out.read_text().splitlines()))
        means = [float(r["twin_price_mean"]) for r in records]
        ses = [float(r["twin_price_se"]) for r in records]
        assert abs(means[0] - means[1]) < 4 * (ses[0] + ses[1])

    def test_invalid_sigma_usage_error(self, tmp_path):
        code, _ = run(tmp_path, "price", "--sigma-j", "-0.2")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        "price --alpha 40 --rho 0 --sigma-i 0.05 --sigma-j 3 --maturity 2",
        "mape --mode option --rho-grid 0 --alpha-grid 40 --sigma-i 0.05 --sigma-j 3 "
        "--maturity 2 --n 100",
    ])
    def test_overflowing_twin_call_numerical_error(self, argv, capsys):
        # e = alpha*sigma_j/sigma_i = 2400: the twin forward is out of float range
        code = main(argv.split())
        captured = capsys.readouterr()
        assert code == 4
        expected = {
            "price": "non-finite twin price at alpha = 39.99",
            "mape": "non-finite MAPE at rho=0.0, alpha=40.0",
        }[argv.split()[0]]
        assert expected in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_non_finite_mean_numerical_error(self, capsys):
        # sigma_j = 30 over fifty years: the twin forward overflows
        code = main("price --alpha 1 --rho 0 --sigma-j 30 --maturity 50 --n 100".split())
        captured = capsys.readouterr()
        assert code == 4
        assert "non-finite twin price at alpha = 1.0, rho = 0.0" in captured.err
        assert captured.out == ""

    def test_wide_volatility_price_is_finite(self, capsys):
        # sigma_j = 30 over five years: A*B underflows and the growth factor
        # overflows on their own, but the forward's log sum stays in range
        code = main("price --alpha 1 --rho 0 --sigma-j 30 --maturity 5 --n 100".split())
        assert code == 0
        record = dict(line.split("=") for line in capsys.readouterr().out.splitlines())
        mean, se = float(record["twin_price_mean"]), float(record["twin_price_se"])
        assert np.isfinite(mean) and np.isfinite(se)

        spec = OptionSpec(strike=90.0, maturity=5.0, rate=0.05)
        draw = NoiseDraw.sample(substream(12345, STREAM_PRICE), 100)
        priced = [decimal_twin_call(default_pair(1.0, sigma_j=30.0, rho=0.0), spec, z_x, z_y)
                  for z_x, z_y in zip(draw.z_x.tolist(), draw.z_y.tolist())]
        prices = [price for price, _ in priced]
        bound = LOG_SUM_ROUNDINGS * EPS * max(magnitude for _, magnitude in priced)
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            exact_mean = sum(prices) / len(prices)
            exact_se = (sum((p - exact_mean) ** 2 for p in prices) / (len(prices) - 1)
                        / len(prices)).sqrt()
        assert abs(mean - float(exact_mean)) <= bound * float(exact_mean)
        assert abs(se - float(exact_se)) <= bound * float(exact_se)

    def test_zero_n_usage_error(self, tmp_path, capsys):
        code, out = run(tmp_path, "price", "--n", "0")
        assert code == 2
        assert "--n" in capsys.readouterr().err
        assert not out.exists()


class TestMape:
    def test_asset_mode_row_count(self, tmp_path):
        code, out = run(
            tmp_path, "mape", "--mode", "asset", "--n", "200",
            "--rho-grid=-1:1:21", "--alpha-grid", "0.5:1.5:21", "--seed", "1",
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "rho,alpha,mape,se"
        assert len(lines) == 1 + 441

    def test_option_mode_perfect_twin_under_10(self, tmp_path):
        code, out = run(
            tmp_path, "mape", "--mode", "option", "--n", "2000",
            "--rho-grid", "1", "--alpha-grid", "1", "--seed", "1",
        )
        assert code == 0
        rho, alpha, mape, se = out.read_text().splitlines()[1].split(",")
        assert float(mape) < 10.0

    def test_sigma_sweep_adds_column(self, tmp_path):
        code, out = run(
            tmp_path, "mape", "--mode", "sigma-sweep", "--n", "200",
            "--rho-grid", "0,1", "--alpha-grid", "1", "--sigma-j-values", "0.2,0.4",
            "--seed", "1",
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "rho,alpha,mape,se,sigma_j"
        assert len(lines) == 1 + 2 * 2

    def test_horizon_compare_amplifies(self, tmp_path):
        code, out = run(
            tmp_path, "mape", "--mode", "horizon-compare", "--n", "4000",
            "--rho-grid", "0,0.5", "--alpha-grid", "0.8,1.2", "--seed", "1",
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "rho,alpha,mape,se,horizon"
        rows = [line.split(",") for line in lines[1:]]
        day = [float(r[2]) for r in rows[:4]]
        month = [float(r[2]) for r in rows[4:]]
        assert all(m >= d for d, m in zip(day, month))

    def test_thread_invariance_byte_identical(self, tmp_path):
        args = ["mape", "--mode", "asset", "--n", "1000",
                "--rho-grid=-1:1:4", "--alpha-grid", "0.5:1.5:4", "--seed", "21"]
        _, out1 = run(tmp_path, *args, "--threads", "1", name="t1.csv")
        _, out2 = run(tmp_path, *args, "--threads", "4", name="t4.csv")
        assert out1.read_bytes() == out2.read_bytes()

    def test_threads_auto_matches_one_thread(self, tmp_path):
        args = ["mape", "--mode", "option", "--n", "200",
                "--rho-grid", "0,1", "--alpha-grid", "0.9,1.1", "--seed", "5"]
        _, out1 = run(tmp_path, *args, "--threads", "1", name="t1.csv")
        code, auto = run(tmp_path, *args, "--threads", "auto", name="auto.csv")
        assert code == 0
        assert auto.read_bytes() == out1.read_bytes()

    def test_zero_threads_usage_error(self, tmp_path, capsys):
        code, out = run(tmp_path, "mape", "--threads", "0", "--rho-grid", "1", "--alpha-grid", "1")
        assert code == 2
        assert "threads must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--rho-grid", ","],
        ["--alpha-grid", ","],
        ["--mode", "sigma-sweep", "--sigma-j-values", ","],
    ])
    def test_empty_value_list_usage_error(self, tmp_path, capsys, flags):
        code, out = run(tmp_path, "mape", "--n", "100", *flags)
        assert code == 2
        assert "','" in capsys.readouterr().err
        assert not out.exists()

    def test_sigma_sweep_rejects_bad_sigma_before_any_grid(self, tmp_path, monkeypatch):
        grids = []
        monkeypatch.setattr("twinassets.cli.mape_asset", lambda *args, **kwargs: grids.append(args))
        code, out = run(tmp_path, "mape", "--mode", "sigma-sweep", "--n", "100",
                        "--sigma-j-values", "0.2,-0.1")
        assert code == 2
        assert grids == []
        assert not out.exists()

    def test_negative_alpha_grid_rejected(self, tmp_path):
        code, _ = run(tmp_path, "mape", "--mode", "asset", "--alpha-grid=-0.5,1")
        assert code == 2

    def test_zero_n_usage_error(self, tmp_path, capsys):
        code, out = run(tmp_path, "mape", "--n", "0", "--rho-grid", "1", "--alpha-grid", "1")
        assert code == 2
        assert "--n" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_cell_numerical_error(self, tmp_path, capsys):
        # sigma_j = 30 over two years: e^(s^2/2) overflows, so every cell is inf or nan
        code, out = run(tmp_path, "mape", "--rho-grid", "0", "--alpha-grid", "1,5",
                        "--sigma-j", "30", "--horizon", "2")
        assert code == 4
        assert "rho=0.0, alpha=1.0" in capsys.readouterr().err
        assert not out.exists()


class TestConfigAndErrors:
    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps = 10\nseed = 77\n")
        code, out = run(tmp_path, "simulate", "--config", str(cfg), name="a.csv")
        assert code == 0
        assert len(out.read_text().splitlines()) == 1 + 11
        # flag overrides config
        code, out = run(tmp_path, "simulate", "--config", str(cfg), "--steps", "20",
                        name="b.csv")
        assert code == 0
        assert len(out.read_text().splitlines()) == 1 + 21

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus = 1\n")
        code, _ = run(tmp_path, "simulate", "--config", str(cfg))
        assert code == 2

    def test_missing_config_io_error(self, tmp_path):
        code, _ = run(tmp_path, "simulate", "--config", str(tmp_path / "absent.cfg"))
        assert code == 3

    def test_unwritable_path_io_error_no_partial_file(self, tmp_path):
        target = tmp_path / "no_such_dir" / "out.csv"
        code = main(["simulate", "--seed", "1", "--steps", "5", "--out", str(target)])
        assert code == 3
        assert not target.exists()

    def test_stdout_when_no_out(self, capsys):
        assert main(["simulate", "--seed", "1", "--steps", "3"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("t,s_i,s_j,s_j_predicted")


class TestFlagsPerSubcommand:
    # Each flag here used to be accepted and then ignored by the runner.
    @pytest.mark.parametrize("argv, flag", [
        (["simulate", "--threads", "2"], "--threads"),
        (["price", "--threads", "2"], "--threads"),
        (["mape", "--rho", "0.5"], "--rho"),
        (["mape", "--alpha", "1.1"], "--alpha"),
        (["mape", "--mu-j", "0.9"], "--mu-j"),
        (["mape", "--mode", "option", "--horizon", "0.1"], "--horizon"),
        (["mape", "--mode", "horizon-compare", "--horizon", "0.1"], "--horizon"),
        (["mape", "--mode", "sigma-sweep", "--sigma-j", "0.5"], "--sigma-j"),
        (["mape", "--strike", "100"], "--strike"),
        (["mape", "--mode", "sigma-sweep", "--rate", "0.01"], "--rate"),
        (["mape", "--mode", "horizon-compare", "--maturity", "1"], "--maturity"),
        (["mape", "--sigma-j-values", "0.2"], "--sigma-j-values"),
        (["mape", "--mode", "option", "--sigma-j-values", "0.2"], "--sigma-j-values"),
    ])
    def test_unread_flag_is_usage_error(self, argv, flag, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert exit_code([*argv, "--out", str(out)]) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_config_may_set_keys_a_subcommand_does_not_read(self, tmp_path):
        cfg = tmp_path / "shared.cfg"
        cfg.write_text(
            "threads = 2\nsteps = 5\nn = 50\nstrike = 95\nhorizon = 0.01\n"
            "rho_grid = 0,1\nalpha_grid = 1\nsigma_j_values = 0.3\n"
        )
        for command in ("simulate", "price", "mape"):
            code, out = run(tmp_path, command, "--config", str(cfg), name=f"{command}.out")
            assert code == 0
            assert out.stat().st_size > 0

    def test_flag_checked_against_mode_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "option.cfg"
        cfg.write_text("mode = option\n")
        code, _ = run(tmp_path, "mape", "--config", str(cfg), "--horizon", "0.1")
        assert code == 2
        assert "--horizon" in capsys.readouterr().err

    # --out given last wins over the README's own --out
    @pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: argv[0])
    def test_readme_command_runs(self, argv, tmp_path):
        code, out = run(tmp_path, *argv)
        assert code == 0
        assert out.stat().st_size > 0
