import shlex
from pathlib import Path

import numpy as np
import pytest

from twinassets.cli import main

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
        # e = alpha*sigma_j/sigma_i = 800: S_i**e overflows from the first step on
        code = main(["simulate", "--alpha", "400", "--steps", "5"])
        captured = capsys.readouterr()
        assert code == 4
        assert "step 1, t=0.003968253968253968" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""


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
        # e = alpha*sigma_j/sigma_i = 2400: spot_i**e is out of float range
        code = main(argv.split())
        captured = capsys.readouterr()
        assert code == 4
        assert "alpha = 39.99" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_non_finite_mean_numerical_error(self, capsys):
        # sigma_j = 30 over five years: the prices overflow to inf - inf = nan
        code = main("price --alpha 1 --rho 0 --sigma-j 30 --maturity 5 --n 100".split())
        captured = capsys.readouterr()
        assert code == 4
        assert "non-finite twin price at alpha = 1.0, rho = 0.0" in captured.err
        assert captured.out == ""

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
