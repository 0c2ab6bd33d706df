import argparse
import decimal
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import decimal_predict_twin, decimal_twin_call
from twinassets import (
    AssetParams,
    NoiseDraw,
    OptionSpec,
    TwinPair,
    alpha,
    stochastic_term,
    twin_call,
)
from twinassets.cli import _build_pair, _fmt, _merged_options, _rows, build_parser, main
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


def default_pair(alpha_value, sigma_j=0.4, rho=1.0):
    """The pair the CLI builds from its defaults and --alpha: mu_j is
    alpha*sigma_j*mu_i/sigma_i, in that operation order."""
    return TwinPair(
        asset_i=AssetParams(mu=0.4, sigma=0.2, spot=80.0),
        asset_j=AssetParams(mu=alpha_value * sigma_j * 0.4 / 0.2, sigma=sigma_j, spot=90.0),
        rho=rho,
    )


# A double evaluation of the twin relation's log sum is off from the
# exact sum by a few roundings of its largest partial sums, so the
# relative error of its exp is bounded by a small multiple of
# eps * sum(|log terms|).
LOG_SUM_ROUNDINGS = 4
EPS = np.finfo(float).eps

# argv: the diagnostic of its nan or inf input, which exits 2 before any work
NON_FINITE_INPUTS = {
    "mape --rho-grid 0 --alpha-grid nan": "--alpha-grid: alpha must be finite and > 0, got nan",
    "mape --rho-grid 0 --alpha-grid inf": "--alpha-grid: alpha must be finite and > 0, got inf",
    "price --strike inf": "strike must be finite, got inf",
    "price --rate nan": "rate must be finite, got nan",
    "price --mu-i nan": "asset i: mu must be finite, got nan",
    "simulate --steps 2 --dt inf": "dt must be finite and > 0, got inf",
}


# argv: the usage error, which names its flag, config key or asset;
# {cfg} is a config file that sets `n = abc` on its second line
NAMED_USAGE_ERRORS = {
    "mape --threads abc": "--threads: invalid literal for int() with base 10: 'abc'",
    "mape --rho-grid 0:1:x": "--rho-grid: invalid literal for int() with base 10: 'x'",
    "mape --alpha-grid 1,x": "--alpha-grid: could not convert string to float: 'x'",
    "mape --mode sigma-sweep --sigma-j-values 0.2,-0.1":
        "--sigma-j-values: sigma must be > 0, got -0.1",
    "mape --config {cfg}": "{cfg}:2: n: invalid literal for int() with base 10: 'abc'",
    "price --sigma-j -1": "asset j: sigma must be > 0, got -1.0",
    # since 0.5.8 alpha's own converter rejects alpha <= 0, and a fault in
    # another input is named as it is without alpha
    "price --alpha 1 --sigma-j -1": "asset j: sigma must be > 0, got -1.0",
    "price --alpha 0": "--alpha: alpha must be finite and > 0, got 0.0",
    "simulate --mu-i 0 --alpha 1":
        "alpha is undefined: sigma_j*mu_i = 0 at mu_i = 0.0, sigma_j = 0.4",
    "price --config {cfg}": "{cfg}:2: n: invalid literal for int() with base 10: 'abc'",
    "simulate --spot-i -5": "asset i: spot must be > 0, got -5.0",
    "simulate --spot-j 0": "asset j: spot must be > 0, got 0.0",
    # sigma**2 overflowed, and sigma_j*mu_i rounded to 0, as a traceback before 0.5.1
    "price --sigma-j 1e155": "asset j: sigma**2 must be finite, got sigma = 1e+155",
    "simulate --mu-i 5e-324":
        "alpha is undefined: sigma_j*mu_i = 0 at mu_i = 5e-324, sigma_j = 0.4",
    # since 0.6.1 `twin.alpha` makes this check; `price` calls it, as `simulate` does
    "price --sigma-j 5e-324":
        "alpha is undefined: sigma_j*mu_i = 0 at mu_i = 0.4, sigma_j = 5e-324",
    "price --mu-i 0": "alpha is undefined: sigma_j*mu_i = 0 at mu_i = 0.0, sigma_j = 0.4",
}


# Which reader reads which flag, written out rather than derived from
# OPTIONS. Columns: simulate, price, then mape --mode asset, option,
# sigma-sweep, horizon-compare. `+` read, `p` rejected by the parser (the
# subcommand has no such flag), `m` rejected by the mode gate (exit 2).
READERS = ("simulate", "price", "asset", "option", "sigma-sweep", "horizon-compare")
SUBCOMMAND_READERS = {"simulate": READERS[:1], "price": READERS[1:2], "mape": READERS[2:]}
GATE = {
    "--mu-i": "++pppp",
    "--mu-j": "++pppp",
    "--sigma-i": "++m+mm",
    "--sigma-j": "++++m+",
    "--spot-i": "++m+mm",
    "--spot-j": "++m+mm",
    "--rho": "++pppp",
    "--alpha": "++pppp",
    "--steps": "+ppppp",
    "--dt": "+ppppp",
    "--horizon": "pp+m+m",
    "--n": "p+++++",
    "--strike": "p+m+mm",
    "--rate": "p+m+mm",
    "--maturity": "p+m+mm",
    "--seed": "++++++",
    "--threads": "pp++++",
    "--mode": "pp++++",
    "--rho-grid": "pp++++",
    "--alpha-grid": "pp++++",
    "--sigma-j-values": "ppmm+m",
    "--out": "++++++",
    "--config": "++++++",
}


# Each option whose text can fail to convert: the argv of a reader that
# reads it, a text that its converter rejects, and the converter's message.
FLOAT = "could not convert string to float: 'x'"
INT = "invalid literal for int() with base 10: 'x'"
CONVERSION_ERRORS = [
    ("mu_i", ("price",), "x", FLOAT),
    ("mu_j", ("price",), "x", FLOAT),
    ("sigma_i", ("price",), "x", FLOAT),
    ("sigma_j", ("simulate",), "x", FLOAT),
    ("spot_i", ("mape", "--mode", "option"), "x", FLOAT),
    ("spot_j", ("price",), "x", FLOAT),
    ("rho", ("simulate",), "x", FLOAT),
    ("alpha", ("price",), "x", FLOAT),
    ("alpha", ("simulate",), "0", "alpha must be finite and > 0, got 0.0"),
    ("alpha", ("price",), "nan", "alpha must be finite and > 0, got nan"),
    ("alpha", ("price",), "inf", "alpha must be finite and > 0, got inf"),
    # a finite alpha whose mu_j = alpha*sigma_j*mu_i/sigma_i overflows
    ("alpha", ("price", "--sigma-j", "30"), "1e308",
     "mu_j = alpha*sigma_j*mu_i/sigma_i must be finite, got inf"),
    ("steps", ("simulate",), "x", INT),
    ("dt", ("simulate",), "x", FLOAT),
    ("horizon", ("mape", "--mode", "sigma-sweep"), "x", FLOAT),
    ("n", ("price",), "x", INT),
    ("n", ("mape",), "0", "must be > 0, got 0"),
    ("strike", ("mape", "--mode", "option"), "x", FLOAT),
    ("rate", ("price",), "x", FLOAT),
    ("maturity", ("price",), "x", FLOAT),
    ("seed", ("simulate",), "x", INT),
    ("threads", ("mape",), "x", INT),
    ("rho_grid", ("mape",), "x", FLOAT),
    ("rho_grid", ("mape",), "0:1", "grid must be lo:hi:count, got '0:1'"),
    ("rho_grid", ("mape",), "2", "rho must lie in [-1, 1], got 2.0"),
    ("rho_grid", ("mape", "--mode", "option"), "-1:1.5:2", "rho must lie in [-1, 1], got 1.5"),
    ("alpha_grid", ("mape", "--mode", "option"), "1,x", FLOAT),
    ("alpha_grid", ("mape",), "0:1:0", "grid count must be >= 1, got 0"),
    ("alpha_grid", ("mape",), "nan", "alpha must be finite and > 0, got nan"),
    ("alpha_grid", ("mape", "--mode", "option"), "1,0", "alpha must be finite and > 0, got 0.0"),
    ("sigma_j_values", ("mape", "--mode", "sigma-sweep"), ",",
     "expected at least one value, got ','"),
    ("sigma_j_values", ("mape", "--mode", "sigma-sweep"), "0.2,-0.1",
     "sigma must be > 0, got -0.1"),
    ("sigma_j_values", ("mape", "--mode", "sigma-sweep"), "1e155",
     "sigma**2 must be finite, got sigma = 1e+155"),
]


def gate_argv(reader, flag, value):
    """argv giving `flag` to `reader`; a mape mode comes last, so it wins
    over a --mode flag under test."""
    if reader in ("simulate", "price"):
        return [reader, flag, value]
    return ["mape", flag, value, "--mode", reader]


def readme_flag_table():
    """{subcommand: {flag: the modes named for it, or None}} from README's
    "Each subcommand accepts only the flags it reads" table; the `all`
    row's flags are in every subcommand's."""
    text = README.read_text(encoding="utf-8")
    table = text[text.index("Each subcommand accepts only the flags it reads"):]
    rows = {}
    for line in table.splitlines()[4:]:  # past the header and its rule
        if not line.startswith("|"):
            break
        name, flags = line.strip("|").split("|")
        name = name.strip(" `")
        head, _, by_mode = flags.partition("by mode:")
        rows[name] = dict.fromkeys(re.findall(r"`(--[\w-]+)`", head))
        for group, modes in re.findall(r"((?:`--[\w-]+`,? )+)\(([^)]*)\)", by_mode):
            for flag in re.findall(r"`(--[\w-]+)`", group):
                rows[name][flag] = re.findall(r"`([\w-]+)`", modes)
    shared = rows.pop("all")
    return {name: {**shared, **flags} for name, flags in rows.items()}


def _flag_of(key):
    return "--" + key.replace("_", "-")


def forbid_draws(monkeypatch):
    """Make any normal draw fail: the input must be rejected before one."""
    def no_draws(*args):
        raise AssertionError("normals drawn before the input was checked")

    for module in ("cli", "engine", "harness"):
        monkeypatch.setattr(f"twinassets.{module}.substream", no_draws)


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

    @pytest.mark.parametrize("rho, alpha_value", [(0.8, 1.1), (-0.5, 1.4)])
    def test_prediction_log_error_law(self, rho, alpha_value, capsys):
        # log(S'_j / S_j) at t is log B at the difference of the fresh and the
        # pair's own walks, so N(0, 2*sigma_j^2*t*d), d = (1 - alpha)^2 + 2*alpha*(1 - rho)
        seeds, steps = 400, 21
        log_error = np.empty((seeds, steps))
        for seed in range(seeds):
            argv = f"simulate --rho={rho} --alpha {alpha_value} --steps {steps} --seed {seed}"
            assert main(argv.split()) == 0
            rows = np.array([[float(v) for v in line.split(",")]
                             for line in capsys.readouterr().out.splitlines()[2:]])
            log_error[seed] = np.log(rows[:, 3] / rows[:, 2])
        d = (1 - alpha_value) ** 2 + 2 * alpha_value * (1 - rho)
        for k in (0, 4, 20):  # t = 1, 5 and 21 trading days
            variance = 2 * 0.4**2 * rows[k, 0] * d
            x = log_error[:, k]
            assert abs(np.mean(x)) <= 4 * np.sqrt(variance / seeds), k
            # the mean square about the known mean 0 has SE variance*sqrt(2/seeds)
            assert abs(np.mean(x**2) - variance) <= 4 * variance * np.sqrt(2 / seeds), k
        # both walks have independent steps, so the log error's steps are
        # independent N(0, 2*sigma_j^2*dt*d): pooled, they pin the scale closer
        x = np.diff(log_error, axis=1, prepend=0.0)
        variance = 2 * 0.4**2 * rows[0, 0] * d
        assert abs(np.mean(x**2) - variance) <= 4 * variance * np.sqrt(2 / x.size)


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
    @pytest.mark.parametrize("rho, alpha_value", [(0.8, 1.1), (1.0, 1.0)])
    def test_mean_and_se_bit_identical_to_numpy(self, n, rho, alpha_value, capsys):
        # at (rho, alpha) = (1, 1) log B is identically 0, every price is
        # the same and the SE is exactly 0 rather than rounding noise
        assert main(f"price --rho {rho} --alpha {alpha_value} --n {n} --seed 3".split()) == 0
        record = dict(line.split("=") for line in capsys.readouterr().out.splitlines())
        spec = OptionSpec(strike=90.0, maturity=0.25, rate=0.05)
        draw = NoiseDraw.sample(substream(3, STREAM_PRICE), n)
        pair = default_pair(alpha_value, rho=rho)
        # `price` forms alpha from the drifts of its pair, whose mu_j --alpha set
        a = alpha(pair)
        prices = twin_call(pair, a, spec, stochastic_term(pair, a, 0.25, draw.z_x, draw.z_y))
        deterministic = n == 1 or (rho, alpha_value) == (1.0, 1.0)
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


class TestAlphaSetsMuJ:
    """`--alpha` sets mu_j = alpha*sigma_j*mu_i/sigma_i on a `simulate` or
    `price` pair, whose alpha the run then forms from the drifts."""

    @staticmethod
    def pair(*flags):
        return _build_pair(_merged_options(build_parser().parse_args(["price", *flags])))

    def test_section3_consistency(self):
        assert self.pair("--alpha", "1").asset_j.mu == pytest.approx(0.8, rel=1e-15)

    def test_linearity(self):
        assert self.pair("--alpha", "2").asset_j.mu == pytest.approx(1.6, rel=1e-15)

    @given(target=st.floats(min_value=0.01, max_value=10.0))
    def test_round_trip(self, target):
        pair = self.pair("--alpha", repr(target), "--rho", "0.5")
        assert alpha(pair) == pytest.approx(target, rel=1e-12)


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

    # 0.5.2 named these cells, whose mu_j overflowed or whose alpha rounded
    # to 0 on the way through mu_j; without the flags that mape no longer
    # reads, each cell runs at its alpha label
    FORMER_ROUND_TRIP = {  # argv: exit code, and the exit-4 diagnostic
        "mape --rho-grid 0 --alpha-grid 1,1e10 --n 2":
            (4, "non-finite MAPE at rho=0.0, alpha=10000000000.0: mape=inf, se=nan"),
        "mape --mode option --sigma-i 1e-300 --rho-grid 0 --alpha-grid 1,1e10 --n 2":
            (4, "non-finite MAPE at rho=0.0, alpha=1.0: mape=inf, se=nan"),
        "mape --mode option --sigma-j 1e-10 --sigma-i 1e10 --rho-grid 0 --alpha-grid 1e-10,1 "
        "--n 2": (0, None),
    }

    @pytest.mark.parametrize("argv", list(FORMER_ROUND_TRIP))
    def test_former_round_trip_cells_run(self, argv, tmp_path, capsys):
        code, err = self.FORMER_ROUND_TRIP[argv]
        result, out = run(tmp_path, *argv.split())
        assert result == code
        if err is not None:
            assert capsys.readouterr().err == f"error: numerical: {err}\n"
            assert not out.exists()
            return
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [row[1] for row in rows] == ["1e-10", "1"]
        assert all(np.isfinite(float(v)) for row in rows for v in row)

    # mape reads no drift, so a sigma_j whose product with the default mu_i,
    # alpha's denominator, rounds to 0 runs as any other (exit 2 before 0.6.1)
    def test_subnormal_sigma_j_reaches_the_option_cells(self, tmp_path, capsys):
        argv = "mape --mode option --sigma-j 5e-324 --rho-grid 0 --alpha-grid 1 --n 2"
        code, out = run(tmp_path, *argv.split())
        assert code == 4
        assert capsys.readouterr().err.startswith(
            "error: numerical: non-finite MAPE at rho=0.0, alpha=1.0: ")
        assert not out.exists()

    def test_subnormal_sigma_j_swept(self, tmp_path):
        argv = "mape --mode sigma-sweep --sigma-j-values 0.2,5e-324 --rho-grid 0 --alpha-grid 1"
        code, out = run(tmp_path, *argv.split(), "--n", "10")
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [float(row[-1]) for row in rows] == [0.2, 5e-324]
        assert all(np.isfinite(float(v)) for row in rows for v in row)

    def test_negative_alpha_grid_rejected(self, tmp_path):
        code, _ = run(tmp_path, "mape", "--mode", "asset", "--alpha-grid=-0.5,1")
        assert code == 2

    def test_zero_n_usage_error(self, tmp_path, capsys):
        code, out = run(tmp_path, "mape", "--n", "0", "--rho-grid", "1", "--alpha-grid", "1")
        assert code == 2
        assert "--n" in capsys.readouterr().err
        assert not out.exists()

    def test_option_mode_does_not_read_horizon(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("horizon = -1\n")
        args = ["mape", "--mode", "option", "--rho-grid", "0", "--alpha-grid", "1", "--n", "10"]
        code, out = run(tmp_path, *args, "--config", str(cfg), name="config.csv")
        assert code == 0
        _, plain = run(tmp_path, *args, name="plain.csv")
        assert out.read_bytes() == plain.read_bytes()

    def test_non_finite_cell_numerical_error(self, tmp_path, capsys):
        # sigma_j = 30 over two years: log B has a standard deviation of 306 at
        # alpha = 5, so that cell overflows; at alpha = 1 (85) that depends on the draw
        code, out = run(tmp_path, "mape", "--rho-grid", "0", "--alpha-grid", "1,5",
                        "--sigma-j", "30", "--horizon", "2")
        assert code == 4
        assert "rho=0.0, alpha=5.0" in capsys.readouterr().err
        assert not out.exists()


class TestMetamorphic:
    """Exact relations between `mape` runs on 5 x 5 grids. The cells read
    sigma, tau and r only through sigma*sqrt(tau), sigma^2*tau and r*tau,
    and each of those is formed with the same roundings after the time
    rescaling by c = 4 (sigma / 2, r / 4, tau * 4: every factor a power of
    2), so the bytes are the same. The option surface depends on spot_j and
    the strike only through their ratio, up to the rounding of their logs."""

    GRID = ("--rho-grid=-1:1:5", "--alpha-grid", "0.5:1.5:5", "--n", "2000", "--seed", "4")

    def surface(self, tmp_path, *flags):
        code, out = run(tmp_path, "mape", *self.GRID, *flags, name="-".join(flags) + ".csv")
        assert code == 0
        return out.read_bytes()

    def test_asset_time_rescaling(self, tmp_path):
        day = self.surface(tmp_path, "--mode", "asset")
        rescaled = self.surface(tmp_path, "--mode", "asset", "--sigma-j", repr(0.4 / 2),
                                "--horizon", repr(4 * (1 / 252)))
        assert rescaled == day

    def test_option_time_rescaling(self, tmp_path):
        quarter = self.surface(tmp_path, "--mode", "option")
        rescaled = self.surface(tmp_path, "--mode", "option", "--sigma-i", repr(0.2 / 2),
                                "--sigma-j", repr(0.4 / 2), "--rate", repr(0.05 / 4),
                                "--maturity", repr(0.25 * 4))
        assert rescaled == quarter

    def test_option_spot_j_and_strike_doubled(self, tmp_path):
        def values(data):
            return np.array([[float(v) for v in line.split(",")]
                             for line in data.decode().splitlines()[1:]])

        base = values(self.surface(tmp_path, "--mode", "option"))
        doubled = values(self.surface(tmp_path, "--mode", "option", "--spot-j", "180",
                                      "--strike", "180"))
        # measured: at most 7.1e-15 relative
        assert np.all(np.abs(doubled - base) <= 1e-14 * np.abs(base))


class TestConfigAndErrors:
    @pytest.mark.parametrize("argv", list(NON_FINITE_INPUTS))
    def test_non_finite_input_usage_error(self, argv, tmp_path, capsys, monkeypatch):
        forbid_draws(monkeypatch)
        code, out = run(tmp_path, *shlex.split(argv))
        assert code == 2
        assert capsys.readouterr().err == f"error: validation: {NON_FINITE_INPUTS[argv]}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", list(NAMED_USAGE_ERRORS))
    def test_usage_error_names_its_source(self, argv, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 3\nn = abc\n")
        forbid_draws(monkeypatch)
        code, out = run(tmp_path, *shlex.split(argv.format(cfg=cfg)))
        assert code == 2
        expected = NAMED_USAGE_ERRORS[argv].format(cfg=cfg)
        assert capsys.readouterr().err == f"error: validation: {expected}\n"
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("key, command, text, message", [
        pytest.param(*case, id=f"{case[0]}={case[2]}") for case in CONVERSION_ERRORS])
    def test_conversion_error_names_its_source(self, key, command, text, message, source,
                                               tmp_path, capsys, monkeypatch):
        # one line, as every other usage error, and never argparse's usage dump
        forbid_draws(monkeypatch)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {text}\n")
        if source == "flag":
            argv, where = [*command, f"{_flag_of(key)}={text}"], _flag_of(key)
        else:
            argv, where = [*command, "--config", str(cfg)], f"{cfg}:1: {key}"
        out = tmp_path / "out.csv"
        assert exit_code([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: validation: {where}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["asset", "option", "sigma-sweep", "horizon-compare"])
    def test_threads_checked_before_any_draw(self, mode, tmp_path, capsys, monkeypatch):
        forbid_draws(monkeypatch)
        code, out = run(tmp_path, "mape", "--mode", mode, "--threads", "0",
                        "--rho-grid", "0", "--alpha-grid", "1")
        assert code == 2
        assert capsys.readouterr().err == "error: validation: threads must be >= 1, got 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags, field", [
        ("--spot-j 1e-8", "spot_j=1e-08"),
        ("--strike 1e300", "strike=1e+300"),
        ("--rate -50", "rate=-50.0"),
    ])
    def test_zero_benchmark_checked_before_any_draw(self, flags, field, tmp_path, capsys,
                                                    monkeypatch):
        # c_j = 0 leaves every cell's APE undefined: the run names the
        # benchmark, not the first grid cell
        forbid_draws(monkeypatch)
        code, out = run(tmp_path, "mape", "--mode", "option", *flags.split())
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("error: numerical: Black-Scholes benchmark c_j = 0.0 is not finite")
        assert field in err
        assert not out.exists()

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

    def test_config_key_set_twice_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("mode = option\n# the second mode\nmode = asset\n")
        code, out = run(tmp_path, "mape", "--config", str(cfg))
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: validation: {cfg}:3: mode: already set at {cfg}:1\n")
        assert not out.exists()

    def test_undecodable_config_names_its_file(self, tmp_path, capsys):
        cfg = tmp_path / "binary.cfg"
        cfg.write_bytes(b"seed = 3\n\xff\n")
        code, out = run(tmp_path, "price", "--config", str(cfg))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: validation: {cfg}: 'utf-8' codec can't decode byte 0xff")
        assert err.count("\n") == 1
        assert not out.exists()

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
        # alpha sets mu_j
        (["simulate", "--mu-j", "0.9", "--alpha", "1.1"], "--mu-j"),
        (["price", "--mu-j", "0.9", "--alpha", "1.1"], "--mu-j"),
        # no mape cell reads a drift, and an asset cell no spot or sigma_i
        (["mape", "--mu-i", "0.4"], "--mu-i"),
        (["mape", "--mode", "option", "--mu-i", "0.4"], "--mu-i"),
        (["mape", "--sigma-i", "0.2"], "--sigma-i"),
        (["mape", "--mode", "sigma-sweep", "--spot-i", "80"], "--spot-i"),
        (["mape", "--mode", "horizon-compare", "--spot-j", "90"], "--spot-j"),
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

    @pytest.mark.parametrize("line, message", [
        ("rho = 2", "rho must lie in [-1, 1], got 2.0"),
        ("alpha = -1", "{cfg}:1: alpha: alpha must be finite and > 0, got -1.0"),
        ("mu_j = nan", "asset j: mu must be finite, got nan"),
        ("mu_i = nan", "asset i: mu must be finite, got nan"),
    ])
    def test_config_key_mape_does_not_read_is_not_validated(self, line, message, tmp_path,
                                                            capsys):
        # every mape cell takes rho and alpha from the grids and reads no drift
        cfg = tmp_path / "pair.cfg"
        cfg.write_text(line + "\n")
        for mode in ("asset", "option"):
            args = ("mape", "--mode", mode, "--rho-grid", "0,1", "--alpha-grid", "0.9,1",
                    "--n", "200")
            code, out = run(tmp_path, *args, "--config", str(cfg), name="config.csv")
            assert code == 0
            _, plain = run(tmp_path, *args, name="plain.csv")
            assert out.read_bytes() == plain.read_bytes()
        for command in ("simulate", "price"):
            assert run(tmp_path, command, "--config", str(cfg))[0] == 2
            assert capsys.readouterr().err == f"error: validation: {message.format(cfg=cfg)}\n"

    # text that the run would reject, in a key that it does not read
    @pytest.mark.parametrize("line, argv", [
        ("n = abc", "simulate --steps 5"),
        ("steps = 1.5", "price --n 200"),
        ("horizon = x", "mape --mode option --rho-grid 0 --alpha-grid 1 --n 10"),
    ])
    def test_config_key_the_run_does_not_read_is_not_converted(self, line, argv, tmp_path):
        cfg = tmp_path / "unread.cfg"
        cfg.write_text(line + "\n")
        code, out = run(tmp_path, *argv.split(), "--config", str(cfg), name="config.csv")
        assert code == 0
        _, plain = run(tmp_path, *argv.split(), name="plain.csv")
        assert out.read_bytes() == plain.read_bytes()

    def test_flag_checked_against_mode_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "option.cfg"
        cfg.write_text("mode = option\n")
        code, _ = run(tmp_path, "mape", "--config", str(cfg), "--horizon", "0.1")
        assert code == 2
        assert "--horizon" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", list(GATE))
    def test_gate_matrix(self, flag, tmp_path, capsys):
        # in-process: only parsing and the gate run, never a runner
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("")
        value = {"--mode": "asset", "--out": "unused.csv", "--config": str(cfg)}.get(flag, "1")
        # the merged value is the text converted: an int, a float, a value list, or
        # the text itself (a mape mode comes last, so it is the merged --mode)
        converted = {"--out": "unused.csv", "--config": str(cfg), "--steps": 1, "--n": 1,
                     "--seed": 1, "--threads": 1, "--rho-grid": [1.0], "--alpha-grid": [1.0],
                     "--sigma-j-values": [1.0]}
        key = flag[2:].replace("-", "_")
        for reader, expected in zip(READERS, GATE[flag]):
            argv = gate_argv(reader, flag, value)
            if expected == "p":
                with pytest.raises(SystemExit) as exc:
                    build_parser().parse_args(argv)
                assert exc.value.code == 2, argv
                assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
                continue
            args = build_parser().parse_args(argv)
            if expected == "m":
                with pytest.raises(ValueError, match=f"^{flag} is not read by mape --mode "
                                                     f"{reader}$"):
                    _merged_options(args)
            else:
                merged = _merged_options(args)[key]
                expected_value = reader if flag == "--mode" else converted.get(flag, 1.0)
                assert merged == expected_value and type(merged) is type(expected_value), argv

    def test_readme_flag_table_is_the_parser_and_gate(self):
        # each subcommand row lists exactly the flags its parser accepts, and
        # a flag listed with modes is read by exactly those modes
        table = readme_flag_table()
        subparsers = next(action for action in build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        assert set(table) == set(subparsers.choices) == set(SUBCOMMAND_READERS)
        for command, flags in table.items():
            parsed = {flag for action in subparsers.choices[command]._actions
                      for flag in action.option_strings}
            assert set(flags) == parsed - {"-h", "--help"}, command
            readers = SUBCOMMAND_READERS[command]
            for flag, modes in flags.items():
                reading = [reader for reader, cell in zip(READERS, GATE[flag])
                           if reader in readers and cell == "+"]
                assert list(modes or readers) == reading, (command, flag)

    def test_config_alpha_with_mu_j_flag(self, tmp_path, capsys):
        cfg = tmp_path / "alpha.cfg"
        cfg.write_text("alpha = 1.1\n")
        for command in ("simulate", "price"):
            code, out = run(tmp_path, command, "--config", str(cfg), "--mu-j", "0.9")
            assert code == 2
            assert capsys.readouterr().err == (
                f"error: validation: --mu-j is not read by {command} with alpha set\n")
            assert not out.exists()

    def test_config_mu_j_with_alpha_flag_is_not_read(self, tmp_path):
        # alpha sets mu_j, so a config mu_j beside it is neither used nor checked
        cfg = tmp_path / "mu_j.cfg"
        cfg.write_text("mu_j = nan\n")
        for command, args in (("simulate", ("--steps", "5")), ("price", ("--n", "200"))):
            argv = (command, "--alpha", "1.1", "--rho", "0.8", *args)
            code, out = run(tmp_path, *argv, "--config", str(cfg), name="config.csv")
            assert code == 0
            _, plain = run(tmp_path, *argv, name="plain.csv")
            assert out.read_bytes() == plain.read_bytes()

    def test_config_files_do_not_nest(self, tmp_path, capsys):
        inner = tmp_path / "inner.cfg"
        inner.write_text("n = 3\n")
        outer = tmp_path / "outer.cfg"
        outer.write_text(f"seed = 3\nconfig = {inner}\n")
        code, out = run(tmp_path, "price", "--config", str(outer))
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: validation: {outer}:2: unknown key 'config'\n")
        assert not out.exists()

    # an unknown mode is named before any flag is checked against it
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_unknown_mode_named_before_gated_flags(self, source, tmp_path, capsys):
        cfg = tmp_path / "foo.cfg"
        cfg.write_text("mode = foo\n")
        mode = ["--mode", "foo"] if source == "flag" else ["--config", str(cfg)]
        code, out = run(tmp_path, "mape", *mode, "--horizon", "0.1")
        assert code == 2
        assert capsys.readouterr().err == "error: validation: unknown mape mode 'foo'\n"
        assert not out.exists()

    # --out given last wins over the README's own --out
    @pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: argv[0])
    def test_readme_command_runs(self, argv, tmp_path):
        code, out = run(tmp_path, *argv)
        assert code == 0
        assert out.stat().st_size > 0


class TestRows:
    VALUES = (-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, 0.1, 1 / 3, 1e300)

    # 4096 rows are formatted at a time, so 4096 and 4097 cross the chunk edge
    @pytest.mark.parametrize("length", [0, 1, 4096, 4097])
    def test_every_row_is_fmt_of_its_fields(self, length):
        k = np.arange(length)
        columns = [np.array(self.VALUES)[(k + shift) % len(self.VALUES)] for shift in range(3)]
        rows = "".join(_rows(*columns)).splitlines(keepends=True)
        assert len(rows) == length
        for row, fields in zip(rows, zip(*columns)):
            assert row == ",".join(map(_fmt, fields)) + "\n"
