"""Command-line interface: `simulate`, `price`, and `mape` subcommands.

Outputs are plain CSV (header row, `.` decimal) or key=value records so
any external tool can plot them; nothing is rendered here. Runs with the
same flags and seed are byte-identical regardless of `--threads`.

Each subcommand accepts only the flags its runner reads (see OPTIONS);
any other flag, or one the chosen `mape` mode does not read, is a usage
error. Exit codes: 0 success, 2 usage/validation error, 3 I/O error,
4 numerical failure.
"""

import argparse
import os
import sys
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from .engine import AssetParams, NoiseDraw, TwinPair, simulate_paths
from .errors import InvalidParameterError, NumericalError, TwinAssetsError
from .harness import GridSpec, _mean_std, alpha_to_mu_j, mape_asset, mape_option
from .pricing import OptionSpec, bs_call, twin_call
from .seeding import STREAM_DRAWS, STREAM_PRICE, substream
from .twin import alpha, predict_twin, stochastic_coefficients, stochastic_term

# Time units are years under a 252-trading-day convention.
TRADING_DAYS_PER_YEAR = 252
ONE_DAY = 1.0 / TRADING_DAYS_PER_YEAR
ONE_MONTH = 21.0 / TRADING_DAYS_PER_YEAR

_MODE_DEFAULT_N = {"asset": 40000, "option": 10000, "sigma-sweep": 40000, "horizon-compare": 40000}


class Option(NamedTuple):
    """One option, keyed in OPTIONS by its config key; the flag is the key
    with '-' for '_'. `readers` are the subcommands whose runner reads it;
    under `mape`, `modes` narrows that to the modes that do (None: all)."""

    type: type
    default: object
    readers: tuple
    help: str
    modes: tuple | None = None


_COMMANDS = {
    "simulate": "simulate a correlated path pair with twin prediction",
    "price": "price a call on asset j via its twin",
    "mape": "run a MAPE grid experiment",
}
_ALL = tuple(_COMMANDS)
_PAIR = ("simulate", "price")  # mape sets mu_j and rho per grid cell
_PRICED = ("price", "mape")

# Baseline parameter set of the numerical illustration. sigma_j is not
# part of the published set; 0.4 is the value under which the published
# drifts give alpha = 1 exactly, and it is configurable everywhere.
OPTIONS = {
    "mu_i": Option(float, 0.4, _ALL, "drift of asset i (the traded twin)"),
    "mu_j": Option(float, 0.8, _PAIR, "drift of asset j"),
    "sigma_i": Option(float, 0.2, _ALL, "volatility of asset i"),
    "sigma_j": Option(float, 0.4, _ALL, "volatility of asset j",
                      ("asset", "option", "horizon-compare")),
    "spot_i": Option(float, 80.0, _ALL, "spot price of asset i"),
    "spot_j": Option(float, 90.0, _ALL, "spot price of asset j"),
    "rho": Option(float, 1.0, _PAIR, "return correlation"),
    "alpha": Option(float, None, _PAIR, "set similarity ratio directly (overrides --mu-j)"),
    "steps": Option(int, 252, ("simulate",), "number of time steps"),
    "dt": Option(float, ONE_DAY, ("simulate",), "step size in years"),
    "horizon": Option(float, ONE_DAY, ("mape",), "prediction horizon (years)",
                      ("asset", "sigma-sweep")),
    "n": Option(int, None, _PRICED, "number of replications (per cell in mape)"),
    "strike": Option(float, 90.0, _PRICED, "call strike", ("option",)),
    "rate": Option(float, 0.05, _PRICED, "risk-free rate", ("option",)),
    "maturity": Option(float, 0.25, _PRICED, "call maturity (years)", ("option",)),
    "seed": Option(int, 12345, _ALL, "master seed"),
    "threads": Option(str, "1", ("mape",), "worker threads or 'auto'"),
    "mode": Option(str, "asset", ("mape",), "one of " + ", ".join(_MODE_DEFAULT_N)),
    "rho_grid": Option(str, "-1:1:21", ("mape",), "'lo:hi:count' or comma list"),
    "alpha_grid": Option(str, "0.5:1.5:21", ("mape",), "'lo:hi:count' or comma list"),
    "sigma_j_values": Option(str, "0.2,0.4,0.6", ("mape",), "comma list of sigma_j values",
                             ("sigma-sweep",)),
    "out": Option(str, None, _ALL, "output file (default: stdout)"),
    "config": Option(str, None, _ALL, "key = value config file"),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _parse_values(text: str) -> list[float]:
    """Parse a grid flag: either 'lo:hi:count' or 'v1,v2,...'."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise InvalidParameterError(f"grid must be lo:hi:count, got {text!r}")
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise InvalidParameterError(f"grid count must be >= 1, got {count}")
        return [float(v) for v in np.linspace(lo, hi, count)]
    values = [float(v) for v in text.split(",") if v.strip()]
    if not values:
        raise InvalidParameterError(f"expected at least one value, got {text!r}")
    return values


def _read_config(path: str) -> dict:
    """Read a `key = value` config file (lines starting with # ignored)."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InvalidParameterError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in OPTIONS:
                raise InvalidParameterError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = value.strip()
    return values


def _merged_options(args: argparse.Namespace) -> dict:
    """Flag > config file > built-in default, per key. A flag the chosen mape
    mode does not read is a usage error; a config file may set any known
    key, so one file can serve every subcommand."""
    flags = {k: v for k, v in vars(args).items() if k in OPTIONS and v is not None}
    config = _read_config(flags["config"]) if flags.get("config") else {}
    merged = {}
    for name, opt in OPTIONS.items():
        if name in flags:
            merged[name] = flags[name]
        elif name in config:
            merged[name] = opt.type(config[name])
        else:
            merged[name] = opt.default
    if args.command == "mape":
        for name in flags:
            modes = OPTIONS[name].modes
            if modes is not None and merged["mode"] not in modes:
                raise InvalidParameterError(
                    f"{_flag(name)} is not read by mape --mode {merged['mode']}"
                )
    return merged


def _resolve_threads(value: str) -> int:
    if value == "auto":
        return os.cpu_count() or 1
    threads = int(value)
    if threads < 1:
        raise InvalidParameterError(f"threads must be >= 1 or 'auto', got {value}")
    return threads


def _replications(opts: dict, default: int) -> int:
    """--n, or `default` only when it is unset: an explicit 0 is an error."""
    n = default if opts["n"] is None else opts["n"]
    if n < 1:
        raise InvalidParameterError(f"--n must be >= 1, got {n}")
    return n


def _build_pair(opts: dict) -> TwinPair:
    mu_j = opts["mu_j"]
    if opts["alpha"] is not None:
        mu_j = alpha_to_mu_j(opts["alpha"], opts["mu_i"], opts["sigma_i"], opts["sigma_j"])
    return TwinPair(
        asset_i=AssetParams(mu=opts["mu_i"], sigma=opts["sigma_i"], spot=opts["spot_i"]),
        asset_j=AssetParams(mu=mu_j, sigma=opts["sigma_j"], spot=opts["spot_j"]),
        rho=opts["rho"],
    )


_SIMULATE_HEADER = ("t", "s_i", "s_j", "s_j_predicted")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_output(text: str, out_path: str | None) -> None:
    # Built fully in memory first: a failed run leaves no partial file.
    if out_path is None:
        sys.stdout.write(text)
        return
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def run_simulate(opts: dict) -> str:
    pair = _build_pair(opts)
    steps, dt = opts["steps"], opts["dt"]
    paths = simulate_paths(pair, steps, dt, opts["seed"])

    # Predicted trajectory: at each grid time t, apply the twin relation
    # from t=0 over horizon t, with the fresh noises accumulated as
    # independent random walks so the prediction is a coherent path.
    rng = substream(opts["seed"], STREAM_DRAWS)
    w_x = np.cumsum(np.sqrt(dt) * rng.standard_normal(steps))
    w_y = np.cumsum(np.sqrt(dt) * rng.standard_normal(steps))
    # the walks already carry the sqrt(t) scaling, so B takes tau = 1
    log_b = stochastic_term(pair, 1.0, w_x, w_y)
    predicted = np.empty(steps + 1)
    predicted[0] = pair.asset_j.spot
    predicted[1:] = predict_twin(pair, paths.times[1:], paths.path_i[1:], log_b)

    columns = (paths.times, paths.path_i, paths.path_j, predicted)
    table = np.column_stack(columns)
    valid = np.isfinite(table)
    valid[:, 1:] &= table[:, 1:] > 0
    bad = np.argwhere(~valid)
    if len(bad):
        k, c = bad[0]
        name = _SIMULATE_HEADER[c]
        raise NumericalError(
            f"non-finite or non-positive {name} at step {k}, t={_fmt(paths.times[k])}: "
            f"{name}={table[k, c]} (alpha = {alpha(pair)!r})"
        )
    text = [",".join(_SIMULATE_HEADER) + "\n"]
    # 4096 rows at a time: all rows at once as Python floats add ~10 MiB of peak memory
    for start in range(0, steps + 1, 4096):
        rows = zip(*(column[start : start + 4096].tolist() for column in columns))
        text.append("".join("%.17g,%.17g,%.17g,%.17g\n" % row for row in rows))
    return "".join(text)


def run_price(opts: dict) -> str:
    pair = _build_pair(opts)
    spec = OptionSpec(strike=opts["strike"], maturity=opts["maturity"], rate=opts["rate"])
    n = _replications(opts, 10000)

    bs_price = bs_call(pair.asset_j.spot, spec, pair.asset_j.sigma)
    rng = substream(opts["seed"], STREAM_PRICE)
    draw = NoiseDraw.sample(rng, n)
    kappa_x, kappa_y = stochastic_coefficients(pair, spec.maturity)
    mean, std = _mean_std(twin_call(pair, spec, draw), constant=not (kappa_x or kappa_y))
    mean, se = float(mean), float(std / np.sqrt(n))
    if not (np.isfinite(mean) and np.isfinite(se)):
        raise NumericalError(
            f"non-finite twin price at alpha = {alpha(pair)!r}, rho = {pair.rho!r}: "
            f"mean={mean}, se={se}"
        )

    lines = [
        f"bs_price={_fmt(bs_price)}",
        f"twin_price_mean={_fmt(mean)}",
        f"twin_price_se={_fmt(se)}",
        f"n={n}",
        f"seed={opts['seed']}",
    ]
    return "\n".join(lines) + "\n"


def run_mape(opts: dict) -> str:
    mode = opts["mode"]
    if mode not in _MODE_DEFAULT_N:
        raise InvalidParameterError(f"unknown mape mode {mode!r}")
    pair = _build_pair(opts)
    threads = _resolve_threads(opts["threads"])
    n = _replications(opts, _MODE_DEFAULT_N[mode])
    rho_values = _parse_values(opts["rho_grid"])
    alpha_values = _parse_values(opts["alpha_grid"])

    def grid_at(horizon: float) -> GridSpec:
        return GridSpec(
            rho_values=tuple(rho_values),
            alpha_values=tuple(alpha_values),
            n_replications=n,
            horizon=horizon,
            master_seed=opts["seed"],
        )

    def rows_of(result, extra: str | None = None) -> list[str]:
        out = []
        for l, rho in enumerate(result.spec.rho_values):
            for m, alpha_value in enumerate(result.spec.alpha_values):
                row = (
                    f"{_fmt(rho)},{_fmt(alpha_value)},"
                    f"{_fmt(result.grid[l, m])},{_fmt(result.standard_errors[l, m])}"
                )
                out.append(row + (f",{extra}" if extra is not None else ""))
        return out

    if mode == "asset":
        result = mape_asset(pair, grid_at(opts["horizon"]), threads=threads)
        lines = ["rho,alpha,mape,se"] + rows_of(result)
    elif mode == "option":
        spec = OptionSpec(strike=opts["strike"], maturity=opts["maturity"], rate=opts["rate"])
        result = mape_option(pair, spec, grid_at(opts["horizon"]), threads=threads)
        lines = ["rho,alpha,mape,se"] + rows_of(result)
    elif mode == "sigma-sweep":
        sigmas = _parse_values(opts["sigma_j_values"])
        grid = grid_at(opts["horizon"])
        # every swept pair is built, and so validated, before any grid runs
        swept = [replace(pair, asset_j=replace(pair.asset_j, sigma=s)) for s in sigmas]
        lines = ["rho,alpha,mape,se,sigma_j"]
        for sigma_j, swept_pair in zip(sigmas, swept):
            lines += rows_of(mape_asset(swept_pair, grid, threads=threads), extra=_fmt(sigma_j))
    else:  # horizon-compare
        lines = ["rho,alpha,mape,se,horizon"]
        for horizon in (ONE_DAY, ONE_MONTH):
            result = mape_asset(pair, grid_at(horizon), threads=threads)
            lines += rows_of(result, extra=_fmt(horizon))
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twinassets",
        description="Twin-asset Monte Carlo simulation, pricing, and MAPE experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, summary in _COMMANDS.items():
        # no prefix matching: `mape --rho` must not be read as --rho-grid
        p_command = sub.add_parser(command, help=summary, allow_abbrev=False)
        for key, opt in OPTIONS.items():
            if command in opt.readers:
                modes = opt.modes if command == "mape" else None
                help_text = opt.help + (f" (modes: {', '.join(modes)})" if modes else "")
                p_command.add_argument(_flag(key), type=opt.type, help=help_text)
    return parser


_RUNNERS = {"simulate": run_simulate, "price": run_price, "mape": run_mape}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        opts = _merged_options(args)
        # a non-finite result is reported below as a numerical error
        # (exit 4), so numpy's floating-point warnings would only repeat it
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            text = _RUNNERS[args.command](opts)
    except NumericalError as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 4
    except (TwinAssetsError, ValueError) as exc:
        print(f"error: validation: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 3
    try:
        _write_output(text, opts["out"])
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
