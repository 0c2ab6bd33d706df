"""Command-line interface: `simulate`, `price`, and `mape` subcommands.

Outputs are plain CSV (header row, `.` decimal) or key=value records so
any external tool can plot them; nothing is rendered here. Runs with the
same flags and seed are byte-identical regardless of `--threads`.

Each subcommand accepts only the flags its readers read (see OPTIONS);
any other flag, one the chosen `mape` mode does not read, or `--mu-j`
with alpha set, is a usage error. `_merged_options` alone converts an
option's text, from its flag or config line, and names that source when
the text is rejected. Config files do not nest. Exit codes:
0 success, 2 usage/validation error (a size too large to allocate
included), 3 I/O error, 4 numerical failure.
"""

import argparse
import math
import os
import sys
from dataclasses import replace
from typing import Callable, NamedTuple

import numpy as np

from .engine import AssetParams, NoiseDraw, TwinPair, _check_rho, _check_sigma, simulate_paths
from .errors import InvalidParameterError, NumericalError, naming
from .harness import GridSpec, _check_alpha, _mean_std, mape_asset, mape_option
from .pricing import OptionSpec, bs_call, twin_call
from .seeding import STREAM_DRAWS, STREAM_PRICE, substream
from .twin import alpha, predict_twin, stochastic_term

# Time units are years under a 252-trading-day convention.
TRADING_DAYS_PER_YEAR = 252
ONE_DAY = 1.0 / TRADING_DAYS_PER_YEAR
ONE_MONTH = 21.0 / TRADING_DAYS_PER_YEAR

# each mape mode: its default --n, and the column it writes after rho,alpha,mape,se
_MODES = {"asset": (40000, ""), "option": (10000, ""), "sigma-sweep": (40000, ",sigma_j"),
          "horizon-compare": (40000, ",horizon")}


def _positive(convert: Callable[[str], float]) -> Callable[[str], float]:
    """`convert`, then a check that its value is > 0 (nan is not)."""

    def checked(text: str) -> float:
        value = convert(text)
        if not value > 0:
            raise InvalidParameterError(f"must be > 0, got {value}")
        return value

    return checked


def _values(text: str) -> list[float]:
    """A value list: either 'lo:hi:count' or 'v1,v2,...'."""
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


def _each(check: Callable[[float], float]) -> Callable[[str], list[float]]:
    """`_values`, each value then returned by `check` or rejected."""
    return lambda text: [check(value) for value in _values(text)]


def _threads(text: str) -> int:
    """'auto' is the CPU count; `mape_asset` and `mape_option` reject a count below 1."""
    return (os.cpu_count() or 1) if text == "auto" else int(text)


class Option(NamedTuple):
    """One option, keyed in OPTIONS by its config key; the flag is the key
    with '-' for '_'. `type` converts the option's text, from a flag or a
    config line, to its value, and `default` is already a value. `readers`
    lists the runs that read it: `simulate`, `price` and the `mape` modes;
    a `mape` run reads its mode's options."""

    type: Callable[[str], object]
    default: object
    readers: tuple
    help: str


_MAPE = tuple(_MODES)
_COMMANDS = {  # each subcommand's help line and readers
    "simulate": ("simulate a correlated path pair with twin prediction", ("simulate",)),
    "price": ("price a call on asset j via its twin", ("price",)),
    "mape": ("run a MAPE grid experiment", _MAPE),
}
_PAIR = ("simulate", "price")  # a mape cell takes its rho and alpha from the grids
_ALL = (*_PAIR, *_MAPE)
_PRICED = (*_PAIR, "option")  # an asset cell reads sigma_j alone of the assets

# Baseline parameter set of the numerical illustration. sigma_j is not
# part of the published set; 0.4 is the value under which the published
# drifts give alpha = 1 exactly, and it is configurable everywhere.
OPTIONS = {
    "mu_i": Option(float, 0.4, _PAIR, "drift of asset i (the traded twin)"),
    "mu_j": Option(float, 0.8, _PAIR, "drift of asset j"),
    "sigma_i": Option(float, 0.2, _PRICED, "volatility of asset i"),
    "sigma_j": Option(float, 0.4, (*_PAIR, "asset", "option", "horizon-compare"),
                      "volatility of asset j"),
    "spot_i": Option(float, 80.0, _PRICED, "spot price of asset i"),
    "spot_j": Option(float, 90.0, _PRICED, "spot price of asset j"),
    "rho": Option(float, 1.0, _PAIR, "return correlation"),
    "alpha": Option(lambda text: _check_alpha(float(text)), None, _PAIR,
                    "set similarity ratio directly (in place of --mu-j)"),
    "steps": Option(int, 252, ("simulate",), "number of time steps"),
    "dt": Option(float, ONE_DAY, ("simulate",), "step size in years"),
    "horizon": Option(float, ONE_DAY, ("asset", "sigma-sweep"), "prediction horizon (years)"),
    "n": Option(_positive(int), None, ("price", *_MAPE),
                "number of replications (per cell in mape)"),
    "strike": Option(float, 90.0, ("price", "option"), "call strike"),
    "rate": Option(float, 0.05, ("price", "option"), "risk-free rate"),
    "maturity": Option(float, 0.25, ("price", "option"), "call maturity (years)"),
    "seed": Option(int, 12345, _ALL, "master seed"),
    "threads": Option(_threads, 1, _MAPE, "worker threads or 'auto'"),
    "mode": Option(str, "asset", _MAPE, "one of " + ", ".join(_MODES)),
    "rho_grid": Option(_each(_check_rho), _values("-1:1:21"), _MAPE, "'lo:hi:count' or comma list"),
    "alpha_grid": Option(_each(_check_alpha), _values("0.5:1.5:21"), _MAPE,
                         "'lo:hi:count' or comma list"),
    "sigma_j_values": Option(_each(_check_sigma), _values("0.2,0.4,0.6"), ("sigma-sweep",),
                             "comma list of sigma_j values"),
    "out": Option(str, None, _ALL, "output file (default: stdout)"),
    "config": Option(str, None, _ALL, "key = value config file"),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _read_config(path: str) -> dict:
    """Read a `key = value` config file (lines starting with # ignored) into
    {key: (text, label)}, the label `{path}:{lineno}: key`. Nothing is
    converted here; a key that is unknown, `config` or set twice is an error."""
    with open(path, encoding="utf-8") as fh, naming(path):  # a file that is not UTF-8
        lines = list(fh)
    values = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidParameterError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in OPTIONS or key == "config":  # config files do not nest
            raise InvalidParameterError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            first = values[key][1].rpartition(":")[0]
            raise InvalidParameterError(f"{path}:{lineno}: {key}: already set at {first}")
        values[key] = (value.strip(), f"{path}:{lineno}: {key}")
    return values


def _merged_options(args: argparse.Namespace) -> dict:
    """Flag > config file > built-in default, per key. The reader is the
    subcommand or, under `mape`, the mode; it reads the options that list
    it, except `mu_j` when `alpha`, which sets mu_j, is given. A read
    option's text, from its flag or config line, is converted here and only
    here, and a conversion error names that flag or line; `sources` maps
    each converted key to that name. A config file may set any known key,
    so one file can serve every subcommand; a key that the reader does not
    read keeps its default and is not converted. Such a flag is a usage
    error."""
    flags = {k: (v, _flag(k)) for k, v in vars(args).items() if k in OPTIONS and v is not None}
    given = {**(_read_config(args.config) if args.config else {}), **flags}  # key: (text, source)
    reader = args.command
    if reader == "mape":
        reader = given.get("mode", (OPTIONS["mode"].default,))[0]
        if reader not in _MODES:
            raise InvalidParameterError(f"unknown mape mode {reader!r}")
    merged, sources = {}, {}
    for name, opt in OPTIONS.items():
        read = reader in opt.readers and not (name == "mu_j" and "alpha" in given)
        if name in flags and not read:
            where = f"mape --mode {reader}" if reader in _MODES else f"{reader} with alpha set"
            raise InvalidParameterError(f"{_flag(name)} is not read by {where}")
        merged[name] = opt.default
        if read and name in given:
            text, sources[name] = given[name]
            with naming(sources[name]):
                merged[name] = opt.type(text)
    merged["sources"] = sources
    return merged


def _build_pair(opts: dict) -> TwinPair:
    """The pair of the options, with the defaults of those a `mape` mode does
    not read; alpha, when given, then sets mu_j, so other faults are named as
    without it, and a mu_j that overflows is named by alpha's flag or line."""
    with naming("asset i"):
        asset_i = AssetParams(mu=opts["mu_i"], sigma=opts["sigma_i"], spot=opts["spot_i"])
    with naming("asset j"):
        asset_j = AssetParams(mu=opts["mu_j"], sigma=opts["sigma_j"], spot=opts["spot_j"])
    pair = TwinPair(asset_i=asset_i, asset_j=asset_j, rho=opts["rho"])
    if opts["alpha"] is not None:
        # alpha = sigma_i*mu_j/(sigma_j*mu_i) solved for mu_j
        mu_j = opts["alpha"] * asset_j.sigma * asset_i.mu / asset_i.sigma
        if not math.isfinite(mu_j):
            raise InvalidParameterError(f"{opts['sources']['alpha']}: mu_j = "
                                        f"alpha*sigma_j*mu_i/sigma_i must be finite, got {mu_j}")
        pair = replace(pair, asset_j=replace(asset_j, mu=mu_j))
    return pair


_SIMULATE_HEADER = ("t", "s_i", "s_j", "s_j_predicted")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _rows(*columns):
    """CSV rows of equal-length 1-D arrays, row k their element k, as `_fmt`'s
    `%.17g`; yielded as text chunks, so the caller joins them once."""
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    # 4096 rows at a time: all rows at once as Python floats add ~10 MiB of peak memory
    for start in range(0, len(columns[0]), 4096):
        rows = zip(*(column[start : start + 4096].tolist() for column in columns))
        yield "".join(line % row for row in rows)


def _write_output(text: str, out_path: str | None) -> None:
    # Built fully in memory first: a failed run leaves no partial file.
    if out_path is None:
        sys.stdout.write(text)
        return
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def run_simulate(opts: dict) -> str:
    pair = _build_pair(opts)
    a = alpha(pair)
    steps, dt = opts["steps"], opts["dt"]
    times, path_i, path_j = simulate_paths(pair, steps, dt, opts["seed"])

    # Predicted trajectory: at each grid time t, apply the twin relation
    # from t=0 over horizon t, with the fresh noises accumulated as
    # independent random walks so the prediction is a coherent path.
    draw = NoiseDraw.sample(substream(opts["seed"], STREAM_DRAWS), steps)
    w_x = np.cumsum(np.sqrt(dt) * draw.z_x)
    w_y = np.cumsum(np.sqrt(dt) * draw.z_y)
    del draw  # not held through the output text, the run's peak
    # the walks already carry the sqrt(t) scaling, so B takes tau = 1
    log_b = stochastic_term(pair, a, 1.0, w_x, w_y)
    predicted = np.empty(steps + 1)
    predicted[0] = pair.asset_j.spot
    predicted[1:] = predict_twin(pair, a, times[1:], path_i[1:], log_b)

    columns = (times, path_i, path_j, predicted)
    table = np.column_stack(columns)
    valid = np.isfinite(table)
    valid[:, 1:] &= table[:, 1:] > 0
    bad = np.argwhere(~valid)
    if len(bad):
        k, c = bad[0]
        name = _SIMULATE_HEADER[c]
        raise NumericalError(
            f"non-finite or non-positive {name} at step {k}, t={_fmt(times[k])}: "
            f"{name}={table[k, c]} (alpha = {a!r})"
        )
    return "".join([",".join(_SIMULATE_HEADER) + "\n", *_rows(*columns)])


def run_price(opts: dict) -> str:
    pair = _build_pair(opts)
    a = alpha(pair)
    spec = OptionSpec(strike=opts["strike"], maturity=opts["maturity"], rate=opts["rate"])
    n = opts["n"] or 10000

    bs_price = bs_call(pair.asset_j.spot, spec, pair.asset_j.sigma)
    draw = NoiseDraw.sample(substream(opts["seed"], STREAM_PRICE), n)
    log_b = stochastic_term(pair, a, spec.maturity, draw.z_x, draw.z_y)
    mean, std = _mean_std(twin_call(pair, a, spec, log_b))
    mean, se = float(mean), float(std / np.sqrt(n))
    if not (np.isfinite(mean) and np.isfinite(se)):
        raise NumericalError(
            f"non-finite twin price at alpha = {a!r}, rho = {pair.rho!r}: "
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
    mode, threads = opts["mode"], opts["threads"]
    pair = _build_pair(opts)
    grid = GridSpec(rho_values=opts["rho_grid"], alpha_values=opts["alpha_grid"],
                    n_replications=opts["n"] or _MODES[mode][0], horizon=opts["horizon"],
                    master_seed=opts["seed"])

    if mode == "asset":
        runs = [(mape_asset(pair, grid, threads=threads), ())]
    elif mode == "option":
        spec = OptionSpec(strike=opts["strike"], maturity=opts["maturity"], rate=opts["rate"])
        runs = [(mape_option(pair, spec, grid, threads=threads), ())]
    elif mode == "sigma-sweep":
        sigmas = opts["sigma_j_values"]
        # every swept pair is built, and so checked, before any grid runs
        swept = [replace(pair, asset_j=replace(pair.asset_j, sigma=s)) for s in sigmas]
        runs = [(mape_asset(p, grid, threads=threads), (s,)) for s, p in zip(sigmas, swept)]
    else:  # horizon-compare
        runs = [(mape_asset(pair, replace(grid, horizon=h), threads=threads), (h,))
                for h in (ONE_DAY, ONE_MONTH)]

    # one row per (rho, alpha) cell, rho outer, as each grid is laid out
    cells = np.meshgrid(grid.rho_values, grid.alpha_values, indexing="ij")
    rho_column, alpha_column = (values.ravel() for values in cells)
    text = ["rho,alpha,mape,se" + _MODES[mode][1] + "\n"]
    for (mape, se), extra in runs:
        extra_columns = (np.full(rho_column.size, value) for value in extra)
        text += _rows(rho_column, alpha_column, mape.ravel(), se.ravel(), *extra_columns)
    return "".join(text)


def build_parser() -> argparse.ArgumentParser:
    description = "Twin-asset Monte Carlo simulation, pricing, and MAPE experiments."
    parser = argparse.ArgumentParser(prog="twinassets", description=description)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, readers) in _COMMANDS.items():
        # no prefix matching: `mape --rho` must not be read as --rho-grid
        p_command = sub.add_parser(command, help=summary, allow_abbrev=False)
        for key, opt in OPTIONS.items():
            reading = [reader for reader in readers if reader in opt.readers]
            if reading:  # any of the subcommand's readers reads it
                some = f" (modes: {', '.join(reading)})" if len(reading) < len(readers) else ""
                p_command.add_argument(_flag(key), help=opt.help + some)
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
        _write_output(text, opts["out"])
    except NumericalError as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 4
    except (ValueError, MemoryError) as exc:
        print(f"error: validation: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
