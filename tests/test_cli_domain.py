"""Domain gate of the CLI: `cli.main(argv)` in-process, for every
subcommand, with its inputs drawn at and beyond the edges of the model's
domain.

Whatever the inputs, a run exits 0, 2, 3 or 4 and lets no exception
escape. On exit 0 every number it writes is finite and stderr is empty.
On any other exit nothing is written to stdout, and on exit 4 stderr
names the parameters, the grid cell, the `simulate` step or the
Black-Scholes benchmark that failed.
"""

import contextlib
import io
import math
import re
import shlex

from hypothesis import example, given, settings
from hypothesis import strategies as st

from twinassets.cli import main


def log_uniform(lo: float, hi: float):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


def domain(inside, at, beyond):
    """A value of `inside` three times in four, else one `at` or just
    `beyond` the edge of the domain."""
    return st.integers(0, 3).flatmap(lambda k: inside if k else st.sampled_from(at + beyond))


VOL = domain(log_uniform(1e-4, 30.0), [30.0, 1e-8], [31.0, 0.0, -0.2,
             # sigma**2 of a Python float overflows from about 1.34e154 on
             1e155])
ALPHA = domain(log_uniform(1e-3, 400.0), [400.0, 1.0], [401.0, 0.0, -1.0])
RHO = domain(st.floats(-1.0, 1.0), [-1.0, 1.0, -1.0 + 1e-9, 1.0 - 1e-9],
             [math.nextafter(1.0, 2.0), -1.0000001])
TIME = domain(log_uniform(1e-8, 50.0), [1e-8, 50.0], [0.0, -1.0])
PRICE = domain(log_uniform(1e-8, 1e8), [1e-8, 1e8], [0.0, -1.0])
DRIFT = domain(st.floats(-2.0, 2.0), [1e-4, -0.4], [0.0])
RATE = domain(st.floats(-0.5, 0.5), [0.0], [-50.0])
N = st.sampled_from([1, 2, 200])
SEED = st.integers(0, 2**31)

# the asset options of the twin price, in which S_i cancels; a `mape` asset
# cell reads sigma_j alone
PRICED = {"sigma_i": VOL, "sigma_j": VOL, "spot_j": PRICE}
PAIR = {**PRICED, "rho": RHO, "seed": SEED}
OPTION = {"strike": PRICE, "rate": RATE, "maturity": TIME}


def values(strategy):
    """A comma list of one or two values: a one- or two-entry grid."""
    return st.lists(strategy, min_size=1, max_size=2).map(lambda vs: ",".join(map(repr, vs)))


def argv_of(command: str, flags: dict) -> list[str]:
    # `--flag=value`, so that a negative value is not read as a flag
    return [command] + [f"--{key.replace('_', '-')}={value}" for key, value in flags.items()]


def simulate_argv():
    similarity = st.one_of(st.fixed_dictionaries({"alpha": ALPHA}),
                           st.fixed_dictionaries({"mu_j": DRIFT}))
    flags = st.fixed_dictionaries({**PAIR, "mu_i": DRIFT, "spot_i": PRICE,
                                   "steps": st.sampled_from([1, 2, 200]), "dt": TIME})
    return st.builds(lambda f, s: argv_of("simulate", {**f, **s}), flags, similarity)


def price_argv():
    # `price` given alpha reads no drift, so --mu-i beside it exits 2; the run
    # without it is drawn too
    similarity = st.one_of(st.fixed_dictionaries({"alpha": ALPHA}),
                           st.fixed_dictionaries({"alpha": ALPHA, "mu_i": DRIFT}),
                           st.fixed_dictionaries({"mu_i": DRIFT, "mu_j": DRIFT}))
    flags = st.fixed_dictionaries({**PAIR, **OPTION, "n": N})
    return st.builds(lambda f, s: argv_of("price", {**f, **s}), flags, similarity)


def mape_argv():
    # each mode draws exactly the flags it reads: any other exits 2 at the gate
    grid = {"seed": SEED, "rho_grid": values(RHO), "alpha_grid": values(ALPHA), "n": N,
            "threads": st.sampled_from([1, 2])}
    by_mode = {
        "asset": {"sigma_j": VOL, "horizon": TIME},
        "option": {**PRICED, **OPTION},
        "sigma-sweep": {"sigma_j_values": values(VOL), "horizon": TIME},
        "horizon-compare": {"sigma_j": VOL},
    }
    return st.one_of([
        st.fixed_dictionaries({**grid, **extra}).map(
            lambda flags, mode=mode: argv_of("mape", {"mode": mode, **flags}))
        for mode, extra in by_mode.items()
    ])


# Commands of the FOUND/MENDED lines in CHANGES.md, inputs that give a
# zero Black-Scholes benchmark, and inputs that ended in a Python
# traceback before 0.5.1
RECORDED = [
    "price --alpha 40 --rho 0 --sigma-i 0.05 --sigma-j 3 --maturity 2",
    "simulate --alpha 400 --steps 5",
    "mape --rho-grid 0 --alpha-grid 1,5 --sigma-j 30 --horizon 2",
    "mape --mode option",
    "mape --mode option --horizon 0.1",
    "mape --n 0 --rho-grid 1 --alpha-grid 1",
    "price --n 0 --seed 1",
    "mape --mode asset --threads 2",
    "price",
    "mape --rho-grid 0 --alpha-grid nan",
    "price --strike inf",
    "mape --threads 0 --rho-grid 0 --alpha-grid 1",
    "mape --threads abc",
    "mape --rho-grid 0:1:x",
    "mape --mode option --spot-j 1e-8",
    "mape --mode option --strike 1e300",
    "mape --mode option --rate -50",
    "price --sigma-j 1e155",
    "simulate --sigma-i 1e155 --steps 2",
    "mape --mode option --sigma-j 1e155 --rho-grid 0 --alpha-grid 1 --n 10",
    # sigma_j*mu_i rounds to 0, alpha's denominator
    "price --mu-i 5e-324",
    "simulate --mu-i 5e-324 --steps 2",
    # ... which mape, reading no drift, no longer rejects (exit 2 before 0.6.1)
    "mape --mode option --sigma-j 5e-324 --rho-grid 0 --alpha-grid 1 --n 2",
    "mape --mode sigma-sweep --sigma-j-values 0.2,5e-324 --rho-grid 0 --alpha-grid 1 --n 10",
    # alpha infinite, or finite with mu_j overflowing (unnamed before 0.6.1);
    # since 0.8.1 only `simulate` forms mu_j, and `price` reads no drift with alpha
    "price --alpha inf",
    "price --alpha 1e308 --sigma-j 30",
    "simulate --alpha 1e308 --sigma-j 30 --steps 2",
    "price --alpha 1 --mu-i 1e300 --sigma-i 1e-10",
    # a grid cell's mu_j overflowed (exit 2 after the draw, unnamed, before
    # 0.5.2), or rounded to 0 and gave the option cell alpha = 0 (exit 2,
    # named, before 0.6.0); without the flags that mape no longer reads, the
    # cells now run at their alpha labels
    "mape --rho-grid 0 --alpha-grid 1,1e10 --n 2",
    "mape --mode option --sigma-i 1e-300 --rho-grid 0 --alpha-grid 1,1e10 --n 2",
    "mape --mode option --sigma-j 1e-10 --sigma-i 1e10 --rho-grid 0 --alpha-grid 1e-10,1 --n 2",
    "mape --mode asset --sigma-j 1e-10 --rho-grid 0 --alpha-grid 1e-10,1 --n 2",
    # 1e15 doubles (7.1 PiB) exceed the x86-64 user address space, so numpy
    # fails before it allocates anything (a traceback and exit 1 before 0.5.6)
    "price --n 1000000000000000",
    "simulate --steps 1000000000000000",
    "mape --n 1000000000000000 --rho-grid 0 --alpha-grid 1",
    "mape --rho-grid 0:1:1000000000000000 --alpha-grid 1 --n 2",
]

NAMED_FAILURE = re.compile(
    r"error: numerical: (non-finite twin price at alpha = \S+, rho = "
    r"|non-finite MAPE at rho=\S+, alpha="
    r"|non-finite or non-positive \w+ at step \d+, t="
    r"|Black-Scholes benchmark c_j = ).*\n"
)


def recorded(test):
    for command in reversed(RECORDED):
        test = example(argv=shlex.split(command))(test)
    return test


def numbers(command: str, text: str) -> list[str]:
    """Every numeric field of a run's output: the key=value values of
    `price`, the CSV rows below the header otherwise."""
    lines = text.splitlines()
    if command == "price":
        return [line.split("=", 1)[1] for line in lines]
    return [field for line in lines[1:] for field in line.split(",")]


@settings(max_examples=300, deadline=None)
@given(argv=st.one_of(simulate_argv(), price_argv(), mape_argv()))
@recorded
def test_exit_is_clean(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3, 4), err
    if code == 0:
        assert err == ""
        fields = numbers(argv[0], out)
        assert fields and all(math.isfinite(float(field)) for field in fields), out
        return
    assert out == ""
    if code == 4:
        assert NAMED_FAILURE.fullmatch(err), err
