"""Golden SHA-256 of the CLI output of the byte-gate and README commands.

Each command runs in-process through `cli.main` with `--out` to a
temporary file; the hash is that file's bytes (empty when the command
exits non-zero and writes nothing). The hashes were recorded with
Python 3.11.7, numpy 2.4.6 and scipy 1.17.1 on an x86-64 Intel Xeon
with AVX-512F. Another numpy build or CPU may round a libm call
differently and so change last digits, which these tests then report.

Version 0.3.0 evaluates the twin relation in log space. That changed the
last digits of `price`, `mape --mode option` and `simulate`, and nothing
else. The earlier values are reproduced here by the product form
A*B*S_i^e that 0.2.0 computed: patched into the CLI, it must still give
each command's 0.2.0 hash, and the 0.3.0 values must agree with it to
1e-13 relative.

Since 0.3.0 a cell or `price` run whose stochastic term is identically 0
((rho, alpha) = (1, 1)) reports an SE of exactly 0, not rounding noise.
Of the pinned outputs this moved one field, the (1, 1) `se` of the option
grid; `test_deterministic_se_is_the_only_change_since_0_3_0` checks that.
"""

import hashlib
import math
import shlex
import warnings

import numpy as np
import pytest

from twinassets import cli, harness
from twinassets.pricing import normal_cdf
from twinassets.twin import alpha
from test_cli import readme_commands

EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
OPTION_GRID = ("mape --rho-grid=-1:1:21 --alpha-grid 0.5:1.5:21 --mode option --n 10000 "
               "--threads 1 --seed 1234567")
MINUTE_PATH = ("simulate --rho 0.8 --alpha 1.1 --steps 98280 --dt 0.000010175010175010176 "
               "--seed 1234567")

# argv: (exit code, SHA-256 now, SHA-256 in 0.2.0 where it differs)
GOLDEN = {
    "simulate --rho 1 --alpha 1 --seed 42": (
        0, "84717cd5e0101b5db69a8cfaf7299b701f6f1420215ad94a26b1c52fc61739c4",
        "940f1e5d551f60d93b0d5b8830ce324d05802fc67122c9f7553d97535343716c"),
    "price --alpha 1.1 --rho 0.8 --n 10000 --seed 42": (
        0, "eb6db2b0512b13be2ee92a8d1da0837dde19e913f9e8bff00a19ffb6417ddb48",
        "0a2cf20ec75315935314dd77fa8f697b44c2e10d8b75d412f588f0f510f9fccc"),
    "mape --mode asset --rho-grid=-1:1:21 --alpha-grid 0.5:1.5:21 --n 40000 --seed 42 "
    "--threads 4": (
        0, "19ffc71ac3e80e5cf4e0ce531ff8fd5517e8bc3294060e259946716184c9d9a0", None),
    "mape --rho-grid=-1:1:21 --alpha-grid 0.5:1.5:21 --mode asset --n 40000 --threads 2 "
    "--seed 1234567": (
        0, "74a3df50d65b8cd034dfec0be218f744dc8736bfeb62afc52418fc0d58bcd3c4", None),
    OPTION_GRID: (
        0, "b183eaafb25ad2cb605a6b6ffda40fce9509bc0f8e20a2295a420be2875b45f2",
        "7b20663fb169b07a00d06148e3e7d994faed78be9ead907d95dd8bc0a7e64f63"),
    MINUTE_PATH: (
        0, "d0af3e11d26637c7c435be8e29620489f68ac38f9f11ebe378296fa4adda6f08",
        "732413c6a70eaf7306ffd354bbb44252802653ea6fec5df39338839eb799b4d6"),
    "mape --mode sigma-sweep --rho-grid=-1:1:5 --alpha-grid 0.5:1.5:5 "
    "--sigma-j-values 0.2,0.4,0.6 --n 2000 --seed 7": (
        0, "0743a3410d244baf704d71983ccbda47c9e554a43ce404ebba6e6af75c92f766", None),
    "mape --mode horizon-compare --rho-grid=-1:1:5 --alpha-grid 0.5:1.5:5 --n 2000 --seed 7": (
        0, "e9ed07c6ba63b49fc13d3452e334c9618200366696a8150341c437512eb9d2a9", None),
    "price": (
        0, "537d60bed63263b3bbbc3a37cec9cf2a1e6160fb15812d02b5bce088a978df66",
        "d260558ec0c734c7cf52e6fc0266f1fd380c488157f98cda1c467b8b281971b5"),
    "simulate": (
        0, "aa66c4a84caf3d78c54d2f8955e5e6c6c0906543a660693886bdef270cadd5b3",
        "f6b83d4ba69078345801cf667304b9ef5890e23babcdaf3fdc73079160b8cb8a"),
    "mape --rho-grid 0 --alpha-grid 1,5 --sigma-j 30 --horizon 2": (4, EMPTY, None),
    "price --alpha 40 --rho 0 --sigma-i 0.05 --sigma-j 3 --maturity 2": (4, EMPTY, None),
    "mape --mode option --rho-grid 0 --alpha-grid 40 --sigma-i 0.05 --sigma-j 3 "
    "--maturity 2 --n 100": (4, EMPTY, None),
    # exit 4 in 0.2.0: S_i**e overflowed; the log sum is finite
    "simulate --alpha 400 --steps 5": (
        0, "03f4294d34b82d4548d6752f9884554afdf259e2239ea1f4113dc6f466d29c95", None),
}
OPTION_GRID_0_3_0 = "d3270a189f1261eee7080bc7aa96591c1a29dae91793c24e875215d2f2d2d729"
_mean_std = harness._mean_std


def run(argv: str, tmp_path) -> tuple[int, bytes]:
    out = tmp_path / "out"
    code = cli.main([*shlex.split(argv), "--out", str(out)])
    return code, out.read_bytes() if out.exists() else b""


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def product_form_twin_call(pair, spec, draw):
    """The 0.2.0 twin call: A*B*S_i^e*growth*N(g1) - A*B*K_i*e^(-r*tau)*N(g2)
    with K_i = K/(A*B), A and B exponentiated on their own."""
    a = alpha(pair)
    tau, rate = spec.maturity, spec.rate
    sig_i, sig_j = pair.asset_i.sigma, pair.asset_j.sigma
    expo = a * sig_j / sig_i
    log_a = (np.log(pair.asset_j.spot) - expo * np.log(pair.asset_i.spot)
             + 0.5 * sig_j * (a * sig_i - sig_j) * tau)
    sqrt_tau = math.sqrt(tau)
    log_b = (sig_j * (1.0 - pair.rho * a) * draw.z_x * sqrt_tau
             - a * sig_j * math.sqrt(1.0 - pair.rho**2) * draw.z_y * sqrt_tau)
    ab = np.exp(log_a) * np.exp(log_b) * 1.0**expo
    k_i = spec.strike / ab
    g2 = (np.log(pair.asset_i.spot) - (sig_i / (a * sig_j)) * np.log(k_i)
          + (rate - 0.5 * sig_i**2) * tau) / (sig_i * np.sqrt(tau))
    g1 = g2 + a * sig_j * np.sqrt(tau)
    growth = np.exp((expo - 1.0) * (rate + 0.5 * a * sig_j * sig_i) * tau)
    price = (ab * pair.asset_i.spot**expo * growth * normal_cdf(g1)
             - ab * k_i * np.exp(-rate * tau) * normal_cdf(g2))
    return np.maximum(price, 0.0)


def product_form_prediction(pair, times, s_i, log_b):
    """The 0.2.0 per-step loop of `simulate`: A(t)*B*S_i**e in scalar arithmetic."""
    a = alpha(pair)
    sig_i, sig_j = pair.asset_i.sigma, pair.asset_j.sigma
    expo = a * sig_j / sig_i
    predicted = np.empty(len(times))
    for k in range(len(times)):
        log_a = (np.log(pair.asset_j.spot) - expo * np.log(pair.asset_i.spot)
                 + 0.5 * sig_j * (a * sig_i - sig_j) * times[k])
        predicted[k] = np.exp(log_a) * np.exp(log_b[k]) * s_i[k] ** expo
    return predicted


def mean_std_with_noise_se(x, constant=False):
    """`_mean_std` as 0.3.0 and earlier used it: the SE of a run whose
    replications are all equal is formed from the data, as rounding noise."""
    return _mean_std(x)


def without_deterministic_se(patch):
    patch.setattr(harness, "_mean_std", mean_std_with_noise_se)
    patch.setattr(cli, "_mean_std", mean_std_with_noise_se)


def values(data: bytes) -> np.ndarray:
    """The numbers of a key=value record or of a CSV body."""
    lines = data.decode().splitlines()
    if "=" in lines[0]:
        return np.array([float(line.split("=")[1]) for line in lines])
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


@pytest.mark.parametrize("argv", list(GOLDEN))
def test_golden_hash(argv, tmp_path):
    code, data = run(argv, tmp_path)
    expected_code, expected_sha, _ = GOLDEN[argv]
    assert code == expected_code
    assert sha256(data) == expected_sha


def test_readme_commands_are_pinned():
    for argv in readme_commands():
        if "--out" in argv:
            k = argv.index("--out")
            argv = argv[:k] + argv[k + 2:]
        assert shlex.join(argv) in GOLDEN


@pytest.mark.parametrize("argv, module, name, replacement", [
    pytest.param(argv, module, name, replacement, id=argv)
    for argv, module, name, replacement in [
        ("price --alpha 1.1 --rho 0.8 --n 10000 --seed 42", cli, "twin_call",
         product_form_twin_call),
        ("price", cli, "twin_call", product_form_twin_call),
        (OPTION_GRID, harness, "twin_call", product_form_twin_call),
        ("simulate --rho 1 --alpha 1 --seed 42", cli, "predict_twin", product_form_prediction),
        ("simulate", cli, "predict_twin", product_form_prediction),
        (MINUTE_PATH, cli, "predict_twin", product_form_prediction),
    ]
])
def test_log_space_within_1e13_of_product_form(argv, module, name, replacement,
                                                tmp_path, monkeypatch):
    _, new = run(argv, tmp_path)
    with monkeypatch.context() as patch:
        patch.setattr(module, name, replacement)
        without_deterministic_se(patch)
        _, old = run(argv, tmp_path)
    assert sha256(old) == GOLDEN[argv][2]

    new, old = values(new), values(old)
    # An SE is compared on the scale of the estimate it belongs to: where
    # every replication is the same, as at (rho, alpha) = (1, 1), it is
    # rounding noise alone (1.8e-17 in the product form of `price`, 0 now).
    scale = np.abs(old)
    if argv == OPTION_GRID:
        scale[:, 3] = np.maximum(scale[:, 3], scale[:, 2])  # se and mape
    elif argv.startswith("price"):
        scale[2] = max(scale[2], scale[1])  # twin_price_se and twin_price_mean
    assert np.all(np.abs(new - old) <= 1e-13 * scale)


def test_deterministic_se_is_the_only_change_since_0_3_0(tmp_path, monkeypatch):
    _, new = run(OPTION_GRID, tmp_path)
    with monkeypatch.context() as patch:
        without_deterministic_se(patch)
        _, old = run(OPTION_GRID, tmp_path)
    assert sha256(old) == OPTION_GRID_0_3_0
    old_rows = old.decode().splitlines(keepends=True)
    # after the header, rows run over alpha within rho: (1, 1) is row 20*21 + 10
    k = 1 + 20 * 21 + 10
    assert old_rows[k] == "1,1,8.4834888686090473,1.3878481749250887e-17\n"
    old_rows[k] = "1,1,8.4834888686090473,0\n"
    assert new == "".join(old_rows).encode()


@pytest.mark.parametrize("argv", [argv for argv, (code, _, _) in GOLDEN.items() if code == 4] + [
    "mape --mode asset --rho-grid 0 --alpha-grid 1,400 --sigma-j 30 --horizon 50 --threads 2 "
    "--n 100",
])
def test_numerical_error_without_numpy_warnings(argv, tmp_path, capsys):
    # the exit-4 diagnostic is the only report, also from pool workers
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, data = run(argv, tmp_path)
    assert (code, data) == (4, b"")
    assert capsys.readouterr().err.startswith("error: numerical: ")
    assert [str(w.message) for w in caught] == []
