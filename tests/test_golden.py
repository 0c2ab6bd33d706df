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

Version 0.5.0 draws two normals per replication instead of four, which
gave every `mape` mode and every `price` run with a random log B new
values. The product-form and deterministic-SE comparisons run on the new
stream; the 0.2.0 and 0.3.0 hashes of the re-streamed commands are gone,
since no code produces them any more. `simulate` kept its bytes.
"""

import hashlib
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

# argv: (exit code, SHA-256 now, SHA-256 in 0.2.0 where it differs and
# 0.5.0 kept the random stream)
GOLDEN = {
    "simulate --rho 1 --alpha 1 --seed 42": (
        0, "84717cd5e0101b5db69a8cfaf7299b701f6f1420215ad94a26b1c52fc61739c4",
        "940f1e5d551f60d93b0d5b8830ce324d05802fc67122c9f7553d97535343716c"),
    "price --alpha 1.1 --rho 0.8 --n 10000 --seed 42": (
        0, "8ced8143652a4febf855e2b4c40045806cf9404afd77bd014e78ee9b5ca4e9ff", None),
    "mape --mode asset --rho-grid=-1:1:21 --alpha-grid 0.5:1.5:21 --n 40000 --seed 42 "
    "--threads 4": (
        0, "80a2a615aabe9239f2a1bd5e5a3bfe4b5025a76b9a11478d5190ec86e39b09ef", None),
    "mape --rho-grid=-1:1:21 --alpha-grid 0.5:1.5:21 --mode asset --n 40000 --threads 2 "
    "--seed 1234567": (
        0, "486cbd92f9e401f914d6e7e50317b8deefc3733128ebcc6ec377e0ba1f09904f", None),
    OPTION_GRID: (
        0, "4619bc341816e656b18e588674a92cfcd856cef1a4828b1d41b21648832c5b2b", None),
    MINUTE_PATH: (
        0, "d0af3e11d26637c7c435be8e29620489f68ac38f9f11ebe378296fa4adda6f08",
        "732413c6a70eaf7306ffd354bbb44252802653ea6fec5df39338839eb799b4d6"),
    "mape --mode sigma-sweep --rho-grid=-1:1:5 --alpha-grid 0.5:1.5:5 "
    "--sigma-j-values 0.2,0.4,0.6 --n 2000 --seed 7": (
        0, "9493271ec8958722cb0ab5fa80b763b4344e585a2076195fda104a90a19beadc", None),
    "mape --mode horizon-compare --rho-grid=-1:1:5 --alpha-grid 0.5:1.5:5 --n 2000 --seed 7": (
        0, "3bb9ef221ba3d21c9658d4a05012e1dd7a443dda21953187d4271c7aad072e87", None),
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


def run(argv: str, tmp_path) -> tuple[int, bytes]:
    out = tmp_path / "out"
    code = cli.main([*shlex.split(argv), "--out", str(out)])
    return code, out.read_bytes() if out.exists() else b""


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def product_form_twin_call(pair, spec, log_b):
    """The 0.2.0 twin call: A*B*S_i^e*growth*N(g1) - A*B*K_i*e^(-r*tau)*N(g2)
    with K_i = K/(A*B), A and B exponentiated on their own."""
    a = alpha(pair)
    tau, rate = spec.maturity, spec.rate
    sig_i, sig_j = pair.asset_i.sigma, pair.asset_j.sigma
    expo = a * sig_j / sig_i
    log_a = (np.log(pair.asset_j.spot) - expo * np.log(pair.asset_i.spot)
             + 0.5 * sig_j * (a * sig_i - sig_j) * tau)
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


def mean_std_with_noise_se(x):
    """`_mean_std` as 0.3.0 and earlier computed it: the SE of a run whose
    replications are all equal is formed from the data, as rounding noise."""
    return np.mean(x), np.std(x, ddof=1)


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
    if GOLDEN[argv][2] is not None:
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
    old_rows = old.decode().splitlines(keepends=True)
    # after the header, rows run over alpha within rho: (1, 1) is row 20*21 + 10
    k = 1 + 20 * 21 + 10
    assert old_rows[k] == "1,1,8.4834888686090473,1.3878481749250887e-17\n"
    old_rows[k] = "1,1,8.4834888686090473,0\n"
    assert new == "".join(old_rows).encode()


# every cell overflows, in pool workers too
POOL_OVERFLOW = ("mape --mode asset --rho-grid 0 --alpha-grid 1,400 --sigma-j 30 --horizon 50 "
                 "--threads 2 --n 100")
# the full stderr line of each exit-4 command, after "error: numerical: "
EXIT_4_STDERR = {
    "mape --rho-grid 0 --alpha-grid 1,5 --sigma-j 30 --horizon 2":
        "non-finite MAPE at rho=0.0, alpha=5.0: mape=inf, se=nan",
    "price --alpha 40 --rho 0 --sigma-i 0.05 --sigma-j 3 --maturity 2":
        "non-finite twin price at alpha = 39.99999999999999, rho = 0.0: mean=inf, se=nan",
    "mape --mode option --rho-grid 0 --alpha-grid 40 --sigma-i 0.05 --sigma-j 3 "
    "--maturity 2 --n 100":
        "non-finite MAPE at rho=0.0, alpha=40.0: mape=inf, se=nan",
    POOL_OVERFLOW: "non-finite MAPE at rho=0.0, alpha=1.0: mape=inf, se=nan",
}


@pytest.mark.parametrize("argv", [argv for argv, (code, _, _) in GOLDEN.items() if code == 4] + [
    POOL_OVERFLOW,
])
def test_numerical_error_without_numpy_warnings(argv, tmp_path, capsys):
    # the exit-4 diagnostic is the only report, also from pool workers
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, data = run(argv, tmp_path)
    assert (code, data) == (4, b"")
    assert capsys.readouterr().err == f"error: numerical: {EXIT_4_STDERR[argv]}\n"
    assert [str(w.message) for w in caught] == []
