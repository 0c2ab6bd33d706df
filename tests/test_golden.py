"""Golden SHA-256 of the CLI output of the byte-gate and README commands.

Each command runs in-process through `cli.main` with `--out` to a
temporary file; the hash is that file's bytes (empty when the command
exits non-zero and writes nothing). The hashes were recorded with
Python 3.11.7, numpy 2.4.6 and scipy 1.17.1 on an x86-64 Intel Xeon
with AVX-512F.

numpy dispatches `exp`, `log` and `expm1` to code for the CPU it runs on,
and its AVX-512 code rounds some results differently from its AVX2 code.
So each command has two pins: one for numpy's AVX-512 path, and one for
the path it takes with `NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL
X86_V4"`, as on an x86-64 CPU without AVX-512. Which pin applies is told by
a fingerprint, the hash of `np.exp`, `np.log` and `np.expm1` on a fixed
vector (`np.sqrt` rounds alike on both paths). The AVX-512 path checks
its pins in this process; `test_golden_hash_with_avx512_off` runs the
whole set in a child interpreter with that variable, which acts on the
child alone, and checks the other pins. `test_dispatch_paths_agree`
bounds the distance of the two paths' values in ulps, so a difference of
libm path is told from a change of the program on any machine. Other
paths cannot be reached here: another numpy build, an ARM CPU or an x86
CPU without AVX2 may round otherwise, and then the hash tests fail with
the unknown fingerprint while the ulp bound still applies.

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

Version 0.6.0 evaluates each `mape` cell at its alpha label. 0.5.8 set
mu_j from the label and formed alpha back from the drifts, which moved
some labels by an ulp. That round trip, patched into the grids, must
still give each `mape` command's 0.5.8 hash; the 0.6.0 values must agree
with it to 1e-13 relative, and only rows whose label did not survive the
round trip may differ (`test_exact_alpha_is_the_only_change_since_0_5_8`).

Version 0.7.0 prices the twin call as Black-Scholes at the twin's spot and
volatility, a form in which S_i cancels. That changed the last digits of
`price` and `mape --mode option`, and nothing else. The 0.3.0 to 0.6.1
twin call is kept here as `log_space_twin_call`: patched into the CLI, it
must still give the 0.6.1 hashes (`LOG_SPACE_0_6_1`), the 0.7.0 values
must agree with it to 1e-13 relative, and every other golden command must
give the same bytes with it (`test_black_scholes_form_is_the_only_change_since_0_6_1`).
The 0.5.8 and 0.3.0 comparisons run on it, since their pins were taken
on it.
"""

import functools
import hashlib
import json
import os
import shlex
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from twinassets import AssetParams, TwinPair, cli, harness, pricing
from twinassets.pricing import normal_cdf
from twinassets.twin import alpha, deterministic_term, twin_exponent
from test_cli import readme_commands

EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
OPTION_GRID = ("mape --rho-grid=-1:1:21 --alpha-grid 0.5:1.5:21 --mode option --n 10000 "
               "--threads 1 --seed 1234567")
MINUTE_PATH = ("simulate --rho 0.8 --alpha 1.1 --steps 98280 --dt 0.000010175010175010176 "
               "--seed 1234567")
ASSET_GRID = ("mape --mode asset --rho-grid=-1:1:21 --alpha-grid 0.5:1.5:21 --n 40000 --seed 42 "
              "--threads 4")
ASSET_GRID_2 = ("mape --rho-grid=-1:1:21 --alpha-grid 0.5:1.5:21 --mode asset --n 40000 "
                "--threads 2 --seed 1234567")
SIGMA_SWEEP = ("mape --mode sigma-sweep --rho-grid=-1:1:5 --alpha-grid 0.5:1.5:5 "
               "--sigma-j-values 0.2,0.4,0.6 --n 2000 --seed 7")
HORIZON_COMPARE = ("mape --mode horizon-compare --rho-grid=-1:1:5 --alpha-grid 0.5:1.5:5 --n 2000 "
                   "--seed 7")

AVX512_OFF = {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"}
# fingerprint of a dispatch path: its index in each pair of pinned hashes
PATHS = {
    "a9fc2e983a3cc5c542b68a38b1aea5c29faaa98091fe5260528f1fa2a97f421a": 0,  # AVX-512
    "5d29e9fab0f8b91a4105204caae9d12694c4485f794bdf261b23c55e46283b49": 1,  # AVX512_OFF
}

# argv: (exit code, (SHA-256 on the AVX-512 path, SHA-256 with AVX512_OFF))
GOLDEN = {
    "simulate --rho 1 --alpha 1 --seed 42": (0, (
        "84717cd5e0101b5db69a8cfaf7299b701f6f1420215ad94a26b1c52fc61739c4",
        "f0b04edb383d16c10d11cfb07ba603256cfc2181bc8ef9843617a6527c176e89")),
    "price --alpha 1.1 --rho 0.8 --n 10000 --seed 42": (0, (
        "766f90abfc75c6bad118083dadab7e5b52f8cbf9e570086c04d9dd835dc03bf1",
        "766f90abfc75c6bad118083dadab7e5b52f8cbf9e570086c04d9dd835dc03bf1")),
    ASSET_GRID: (0, (
        "53552cd71ed5242d3f61b53c781378a55a6bef0efff7e1c490b66365a60d6740",
        "286eb8297188768a1e40d6c763169ff28d5d31ae887ca24aedd95e60c08d2803")),
    ASSET_GRID_2: (0, (
        "25d444274ed81a0a128573b83da7e6b3bd3cf7be0c0e72e5068c99cf2d8b0ca5",
        "50c6cf116f8b838958597e274cc0f4d48faac59d479df3d7b78c7e166252fcf8")),
    OPTION_GRID: (0, (
        "e3c23f5f13e0f103b9ac21629c70ed5fd9fd953f9c4da4fb538f3657aeb1eff1",
        "1c2b8c46c8998db1bf4ee6df24b07fcbe968fb723308a9699271750ab61a5689")),
    MINUTE_PATH: (0, (
        "d0af3e11d26637c7c435be8e29620489f68ac38f9f11ebe378296fa4adda6f08",
        "a2c6d94c84a358b175022c8e7edad62504f329e5139d30094fb825340ba31916")),
    SIGMA_SWEEP: (0, (
        "798521d97fb2fba95f3760bd7cca0892cedeebd9e3b9a7de220427777af3f8b6",
        "de8fdebb6e1e825f98c059e5b9450960ee4063369cefc755a1d7f2c5c96fe05a")),
    HORIZON_COMPARE: (0, (
        "46040d29484b3245f23a831093b65827aceb6cceaab42a7e54c1630c86bb3733",
        "0232945194f429c4a63df4c7b83ae2cf12c554851dc518d6d0cfd07631f8eb05")),
    "price": (0, (
        "c5027d18b1f74b5b54e839d509ff668b80655f4a04aeb85c61f29138750cecc0",
        "c5027d18b1f74b5b54e839d509ff668b80655f4a04aeb85c61f29138750cecc0")),
    "simulate": (0, (
        "aa66c4a84caf3d78c54d2f8955e5e6c6c0906543a660693886bdef270cadd5b3",
        "47557c4922c600b07518795958e7b551d6820eeb8f113a05dd638ef2e56ee2e6")),
    "mape --rho-grid 0 --alpha-grid 1,5 --sigma-j 30 --horizon 2": (4, (EMPTY, EMPTY)),
    "price --alpha 40 --rho 0 --sigma-i 0.05 --sigma-j 3 --maturity 2": (4, (EMPTY, EMPTY)),
    "mape --mode option --rho-grid 0 --alpha-grid 40 --sigma-i 0.05 --sigma-j 3 "
    "--maturity 2 --n 100": (4, (EMPTY, EMPTY)),
    # exit 4 in 0.2.0: S_i**e overflowed; the log sum is finite
    "simulate --alpha 400 --steps 5": (0, (
        "03f4294d34b82d4548d6752f9884554afdf259e2239ea1f4113dc6f466d29c95",
        "03f4294d34b82d4548d6752f9884554afdf259e2239ea1f4113dc6f466d29c95")),
}

# argv: the hashes of 0.2.0 on the two paths, where 0.5.0 kept the random stream
PRODUCT_FORM_0_2_0 = {
    "simulate --rho 1 --alpha 1 --seed 42": (
        "940f1e5d551f60d93b0d5b8830ce324d05802fc67122c9f7553d97535343716c",
        "ee32e10a09312ff758e94a34b953cc09bbbeba90e5aa51f7a82846f341e91b30"),
    MINUTE_PATH: (
        "732413c6a70eaf7306ffd354bbb44252802653ea6fec5df39338839eb799b4d6",
        "90a44c1c6720dc8002fe335835b7f94f7176e8c74ccc5a8fbd63921390f6fcb9"),
    "simulate": (
        "f6b83d4ba69078345801cf667304b9ef5890e23babcdaf3fdc73079160b8cb8a",
        "8794cd21fa0290658b1938e29651c4940aa07a9b81bebcc166c25dcc5207f8f3"),
}

# argv: the hashes of 0.6.1 on the two paths, the commands that 0.7.0 re-pinned
LOG_SPACE_0_6_1 = {
    "price --alpha 1.1 --rho 0.8 --n 10000 --seed 42": (
        "8ced8143652a4febf855e2b4c40045806cf9404afd77bd014e78ee9b5ca4e9ff",
        "8ced8143652a4febf855e2b4c40045806cf9404afd77bd014e78ee9b5ca4e9ff"),
    "price": (
        "537d60bed63263b3bbbc3a37cec9cf2a1e6160fb15812d02b5bce088a978df66",
        "537d60bed63263b3bbbc3a37cec9cf2a1e6160fb15812d02b5bce088a978df66"),
    OPTION_GRID: (
        "ed1e6297305a207bc89b1868f37a443e70993d7af6f44d3d5ae09ca4bfd49916",
        "872142642148d8b38804c2b6c56fafcad64e729ce6384b319fecfe3e8f4e3249"),
}

# argv: the hashes of 0.5.8 on the two paths
ROUND_TRIP_0_5_8 = {
    ASSET_GRID: (
        "80a2a615aabe9239f2a1bd5e5a3bfe4b5025a76b9a11478d5190ec86e39b09ef",
        "1f9449dd77808239cb9204c866df4a3ced6961d26f64f88b0d8327b0621a0abf"),
    ASSET_GRID_2: (
        "486cbd92f9e401f914d6e7e50317b8deefc3733128ebcc6ec377e0ba1f09904f",
        "c4e6d7083db2eb060771ec121f2309084e4140e7961efba4367e56f43a57f6f9"),
    OPTION_GRID: (
        "4619bc341816e656b18e588674a92cfcd856cef1a4828b1d41b21648832c5b2b",
        "8ac84e5dcbd4c4f17e7eaebfecbb3ad23ae446da67b71126db1d6e5f9dc3f455"),
    SIGMA_SWEEP: (
        "9493271ec8958722cb0ab5fa80b763b4344e585a2076195fda104a90a19beadc",
        "ca669e3e8d38afabb19f218f7d8cb6a5320316243a9ae53d7e4a206170d5552c"),
    HORIZON_COMPARE: (
        "3bb9ef221ba3d21c9658d4a05012e1dd7a443dda21953187d4271c7aad072e87",
        "61e438e0e2fe89325364c40212da2555320c3bfef7b36774ace9b819daa10700"),
}

# the largest distance in ulps between the two paths' values, by subcommand;
# measured: 32 on the minute path (15 on the 252-step runs), 0 and 3 (4 on the
# option grid of 0.6.1)
ULPS = {"simulate": 32, "price": 0, "mape": 3}


def run(argv: str) -> tuple[int, bytes]:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        code = cli.main([*shlex.split(argv), "--out", str(out)])
        return code, out.read_bytes() if out.exists() else b""


# each golden command's output, run once per process, unpatched
golden_output = functools.cache(run)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fingerprint() -> str:
    """SHA-256 of np.exp, np.log and np.expm1 over a fixed vector: the
    rounding of the dispatch path that this process's numpy takes."""
    x = np.linspace(0.001, 30.0, 4096)
    return sha256(b"".join(f(x).tobytes() for f in (np.exp, np.log, np.expm1)))


def path_of(digest: str) -> int:
    """Index of the pinned dispatch path whose fingerprint is digest."""
    if digest not in PATHS:
        pytest.fail(f"numpy rounds exp, log and expm1 as on no pinned path (fingerprint "
                    f"{digest}); see the module docstring")
    return PATHS[digest]


def product_form_twin_call(pair, a, spec, log_b):
    """The 0.2.0 twin call: A*B*S_i^e*growth*N(g1) - A*B*K_i*e^(-r*tau)*N(g2)
    with K_i = K/(A*B), A and B exponentiated on their own."""
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


def product_form_prediction(pair, a, times, s_i, log_b):
    """The 0.2.0 per-step loop of `simulate`: A(t)*B*S_i**e in scalar arithmetic."""
    sig_i, sig_j = pair.asset_i.sigma, pair.asset_j.sigma
    expo = a * sig_j / sig_i
    predicted = np.empty(len(times))
    for k in range(len(times)):
        log_a = (np.log(pair.asset_j.spot) - expo * np.log(pair.asset_i.spot)
                 + 0.5 * sig_j * (a * sig_i - sig_j) * times[k])
        predicted[k] = np.exp(log_a) * np.exp(log_b[k]) * s_i[k] ** expo
    return predicted


# argv: the module and function that the product form replaces
PRODUCT_FORM = {
    "price --alpha 1.1 --rho 0.8 --n 10000 --seed 42": (cli, "twin_call", product_form_twin_call),
    "price": (cli, "twin_call", product_form_twin_call),
    OPTION_GRID: (harness, "twin_call", product_form_twin_call),
    "simulate --rho 1 --alpha 1 --seed 42": (cli, "predict_twin", product_form_prediction),
    "simulate": (cli, "predict_twin", product_form_prediction),
    MINUTE_PATH: (cli, "predict_twin", product_form_prediction),
}


def log_space_twin_call(pair, a, spec, log_b):
    """The 0.3.0 to 0.6.1 twin call: the forward S_i*exp(log(A*B) + growth)
    as one exp of a log sum that holds e*log S_i, and g2 through the
    transformed strike K/(A*B), with the operations of 0.6.1."""
    tau, rate = spec.maturity, spec.rate
    sig_i, sig_j = pair.asset_i.sigma, pair.asset_j.sigma
    log_ab = deterministic_term(pair, a, tau) + log_b
    log_spot = np.log(pair.asset_i.spot)
    e = twin_exponent(pair, a)
    growth = (e - 1.0) * (log_spot + (rate + 0.5 * a * sig_j * sig_i) * tau)
    forward = pair.asset_i.spot * np.exp(log_ab + growth)
    g2 = (log_spot - sig_i / (a * sig_j) * (np.log(spec.strike) - log_ab)
          + (rate - 0.5 * sig_i**2) * tau) / (sig_i * np.sqrt(tau))
    price = (normal_cdf(g2 + a * sig_j * np.sqrt(tau)) * forward
             - spec.strike * np.exp(-rate * tau) * normal_cdf(g2))
    return np.maximum(price, 0.0)


def as_in_0_6_1(patch):
    """The log-space twin call wherever the CLI prices, the Black-Scholes
    benchmark (`bs_call`, which calls `pricing.twin_call`) included."""
    for module in (cli, harness, pricing):
        patch.setattr(module, "twin_call", log_space_twin_call)


@functools.cache
def log_space_output(argv: str) -> tuple[int, bytes]:
    """argv's exit code and output as 0.6.1 computed them, run once per process."""
    with pytest.MonkeyPatch.context() as patch:
        as_in_0_6_1(patch)
        return run(argv)


def mean_std_with_noise_se(x):
    """`_mean_std` as 0.3.0 and earlier computed it: the SE of a run whose
    replications are all equal is formed from the data, as rounding noise."""
    return np.mean(x), np.std(x, ddof=1)


def without_deterministic_se(patch):
    patch.setattr(harness, "_mean_std", mean_std_with_noise_se)
    patch.setattr(cli, "_mean_std", mean_std_with_noise_se)


def as_in_0_2_0(patch, argv):
    module, name, replacement = PRODUCT_FORM[argv]
    patch.setattr(module, name, replacement)
    without_deterministic_se(patch)


def alpha_through_mu_j(pair, a):
    """The alpha at which 0.5.8 evaluated a cell labelled a: it set
    mu_j = a*sigma_j*mu_i/sigma_i on the pair, and `twin.alpha` read it back."""
    mu_j = a * pair.asset_j.sigma * pair.asset_i.mu / pair.asset_i.sigma
    return alpha(replace(pair, asset_j=replace(pair.asset_j, mu=mu_j)))


def as_in_0_5_8(patch):
    as_in_0_6_1(patch)
    for name in ("stochastic_term", "twin_call"):
        exact = getattr(harness, name)
        patch.setattr(harness, name, lambda pair, a, *args, exact=exact, **kwargs:
                      exact(pair, alpha_through_mu_j(pair, a), *args, **kwargs))


def values(data: bytes) -> np.ndarray:
    """The numbers of a key=value record or of a CSV body."""
    lines = data.decode().splitlines()
    if "=" in lines[0]:
        return np.array([float(line.split("=")[1]) for line in lines])
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


def record(path: str) -> None:
    """Write this process's fingerprint and the output of every golden
    command, unpatched and as 0.2.0, 0.5.8 and 0.6.1 computed it, to `path`
    as JSON."""
    runs = {"now": {argv: run(argv) for argv in GOLDEN}, "0.2.0": {}, "0.5.8": {}, "0.6.1": {}}
    for argv in PRODUCT_FORM_0_2_0:
        with pytest.MonkeyPatch.context() as patch:
            as_in_0_2_0(patch, argv)
            runs["0.2.0"][argv] = run(argv)
    for argv in ROUND_TRIP_0_5_8:
        with pytest.MonkeyPatch.context() as patch:
            as_in_0_5_8(patch)
            runs["0.5.8"][argv] = run(argv)
    runs["0.6.1"] = {argv: log_space_output(argv) for argv in LOG_SPACE_0_6_1}
    text = {kind: {argv: [code, data.decode()] for argv, (code, data) in outputs.items()}
            for kind, outputs in runs.items()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fingerprint": fingerprint(), "runs": text}, fh)


@pytest.fixture(scope="module")
def avx512_off(tmp_path_factory):
    """`record` of a child interpreter run with AVX512_OFF, read back as
    (the child's path, {kind: {argv: (exit code, output bytes)}})."""
    path = tmp_path_factory.mktemp("avx512_off") / "record.json"
    tests = Path(__file__).resolve().parent
    python_path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    env = {**os.environ, **AVX512_OFF, "PYTHONPATH": python_path}
    child = subprocess.run([sys.executable, __file__, str(path)], env=env, capture_output=True,
                           text=True, timeout=600)
    assert child.returncode == 0, child.stderr
    with open(path, encoding="utf-8") as fh:
        recorded = json.load(fh)
    runs = {kind: {argv: (code, text.encode()) for argv, (code, text) in outputs.items()}
            for kind, outputs in recorded["runs"].items()}
    return path_of(recorded["fingerprint"]), runs


@pytest.mark.parametrize("argv", list(GOLDEN))
def test_golden_hash(argv):
    code, data = golden_output(argv)
    expected_code, expected_sha = GOLDEN[argv]
    assert code == expected_code
    assert sha256(data) == expected_sha[path_of(fingerprint())]


def test_avx512_off_takes_the_other_path(avx512_off):
    # on a CPU without AVX-512 both interpreters take the same path
    here, there = path_of(fingerprint()), avx512_off[0]
    assert there == 1 and (here == 0 or here == there)


@pytest.mark.parametrize("argv", list(GOLDEN))
def test_golden_hash_with_avx512_off(argv, avx512_off):
    path, runs = avx512_off
    code, data = runs["now"][argv]
    expected_code, expected_sha = GOLDEN[argv]
    assert code == expected_code
    assert sha256(data) == expected_sha[path]


def test_older_hashes_with_avx512_off(avx512_off):
    path, runs = avx512_off
    for kind, pins in (("0.2.0", PRODUCT_FORM_0_2_0), ("0.5.8", ROUND_TRIP_0_5_8),
                       ("0.6.1", LOG_SPACE_0_6_1)):
        for argv, expected_sha in pins.items():
            assert sha256(runs[kind][argv][1]) == expected_sha[path], (kind, argv)


def ulps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance of a and b in ulps of the larger magnitude; 0 where equal."""
    spacing = np.spacing(np.maximum(np.abs(a), np.abs(b)))
    return np.where(a == b, 0.0, np.abs(a - b) / spacing)


@pytest.mark.parametrize("argv", [argv for argv, (code, _) in GOLDEN.items() if code == 0])
def test_dispatch_paths_agree(argv, avx512_off):
    _, runs = avx512_off
    here, there = values(golden_output(argv)[1]), values(runs["now"][argv][1])
    assert np.max(ulps(here, there)) <= ULPS[argv.split()[0]]


def test_readme_commands_are_pinned():
    for argv in readme_commands():
        if "--out" in argv:
            k = argv.index("--out")
            argv = argv[:k] + argv[k + 2:]
        assert shlex.join(argv) in GOLDEN


@pytest.mark.parametrize("argv", [pytest.param(argv, id=argv) for argv in PRODUCT_FORM])
def test_log_space_within_1e13_of_product_form(argv, monkeypatch):
    _, new = golden_output(argv)
    with monkeypatch.context() as patch:
        as_in_0_2_0(patch, argv)
        _, old = run(argv)
    if argv in PRODUCT_FORM_0_2_0:
        assert sha256(old) == PRODUCT_FORM_0_2_0[argv][path_of(fingerprint())]

    new, old = values(new), values(old)
    assert np.all(np.abs(new - old) <= 1e-13 * estimate_scale(argv, old))


def estimate_scale(argv: str, old: np.ndarray) -> np.ndarray:
    """|old|, except that an SE is on the scale of the estimate it belongs
    to: where every replication is the same, as at (rho, alpha) = (1, 1), it
    is rounding noise alone (1.8e-17 in the product form of `price`, 0 now)."""
    scale = np.abs(old)
    if argv == OPTION_GRID:
        scale[:, 3] = np.maximum(scale[:, 3], scale[:, 2])  # se and mape
    elif argv.startswith("price"):
        scale[2] = max(scale[2], scale[1])  # twin_price_se and twin_price_mean
    return scale


@pytest.mark.parametrize("argv", list(GOLDEN))
def test_black_scholes_form_is_the_only_change_since_0_6_1(argv):
    _, new = golden_output(argv)
    if argv not in LOG_SPACE_0_6_1:
        assert log_space_output(argv) == golden_output(argv)
        return
    _, old = log_space_output(argv)
    assert sha256(old) == LOG_SPACE_0_6_1[argv][path_of(fingerprint())]
    new, old = values(new), values(old)
    assert np.all(np.abs(new - old) <= 1e-13 * estimate_scale(argv, old))


@pytest.mark.parametrize("argv", list(ROUND_TRIP_0_5_8))
def test_exact_alpha_is_the_only_change_since_0_5_8(argv, monkeypatch):
    # against 0.6.1, where 0.7.0 changed the command
    _, new = (log_space_output if argv in LOG_SPACE_0_6_1 else golden_output)(argv)
    with monkeypatch.context() as patch:
        as_in_0_5_8(patch)
        _, old = run(argv)
    assert sha256(old) == ROUND_TRIP_0_5_8[argv][path_of(fingerprint())]

    new_rows, old_rows = new.decode().splitlines(), old.decode().splitlines()
    assert new_rows[0] == old_rows[0] and len(new_rows) == len(old_rows)
    changed = 0
    for new_row, old_row in zip(new_rows[1:], old_rows[1:]):
        if new_row == old_row:
            continue
        changed += 1
        new_values, old_values = (np.array(row.split(","), dtype=float)
                                  for row in (new_row, old_row))
        rho, a, *_ = new_values
        sigma_j = new_values[4] if argv == SIGMA_SWEEP else 0.4
        # the pair run_mape builds from the defaults
        base = TwinPair(AssetParams(0.4, 0.2, 80.0), AssetParams(0.8, sigma_j, 90.0), rho)
        assert alpha_through_mu_j(base, a) != a, new_row
        assert np.all(np.abs(new_values - old_values) <= 1e-13 * np.abs(old_values)), new_row
    assert changed > 0


def test_deterministic_se_is_the_only_change_since_0_3_0(monkeypatch):
    # on the twin call of 0.6.1, the last form that the 0.3.0 bytes were checked on
    _, new = log_space_output(OPTION_GRID)
    with monkeypatch.context() as patch:
        as_in_0_6_1(patch)
        without_deterministic_se(patch)
        _, old = run(OPTION_GRID)
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


@pytest.mark.parametrize("argv", [argv for argv, (code, _) in GOLDEN.items() if code == 4] + [
    POOL_OVERFLOW,
])
def test_numerical_error_without_numpy_warnings(argv, capsys):
    # the exit-4 diagnostic is the only report, also from pool workers
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, data = run(argv)
    assert (code, data) == (4, b"")
    assert capsys.readouterr().err == f"error: numerical: {EXIT_4_STDERR[argv]}\n"
    assert [str(w.message) for w in caught] == []


if __name__ == "__main__":
    # the child of `avx512_off`: python tests/test_golden.py RECORD_JSON
    record(sys.argv[1])
