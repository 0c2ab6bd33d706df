"""Reference values for the benchmark's output checks.

Everything here is derived from the model, not from the program: the
normal CDF comes from `math.erf`, the option expectation from
Gauss-Hermite quadrature, and no `twinassets` code is imported. Each
`check_*` function takes the bytes a workload wrote and returns a list of
failure messages (empty when the output is correct).
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Outputs must lie within K_SE standard errors of the reference. With
# about 3e4 grid cells checked over all benchmark runs, P(|z| > 6) ~ 2e-9
# per cell keeps a spurious failure out of reach while a wrong formula or
# a biased draw (several SE off on many cells) still fails.
K_SE = 6.0
# The program's own SE column must agree with the reference SE to this
# relative tolerance (the sample SD of n >= 1e4 heavy-ish-tailed draws is
# within a few percent).
SE_REL_TOL = 0.25
# Quadrature order of the option reference: 60 nodes already agree with
# 200 to 10 digits once the kink is split off; numpy's hermgauss
# overflows near 400 nodes.
GH_NODES = 150


@dataclass(frozen=True)
class Baseline:
    """The CLI's default parameter set (README "CLI")."""

    mu_i: float = 0.4
    sigma_i: float = 0.2
    sigma_j: float = 0.4
    spot_i: float = 80.0
    spot_j: float = 90.0
    strike: float = 90.0
    rate: float = 0.05
    maturity: float = 0.25
    horizon: float = 1.0 / 252.0


BASE = Baseline()


def norm_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


_erf_array = np.frompyfunc(math.erf, 1, 1)


def norm_cdf_array(x: np.ndarray) -> np.ndarray:
    """Elementwise Phi, still through math.erf."""
    return 0.5 * (1.0 + np.asarray(_erf_array(x / math.sqrt(2.0)), dtype=float))


def bs_call(spot: float, strike: float, rate: float, maturity: float, sigma: float) -> float:
    """Black-Scholes call with Phi from math.erf."""
    vol = sigma * math.sqrt(maturity)
    d1 = (math.log(spot / strike) + (rate + 0.5 * sigma * sigma) * maturity) / vol
    d2 = d1 - vol
    return spot * norm_cdf(d1) - strike * math.exp(-rate * maturity) * norm_cdf(d2)


def black76_call(forward, strike: float, rate: float, maturity: float, log_vol: float):
    """Discounted Black-76 call on `forward` (scalar or array) with total
    log-volatility `log_vol`; Phi from math.erf."""
    forward = np.asarray(forward, dtype=float)
    d1 = (np.log(forward / strike) + 0.5 * log_vol * log_vol) / log_vol
    d2 = d1 - log_vol
    price = math.exp(-rate * maturity) * (forward * norm_cdf_array(d1) - strike * norm_cdf_array(d2))
    return np.maximum(price, 0.0)


def dissimilarity(rho: float, alpha: float) -> float:
    """1 - 2*rho*alpha + alpha^2, written as a sum of non-negative terms
    so that it is exactly 0 at (1, 1) and never negative from round-off."""
    return (1.0 - alpha) ** 2 + 2.0 * alpha * (1.0 - rho)


def asset_mape(rho: float, alpha: float, n: int, base: Baseline = BASE) -> tuple[float, float]:
    """Closed-form asset MAPE (percent) and its n-draw standard error.

    S'_j/S_j = exp(s*Z), s^2 = 2*sigma_j^2*tau*(1 - 2*rho*alpha + alpha^2), so
    MAPE = 100*E|e^{sZ} - 1| = 100*e^{s^2/2}*(2*Phi(s) - 1).
    """
    s2 = 2.0 * base.sigma_j**2 * base.horizon * dissimilarity(rho, alpha)
    s = math.sqrt(s2)
    mean = math.exp(0.5 * s2) * (2.0 * norm_cdf(s) - 1.0)
    second = math.expm1(2.0 * s2) - 2.0 * math.expm1(0.5 * s2)  # E(e^{sZ} - 1)^2
    var = max(second - mean * mean, 0.0)
    return 100.0 * mean, 100.0 * math.sqrt(var / n)


def log_deterministic_term(alpha: float, tau, base: Baseline = BASE):
    """log A = log(S_j * S_i^-e * exp(sigma_j*(alpha*sigma_i - sigma_j)*tau/2)),
    e = alpha*sigma_j/sigma_i; `tau` may be an array."""
    e = alpha * base.sigma_j / base.sigma_i
    return (
        math.log(base.spot_j)
        - e * math.log(base.spot_i)
        + 0.5 * base.sigma_j * (alpha * base.sigma_i - base.sigma_j) * tau
    )


def twin_log_forward(alpha: float, base: Baseline = BASE) -> tuple[float, float]:
    """log of the twin forward at B = 1, and the exponent e = alpha*sigma_j/sigma_i.

    F = A*B*S_i^e * exp(e*(r - sigma_i^2/2)*T + e^2*sigma_i^2*T/2).
    """
    e = alpha * base.sigma_j / base.sigma_i
    t = base.maturity
    log_f = (
        log_deterministic_term(alpha, t, base)
        + e * math.log(base.spot_i)
        + e * (base.rate - 0.5 * base.sigma_i**2) * t
        + 0.5 * e * e * base.sigma_i**2 * t
    )
    return log_f, e


@lru_cache(maxsize=None)
def gauss_hermite(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes z and weights w with sum(w*f(z)) ~ E f(Z), Z ~ N(0, 1)."""
    x, w = np.polynomial.hermite.hermgauss(nodes)
    return math.sqrt(2.0) * x, w / math.sqrt(math.pi)


@lru_cache(maxsize=None)
def gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(nodes)


def implied_forward(price: float, strike: float, rate: float, maturity: float,
                    log_vol: float) -> float:
    """Forward at which the Black-76 call is worth `price`.

    Newton's method on the increasing convex map F -> call(F), started at
    F = K + price*e^{rT} where call(F) >= price, converges from above.
    """
    growth = math.exp(rate * maturity)
    forward = strike + price * growth
    for _ in range(100):
        d1 = (math.log(forward / strike) + 0.5 * log_vol * log_vol) / log_vol
        excess = float(black76_call(forward, strike, rate, maturity, log_vol)) - price
        step = excess * growth / norm_cdf(d1)
        forward -= step
        if abs(step) <= 1e-15 * forward:
            break
    return forward


def option_mape(rho: float, alpha: float, n: int, base: Baseline = BASE,
                nodes: int = GH_NODES) -> tuple[float, float]:
    """Option MAPE (percent) and its n-draw standard error.

    The twin price is Black-76 on the forward F*e^{vZ}, v^2 = sigma_j^2*T*
    (1 - 2*rho*alpha + alpha^2), with log-vol e*sigma_i*sqrt(T). With
    g(Z) = (c'(F*e^{vZ}) - c_BS)/c_BS, which increases in Z and changes sign
    at z0, the MAPE is 100*E|g| = 100*(E g - 2*E[g; Z < z0]). E g and E g^2
    are smooth Gauss-Hermite integrals; the truncated part is a
    Gauss-Legendre integral over [-12, z0] (|g| <= 1 below z0, so the
    Gaussian mass left out is below 1e-32). Splitting at the kink of |g|
    gives 10 digits where plain Gauss-Hermite of |g| stays ~0.1 SE off.
    """
    c_bs = bs_call(base.spot_j, base.strike, base.rate, base.maturity, base.sigma_j)
    log_f, e = twin_log_forward(alpha, base)
    log_vol = e * base.sigma_i * math.sqrt(base.maturity)
    v = base.sigma_j * math.sqrt(base.maturity * dissimilarity(rho, alpha))

    def ape(z):
        call = black76_call(np.exp(log_f + v * z), base.strike, base.rate, base.maturity, log_vol)
        return (call - c_bs) / c_bs

    if v == 0.0:
        return 100.0 * abs(float(ape(0.0))), 0.0
    z, w = gauss_hermite(nodes)
    g = ape(z)
    mean, second = float(np.dot(w, g)), float(np.dot(w, g * g))
    z0 = (math.log(implied_forward(c_bs, base.strike, base.rate, base.maturity, log_vol)) - log_f) / v
    lo, hi = -12.0, min(z0, 12.0)
    below = 0.0
    if hi > lo:
        x, wl = gauss_legendre(nodes)
        zl = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
        density = np.exp(-0.5 * zl * zl) / math.sqrt(2.0 * math.pi)
        below = 0.5 * (hi - lo) * float(np.dot(wl, ape(zl) * density))
    mape = mean - 2.0 * below
    var = max(second - mape * mape, 0.0)
    return 100.0 * mape, 100.0 * math.sqrt(var / n)


def _parse_csv(data: bytes) -> tuple[str, np.ndarray]:
    """Header line and float rows of a CSV output; ValueError if malformed."""
    lines = data.decode("ascii").splitlines()
    if not lines:
        raise ValueError("empty output")
    return lines[0], np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


def check_grid(data: bytes, reference, rho_values, alpha_values, n: int) -> list[str]:
    """Check a `mape` CSV against `reference(rho, alpha, n) -> (mape, se)`.

    Every cell must lie within K_SE reference SEs of the reference value
    and report an SE close to the reference SE; a cell with zero reference
    SE (the deterministic (1, 1) cell) must match to 1e-9 relative, or to
    1e-8 absolute where the reference is 0.
    """
    try:
        header, rows = _parse_csv(data)
    except ValueError as exc:
        return [f"unparsable grid output: {exc}"]
    if header != "rho,alpha,mape,se":
        return [f"header {header!r}"]
    expected = [(r, a) for r in rho_values for a in alpha_values]
    if rows.shape != (len(expected), 4):
        return [f"grid shape {rows.shape}, expected ({len(expected)}, 4)"]
    errors = []
    if not np.all(np.isfinite(rows)):
        errors.append("non-finite values in grid")
    for (rho, alpha), (got_rho, got_alpha, mape, se) in zip(expected, rows.tolist()):
        where = f"cell (rho={rho:g}, alpha={alpha:g})"
        if got_rho != rho or got_alpha != alpha:
            errors.append(f"{where}: row labelled ({got_rho!r}, {got_alpha!r})")
            continue
        ref, ref_se = reference(rho, alpha, n)
        if ref_se == 0.0:
            if abs(mape - ref) > max(1e-9 * abs(ref), 1e-8 if ref == 0.0 else 0.0):
                errors.append(f"{where}: deterministic mape {mape!r}, reference {ref!r}")
            continue
        z = (mape - ref) / ref_se
        if not abs(z) <= K_SE:
            errors.append(f"{where}: mape {mape!r} is {z:.2f} SE from {ref!r}")
        if not abs(se / ref_se - 1.0) <= SE_REL_TOL:
            errors.append(f"{where}: se {se!r}, reference se {ref_se!r}")
    return errors


def check_path(data: bytes, rho: float, alpha: float, steps: int, dt: float,
               base: Baseline = BASE) -> list[str]:
    """Check a `simulate` CSV: grid times, finite positive prices, the law of
    both log-price walks and of the twin relation's stochastic term.

    log s_j has i.i.d. increments N((mu_j - sigma_j^2/2)dt, sigma_j^2 dt),
    log s_i likewise with correlation rho to s_j, and
    log pred - log A(t) - e*log s_i = log B(t) is a driftless random walk
    with increment variance sigma_j^2*(1 - 2*rho*alpha + alpha^2)*dt.
    """
    try:
        header, rows = _parse_csv(data)
    except ValueError as exc:
        return [f"unparsable path output: {exc}"]
    if header != "t,s_i,s_j,s_j_predicted":
        return [f"header {header!r}"]
    if rows.shape != (steps + 1, 4):
        return [f"path shape {rows.shape}, expected ({steps + 1}, 4)"]
    if not np.all(np.isfinite(rows)):
        return ["non-finite values in path"]
    t, s_i, s_j, pred = rows.T
    if np.any(rows[:, 1:] <= 0):
        return ["non-positive prices in path"]
    errors = []
    k = np.arange(steps + 1)
    if not np.allclose(t, k * dt, rtol=1e-12, atol=0.0):
        errors.append("times are not k*dt")
    if (s_i[0], s_j[0], pred[0]) != (base.spot_i, base.spot_j, base.spot_j):
        errors.append(f"start row {rows[0].tolist()}")

    n = steps
    mu_j = alpha * base.sigma_j * base.mu_i / base.sigma_i  # alpha = sigma_i*mu_j/(sigma_j*mu_i)
    d_j, d_i = np.diff(np.log(s_j)), np.diff(np.log(s_i))

    def z_mean(x, mean, var):
        return (np.mean(x) - mean) / math.sqrt(var / n)

    def z_var(x, var):
        return (np.var(x, ddof=1) / var - 1.0) / math.sqrt(2.0 / (n - 1))

    var_j, var_i = base.sigma_j**2 * dt, base.sigma_i**2 * dt
    e = alpha * base.sigma_j / base.sigma_i
    d_b = np.diff(np.log(pred) - log_deterministic_term(alpha, t, base) - e * np.log(s_i))
    var_b = base.sigma_j**2 * dissimilarity(rho, alpha) * dt
    # SE of a sample correlation is (1 - rho^2)/sqrt(n); |rho| < 1 here
    corr = float(np.corrcoef(d_i, d_j)[0, 1])
    stats = {
        "log s_j increment mean": z_mean(d_j, (mu_j - 0.5 * base.sigma_j**2) * dt, var_j),
        "log s_j increment variance": z_var(d_j, var_j),
        "log s_i increment mean": z_mean(d_i, (base.mu_i - 0.5 * base.sigma_i**2) * dt, var_i),
        "log s_i increment variance": z_var(d_i, var_i),
        "log-return correlation": (corr - rho) / ((1.0 - rho * rho) / math.sqrt(n)),
        "twin noise increment mean": z_mean(d_b, 0.0, var_b),
        # chi-square with n degrees of freedom, standardised
        "twin noise chi-square": (np.sum(d_b * d_b) / var_b - n) / math.sqrt(2.0 * n),
    }
    for name, z in stats.items():
        if not abs(z) <= K_SE:
            errors.append(f"{name}: {z:.2f} SE from its reference")
    return errors
