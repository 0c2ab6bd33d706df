"""Twin-asset Monte Carlo simulation, option pricing, and error analysis."""

from .engine import (
    AssetParams,
    NoiseDraw,
    PathPair,
    TwinPair,
    log_return,
    simulate_paths,
    terminal_pair,
)
from .errors import (
    InvalidParameterError,
    NumericalError,
    TwinAssetsError,
    UnsupportedSimilarityError,
)
from .harness import GridSpec, MapeGrid, alpha_to_mu_j, mape_asset, mape_option, sigma_sweep
from .pricing import (
    OptionSpec,
    TwinPriceResult,
    bs_call,
    normal_cdf,
    twin_call,
    twin_call_quadrature,
)
from .twin import (
    alpha,
    deterministic_term,
    exact_relation_residual,
    log_ratio,
    predict_twin,
    stochastic_term,
)

__version__ = "0.2.0"

__all__ = [
    "AssetParams",
    "GridSpec",
    "InvalidParameterError",
    "MapeGrid",
    "NoiseDraw",
    "NumericalError",
    "OptionSpec",
    "PathPair",
    "TwinAssetsError",
    "TwinPair",
    "TwinPriceResult",
    "UnsupportedSimilarityError",
    "alpha",
    "alpha_to_mu_j",
    "bs_call",
    "deterministic_term",
    "exact_relation_residual",
    "log_ratio",
    "log_return",
    "mape_asset",
    "mape_option",
    "normal_cdf",
    "predict_twin",
    "sigma_sweep",
    "simulate_paths",
    "stochastic_term",
    "terminal_pair",
    "twin_call",
    "twin_call_quadrature",
]
