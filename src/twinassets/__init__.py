"""Twin-asset Monte Carlo simulation, option pricing, and error analysis."""

import gc

# numpy and scipy, imported here, live until the process ends: the cyclic GC
# skips them during the import and, frozen, at exit (gc.unfreeze() undoes it).
_gc_was_enabled = gc.isenabled()
gc.disable()
try:
    from .engine import AssetParams, NoiseDraw, TwinPair, simulate_paths
    from .errors import InvalidParameterError, NumericalError, TwinAssetsError
    from .harness import GridSpec, mape_asset, mape_option
    from .pricing import OptionSpec, bs_call, normal_cdf, twin_call
    from .twin import alpha, deterministic_term, predict_twin, stochastic_term
finally:
    gc.freeze()
    if _gc_was_enabled:
        gc.enable()

__version__ = "0.6.1"

__all__ = [
    "AssetParams",
    "GridSpec",
    "InvalidParameterError",
    "NoiseDraw",
    "NumericalError",
    "OptionSpec",
    "TwinAssetsError",
    "TwinPair",
    "alpha",
    "bs_call",
    "deterministic_term",
    "mape_asset",
    "mape_option",
    "normal_cdf",
    "predict_twin",
    "simulate_paths",
    "stochastic_term",
    "twin_call",
]
