"""The public names of the package, pinned: an export that is added or
removed shows up as a change of this test."""

import twinassets


def test_all_is_the_public_api():
    assert twinassets.__all__ == [
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
    assert all(hasattr(twinassets, name) for name in twinassets.__all__)
