"""Deterministic substream derivation for reproducible parallel Monte Carlo.

Every consumer of randomness derives its own `numpy` Generator from the
master seed plus an integer path (a stream id per use). Results therefore
depend only on the seed and the stream, never on thread count or
execution order.
"""

import numpy as np

# Stream ids keep independent uses of the master seed from colliding.
STREAM_PATHS = 1
STREAM_ASSET_MAPE = 2
STREAM_OPTION_MAPE = 3
STREAM_PRICE = 4
STREAM_DRAWS = 5


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Generator for the substream identified by (master_seed, *path).

    The same (seed, path) always yields an identical stream; distinct
    paths yield statistically independent streams (SeedSequence hashing).
    """
    if master_seed < 0:
        raise ValueError(f"master seed must be non-negative, got {master_seed}")
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), *map(int, path)]))
