"""Seed handling.

All randomness in a run flows from a single root seed expanded into named
streams. Streams use numpy's Philox 4x64 counter-based generator so that a
(seed, stream) pair fully determines the draw sequence; the generator family
is pinned in run configs as ``rng.algorithm = philox4x64``.
"""

import numpy as np

from .errors import ContractError

ALGORITHM = "philox4x64"

# Stream ids are part of the reproducibility contract: changing them changes
# every seeded run.
STREAMS = {
    "init": 0,
    "shuffle": 1,
    "augment": 2,
    "label_ratio": 3,
    "split": 4,
    "synth": 5,
}

SEED_LIMIT = 1 << 64
_INDEX_LIMIT = 1 << 32


def stream(seed: int, name: str, index: int = 0) -> np.random.Generator:
    """Return the Philox generator for one named stream of a root seed.

    ``index`` separates parallel sub-streams (e.g. one per subject) within a
    named stream. The Philox key packs (stream id, index, seed) into 128 bits,
    so a seed outside [0, 2^64) or an index outside [0, 2^32) would alias
    another one's draws; both are refused.
    """
    if name not in STREAMS:
        raise KeyError(f"unknown rng stream {name!r}; known: {sorted(STREAMS)}")
    if not 0 <= seed < SEED_LIMIT:
        raise ContractError(f"seed must be in [0, 2**64), got {seed}")
    if not 0 <= index < _INDEX_LIMIT:
        raise ContractError(f"stream index must be in [0, 2**32), got {index}")
    key = ((STREAMS[name] << 32 | index) << 64) | seed
    return np.random.Generator(np.random.Philox(key=key))
