"""Named, reproducible RNG substreams derived from a single global seed."""

import hashlib

import numpy as np


def substream(seed: int, name: str, index: int | None = None) -> np.random.Generator:
    """Return a generator for the (seed, name[, index]) substream.

    Streams with different names or indices are statistically independent,
    and the mapping is stable across runs and platforms.
    """
    key = int.from_bytes(hashlib.sha256(name.encode("utf-8")).digest()[:8], "little")
    entropy = [int(seed), key] if index is None else [int(seed), key, int(index)]
    return np.random.default_rng(np.random.SeedSequence(entropy))
