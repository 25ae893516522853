"""Named, independently-seeded random substreams.

Every stochastic process in a run (adoption, model choice, trips, synthetic
data) draws from its own substream derived from (seed, process name), so
one process consuming more draws never perturbs another.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _derive_key(seed: int, name: str) -> list[int]:
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return [int.from_bytes(digest[i:i + 8], "little") for i in range(0, 32, 8)]


def parse_seed(raw) -> int:
    """A seed: an integer that fits in 64 unsigned bits."""
    seed = int(raw)
    if not 0 <= seed < 2 ** 64:
        raise ValueError("seed must fit in 64 unsigned bits")
    return seed


class RngStreams:
    """Factory for per-process numpy Generators tied to one master seed."""

    def __init__(self, seed: int):
        self.seed = parse_seed(seed)

    def stream(self, name: str) -> np.random.Generator:
        """A new generator for a named process; each call starts its sequence
        from the beginning."""
        return np.random.default_rng(_derive_key(self.seed, name))
