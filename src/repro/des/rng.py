"""Deterministic named random substreams.

Every stochastic component of a simulation (task runtimes, bandwidth jitter,
failure injection, ...) draws from its own named substream derived from a
single root seed.  Two runs with the same root seed are identical; adding a
new consumer of randomness does not perturb existing streams (streams are
keyed by name, not by draw order).
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["RngRegistry"]


class RngRegistry:
    """Factory of named, reproducible ``numpy.random.Generator`` streams.

    Parameters
    ----------
    seed:
        Root seed.  Substream seeds are derived as
        ``blake2b(root_seed || name)`` so they are stable across runs and
        independent of creation order.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the substream for ``name``."""
        if name not in self._streams:
            digest = hashlib.blake2b(
                f"{self.seed}:{name}".encode(), digest_size=8
            ).digest()
            sub_seed = int.from_bytes(digest, "little")
            self._streams[name] = np.random.default_rng(sub_seed)
        return self._streams[name]
