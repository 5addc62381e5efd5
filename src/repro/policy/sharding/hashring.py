"""Deterministic consistent-hash ring for policy shard routing.

Keys are strings; placement is derived from SHA-256 so it is stable
across processes and runs (``hash()`` randomisation never leaks in).
The ring uses virtual nodes so that adding a shard moves only ~1/N of
the keyspace, and so that small shard counts still spread host pairs
evenly.

Two key families matter to the router:

* ``pair_key(src_host, dst_host)`` — transfers partition by their
  (source, destination) host pair, which is also the grain of the
  paper's pair-wise stream threshold and grouping state;
* ``url_key(url)`` — cleanups and reconciles of a file the router has
  no owner for fall back to its destination URL.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import List, Tuple

__all__ = ["HashRing", "pair_key", "url_key"]

#: virtual nodes per shard
_REPLICAS = 64


def pair_key(src_host: str, dst_host: str) -> str:
    """Routing key for a (source, destination) host pair."""

    return f"pair:{src_host}|{dst_host}"


def url_key(url: str) -> str:
    """Routing key for a physical destination URL (cleanup fallback)."""

    return f"url:{url}"


def _digest(value: str) -> int:
    return int.from_bytes(hashlib.sha256(value.encode("utf-8")).digest()[:8], "big")


class HashRing:
    """A consistent-hash ring mapping string keys to shard indices."""

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.num_shards = num_shards
        points: List[Tuple[int, int]] = []
        for shard in range(num_shards):
            for replica in range(_REPLICAS):
                points.append((_digest(f"shard-{shard}#{replica}"), shard))
        points.sort()
        self._points = [point for point, _ in points]
        self._owners = [shard for _, shard in points]

    def node_for(self, key: str) -> int:
        """Return the shard index owning ``key``."""

        if self.num_shards == 1:
            return 0
        where = bisect.bisect(self._points, _digest(key))
        if where == len(self._points):
            where = 0
        return self._owners[where]
