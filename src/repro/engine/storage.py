"""Scratch-storage accounting.

The paper's motivation for cleanup jobs: "since storage, especially at
computational sites, is finite, the workflow management system also needs
to remove data that are no longer needed".  This tracker records the byte
footprint of a site's scratch space over simulated time — stage-ins and
produced outputs add to it, cleanup deletions remove from it — so the
footprint reduction bought by cleanup (and the safety of policy-protected
cleanup) can be measured.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.des import Environment

__all__ = ["StorageTracker"]


@dataclass
class StorageTracker:
    """Byte-level scratch accounting for one site.

    ``capacity`` is advisory: exceeding it does not fail the simulation,
    but :attr:`over_capacity_time` accumulates how long the footprint
    stayed above it (a feasibility signal for storage-constrained sites).
    """

    env: Environment
    site: str
    capacity: float = float("inf")
    used: float = 0.0
    peak: float = 0.0
    timeline: list[tuple[float, float]] = field(default_factory=list)
    over_capacity_time: float = 0.0
    _over_since: float | None = None
    _files: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError("capacity must be positive")
        self.timeline.append((self.env.now, 0.0))

    # -- events ------------------------------------------------------------
    def add(self, lfn: str, nbytes: float) -> None:
        """A file landed on scratch (stage-in completed / output produced)."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if lfn in self._files:
            return  # already present (restage of an existing file)
        self._files[lfn] = nbytes
        self._set(self.used + nbytes)

    def remove(self, lfn: str) -> float:
        """A file was deleted by cleanup; returns its size (0 if unknown)."""
        nbytes = self._files.pop(lfn, 0.0)
        if nbytes:
            self._set(self.used - nbytes)
        return nbytes

    # -- internals ------------------------------------------------------------
    def _set(self, used: float) -> None:
        now = self.env.now
        was_over = self.used > self.capacity
        self.used = max(0.0, used)
        self.peak = max(self.peak, self.used)
        self.timeline.append((now, self.used))
        is_over = self.used > self.capacity
        if is_over and not was_over:
            self._over_since = now
        elif was_over and not is_over and self._over_since is not None:
            self.over_capacity_time += now - self._over_since
            self._over_since = None

    def finish(self) -> None:
        """Close the over-capacity interval at end of run."""
        if self._over_since is not None:
            self.over_capacity_time += self.env.now - self._over_since
            self._over_since = None
