"""Site catalog: execution sites and their storage endpoints."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["SiteEntry", "SiteCatalog"]


@dataclass
class SiteEntry:
    """One execution or storage site.

    Parameters
    ----------
    name:
        Site handle (e.g. ``"isi"``, ``"futuregrid"``, ``"local"``).
    storage_host:
        Host name (in the network topology) serving this site's storage.
    scratch_dir:
        Directory prefix for staged data on the shared filesystem.
    nodes, cores_per_node:
        Compute capacity (0 nodes for pure storage sites).
    """

    name: str
    storage_host: str
    scratch_dir: str = "/scratch"
    nodes: int = 0
    cores_per_node: int = 1
    attributes: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name or not self.storage_host:
            raise ValueError("site entry requires name and storage_host")
        if self.nodes < 0 or self.cores_per_node < 1:
            raise ValueError(f"site {self.name!r}: bad compute capacity")

    @property
    def slots(self) -> int:
        """Total compute slots (cores)."""
        return self.nodes * self.cores_per_node

    def url_for(self, lfn: str) -> str:
        """Physical URL a file takes when staged to this site's scratch."""
        return f"gsiftp://{self.storage_host}{self.scratch_dir}/{lfn}"


class SiteCatalog:
    """Registry of :class:`SiteEntry` objects."""

    def __init__(self) -> None:
        self._sites: dict[str, SiteEntry] = {}

    def add(self, entry: SiteEntry) -> SiteEntry:
        if entry.name in self._sites:
            raise ValueError(f"duplicate site {entry.name!r}")
        self._sites[entry.name] = entry
        return entry

    def get(self, name: str) -> SiteEntry:
        try:
            return self._sites[name]
        except KeyError:
            raise KeyError(f"unknown site {name!r}") from None
