"""Network topology: sites, hosts, links, and routes.

A :class:`Network` is a registry of hosts and links plus a route table
mapping (source host, destination host) pairs to ordered link lists.  The
fluid-flow engine (:mod:`repro.net.flows`) charges each active transfer
against every link on its route.

Convention: capacities are **bytes per second**, sizes bytes, times seconds.
``MB`` / ``GB`` / ``mbit`` helpers are provided for readability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["Site", "Host", "Link", "Route", "Network", "MB", "GB", "mbit"]

#: One megabyte (decimal, matching the paper's "MBytes").
MB = 1_000_000
#: One gigabyte.
GB = 1_000_000_000


def mbit(n: float) -> float:
    """n megabits/second expressed in bytes/second."""
    return n * 1_000_000 / 8


@dataclass(frozen=True)
class Site:
    """A computing or storage site (cluster, cloud, campus)."""

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("site name must be non-empty")


@dataclass(frozen=True)
class Host:
    """A named endpoint (storage server, head node, VM)."""

    name: str
    site: Site

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("host name must be non-empty")


@dataclass(eq=False)
class Link:
    """A shared capacity segment (identity semantics: registry object).

    Parameters
    ----------
    name:
        Identifier used in traces.
    capacity:
        Aggregate bytes/second the link can carry.
    stream_rate_cap:
        Maximum bytes/second a *single* stream can achieve on this link
        (the TCP window / RTT limit).  ``None`` means uncapped.
    knee:
        Total concurrent streams beyond which efficiency degrades
        (endpoint/NFS/loss pressure).  ``None`` disables congestion.
    congestion_slope:
        Fractional efficiency lost per ``knee``-worth of excess streams
        (see :meth:`repro.net.tcp.StreamModel.congestion_factor`).
    congestion_floor:
        Lower bound on the efficiency factor.
    """

    name: str
    capacity: float
    stream_rate_cap: Optional[float] = None
    knee: Optional[int] = None
    congestion_slope: float = 0.5
    congestion_floor: float = 0.35

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(f"link {self.name!r}: capacity must be positive")
        if self.stream_rate_cap is not None and self.stream_rate_cap <= 0:
            raise ValueError(f"link {self.name!r}: stream_rate_cap must be positive")
        if self.knee is not None and self.knee < 1:
            raise ValueError(f"link {self.name!r}: knee must be >= 1")
        if not 0 < self.congestion_floor <= 1:
            raise ValueError(f"link {self.name!r}: congestion_floor in (0, 1]")
        if self.congestion_slope < 0:
            raise ValueError(f"link {self.name!r}: congestion_slope must be >= 0")


@dataclass(frozen=True)
class Route:
    """An ordered path of links between a host pair."""

    src: Host
    dst: Host
    links: tuple[Link, ...]

    def __post_init__(self) -> None:
        if not self.links:
            raise ValueError(f"route {self.src.name}->{self.dst.name}: needs >= 1 link")


class Network:
    """Host/link registry with a (src, dst) route table."""

    def __init__(self) -> None:
        self.sites: dict[str, Site] = {}
        self.hosts: dict[str, Host] = {}
        self.links: dict[str, Link] = {}
        self._routes: dict[tuple[str, str], Route] = {}

    # -- construction -------------------------------------------------------
    def add_site(self, name: str) -> Site:
        if name in self.sites:
            raise ValueError(f"duplicate site {name!r}")
        site = Site(name)
        self.sites[name] = site
        return site

    def add_host(self, name: str, site: Site) -> Host:
        if name in self.hosts:
            raise ValueError(f"duplicate host {name!r}")
        if site.name not in self.sites:
            raise ValueError(f"unknown site {site.name!r}")
        host = Host(name, site)
        self.hosts[name] = host
        return host

    def add_link(self, link: Link) -> Link:
        if link.name in self.links:
            raise ValueError(f"duplicate link {link.name!r}")
        self.links[link.name] = link
        return link

    def add_route(self, src: Host, dst: Host, links: list[Link]) -> Route:
        for link in links:
            if link.name not in self.links:
                raise ValueError(f"route uses unregistered link {link.name!r}")
        key = (src.name, dst.name)
        if key in self._routes:
            raise ValueError(f"duplicate route {src.name}->{dst.name}")
        route = Route(src, dst, tuple(links))
        self._routes[key] = route
        return route

    # -- lookup ------------------------------------------------------------
    def route(self, src: Host | str, dst: Host | str) -> Route:
        src_name = src if isinstance(src, str) else src.name
        dst_name = dst if isinstance(dst, str) else dst.name
        try:
            return self._routes[(src_name, dst_name)]
        except KeyError:
            raise KeyError(f"no route {src_name} -> {dst_name}") from None

