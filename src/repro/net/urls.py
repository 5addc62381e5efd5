"""Transfer URLs (``scheme://host/path``).

Kept apart from :mod:`repro.net.gridftp`, which loads the DES kernel and
the flow fabric, so the Policy Service can check URLs without the simulator.
"""

from __future__ import annotations

__all__ = ["parse_url"]


def parse_url(url: str) -> tuple[str, str]:
    """Split ``scheme://host/path`` into (host, path).

    Accepts ``gsiftp``, ``http``, ``https``, and ``file`` schemes (the
    Pegasus Transfer Tool is protocol-agnostic; so are we).
    """
    scheme, sep, rest = url.partition("://")
    if not sep or not scheme:
        raise ValueError(f"malformed url: {url!r}")
    if scheme not in ("gsiftp", "http", "https", "file", "ftp"):
        raise ValueError(f"unsupported scheme {scheme!r} in {url!r}")
    host, slash, path = rest.partition("/")
    if not host:
        raise ValueError(f"missing host in url: {url!r}")
    return host, "/" + path
