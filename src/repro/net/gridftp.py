"""GridFTP-like transfer client over the fluid-flow fabric.

The paper stages data with GridFTP 6.5 (parallel TCP streams per transfer).
Here a :class:`GridFTPClient` executes transfers between any two routed
hosts of the fabric as DES processes with:

* per-transfer protocol overhead jitter (lognormal-ish, a few percent),
* optional failure injection (the workflow engine retries, as Pegasus does
  with its five-retries-per-job configuration),
* the setup/ramp/sharing physics of :class:`~repro.net.flows.FlowNetwork`.

URLs follow the ``gsiftp://host/path`` convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.net.flows import FlowNetwork

__all__ = ["GridFTPClient", "TransferError", "TransferRecord", "parse_url"]


class TransferError(RuntimeError):
    """A transfer failed in flight (connection loss, server error...)."""

    def __init__(self, message: str, src_url: str = "", dst_url: str = ""):
        super().__init__(message)
        self.src_url = src_url
        self.dst_url = dst_url


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


@dataclass
class TransferRecord:
    """Outcome of one completed transfer (for metrics)."""

    src_url: str
    dst_url: str
    nbytes: float
    streams: int
    t_submit: float
    t_done: float
    attempts: int = 1


class GridFTPClient:
    """Executes transfers on the fabric as DES processes.

    Parameters
    ----------
    fabric:
        The shared :class:`FlowNetwork`.
    rng:
        numpy Generator for jitter/failures (deterministic per run).
    overhead_jitter:
        Std-dev of the multiplicative protocol-overhead factor applied to
        the byte count (0 disables).
    failure_rate:
        Probability that a transfer fails partway (the caller retries).
    """

    def __init__(
        self,
        fabric: FlowNetwork,
        rng: Optional[np.random.Generator] = None,
        overhead_jitter: float = 0.0,
        failure_rate: float = 0.0,
    ):
        if overhead_jitter < 0:
            raise ValueError("overhead_jitter must be >= 0")
        if not 0 <= failure_rate < 1:
            raise ValueError("failure_rate must be in [0, 1)")
        self.fabric = fabric
        self.env = fabric.env
        self.rng = rng or np.random.default_rng(0)
        self.overhead_jitter = overhead_jitter
        self.failure_rate = failure_rate
        self.records: list[TransferRecord] = []

    def transfer(
        self,
        src_url: str,
        dst_url: str,
        nbytes: float,
        streams: int,
        session_established: bool = False,
    ):
        """Process generator: move ``nbytes`` from src to dst.

        Yields inside the DES; returns a :class:`TransferRecord`; raises
        :class:`TransferError` on injected failure.  Pass
        ``session_established=True`` for follow-on transfers in a grouped
        session (skips control-channel setup).
        """
        src_host, _ = parse_url(src_url)
        dst_host, _ = parse_url(dst_url)
        t_submit = self.env.now

        effective = float(nbytes)
        if self.overhead_jitter > 0 and nbytes > 0:
            factor = 1.0 + abs(self.rng.normal(0.0, self.overhead_jitter))
            effective *= factor

        fails = self.failure_rate > 0 and self.rng.random() < self.failure_rate
        if fails:
            frac = self.rng.uniform(0.05, 0.95)
            flow = self.fabric.start_transfer(
                src_host, dst_host, effective * frac, streams, session_established
            )
            yield flow.done
            raise TransferError(
                f"transfer interrupted after {frac:.0%} of {src_url}", src_url, dst_url
            )

        flow = self.fabric.start_transfer(
            src_host, dst_host, effective, streams, session_established
        )
        yield flow.done
        record = TransferRecord(
            src_url=src_url,
            dst_url=dst_url,
            nbytes=float(nbytes),
            streams=streams,
            t_submit=t_submit,
            t_done=self.env.now,
        )
        self.records.append(record)
        return record
