"""Simulated distributed data-transfer substrate.

The paper's testbed (GridFTP over a ~28 Mbit/s WAN from a FutureGrid VM to
the ISI Obelix cluster) is replaced by a fluid-flow network simulation:

* :mod:`repro.net.topology` — sites, hosts, links, routes;
* :mod:`repro.net.tcp` — the per-stream throughput model (window cap,
  congestion knee, setup/ramp costs);
* :mod:`repro.net.flows` — a max–min fair fluid-flow engine over the DES
  kernel: active transfers share link capacity in proportion to their
  parallel-stream counts;
* :mod:`repro.net.gridftp` — a GridFTP-like transfer client with
  session/stream setup costs and failure injection.

The model is calibrated so the qualitative findings of the paper hold: more
parallel streams help until the pipe fills; allocating far beyond a
congestion knee degrades throughput; very large transfers are dominated by
the bandwidth floor regardless of allocation (see DESIGN.md §5).
"""

from repro.net.flows import Flow, FlowNetwork
from repro.net.gridftp import GridFTPClient, TransferError, parse_url
from repro.net.tcp import StreamModel
from repro.net.topology import Host, Link, Network, Route, Site

__all__ = [
    "Flow",
    "FlowNetwork",
    "GridFTPClient",
    "Host",
    "Link",
    "Network",
    "Route",
    "Site",
    "StreamModel",
    "TransferError",
    "parse_url",
]
