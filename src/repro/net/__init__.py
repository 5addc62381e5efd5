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
  session/stream setup costs and failure injection;
* :mod:`repro.net.urls` — ``parse_url``, apart from the fabric so the
  Policy Service can check URLs without loading the simulator.

The model is calibrated so the qualitative findings of the paper hold: more
parallel streams help until the pipe fills; allocating far beyond a
congestion knee degrades throughput; very large transfers are dominated by
the bandwidth floor regardless of allocation (see DESIGN.md §5).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.net.flows import Flow, FlowNetwork
    from repro.net.gridftp import GridFTPClient, TransferError
    from repro.net.tcp import StreamModel
    from repro.net.topology import Host, Link, Network, Route, Site
    from repro.net.urls import parse_url

_EXPORTS = {  # name -> the module it is imported from
    "Flow": ".flows", "FlowNetwork": ".flows", "GridFTPClient": ".gridftp", "Host": ".topology",
    "Link": ".topology", "Network": ".topology", "Route": ".topology", "Site": ".topology",
    "StreamModel": ".tcp", "TransferError": ".gridftp", "parse_url": ".urls",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
