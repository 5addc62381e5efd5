"""Fluid-flow transfer engine over the DES kernel.

Active transfers are *flows*; each flow holds ``streams`` parallel streams
across every link of its route.  Whenever the flow set changes, the engine
re-solves a weighted max–min fair allocation (progressive filling):

* a flow's weight is its stream count — transfers with more streams get a
  proportionally larger share of a contended link (the reason stream
  allocation policy matters at all);
* a flow's rate is additionally capped at
  ``streams x min(stream_rate_cap)`` over its route (TCP window cap);
* each link's aggregate capacity is scaled by the congestion factor for
  the total streams *announced* on it (including flows still in their
  setup/ramp phase, which have opened connections but move no data yet).

Between events rates are constant, so completions are scheduled exactly
(no polling).  The engine is deterministic.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional

from repro.des.core import Environment, Event
from repro.net.tcp import StreamModel, effective_capacity
from repro.net.topology import Host, Link, Network, Route

__all__ = ["Flow", "FlowNetwork"]

_EPS = 1e-7
#: Minimum scheduling quantum (seconds).  Flows whose residual bytes would
#: drain in less than this are completed immediately; completion timers are
#: never scheduled closer than this.  Guards against float-precision
#: livelock: at large simulation times a sub-ULP delay would not advance
#: the clock at all.  The contract this implies: a finished flow's residue
#: (at most ``rate x _QUANTUM`` bytes: a microsecond of the link, against
#: the paper's megabyte files) counts as delivered but is not added to
#: ``FlowNetwork.bytes_moved``, which is therefore exact only to
#: ``capacity x _QUANTUM`` bytes per flow
#: (``tests/property/test_flow_properties.py`` states that tolerance).
_QUANTUM = 1e-6


class Flow:
    """One transfer in flight.

    Attributes
    ----------
    done:
        Event fired when the last byte arrives.  Its value is None: the
        caller holds the flow already, and a value pointing back at it
        would make every finished flow a reference cycle.
    state:
        ``"setup"`` -> ``"active"`` -> ``"done"``.
    """

    __slots__ = (
        "fid",
        "src",
        "dst",
        "route",
        "streams",
        "nbytes",
        "remaining",
        "rate",
        "state",
        "done",
        "t_submit",
        "t_data_start",
        "t_done",
    )

    def __init__(self, fid: int, route: Route, nbytes: float, streams: int, env: Environment):
        self.fid = fid
        self.src = route.src
        self.dst = route.dst
        self.route = route
        self.streams = streams
        self.nbytes = float(nbytes)
        self.remaining = float(nbytes)
        self.rate = 0.0
        self.state = "setup"
        self.done: Event = env.event()
        self.t_submit = env.now
        self.t_data_start: Optional[float] = None
        self.t_done: Optional[float] = None

    @property
    def duration(self) -> Optional[float]:
        """Wall time from submit to completion (None while in flight)."""
        if self.t_done is None:
            return None
        return self.t_done - self.t_submit


class FlowNetwork:
    """The shared transfer fabric for a simulation run.

    Parameters
    ----------
    env, network:
        DES environment and the static topology.
    model:
        Setup/ramp constants (:class:`~repro.net.tcp.StreamModel`).
    """

    def __init__(self, env: Environment, network: Network, model: Optional[StreamModel] = None):
        self.env = env
        self.network = network
        self.model = model or StreamModel()
        self._flows: dict[int, Flow] = {}          # all non-finished flows
        self._active: dict[int, Flow] = {}         # flows moving data
        self._fid = itertools.count(1)
        self._gen = 0                              # reschedule generation
        self._last_update = env.now
        # metrics
        self.peak_streams: dict[str, int] = {}     # link name -> max observed
        self.bytes_moved = 0.0
        # last traced per-link stream counts / flow census (emit on change
        # only, so trace volume is bounded by actual allocation dynamics)
        self._last_traced: dict[str, int] = {}
        self._last_flow_census: Optional[tuple[int, int]] = None

    # ------------------------------------------------------------- public
    def start_transfer(
        self,
        src: Host | str,
        dst: Host | str,
        nbytes: float,
        streams: int,
        session_established: bool = False,
    ) -> Flow:
        """Begin a transfer; returns its :class:`Flow` (wait on ``flow.done``).

        ``session_established`` skips the control-channel setup cost
        (grouped transfers reusing one client session).
        """
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if streams < 1:
            raise ValueError("streams must be >= 1")
        route = self.network.route(src, dst)
        flow = Flow(next(self._fid), route, nbytes, int(streams), self.env)
        contention = self._streams_on_route(route)
        self._flows[flow.fid] = flow
        self._note_peaks()
        delay = self.model.setup_delay(flow.streams, contention, session_established)
        self.env.process(self._enter_after_setup(flow, delay), name=f"flow-{flow.fid}-setup")
        return flow

    # ------------------------------------------------------------ internals
    def _streams_on_link(self, link: Link) -> int:
        return sum(f.streams for f in self._flows.values() if link in f.route.links)

    def _streams_on_route(self, route: Route) -> int:
        return max((self._streams_on_link(l) for l in route.links), default=0)

    def _note_peaks(self) -> None:
        tracer = self.env.tracer
        trace = tracer.enabled
        for link in self.network.links.values():
            s = self._streams_on_link(link)
            if s > self.peak_streams.get(link.name, 0):
                self.peak_streams[link.name] = s
            if trace and s != self._last_traced.get(link.name):
                self._last_traced[link.name] = s
                tracer.counter(
                    "net", f"streams:{link.name}", track="net", streams=s
                )
        if trace:
            census = (len(self._active), len(self._flows))
            if census != self._last_flow_census:
                self._last_flow_census = census
                tracer.counter(
                    "net", "flows", track="net",
                    active=census[0], announced=census[1],
                )

    def _enter_after_setup(self, flow: Flow, delay: float):
        yield self.env.timeout(delay)
        flow.state = "active"
        flow.t_data_start = self.env.now
        self._active[flow.fid] = flow
        if flow.remaining <= _EPS:
            self._complete(flow)
        self._reschedule()

    def _settle(self) -> None:
        """Credit progress since the last rate computation."""
        elapsed = self.env.now - self._last_update
        if elapsed > 0:
            for flow in self._active.values():
                moved = flow.rate * elapsed
                flow.remaining = max(0.0, flow.remaining - moved)
                self.bytes_moved += moved
        self._last_update = self.env.now

    def _solve_rates(self) -> None:
        """Weighted max–min fair progressive filling with per-flow caps."""
        flows = list(self._active.values())
        for flow in flows:
            flow.rate = 0.0
        if not flows:
            return

        # Effective capacities use announced streams (setup flows included).
        cap_left: dict[str, float] = {}
        link_by_name: dict[str, Link] = {}
        for link in self.network.links.values():
            total = self._streams_on_link(link)
            if total > 0:
                cap_left[link.name] = effective_capacity(link, total)
                link_by_name[link.name] = link

        unfixed = set(f.fid for f in flows)
        flow_by_id = {f.fid: f for f in flows}

        def flow_cap(flow: Flow) -> float:
            caps = [
                l.stream_rate_cap
                for l in flow.route.links
                if l.stream_rate_cap is not None
            ]
            return flow.streams * min(caps) if caps else math.inf

        guard = 0
        while unfixed:
            guard += 1
            if guard > len(flows) + 2:  # pragma: no cover - defensive
                raise RuntimeError("water-filling failed to converge")

            # Weight of unfixed flows per link.
            weight: dict[str, int] = {}
            for fid in unfixed:
                for link in flow_by_id[fid].route.links:
                    weight[link.name] = weight.get(link.name, 0) + flow_by_id[fid].streams

            # Tentative fair share for each unfixed flow.
            share: dict[int, float] = {}
            for fid in unfixed:
                flow = flow_by_id[fid]
                share[fid] = min(
                    cap_left[l.name] * flow.streams / weight[l.name]
                    for l in flow.route.links
                )

            # 1) Fix all cap-limited flows first (they free capacity).
            capped = [fid for fid in unfixed if flow_cap(flow_by_id[fid]) <= share[fid] + _EPS]
            if capped:
                for fid in capped:
                    flow = flow_by_id[fid]
                    flow.rate = flow_cap(flow)
                    for link in flow.route.links:
                        cap_left[link.name] = max(0.0, cap_left[link.name] - flow.rate)
                    unfixed.discard(fid)
                continue

            # 2) Otherwise saturate the tightest link and fix its flows.
            tight = min(
                (name for name in weight),
                key=lambda name: cap_left[name] / weight[name],
            )
            for fid in list(unfixed):
                flow = flow_by_id[fid]
                if any(l.name == tight for l in flow.route.links):
                    flow.rate = cap_left[tight] * flow.streams / weight[tight]
                    for link in flow.route.links:
                        if link.name != tight:
                            cap_left[link.name] = max(0.0, cap_left[link.name] - flow.rate)
                    unfixed.discard(fid)
            cap_left[tight] = 0.0

    def _complete(self, flow: Flow) -> None:
        flow.state = "done"
        flow.t_done = self.env.now
        flow.remaining = 0.0
        self._flows.pop(flow.fid, None)
        self._active.pop(flow.fid, None)
        flow.done.succeed()

    def _finish_due(self) -> None:
        """Complete flows that are done or within one quantum of done."""
        for flow in list(self._active.values()):
            if flow.remaining <= _EPS or flow.remaining <= flow.rate * _QUANTUM:
                self._complete(flow)

    def _reschedule(self) -> None:
        self._settle()
        self._finish_due()
        while True:
            self._solve_rates()
            before = len(self._active)
            # Newly raised rates may put residuals within a quantum; keep
            # resolving until the active set is stable so no flow runs on
            # a stale (lower) rate.
            self._finish_due()
            if len(self._active) == before:
                break
        self._note_peaks()
        self._gen += 1
        gen = self._gen
        horizon = math.inf
        for flow in self._active.values():
            if flow.rate > 0:
                horizon = min(horizon, flow.remaining / flow.rate)
        if math.isfinite(horizon):
            self.env.process(
                self._timer(gen, max(horizon, _QUANTUM)), name=f"net-timer-{gen}"
            )

    def _timer(self, gen: int, delay: float):
        yield self.env.timeout(delay)
        if gen != self._gen:
            return  # superseded by a newer schedule
        self._reschedule()
