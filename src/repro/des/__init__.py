"""Discrete-event simulation kernel.

A small, dependency-free, SimPy-flavoured kernel used as the execution
substrate for the simulated distributed testbed (network, hosts, cluster
scheduler, workflow engine).  Processes are plain Python generators that
yield :class:`~repro.des.core.Event` objects; the :class:`Environment`
advances virtual time deterministically.

The kernel is deliberately deterministic: events scheduled for the same
timestamp fire in schedule order (FIFO tie-breaking), so simulations are
reproducible bit-for-bit for a fixed seed.

Public API
----------
``Environment``
    The simulation clock and event loop.
``Event``, ``Timeout``, ``Process``, ``AllOf``, ``AnyOf``
    Event primitives usable from process generators.
``Resource``, ``PriorityResource``
    Queued capacity primitives built on events.
``RngRegistry``
    Named deterministic random substreams per simulation component.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.des.core import AllOf, AnyOf, Environment, Event, Process, SimulationError, Timeout
    from repro.des.resources import PriorityResource, Resource
    from repro.des.rng import RngRegistry

_EXPORTS = {  # name -> the module it is imported from
    "AllOf": ".core", "AnyOf": ".core", "Environment": ".core", "Event": ".core",
    "PriorityResource": ".resources", "Process": ".core", "Resource": ".resources",
    "RngRegistry": ".rng", "SimulationError": ".core", "Timeout": ".core",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
