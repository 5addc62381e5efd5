"""One deployment's observers, taken once: the :class:`Hooks` object.

The policy service, the shard router, the REST server and the experiment
runners each take their sinks together as one ``hooks``.  Only the
sim-deterministic sink (the tracer) may feed an artifact that must be
byte-identical per seed; the registry, the profiler and the access log
are wall-clock (``docs/observability.md``, "The hooks object").  A sink
left out does nothing, or is its owner's own: a service keeps a private
registry and a REST server a private access log.  Reading a sink is an
attribute read, so the disabled path makes no call into this module.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, ClassVar, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer, as_tracer

if TYPE_CHECKING:
    from repro.obs.profiler import RuleProfiler

__all__ = ["Hooks"]


@dataclass(frozen=True, eq=False)
class Hooks:
    """Named sinks with no-op defaults (module docstring)."""

    tracer: Tracer = NULL_TRACER
    metrics: Optional[MetricsRegistry] = None
    profiler: Optional["RuleProfiler"] = None
    #: a bounded ``deque`` of request entries: appending to it and copying
    #: it are single C calls, so the loop and a reader need no lock
    access_log: Optional[deque] = None

    #: sink -> whether its data derives from simulated time and run state
    #: alone (``True``) or from wall clocks
    SIM_DETERMINISTIC: ClassVar[dict[str, bool]] = {
        "tracer": True, "metrics": False, "profiler": False, "access_log": False,
    }

    def __post_init__(self) -> None:
        object.__setattr__(self, "tracer", as_tracer(self.tracer))

    def owned(self, profiler: Optional["RuleProfiler"] = None) -> "Hooks":
        """The hooks as a service or a router holds them: a registry of its
        own when there is none, and ``profiler`` (when given) in place of
        the profiler."""
        return replace(
            self, metrics=self.metrics if self.metrics is not None else MetricsRegistry(),
            profiler=profiler if profiler is not None else self.profiler,
        )


#: the hooks of a deployment nobody observes
NO_HOOKS = Hooks()
