"""Structured tracing keyed on simulated time.

A :class:`Tracer` collects an append-only stream of *events* — instants,
counter samples, and completed spans — each stamped with the current
clock reading (the simulation clock inside a DES run, wall time behind
the REST frontend) and a monotonically increasing sequence number.  The
stream is exported by :mod:`repro.obs.exporters` as Chrome
``trace_event`` JSON (loadable in ``about:tracing`` / Perfetto) or as a
JSONL event log.

Determinism
-----------
Inside a simulation every field of every event derives from simulated
time and run state, never from wall clocks or object ids, so two runs
with the same seed produce **byte-identical** JSONL streams.  Wall-clock measurements (rule action latency, journal
commit latency) belong in :class:`~repro.obs.metrics.MetricsRegistry`
histograms or the :class:`~repro.obs.profiler.RuleProfiler`, never in
trace events.

Overhead
--------
Tracing is off unless a tracer is attached *and* enabled.  Components
hold ``as_tracer(tracer)`` (never ``None``), guard emission with
``if tracer.enabled:`` and close only a span they hold (``if span is
not None:``), so a run without tracing pays one attribute test per
potential event and makes no call into this module
(``tests/obs/test_disabled_instrumentation.py`` counts them: zero).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

__all__ = ["Tracer", "SpanHandle", "NullTracer", "as_tracer"]


class SpanHandle:
    """An open span: created by :meth:`Tracer.begin`, closed by ``end``."""

    __slots__ = ("cat", "name", "track", "t_start", "args", "_closed")

    def __init__(self, cat: str, name: str, track: str, t_start: float, args: dict):
        self.cat = cat
        self.name = name
        self.track = track
        self.t_start = t_start
        self.args = args
        self._closed = False


class Tracer:
    """Collects trace events; the run's single source of timeline truth.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current time (seconds).  A
        tracer passed to :class:`~repro.des.core.Environment` is bound to
        the simulation clock automatically; the REST frontend binds wall
        time.  Unbound tracers stamp ``0.0``.
    enabled:
        Initial state; flip :attr:`enabled` at any time.  While disabled
        every emit method is a no-op.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None, enabled: bool = True):
        self.clock = clock
        self.enabled = bool(enabled)
        #: the event stream, in emission order
        self.events: list[dict] = []
        self._seq = 0
        #: track name -> stable integer id (Chrome "tid")
        self._tracks: dict[str, int] = {}

    # ------------------------------------------------------------------ clock
    def now(self) -> float:
        """Current clock reading (0.0 when no clock is bound)."""
        return self.clock() if self.clock is not None else 0.0

    # ------------------------------------------------------------------ emits
    def _emit(self, record: dict) -> None:
        self._seq += 1
        record["seq"] = self._seq
        self.events.append(record)

    def track_id(self, track: str) -> int:
        """Stable small integer for a track name (Chrome thread id)."""
        tid = self._tracks.get(track)
        if tid is None:
            tid = self._tracks[track] = len(self._tracks) + 1
        return tid

    def instant(self, cat: str, name: str, track: str = "main", **args: Any) -> None:
        """Emit a point-in-time event."""
        if not self.enabled:
            return
        self._emit({
            "ph": "i", "ts": self.now(), "cat": cat, "name": name,
            "track": track, "args": args,
        })

    def counter(self, cat: str, name: str, track: str = "counters", **values: float) -> None:
        """Emit a counter sample (rendered as a stacked area in Perfetto)."""
        if not self.enabled:
            return
        self._emit({
            "ph": "C", "ts": self.now(), "cat": cat, "name": name,
            "track": track, "args": values,
        })

    def begin(self, cat: str, name: str, track: str = "main", **args: Any) -> Optional[SpanHandle]:
        """Open a span; returns a handle for :meth:`end` (None when disabled)."""
        if not self.enabled:
            return None
        return SpanHandle(cat, name, track, self.now(), dict(args))

    def end(self, handle: Optional[SpanHandle], **args: Any) -> None:
        """Close a span, emitting one complete event covering its lifetime."""
        if handle is None or not self.enabled or handle._closed:
            return
        handle._closed = True
        merged = handle.args
        if args:
            merged.update(args)
        self._emit({
            "ph": "X", "ts": handle.t_start, "dur": self.now() - handle.t_start,
            "cat": handle.cat, "name": handle.name, "track": handle.track,
            "args": merged,
        })

    @contextmanager
    def span(self, cat: str, name: str, track: str = "main", **args: Any) -> Iterator[Optional[SpanHandle]]:
        """``with tracer.span(...)``: span over the block, closed on exit.

        The span is emitted even when the block raises (the exception type
        is recorded in the span's args) — error paths stay visible.
        """
        handle = self.begin(cat, name, track, **args)
        try:
            yield handle
        except BaseException as exc:
            self.end(handle, error=type(exc).__name__)
            raise
        else:
            self.end(handle)

    # ------------------------------------------------------------------ views
    def __len__(self) -> int:
        return len(self.events)

    def spans(self) -> list[dict]:
        """All completed span events."""
        return [e for e in self.events if e["ph"] == "X"]

    def by_category(self, cat: str) -> list[dict]:
        return [e for e in self.events if e["cat"] == cat]

    def summary(self) -> dict:
        """Compact census of the stream (attached to provenance docs)."""
        categories: dict[str, int] = {}
        spans = 0
        for event in self.events:
            categories[event["cat"]] = categories.get(event["cat"], 0) + 1
            if event["ph"] == "X":
                spans += 1
        return {
            "events": len(self.events),
            "spans": spans,
            "categories": dict(sorted(categories.items())),
        }


class NullTracer(Tracer):
    """A permanently disabled tracer: every emit method is a no-op.

    Instrumented code holds a tracer unconditionally and never tests it
    for ``None`` — the null object absorbs the calls.  :attr:`enabled` is
    a plain ``False`` attribute, so reading it on the default path is not
    a Python call; it is the *write* that is refused.
    """

    def __init__(self) -> None:
        super().__init__(clock=None, enabled=False)

    def __setattr__(self, name: str, value: Any) -> None:
        if name == "enabled" and value:
            raise ValueError("a NullTracer cannot be enabled; use Tracer()")
        super().__setattr__(name, value)

    def _emit(self, record: dict) -> None:  # pragma: no cover - never reached
        raise AssertionError("NullTracer must not emit events")


#: shared instance — NullTracer keeps no state, so one is enough
NULL_TRACER = NullTracer()


def as_tracer(tracer: Optional[Tracer]) -> Tracer:
    """``tracer`` itself, or the shared :class:`NullTracer` for ``None``.

    The uniform-instrumentation helper: components keep
    ``as_tracer(tracer)`` and test ``tracer.enabled``, never ``None``.
    """
    return tracer if tracer is not None else NULL_TRACER
