"""Core discrete-event simulation primitives.

The kernel follows the classic event-list design: an :class:`Environment`
owns a binary heap of ``(time, priority, sequence, event)`` entries and pops
them in order.  A :class:`Process` wraps a generator; each value the
generator yields must be an :class:`Event`, and the process resumes when
that event fires.

Determinism
-----------
Two events scheduled for the same time fire in the order they were
scheduled (a monotonically increasing sequence number breaks ties), so a
simulation is a pure function of its inputs and seeds.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Generator, Iterable, Optional

from repro.obs.tracer import as_tracer

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "SimulationError",
]

#: Event priority for ordinary events.
NORMAL = 1
#: Event priority used for urgent bookkeeping (fires before NORMAL at same t).
URGENT = 0


class SimulationError(RuntimeError):
    """Raised for kernel misuse (running a dead environment, bad yields...)."""


class Event:
    """A one-shot occurrence in simulated time.

    Lifecycle: *pending* -> *triggered* (scheduled on the heap) ->
    *processed* (callbacks ran).  An event succeeds with a ``value`` or fails
    with an exception; failures propagate into any process waiting on the
    event.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered", "_processed", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        self._triggered = False
        self._processed = False
        self._defused = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> Optional[bool]:
        """True if succeeded, False if failed, None if still pending."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's payload (or the failure exception)."""
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Schedule this event to fire successfully at the current time."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        self.env._schedule(self, priority)
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Schedule this event to fire as a failure at the current time."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exception
        self.env._schedule(self, priority)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so it does not crash the run."""
        self._defused = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self._processed else ("triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at t={self.env.now:.6g}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(env)
        self.delay = delay
        self._triggered = True
        self._ok = True
        self._value = value
        env._schedule(self, NORMAL, delay=delay)


class Initialize(Event):
    """Internal: kicks a freshly created process at the current time."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self.callbacks.append(process._resume)
        self._triggered = True
        self._ok = True
        self._value = None
        env._schedule(self, URGENT)


class Process(Event):
    """Wraps a generator; the event fires when the generator finishes.

    The generator's ``return`` value becomes the event value; an uncaught
    exception becomes a failure (propagated to waiters, or raised out of
    :meth:`Environment.run` if nobody waits).
    """

    __slots__ = ("_generator", "name")

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(f"process() requires a generator, got {generator!r}")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self._triggered

    # -- engine -----------------------------------------------------------
    def _resume(self, event: Event) -> None:
        # Only the one event the process waits on (or its Initialize)
        # calls back here, so a finished process is never resumed.
        env = self.env
        try:
            if event._ok:
                result = self._generator.send(event._value)
            else:
                event._defused = True
                result = self._generator.throw(event._value)
        except StopIteration as stop:
            self._triggered = True
            self._ok = True
            self._value = stop.value
            env._schedule(self, NORMAL)
            return
        except BaseException as exc:
            self._triggered = True
            self._ok = False
            self._value = exc
            env._schedule(self, NORMAL)
            return

        if not isinstance(result, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {result!r}; processes must yield Event objects"
            )
        if result._processed:
            # Already fired: resume immediately at the current time.
            follow = Event(env)
            follow._ok = result._ok
            follow._value = result._value
            if not result._ok:
                follow._defused = True
            follow.callbacks.append(self._resume)
            follow._triggered = True
            env._schedule(follow, URGENT)
        else:
            result.callbacks.append(self._resume)


class Condition(Event):
    """Base for AllOf / AnyOf composite events."""

    __slots__ = ("events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = list(events)
        self._count = 0
        for ev in self.events:
            if ev.env is not env:
                raise SimulationError("cannot mix events from different environments")
        if not self.events:
            self.succeed(self._collect())
            return
        for ev in self.events:
            if ev._processed:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)
        # A pre-fired child may have already satisfied the condition.

    def _collect(self) -> dict:
        return {ev: ev._value for ev in self.events if ev._processed and ev._ok}

    def _satisfied(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def _check(self, event: Event) -> None:
        if self._triggered:
            if event._ok is False:
                event._defused = True
            return
        self._count += 1
        if event._ok is False:
            event._defused = True
            self.fail(event._value)
        elif self._satisfied():
            self.succeed(self._collect())


class AllOf(Condition):
    """Fires when every child event has fired (fails fast on any failure)."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count >= len(self.events)


class AnyOf(Condition):
    """Fires when at least one child event has fired."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count >= 1


class Environment:
    """The simulation clock and event loop.

    Parameters
    ----------
    initial_time:
        Starting value of :attr:`now` (seconds; the unit is by convention).
    tracer:
        Optional :class:`repro.obs.tracer.Tracer`.  The environment binds
        the tracer's clock to the simulation clock so every emitted event
        is stamped with :attr:`now`.  Components reach it via
        ``env.tracer`` — never ``None``: without a tracer it is the shared
        disabled :class:`~repro.obs.tracer.NullTracer` — and guard
        emission with ``if env.tracer.enabled:``.
    """

    def __init__(self, initial_time: float = 0.0, tracer: Optional[Any] = None):
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self.tracer = as_tracer(tracer)
        if tracer is not None and getattr(tracer, "clock", None) is None:
            tracer.clock = lambda: self._now

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    # -- factories ----------------------------------------------------------
    def event(self) -> Event:
        """Create a new untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a new process from a generator; returns its Process event."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event that fires when all ``events`` fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event that fires when any of ``events`` fired."""
        return AnyOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def _schedule(self, event: Event, priority: int, delay: float = 0.0) -> None:
        self._seq += 1
        heapq.heappush(self._queue, (self._now + delay, priority, self._seq, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if none."""
        return self._queue[0][0] if self._queue else math.inf

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it)."""
        if not self._queue:
            raise SimulationError("step() on an empty schedule")
        t, _prio, _seq, event = heapq.heappop(self._queue)
        if t < self._now:  # pragma: no cover - defensive
            raise SimulationError("time went backwards")
        self._now = t
        callbacks, event.callbacks = event.callbacks, None
        event._processed = True
        for callback in callbacks:
            callback(event)
        if event._ok is False and not event._defused:
            # Nobody handled the failure: crash the simulation loudly.
            raise event._value

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the schedule drains, a time is reached, or an event fires.

        ``until`` may be a number (run to that time), an :class:`Event` (run
        until it fires; its value is returned, failures re-raise), or None
        (run until no events remain).
        """
        if isinstance(until, Event):
            stop = until
            if stop._processed:
                if stop._ok:
                    return stop._value
                raise stop._value
            sentinel: dict[str, Any] = {}

            def _mark(ev: Event) -> None:
                sentinel["done"] = True

            stop.callbacks.append(_mark)
            while "done" not in sentinel:
                if not self._queue:
                    raise SimulationError("schedule drained before `until` event fired")
                self.step()
            if stop._ok:
                return stop._value
            stop._defused = True
            raise stop._value

        if until is None:
            while self._queue:
                self.step()
            return None

        horizon = float(until)
        if horizon < self._now:
            raise ValueError(f"run(until={horizon}) is in the past (now={self._now})")
        while self._queue and self._queue[0][0] <= horizon:
            self.step()
        self._now = max(self._now, horizon)
        return None
