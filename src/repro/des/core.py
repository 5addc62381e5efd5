"""Core discrete-event simulation primitives.

The kernel follows the classic event-list design: an :class:`Environment`
fires events in ``(time, priority, sequence)`` order.  A :class:`Process`
wraps a generator; each value the generator yields must be an
:class:`Event`, and the process resumes when that event fires.

Most events are due at the instant they are scheduled, so the schedule is
three lanes rather than one heap:

* ``_urgent``, a FIFO of URGENT events, which the kernel only schedules at
  the current time (a process's :class:`Initialize`, and the follow-up
  event of a yield on an event that already fired);
* ``_due``, a FIFO of NORMAL events due at the current time
  (``succeed()``, ``fail()``, process ends, ``timeout(0)``, and delays too
  small to move the clock);
* ``_queue``, a binary heap of ``(time, sequence, event)`` for times
  strictly after the current one.

When the clock advances to the heap's head, every heap entry at that time
moves to the due lane in sequence order.  They were scheduled before the
clock reached that time, so each precedes anything scheduled at it; the
lanes therefore fire in exactly the order one heap of
``(time, priority, sequence)`` would.

Determinism
-----------
Two events scheduled for the same time fire in the order they were
scheduled (URGENT ones first), so a simulation is a pure function of its
inputs and seeds.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

from repro.obs.tracer import NULL_TRACER, as_tracer

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised for kernel misuse (running a dead environment, bad yields...)."""


class Event:
    """A one-shot occurrence in simulated time.

    Lifecycle: *pending* -> *triggered* (scheduled in a lane) ->
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
    def ok(self) -> Optional[bool]:
        """True if succeeded, False if failed, None if still pending."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's payload (or the failure exception)."""
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Schedule this event to fire successfully at the current time."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        self.env._due.append(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Schedule this event to fire as a failure at the current time."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exception
        self.env._due.append(self)
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
        # ``not >=`` also rejects NaN, which would corrupt the heap order.
        if not delay >= 0:
            raise ValueError(f"timeout delay must be a number >= 0, got {delay}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._triggered = True
        self._processed = False
        self._defused = False
        self.delay = delay
        at = env._now + delay
        if at == env._now:
            env._due.append(self)
        else:
            env._seq += 1
            heappush(env._queue, (at, env._seq, self))


class Initialize(Event):
    """Internal: kicks a freshly created process at the current time."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        self.env = env
        self.callbacks = [process._resume]
        self._value = None
        self._ok = True
        self._triggered = True
        self._processed = False
        self._defused = False
        env._urgent.append(self)


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
        self.env = env
        self.callbacks = []
        self._value = None
        self._ok = None
        self._triggered = False
        self._processed = False
        self._defused = False
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        Initialize(env, self)

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
            env._due.append(self)
            return
        except BaseException as exc:
            self._triggered = True
            self._ok = False
            self._value = exc
            env._due.append(self)
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
            env._urgent.append(follow)
        else:
            result.callbacks.append(self._resume)


class Condition(Event):
    """Base for AllOf / AnyOf composite events; each implements
    ``_satisfied()``, whether the children fired so far complete it."""

    __slots__ = ("events", "_count")
    _satisfied: Callable[[], bool]

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
                # A pre-fired child may have already satisfied the condition.
                ev.callbacks.append(_defuse if self._triggered else self._check)

    def _collect(self) -> dict:
        return {ev: ev._value for ev in self.events if ev._processed and ev._ok}

    def _check(self, event: Event) -> None:
        if self._triggered:
            _defuse(event)
            return
        self._count += 1
        if event._ok is False:
            event._defused = True
            self.fail(event._value)
        elif self._satisfied():
            self.succeed(self._collect())
        else:
            return
        # Children that have not fired now only need a late failure
        # defused.  ``_defuse`` holds no reference to the condition, so a
        # child that never fires keeps neither it nor what it reaches alive.
        check = self._check
        for ev in self.events:
            if ev.callbacks:
                ev.callbacks[:] = [_defuse if cb == check else cb for cb in ev.callbacks]


def _defuse(event: Event) -> None:
    """What a fired condition does for a child that fires after it."""
    if event._ok is False:
        event._defused = True


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
        self._urgent: deque[Event] = deque()
        self._due: deque[Event] = deque()
        self._queue: list[tuple[float, int, Event]] = []
        #: heap entries pushed so far (the lanes need no tie-breaker)
        self._seq = 0
        self.tracer = as_tracer(tracer)
        if self.tracer is not NULL_TRACER and getattr(self.tracer, "clock", None) is None:
            self.tracer.clock = lambda: self._now

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
    def step(self) -> None:
        """Process exactly one event (advancing the clock to it)."""
        if self._urgent:
            event = self._urgent.popleft()
        elif self._due:
            event = self._due.popleft()
        else:
            queue = self._queue
            if not queue:
                raise SimulationError("step() on an empty schedule")
            now, _seq, event = heappop(queue)
            self._now = now
            while queue and queue[0][0] == now:
                self._due.append(heappop(queue)[2])
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
        step = self.step
        urgent, due, queue = self._urgent, self._due, self._queue
        if isinstance(until, Event):
            stop = until
            while not stop._processed:
                if not (urgent or due or queue):
                    raise SimulationError("schedule drained before `until` event fired")
                step()
            if stop._ok:
                return stop._value
            raise stop._value

        if until is None:
            while urgent or due or queue:
                step()
            return None

        horizon = float(until)
        if horizon != horizon:
            raise ValueError(f"run(until={horizon}) is not a time")
        if horizon < self._now:
            raise ValueError(f"run(until={horizon}) is in the past (now={self._now})")
        while urgent or due or (queue and queue[0][0] <= horizon):
            step()
        self._now = max(self._now, horizon)
        return None
