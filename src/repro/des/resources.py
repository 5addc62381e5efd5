"""Queued capacity primitives for the DES kernel.

``Resource``
    A counted semaphore with a FIFO wait queue (cluster slots, job throttles).
``PriorityResource``
    Same, but waiters are served in (priority, FIFO) order.

All requests are events: processes ``yield resource.request()`` and later
call ``resource.release(req)`` (or use the request as a context manager).
"""

from __future__ import annotations

import heapq
from typing import Any

from repro.des.core import Environment, Event, SimulationError

__all__ = ["Resource", "PriorityResource"]


class Request(Event):
    """A pending or granted claim on a :class:`Resource` slot."""

    __slots__ = ("resource", "priority", "key")

    def __init__(self, resource: "Resource", priority: int = 0):
        super().__init__(resource.env)
        self.resource = resource
        self.priority = priority
        self.key: Any = None

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw an ungranted request from the wait queue."""
        self.resource._cancel(self)


class Resource:
    """Counted capacity with FIFO granting.

    Parameters
    ----------
    env:
        Simulation environment.
    capacity:
        Number of simultaneous holders (>= 1).
    """

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self._capacity = int(capacity)
        self._users: set[Request] = set()
        self._queue: list[tuple[Any, int, Request]] = []
        self._seq = 0
        self._grant_pending = False

    # -- introspection ------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def count(self) -> int:
        """Number of currently granted requests."""
        return len(self._users)

    @property
    def queued(self) -> int:
        """Number of waiting (ungranted) requests."""
        return len(self._queue)

    # -- operations -----------------------------------------------------------
    def _order_key(self, request: Request) -> Any:
        self._seq += 1
        return (self._seq,)

    def request(self, priority: int = 0) -> Request:
        """Claim one slot; the returned event fires when granted.

        Granting is deferred to the end of the current event cascade so
        that all requests made at the same instant enter the queue before
        any is granted — this is what lets a :class:`PriorityResource`
        serve the highest-priority of simultaneously-arriving requests
        first.
        """
        req = Request(self, priority)
        req.key = self._order_key(req)
        heapq.heappush(self._queue, (req.key, id(req), req))
        self._schedule_grant()
        return req

    def release(self, request: Request) -> None:
        """Return a granted slot (no-op for cancelled requests)."""
        if request in self._users:
            self._users.remove(request)
            self._schedule_grant()
        elif not request.triggered:
            self._cancel(request)

    def _cancel(self, request: Request) -> None:
        if request.triggered:
            raise SimulationError("cannot cancel a granted request")
        self._queue = [entry for entry in self._queue if entry[2] is not request]
        heapq.heapify(self._queue)

    def _schedule_grant(self) -> None:
        if getattr(self, "_grant_pending", False):
            return
        self._grant_pending = True
        trigger = Event(self.env)
        trigger.callbacks.append(lambda _ev: self._grant())
        trigger.succeed()

    def _grant(self) -> None:
        self._grant_pending = False
        while self._queue and len(self._users) < self._capacity:
            _key, _tie, req = heapq.heappop(self._queue)
            self._users.add(req)
            req.succeed(req)


class PriorityResource(Resource):
    """A :class:`Resource` whose queue is served by (priority, FIFO).

    Lower ``priority`` values are served first, matching the convention of
    batch schedulers.
    """

    def _order_key(self, request: Request) -> Any:
        self._seq += 1
        return (request.priority, self._seq)
