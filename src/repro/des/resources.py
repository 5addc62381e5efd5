"""Queued capacity primitives for the DES kernel.

``Resource`` (also named ``PriorityResource``)
    A counted semaphore whose waiters are served in (priority, FIFO)
    order (cluster slots, job throttles); with the default priority it
    is plain FIFO.

All requests are events: processes ``yield resource.request()`` and later
call ``resource.release(req)``.
"""

from __future__ import annotations

import heapq
from typing import Any

from repro.des.core import Environment, Event

__all__ = ["Resource", "PriorityResource"]


class Request(Event):
    """A pending or granted claim on a :class:`Resource` slot."""

    __slots__ = ("resource", "priority", "key")

    def __init__(self, resource: "Resource", priority: int = 0):
        super().__init__(resource.env)
        self.resource = resource
        self.priority = priority
        self.key: Any = None


class Resource:
    """Counted capacity granted in (priority, FIFO) order; lower
    ``priority`` values are served first, matching the convention of batch
    schedulers.

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
    def count(self) -> int:
        """Number of currently granted requests."""
        return len(self._users)

    @property
    def queued(self) -> int:
        """Number of waiting (ungranted) requests."""
        return len(self._queue)

    # -- operations -----------------------------------------------------------
    def request(self, priority: int = 0) -> Request:
        """Claim one slot; the returned event fires when granted.

        Granting is deferred to the end of the current event cascade so
        that all requests made at the same instant enter the queue before
        any is granted — this is what serves the highest-priority of
        simultaneously-arriving requests first.
        """
        req = Request(self, priority)
        self._seq += 1
        req.key = (priority, self._seq)
        heapq.heappush(self._queue, (req.key, id(req), req))
        self._schedule_grant()
        return req

    def release(self, request: Request) -> None:
        """Return a granted slot, or withdraw a request still waiting."""
        if request in self._users:
            self._users.remove(request)
            self._schedule_grant()
        elif not request.triggered:
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


#: the engine's name for a :class:`Resource` it queues by job priority
PriorityResource = Resource
