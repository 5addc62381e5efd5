"""The one DAG behind the abstract workflow and the plan: :class:`Dag`
answers every structure query from id-sorted adjacency lists and a
topological order, each built once per mutation.  A subclass says only
what its edges are (:meth:`Dag.edges`) and which error it raises."""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable, Mapping, Optional

__all__ = ["Dag", "reachable"]

Adjacency = tuple[dict[str, list[str]], dict[str, list[str]]]


def reachable(neighbours: Mapping[str, Iterable[str]], start: str) -> set[str]:
    """Every node one or more edges lead to from ``start``, ``start``
    excluded even on a cycle (``neighbours`` = parents gives ancestors)."""
    seen: set[str] = set()
    stack = [start]
    while stack:
        for node in neighbours[stack.pop()]:
            if node not in seen:
                seen.add(node)
                stack.append(node)
    seen.discard(start)
    return seen


class Dag:
    """Jobs keyed by id with directed edges between them."""

    #: raised for a cycle or an unknown job id
    error: type[ValueError] = ValueError
    name: str
    jobs: dict[str, Any]
    _adjacency: Optional[Adjacency] = None
    _order: Optional[list[str]] = None  # validate()'s verdict, until the next mutation
    #: every ``(parent, child)`` edge, as a new set (each subclass's own)
    edges: Callable[[], set[tuple[str, str]]]

    def _mutated(self) -> None:
        self._adjacency = self._order = None

    def adjacency(self) -> Adjacency:
        """``(children, parents)``: per job, the id-sorted neighbour lists,
        shared (do not modify).  Sorted so DAGMan's walk does not depend on
        hash randomization: a seed must replay identically across processes."""
        if self._adjacency is None:
            children: dict[str, list[str]] = {jid: [] for jid in self.jobs}
            parents: dict[str, list[str]] = {jid: [] for jid in self.jobs}
            for parent, child in sorted(self.edges()):
                children[parent].append(child)
                parents[child].append(parent)
            self._adjacency = (children, parents)
        return self._adjacency

    def _kahn(self) -> tuple[list[str], dict[str, int]]:
        """Kahn's algorithm releasing the smallest ready id first (the order
        of ``nx.lexicographical_topological_sort``), and each job's count of
        unreleased parents: nonzero only on or below a cycle."""
        children, parents = self.adjacency()
        waiting = {jid: len(ps) for jid, ps in parents.items()}
        ready = [jid for jid, count in waiting.items() if count == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            jid = heapq.heappop(ready)
            order.append(jid)
            for child in children[jid]:
                waiting[child] -= 1
                if waiting[child] == 0:
                    heapq.heappush(ready, child)
        return order, waiting

    def _sorted(self) -> list[str]:
        if self._order is None:
            order, waiting = self._kahn()
            if len(order) != len(waiting):
                cycle = self.find_cycle()
                raise self.error(f"{self.name!r} has a cycle: {' -> '.join([*cycle, cycle[0]])}")
            self._order = order
        return self._order

    def validate(self) -> None:
        """Raise :attr:`error` unless the jobs and edges form a DAG."""
        self._sorted()

    def topological_order(self) -> list[str]:
        return list(self._sorted())

    def find_cycle(self) -> list[str]:
        """A cycle from its smallest id, each job a parent of the next and
        the last a parent of the first; ``[]`` on a DAG."""
        parents, waiting = self.adjacency()[1], self._kahn()[1]
        node = next((jid for jid, count in waiting.items() if count), None)
        if node is None:
            return []
        walk: dict[str, int] = {}  # back through unreleased parents until one repeats
        while node not in walk:
            walk[node] = len(walk)
            node = next(p for p in parents[node] if waiting[p])
        cycle = list(walk)[walk[node]:][::-1]
        first = cycle.index(min(cycle))
        return cycle[first:] + cycle[:first]

    def parents(self, job_id: str) -> list[str]:
        return list(self.adjacency()[1][self._check(job_id)])

    def children(self, job_id: str) -> list[str]:
        return list(self.adjacency()[0][self._check(job_id)])

    def descendants(self, job_id: str) -> set[str]:
        return reachable(self.adjacency()[0], self._check(job_id))

    def roots(self) -> list[str]:
        return sorted(jid for jid, ps in self.adjacency()[1].items() if not ps)

    def leaves(self) -> list[str]:
        return sorted(jid for jid, cs in self.adjacency()[0].items() if not cs)

    def levels(self) -> dict[str, int]:
        """Longest-path depth of each job (roots are level 0): the level
        Pegasus' horizontal clustering groups by."""
        parents = self.adjacency()[1]
        level: dict[str, int] = {}
        for jid in self._sorted():
            level[jid] = 1 + max((level[p] for p in parents[jid]), default=-1)
        return level

    def __len__(self) -> int:
        return len(self.jobs)

    def _check(self, job_id: str) -> str:
        if job_id not in self.jobs:
            raise self.error(f"unknown job {job_id!r}")
        return job_id

    def _check_edge(self, parent_id: str, child_id: str) -> None:
        if self._check(parent_id) == self._check(child_id):
            raise self.error(f"self edge on {parent_id!r}")
