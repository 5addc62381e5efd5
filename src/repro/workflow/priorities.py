"""Structure-based job priorities (paper §III.c).

The paper proposes prioritising data staging by workflow structure, naming
four algorithms; higher numbers mean *stage earlier*:

* **BFS** — breadth-first traversal from the roots; earlier-visited jobs
  get higher priorities.
* **DFS** — depth-first traversal; likewise.
* **direct-dependent-based** — a job's priority is its fan-out (number of
  direct children): feeding a wide job first unblocks the most work.
* **dependent-based** — a job's priority is its total descendant count.

All functions return ``{job_id: priority}`` with non-negative integers.
Ties are broken deterministically (lexicographic job id) so planning is
reproducible.
"""

from __future__ import annotations

from repro.workflow.dag import Workflow

__all__ = [
    "bfs_priorities",
    "dfs_priorities",
    "direct_dependent_priorities",
    "dependent_priorities",
    "PRIORITY_ALGORITHMS",
]


def _order_to_priority(order: list[str], total: int) -> dict[str, int]:
    return {job_id: total - idx for idx, job_id in enumerate(order)}


def bfs_priorities(workflow: Workflow) -> dict[str, int]:
    """Priorities by breadth-first traversal order from the roots."""
    workflow.validate()
    children = workflow.adjacency()[0]
    visited: list[str] = []
    seen: set[str] = set()
    frontier = workflow.roots()
    while frontier:
        next_frontier: list[str] = []
        for node in frontier:
            if node in seen:
                continue
            seen.add(node)
            visited.append(node)
            next_frontier.extend(children[node])
        frontier = next_frontier
    return _order_to_priority(visited, len(workflow))


def dfs_priorities(workflow: Workflow) -> dict[str, int]:
    """Priorities by depth-first traversal order from the roots."""
    workflow.validate()
    children = workflow.adjacency()[0]
    visited: list[str] = []
    seen: set[str] = set()

    def visit(node: str) -> None:
        if node in seen:
            return
        seen.add(node)
        visited.append(node)
        for child in children[node]:
            visit(child)

    for root in workflow.roots():
        visit(root)
    return _order_to_priority(visited, len(workflow))


def direct_dependent_priorities(workflow: Workflow) -> dict[str, int]:
    """Priority = number of direct children (fan-out)."""
    workflow.validate()
    return {node: len(children) for node, children in workflow.adjacency()[0].items()}


def dependent_priorities(workflow: Workflow) -> dict[str, int]:
    """Priority = number of total descendants (transitive fan-out)."""
    workflow.validate()
    return {job_id: len(workflow.descendants(job_id)) for job_id in workflow.jobs}


#: Registry used by the policy layer and CLI-ish helpers.
PRIORITY_ALGORITHMS = {
    "bfs": bfs_priorities,
    "dfs": dfs_priorities,
    "direct-dependent": direct_dependent_priorities,
    "dependent": dependent_priorities,
}
