"""Unit tests for structure-based priority algorithms."""

from repro.workflow import (
    File,
    Job,
    Workflow,
    bfs_priorities,
    dependent_priorities,
    dfs_priorities,
    direct_dependent_priorities,
)
from repro.workflow.priorities import PRIORITY_ALGORITHMS

from tests.workflow.generators import diamond_workflow, fork_join_workflow


def tree_wf():
    r"""root -> (mid1, mid2); mid1 -> (leaf1, leaf2); mid2 -> leaf3."""
    wf = Workflow("tree")
    r1, r2 = File("r1", 1), File("r2", 1)
    m1a, m1b, m2a = File("m1a", 1), File("m1b", 1), File("m2a", 1)
    wf.add_job(Job("root", "t", outputs=(r1, r2)))
    wf.add_job(Job("mid1", "t", inputs=(r1,), outputs=(m1a, m1b)))
    wf.add_job(Job("mid2", "t", inputs=(r2,), outputs=(m2a,)))
    wf.add_job(Job("leaf1", "t", inputs=(m1a,)))
    wf.add_job(Job("leaf2", "t", inputs=(m1b,)))
    wf.add_job(Job("leaf3", "t", inputs=(m2a,)))
    return wf


def test_bfs_root_highest_levels_descend():
    p = bfs_priorities(tree_wf())
    assert p["root"] > p["mid1"] > p["leaf1"]
    assert p["root"] > p["mid2"] > p["leaf3"]
    # BFS visits all mids before any leaf.
    assert min(p["mid1"], p["mid2"]) > max(p["leaf1"], p["leaf2"], p["leaf3"])


def test_dfs_explores_branch_first():
    p = dfs_priorities(tree_wf())
    assert p["root"] > p["mid1"]
    # DFS dives into mid1's subtree before visiting mid2.
    assert p["leaf1"] > p["mid2"]


def test_direct_dependent_is_fanout():
    p = direct_dependent_priorities(tree_wf())
    assert p["root"] == 2
    assert p["mid1"] == 2
    assert p["mid2"] == 1
    assert p["leaf1"] == 0


def test_dependent_counts_all_descendants():
    p = dependent_priorities(tree_wf())
    assert p["root"] == 5
    assert p["mid1"] == 2
    assert p["mid2"] == 1
    assert p["leaf2"] == 0


def test_all_algorithms_cover_all_jobs():
    wf = fork_join_workflow(width=5)
    for name, algo in PRIORITY_ALGORITHMS.items():
        p = algo(wf)
        assert set(p) == set(wf.jobs), name
        assert all(v >= 0 for v in p.values()), name


def test_priorities_deterministic():
    wf = diamond_workflow()
    for algo in PRIORITY_ALGORITHMS.values():
        assert algo(wf) == algo(wf)


def test_fork_join_fanout_priority():
    wf = fork_join_workflow(width=7)
    p = direct_dependent_priorities(wf)
    assert p["fork"] == 7
    assert p["join"] == 0
