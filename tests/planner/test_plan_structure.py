"""The plan's adjacency lists and its remembered validation verdict."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.planner.executable import (
    ExecutableJob,
    ExecutableWorkflow,
    JobKind,
    PlanningError,
)
from repro.workflow.dag import File, Job, Workflow, WorkflowError

NODES = [f"n{i}" for i in range(8)]
edge_sets = st.sets(
    st.tuples(st.sampled_from(NODES), st.sampled_from(NODES)).filter(lambda e: e[0] != e[1]),
    max_size=20,
)


def plan_of(edges):
    plan = ExecutableWorkflow("w", "w#1")
    for node in NODES:
        plan.add_job(ExecutableJob(id=node, kind=JobKind.COMPUTE, transform="t"))
    for parent, child in edges:  # set order: insertion order must not matter
        plan.add_edge(parent, child)
    return plan


@settings(max_examples=200, deadline=None)
@given(edge_sets)
def test_adjacency_is_the_sorted_graph_neighbourhood(edges):
    plan = plan_of(edges)
    children, parents = plan.adjacency()
    graph = plan.graph()
    assert list(children) == list(parents) == list(plan.jobs)
    for node in NODES:
        assert children[node] == sorted(graph.successors(node)) == plan.children(node)
        assert parents[node] == sorted(graph.predecessors(node)) == plan.parents(node)
        # the order DAGMan walks is the order networkx gave it
        assert children[node] == list(graph.successors(node))
    plan.children(NODES[0]).append("x")  # a copy: the shared lists stay intact
    assert plan.adjacency()[0][NODES[0]] == sorted(graph.successors(NODES[0]))


@settings(max_examples=300, deadline=None)
@given(edge_sets)
def test_validate_agrees_with_networkx(edges):
    plan = plan_of(edges)
    if nx.is_directed_acyclic_graph(plan.graph()):
        plan.validate()
        plan.validate()
        levels = plan.levels()
        assert all(levels[p] < levels[c] for p, c in edges)
    else:
        for _ in range(2):  # a failed verdict is not remembered as a pass
            with pytest.raises(PlanningError, match="cycle"):
                plan.validate()


def test_plan_mutation_after_validate_is_validated_again():
    plan = plan_of([("n0", "n1"), ("n1", "n2")])
    plan.validate()
    plan.add_job(ExecutableJob(id="late", kind=JobKind.COMPUTE, transform="t"))
    assert plan.adjacency()[0]["late"] == [] and "late" in plan.graph()
    plan.validate()
    plan.add_edge("n2", "late")
    assert plan.parents("late") == ["n2"]
    order = plan.topological_order()
    assert order.index("n2") < order.index("late")
    plan.add_edge("late", "n0")  # closes n0 -> n1 -> n2 -> late -> n0
    with pytest.raises(PlanningError, match="cycle"):
        plan.validate()
    with pytest.raises(PlanningError, match="cycle"):
        plan.levels()


def test_workflow_mutation_after_validate_is_validated_again():
    wf = Workflow("w")
    wf.add_job(Job("a", "t", outputs=(File("f", 1.0),)))
    wf.add_job(Job("b", "t", inputs=(File("f", 1.0),), outputs=(File("g", 1.0),)))
    wf.validate()
    wf.add_control_edge("b", "a")
    with pytest.raises(WorkflowError, match="cycle"):
        wf.validate()

    wf = Workflow("w")
    wf.add_job(Job("a", "t", inputs=(File("g", 1.0),), outputs=(File("f", 1.0),)))
    wf.validate()
    wf.add_job(Job("b", "t", inputs=(File("f", 1.0),), outputs=(File("g", 1.0),)))
    with pytest.raises(WorkflowError, match="cycle"):
        wf.topological_order()
