"""The one DAG behind the plan and the workflow, against networkx.

networkx is a test dependency only: it is the oracle every structure
query of :class:`repro.workflow.graph.Dag` is compared with here.
"""

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


def workflow_of(edges):
    """Each edge is one file its parent writes and its child reads."""
    wf = Workflow("w")
    for node in NODES:
        wf.add_job(Job(
            node, "t",
            inputs=tuple(File(f"{p}>{c}", 1.0) for p, c in sorted(edges) if c == node),
            outputs=tuple(File(f"{p}>{c}", 1.0) for p, c in sorted(edges) if p == node),
        ))
    return wf


def oracle(dag):
    """The networkx view: the plan's edges, or the workflow's data flow."""
    if isinstance(dag, ExecutableWorkflow):
        edges = dag.edges()
    else:
        edges = {
            (jid, consumer)
            for jid, job in dag.jobs.items()
            for f in job.outputs
            for consumer in dag.consumers_of(f.lfn)
        }
    graph = nx.DiGraph()
    graph.add_nodes_from(dag.jobs)
    graph.add_edges_from(sorted(edges))
    return graph


@settings(max_examples=200, deadline=None)
@given(edge_sets)
def test_adjacency_is_the_sorted_graph_neighbourhood(edges):
    plan = plan_of(edges)
    children, parents = plan.adjacency()
    graph = oracle(plan)
    assert list(children) == list(parents) == list(plan.jobs)
    for node in NODES:
        assert children[node] == sorted(graph.successors(node)) == plan.children(node)
        assert parents[node] == sorted(graph.predecessors(node)) == plan.parents(node)
        # the order DAGMan walks is the order networkx gives the sorted edges
        assert children[node] == list(graph.successors(node))
    plan.children(NODES[0]).append("x")  # a copy: the shared lists stay intact
    assert plan.adjacency()[0][NODES[0]] == sorted(graph.successors(NODES[0]))


@settings(max_examples=300, deadline=None)
@given(edge_sets)
def test_validate_agrees_with_networkx(edges):
    plan = plan_of(edges)
    if nx.is_directed_acyclic_graph(oracle(plan)):
        plan.validate()
        plan.validate()
        levels = plan.levels()
        assert all(levels[p] < levels[c] for p, c in edges)
    else:
        for _ in range(2):  # a failed verdict is not remembered as a pass
            with pytest.raises(PlanningError, match="cycle"):
                plan.validate()


@pytest.mark.parametrize("build", [plan_of, workflow_of], ids=["plan", "workflow"])
@settings(max_examples=200, deadline=None)
@given(edges=edge_sets)
def test_dag_queries_agree_with_networkx(build, edges):
    dag = build(edges)
    graph = oracle(dag)
    assert graph.number_of_edges() == len(edges)
    for node in NODES:
        assert dag.children(node) == sorted(graph.successors(node))
        assert dag.parents(node) == sorted(graph.predecessors(node))
        assert dag.descendants(node) == nx.descendants(graph, node)
    assert dag.roots() == sorted(n for n in graph if graph.in_degree(n) == 0)
    assert dag.leaves() == sorted(n for n in graph if graph.out_degree(n) == 0)
    if nx.is_directed_acyclic_graph(graph):
        assert dag.find_cycle() == []
        dag.validate()
        assert dag.topological_order() == list(nx.lexicographical_topological_sort(graph))
        depth: dict[str, int] = {}
        for node in nx.topological_sort(graph):
            depth[node] = 1 + max((depth[p] for p in graph.predecessors(node)), default=-1)
        assert dag.levels() == depth
        return
    # The cycle reported is real, simple, and starts at its smallest id.
    cycle = dag.find_cycle()
    assert len(set(cycle)) == len(cycle) >= 2 and cycle[0] == min(cycle)
    for query in (dag.validate, dag.topological_order, dag.levels):
        with pytest.raises(dag.error, match="has a cycle: ") as failure:
            query()
        named = str(failure.value).split("has a cycle: ")[1].split(" -> ")
        assert named == [*cycle, cycle[0]]
        assert all(graph.has_edge(p, c) for p, c in zip(named, named[1:]))


@pytest.mark.parametrize("build", [plan_of, workflow_of], ids=["plan", "workflow"])
def test_unknown_job_raises_the_dag_error(build):
    dag = build({("n0", "n1")})
    for query in (dag.parents, dag.children, dag.descendants):
        with pytest.raises(dag.error, match="unknown job 'nope'"):
            query("nope")


def test_plan_mutation_after_validate_is_validated_again():
    plan = plan_of([("n0", "n1"), ("n1", "n2")])
    plan.validate()
    plan.add_job(ExecutableJob(id="late", kind=JobKind.COMPUTE, transform="t"))
    assert plan.adjacency()[0]["late"] == [] and "late" in plan.topological_order()
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
