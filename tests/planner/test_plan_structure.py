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


# A plan grown one call at a time: jobs in any id order (``n10`` sorts
# before ``n2``), edges repeated, out of order, onto themselves or onto
# jobs the plan does not have yet.
IDS = [f"n{i}" for i in (0, 1, 2, 10, 11, 20)]
operations = st.lists(
    st.one_of(
        st.tuples(st.just("job"), st.sampled_from(IDS)),
        st.tuples(st.just("edge"), st.sampled_from(IDS), st.sampled_from(IDS)),
    ),
    max_size=40,
)


def derived_adjacency(plan):
    """The adjacency the plan used to rebuild: appended from its sorted edges."""
    children = {jid: [] for jid in plan.jobs}
    parents = {jid: [] for jid in plan.jobs}
    for parent, child in sorted(plan.edges()):
        children[parent].append(child)
        parents[child].append(parent)
    return children, parents


@settings(max_examples=300, deadline=None)
@given(operations)
def test_stored_adjacency_is_the_sorted_edge_derivation(ops):
    plan = ExecutableWorkflow("w", "w#1")
    edges: set[tuple[str, str]] = set()
    for op in ops:
        if op[0] == "job":
            if op[1] in plan.jobs:
                with pytest.raises(PlanningError, match="duplicate"):
                    plan.add_job(ExecutableJob(id=op[1], kind=JobKind.COMPUTE, transform="t"))
            else:
                plan.add_job(ExecutableJob(id=op[1], kind=JobKind.COMPUTE, transform="t"))
            continue
        _, parent, child = op
        unknown = next((j for j in (parent, child) if j not in plan.jobs), None)
        if unknown is not None:
            with pytest.raises(PlanningError, match=f"unknown job {unknown!r}"):
                plan.add_edge(parent, child)
        elif parent == child:
            with pytest.raises(PlanningError, match="self edge"):
                plan.add_edge(parent, child)
        else:
            plan.add_edge(parent, child)  # a second time is a no-op
            edges.add((parent, child))
        assert plan.edges() == edges
    children, parents = plan.adjacency()
    assert (children, parents) == derived_adjacency(plan)
    assert list(children) == list(parents) == list(plan.jobs)
    assert plan.adjacency()[0] is children  # stored and shared, not rebuilt
    assert plan.edges() is not plan.edges()

    graph = oracle(plan)
    if nx.is_directed_acyclic_graph(graph):
        plan.validate()
        assert plan.topological_order() == list(nx.lexicographical_topological_sort(graph))
        depth: dict[str, int] = {}
        for node in nx.topological_sort(graph):
            depth[node] = 1 + max((depth[p] for p in graph.predecessors(node)), default=-1)
        assert plan.levels() == depth
        return
    cycle = plan.find_cycle()
    assert all(graph.has_edge(p, c) for p, c in zip(cycle, [*cycle[1:], cycle[0]]))
    message = f"'w' has a cycle: {' -> '.join([*cycle, cycle[0]])}"
    for query in (plan.validate, plan.topological_order, plan.levels):
        with pytest.raises(PlanningError) as failure:
            query()
        assert str(failure.value) == message


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
    wf.add_job(Job("a", "t", inputs=(File("g", 1.0),), outputs=(File("f", 1.0),)))
    wf.validate()
    wf.add_job(Job("b", "t", inputs=(File("f", 1.0),), outputs=(File("g", 1.0),)))
    with pytest.raises(WorkflowError, match="cycle"):
        wf.topological_order()
