"""Property-based tests of planner invariants on random workflows."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalogs import ReplicaCatalog, SiteCatalog, SiteEntry, TransformationCatalog
from repro.planner import JobKind, Planner, PlanOptions
from tests.workflow.generators import random_layered_workflow


def make_planner(workflow):
    sites = SiteCatalog()
    sites.add(SiteEntry(name="exec", storage_host="cluster", nodes=2, cores_per_node=4))
    sites.add(SiteEntry(name="remote", storage_host="remote-host"))
    transformations = TransformationCatalog()
    transformations.add("process", 1.0)
    replicas = ReplicaCatalog()
    for f in workflow.input_files():
        replicas.register(f.lfn, "remote", f"gsiftp://remote-host/data/{f.lfn}")
    return Planner(sites, transformations, replicas)


workflow_strategy = st.builds(
    random_layered_workflow,
    layers=st.integers(min_value=1, max_value=5),
    width=st.integers(min_value=1, max_value=6),
    edge_prob=st.floats(min_value=0.0, max_value=1.0),
    rng=st.integers(min_value=0, max_value=999).map(np.random.default_rng),
)


@given(workflow=workflow_strategy, cleanup=st.booleans())
@settings(max_examples=40, deadline=None)
def test_plan_invariants(workflow, cleanup):
    planner = make_planner(workflow)
    plan = planner.plan(workflow, "exec", PlanOptions(cleanup=cleanup))
    plan.validate()  # acyclic

    # Every external input is transferred exactly once across all staging jobs.
    staged = [
        t.lfn for j in plan.by_kind(JobKind.STAGE_IN) for t in j.transfers
    ]
    expected = sorted(f.lfn for f in workflow.input_files())
    assert sorted(staged) == expected

    # Every compute job appears; stage-ins precede their compute jobs.
    for job_id in workflow.jobs:
        assert job_id in plan.jobs
    position = {jid: i for i, jid in enumerate(plan.topological_order())}
    for si in plan.by_kind(JobKind.STAGE_IN):
        for child in plan.children(si.id):
            assert position[si.id] < position[child]

    if cleanup:
        # A cleanup job never precedes any consumer of its file.
        for cj in plan.by_kind(JobKind.CLEANUP):
            for lfn, _url in cj.cleanup_files:
                for consumer in workflow.consumers_of(lfn):
                    assert position[consumer] < position[cj.id]
    else:
        assert not plan.by_kind(JobKind.CLEANUP)


@given(
    workflow=workflow_strategy,
    factor=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=30, deadline=None)
def test_clustering_preserves_transfers_and_acyclicity(workflow, factor):
    planner = make_planner(workflow)
    plain = planner.plan(workflow, "exec", PlanOptions(cleanup=False))
    clustered = planner.plan(
        workflow, "exec", PlanOptions(cleanup=False, cluster_factor=factor)
    )
    clustered.validate()

    def transfer_multiset(plan):
        return sorted(
            (t.lfn, t.src_url, t.dst_url)
            for j in plan.by_kind(JobKind.STAGE_IN)
            for t in j.transfers
        )

    assert transfer_multiset(plain) == transfer_multiset(clustered)
    # Clustering can only reduce (or keep) the number of staging jobs.
    assert len(clustered.by_kind(JobKind.STAGE_IN)) <= len(
        plain.by_kind(JobKind.STAGE_IN)
    )
