"""Unit tests for the planner (stage-in/out, cleanup, priorities)."""

import pytest

from repro.planner import JobKind, PlanningError, PlanOptions
from repro.workflow import File, Job, Workflow, augmented_montage, montage_workflow
from repro.workflow.montage import MB, MontageConfig

from tests.planner.conftest import register_montage_inputs


def small_montage():
    return montage_workflow(MontageConfig(n_images=9, name="m9"))


def test_plan_montage_staging_job_count(planner, replicas):
    wf = montage_workflow()  # 89 images, the paper config
    register_montage_inputs(replicas, wf)
    plan = planner.plan(wf, "isi", PlanOptions(cleanup=False))
    counts = plan.kind_counts()
    assert counts["stage-in"] == 89  # the paper's 89 data staging jobs
    assert counts["compute"] == len(wf)
    assert "stage-out" not in counts  # outputs stay on the execution site


def test_plan_augmented_each_staging_job_has_extra_file(planner, replicas):
    wf = augmented_montage(100 * MB)
    register_montage_inputs(replicas, wf)
    plan = planner.plan(wf, "isi", PlanOptions(cleanup=False))
    stage_ins = plan.by_kind(JobKind.STAGE_IN)
    assert len(stage_ins) == 89
    for si in stage_ins:
        extras = [t for t in si.transfers if t.lfn.startswith("montage_extra_")]
        assert len(extras) == 1
        assert extras[0].src_url.startswith("gsiftp://fg-vm/")
        assert extras[0].nbytes == 100 * MB
        images = [t for t in si.transfers if t.lfn.startswith("raw_")]
        assert len(images) == 1
        assert images[0].src_url.startswith("http://web-isi/")


def test_shared_input_staged_once(planner, replicas):
    """region.hdr feeds every mProjectPP but is staged by exactly one job."""
    wf = small_montage()
    register_montage_inputs(replicas, wf)
    plan = planner.plan(wf, "isi", PlanOptions(cleanup=False))
    carriers = [
        si for si in plan.by_kind(JobKind.STAGE_IN)
        if any(t.lfn == "region.hdr" for t in si.transfers)
    ]
    assert len(carriers) == 1
    # Every other mProjectPP depends on that carrier's stage-in.
    carrier = carriers[0]
    dependents = plan.children(carrier.id)
    assert len(dependents) >= 2


def test_stage_in_precedes_its_compute_job(planner, replicas):
    wf = small_montage()
    register_montage_inputs(replicas, wf)
    plan = planner.plan(wf, "isi")
    for si in plan.by_kind(JobKind.STAGE_IN):
        compute_id = si.source_jobs[0]
        assert compute_id in plan.children(si.id)


def test_data_dependencies_preserved(planner, replicas):
    wf = small_montage()
    register_montage_inputs(replicas, wf)
    plan = planner.plan(wf, "isi", PlanOptions(cleanup=False))
    assert "mConcatFit" in plan.children("mDiffFit_0000")
    assert "mBgModel" in plan.children("mConcatFit")


def test_destination_urls_use_site_scratch(planner, replicas):
    wf = small_montage()
    register_montage_inputs(replicas, wf)
    plan = planner.plan(wf, "isi", PlanOptions(cleanup=False))
    for si in plan.by_kind(JobKind.STAGE_IN):
        for t in si.transfers:
            assert t.dst_url == f"gsiftp://obelix/nfs/scratch/{t.lfn}"


def test_local_replica_needs_no_transfer(planner, replicas):
    wf = Workflow("w")
    wf.add_job(Job("j", "proc", inputs=(File("already_here.dat", 10),)))
    replicas.register("already_here.dat", "isi", "gsiftp://obelix/nfs/scratch/already_here.dat")
    plan = planner.plan(wf, "isi", PlanOptions(cleanup=False))
    assert plan.kind_counts().get("stage-in", 0) == 0


def test_missing_replica_is_planning_error(planner, replicas):
    wf = Workflow("w")
    wf.add_job(Job("j", "proc", inputs=(File("ghost.dat", 10),)))
    with pytest.raises(PlanningError, match="no replica"):
        planner.plan(wf, "isi")


def test_missing_transformation_is_planning_error(planner, replicas):
    wf = Workflow("w")
    wf.add_job(Job("j", "mystery-transform"))
    with pytest.raises(PlanningError, match="transformation"):
        planner.plan(wf, "isi")


def test_site_without_slots_rejected(planner, replicas):
    wf = Workflow("w")
    wf.add_job(Job("j", "proc"))
    with pytest.raises(PlanningError, match="no compute slots"):
        planner.plan(wf, "futuregrid")


def test_stage_out_to_other_site(planner, replicas):
    wf = small_montage()
    register_montage_inputs(replicas, wf)
    plan = planner.plan(
        wf, "isi", PlanOptions(cleanup=False, output_site="archive")
    )
    stage_outs = plan.by_kind(JobKind.STAGE_OUT)
    assert [t.lfn for so in stage_outs for t in so.transfers] == ["mosaic.jpg"]
    so = stage_outs[0]
    assert so.transfers[0].src_url.startswith("gsiftp://obelix/")
    assert so.transfers[0].dst_url.startswith("gsiftp://archive-host/")
    assert plan.parents(so.id) == ["mJPEG"]


def test_cleanup_jobs_gated_on_all_consumers(planner, replicas):
    wf = small_montage()
    register_montage_inputs(replicas, wf)
    plan = planner.plan(wf, "isi", PlanOptions(cleanup=True))
    # corrections.tbl is consumed by every mBackground job.
    cleanup = plan.jobs["cleanup_corrections.tbl"]
    assert cleanup.kind == JobKind.CLEANUP
    parents = plan.parents(cleanup.id)
    assert len(parents) == 9
    assert all(p.startswith("mBackground_") for p in parents)
    assert cleanup.cleanup_files == (
        ("corrections.tbl", "gsiftp://obelix/nfs/scratch/corrections.tbl"),
    )


def test_cleanup_for_unconsumed_output_waits_for_producer(planner, replicas):
    wf = small_montage()
    register_montage_inputs(replicas, wf)
    plan = planner.plan(wf, "isi", PlanOptions(cleanup=True))
    assert plan.parents("cleanup_mosaic.jpg") == ["mJPEG"]


def test_jobs_without_edges_share_one_empty_list(planner, replicas):
    # A plan's cleanup jobs never get a child, and its roots no parent:
    # each such side is one shared empty list, not a fresh one per job.
    wf = small_montage()
    register_montage_inputs(replicas, wf)
    plan = planner.plan(wf, "isi", PlanOptions(cleanup=True))
    children, parents = plan.adjacency()
    leaves = [children[job.id] for job in plan.by_kind(JobKind.CLEANUP)]
    roots = [parents[jid] for jid in plan.roots()]
    assert len(leaves) > 1 and len(roots) > 1
    assert all(ids is leaves[0] for ids in leaves + roots)
    assert leaves[0] == []
    # a first edge gives the job its own list; the shared one stays empty
    first, second = (job.id for job in plan.by_kind(JobKind.CLEANUP)[:2])
    plan.add_edge(first, second)
    assert children[first] == [second] and leaves[0] == []


def test_cleanup_disabled(planner, replicas):
    wf = small_montage()
    register_montage_inputs(replicas, wf)
    plan = planner.plan(wf, "isi", PlanOptions(cleanup=False))
    assert "cleanup" not in plan.kind_counts()


def test_priorities_attached_and_inherited(planner, replicas):
    wf = small_montage()
    register_montage_inputs(replicas, wf)
    plan = planner.plan(
        wf, "isi", PlanOptions(cleanup=False, priority_algorithm="dependent")
    )
    # mProjectPP has many descendants; its stage-in inherits the priority.
    si = plan.jobs["stage_in_mProjectPP_0"]
    assert si.priority == plan.jobs["mProjectPP_0"].priority > 0
    assert plan.jobs["mJPEG"].priority == 0


def test_unique_workflow_ids(planner, replicas):
    wf = small_montage()
    register_montage_inputs(replicas, wf)
    p1 = planner.plan(wf, "isi")
    p2 = planner.plan(wf, "isi")
    assert p1.workflow_id != p2.workflow_id


def test_plan_options_validation():
    with pytest.raises(PlanningError):
        PlanOptions(cluster_factor=0)
    with pytest.raises(PlanningError):
        PlanOptions(priority_algorithm="nope")


def test_plan_is_acyclic(planner, replicas):
    wf = augmented_montage(10 * MB, MontageConfig(n_images=16, name="m16"))
    register_montage_inputs(replicas, wf)
    plan = planner.plan(wf, "isi", PlanOptions(cleanup=True))
    plan.validate()
    order = plan.topological_order()
    position = {jid: i for i, jid in enumerate(order)}
    for parent, child in plan.edges():
        assert position[parent] < position[child]


def test_link_costs_pick_cheapest_replica_source(planner, replicas):
    """With a link-cost model, the planner stages from the nearest
    replica; without one, the deterministic (site, url) order stands."""
    from repro.datacatalog.linkcost import LinkCostModel

    wf = Workflow("one")
    wf.add_job(Job("proc", "process", inputs=(File("in.dat", MB),),
                   outputs=(File("out.dat", MB),)))
    replicas.register("in.dat", "futuregrid", "gsiftp://fg-vm/data/in.dat")
    replicas.register("in.dat", "archive", "gsiftp://archive-host/archive/in.dat")

    plan = planner.plan(wf, "isi", PlanOptions(cleanup=False))
    spec = plan.by_kind(JobKind.STAGE_IN)[0].transfers[0]
    assert spec.src_url == "gsiftp://archive-host/archive/in.dat"

    costs = LinkCostModel({("futuregrid", "isi"): 1.0})
    plan = planner.plan(
        wf, "isi", PlanOptions(cleanup=False, link_costs=costs)
    )
    spec = plan.by_kind(JobKind.STAGE_IN)[0].transfers[0]
    assert spec.src_url == "gsiftp://fg-vm/data/in.dat"
