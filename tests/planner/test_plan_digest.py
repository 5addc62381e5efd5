"""One pinned digest of every structure query, priority and plan the
planner derives from three workflow shapes.

The hash covers, per workflow: the four priority algorithms, the DAG's
topological order, levels, roots and leaves, and the plan under four
option sets (job id, kind, priority, transfers and cleanup files in
``jobs`` order; sorted edges; topological order; levels).  A change to
how the DAG is stored or walked must leave it unchanged.
"""

import hashlib
import json

from repro.experiments.environment import build_testbed
from repro.planner import Planner, PlanOptions
from repro.workflow import augmented_montage, cybershake_workflow, epigenomics_workflow
from repro.workflow.montage import MB, MontageConfig
from repro.workflow.priorities import PRIORITY_ALGORITHMS

PLAN_DIGEST = "7bb6c84ef06dc37c0852a5458f844d100cff7038e66d95d597cb8f3986e8b9f9"

OPTIONS = [
    PlanOptions(),
    PlanOptions(cluster_factor=3),
    PlanOptions(max_staging_bytes=5e9),
    PlanOptions(priority_algorithm="dfs"),
]


def _plan_record(plan):
    return {
        "jobs": [
            [
                job.id,
                job.kind.value,
                job.priority,
                [[t.lfn, t.src_url, t.dst_url, t.nbytes] for t in job.transfers],
                [list(pair) for pair in job.cleanup_files],
            ]
            for job in plan.jobs.values()
        ],
        "edges": sorted(plan.edges()),
        "order": plan.topological_order(),
        "levels": sorted(plan.levels().items()),
    }


def _workflow_record(workflow):
    bed = build_testbed(seed=0)
    bed.register_workflow_inputs(workflow)
    planner = Planner(bed.sites, bed.transformations, bed.replicas)
    return {
        "priorities": {
            name: sorted(algorithm(workflow).items())
            for name, algorithm in sorted(PRIORITY_ALGORITHMS.items())
        },
        "order": workflow.topological_order(),
        "levels": sorted(workflow.levels().items()),
        "roots": workflow.roots(),
        "leaves": workflow.leaves(),
        "plans": [_plan_record(planner.plan(workflow, "isi", opts)) for opts in OPTIONS],
    }


def test_planner_and_priority_digest_is_pinned():
    workflows = [
        augmented_montage(1 * MB, MontageConfig(n_images=12)),
        epigenomics_workflow(3, 5),
        cybershake_workflow(),
    ]
    record = [_workflow_record(wf) for wf in workflows]
    text = json.dumps(record, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PLAN_DIGEST
