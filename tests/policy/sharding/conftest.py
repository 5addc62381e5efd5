"""Shared harness for the shard-router tests.

``multi_site_drive`` mirrors the Montage scenario from
``tests/policy/test_engine_equivalence.py`` but spreads source hosts
over several sites (deterministically per lfn), so a multi-shard router
actually splits every batch across its fleet.
"""

import hashlib

from repro.policy import PolicyConfig, PolicyService
from repro.policy.sharding import ShardedPolicyService
from repro.workflow.montage import MontageConfig, montage_workflow

SITES = [f"site{i}" for i in range(6)]


def site_of(lfn: str) -> str:
    """Deterministic source site per lfn (same across workflows, so a
    duplicated file always has one home pair)."""
    digest = int(hashlib.sha256(lfn.encode()).hexdigest(), 16)
    return SITES[digest % len(SITES)]


def multi_site_batches(max_jobs=40):
    wf = montage_workflow(MontageConfig(n_images=12))
    batches = []
    for job in list(wf.jobs.values())[:max_jobs]:
        items = [
            {
                "lfn": f.lfn,
                "src_url": f"gsiftp://{site_of(f.lfn)}/data/{f.lfn}",
                "dst_url": f"gsiftp://obelix/scratch/{f.lfn}",
                "nbytes": float(f.size or 1000.0),
            }
            for f in job.inputs
        ]
        if items:
            batches.append((job.id, items))
    return batches


def multi_site_drive(service):
    """Drive the multi-site Montage scenario; return the full advice log.

    Interleaves submits, wave completions (done + failed), state
    queries, cleanups, cleanup completions, and workflow unregistration
    — every merge path the router implements.
    """
    log = []
    in_flight = []
    for n, (workflow, mult) in enumerate([("wfA", 1), ("wfB", 2)]):
        for i, (job, items) in enumerate(multi_site_batches()):
            advice = service.submit_transfers(workflow, job, items)
            log.append([a.to_dict() for a in advice])
            in_flight.extend(a.tid for a in advice if a.action == "transfer")
            if i % mult == 0 and in_flight:
                half = len(in_flight) // 2 or 1
                done, in_flight = in_flight[:half], in_flight[half:]
                failed = done[-1:] if len(done) > 1 else []
                done = done[: len(done) - len(failed)]
                log.append(service.complete_transfers(done=done, failed=failed))
            if i % 5 == 0 and items:
                log.append(service.staging_state(
                    items[0]["lfn"], items[0]["dst_url"]))
                if in_flight:
                    log.append(service.transfer_state(in_flight[0]))
        log.append(service.complete_transfers(done=in_flight))
        in_flight = []
        cleanups = service.submit_cleanups(
            workflow,
            "clean",
            [
                (f"{n}-unused", f"gsiftp://obelix/scratch/{n}-unused"),
                (f"{n}-other", f"gsiftp://obelix/scratch/{n}-other"),
            ],
        )
        log.append([c.to_dict() for c in cleanups])
        log.append(service.complete_cleanups(
            [c.cid for c in cleanups if c.action == "delete"]))
        service.unregister_workflow(workflow)
    log.append(service.snapshot()["memory"])
    return log


def make_single(**kw):
    cfg = dict(policy="greedy", default_streams=4, max_streams=12)
    cfg.update(kw)
    return PolicyService(PolicyConfig(**cfg))


def make_router(num_shards, **kw):
    router_kw = {
        key: kw.pop(key)
        for key in ("journal_root", "breaker_threshold", "clock")
        if key in kw
    }
    cfg = dict(policy="greedy", default_streams=4, max_streams=12)
    cfg.update(kw)
    return ShardedPolicyService(
        PolicyConfig(**cfg), num_shards=num_shards, **router_kw,
    )
