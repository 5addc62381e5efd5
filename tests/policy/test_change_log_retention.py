"""A long-lived service holds a bounded change log and no dead facts.

The service's one rule session is the only reader of its memory's
change log, so the log keeps the mutations the session has not routed
plus fewer than ``_TRIM_EVERY`` it has (the trim runs once per that
many ticks).  A memory without that trim keeps its last
``_CHANGELOG_CAP`` = 65,536 mutations, and every fact they retracted.
"""

import gc
import random
import weakref

from repro.policy import PolicyConfig, PolicyService
from repro.policy.model import CleanupFact
from repro.rules.facts import _TRIM_EVERY

DST = "gsiftp://obelix/scratch"


def spec(lfn, rng):
    return {
        "lfn": lfn,
        "src_url": f"gsiftp://fg-vm/data/{lfn}",
        "dst_url": f"{DST}/{lfn}",
        "nbytes": float(rng.randint(1, 100)) * 1e6,
    }


class Watched:
    """Forwards calls to a service and records, after each, how many
    change-log entries it holds that its session has already routed."""

    def __init__(self, service):
        self.service = service
        self.consumed = []
        self.held = []

    def __getattr__(self, name):
        method = getattr(self.service, name)

        def call(*args, **kwargs):
            result = method(*args, **kwargs)
            memory = self.service.memory
            unrouted = memory.clock - self.service._rule_session.network.seq
            self.held.append(memory.retained_changes)
            self.consumed.append(memory.retained_changes - unrouted)
            return result

        return call


def drive(api, workflow, rng, jobs=40):
    """One workflow's closed loop of 1-4-transfer calls, as ``repro
    serve`` sees it from a staging tool: submit, complete, clean up."""
    files = []
    for j in range(jobs):
        batch = [spec(f"{workflow}j{j}f{k}", rng) for k in range(1 + j % 4)]
        advice = api.submit_transfers(workflow, f"stage{j}", batch)
        api.staging_state(batch[0]["lfn"], batch[0]["dst_url"])
        api.complete_transfers(done=[a.tid for a in advice if a.action == "transfer"])
        files += [(s["lfn"], s["dst_url"]) for s in batch]
    for g in range(0, len(files), 4):
        advice = api.submit_cleanups(workflow, f"clean{g}", files[g:g + 4])
        api.complete_cleanups([a.cid for a in advice if a.action == "delete"])
    api.unregister_workflow(workflow)


def test_between_calls_the_log_holds_less_than_a_trim_interval_of_routed_entries():
    service = PolicyService(PolicyConfig(policy="greedy", max_streams=50))
    watched = Watched(service)
    rng = random.Random(0)
    for w in range(3):
        drive(watched, f"w{w}", rng)
    assert service.memory.clock > 4 * _TRIM_EVERY
    assert max(watched.consumed) < _TRIM_EVERY
    # what a call leaves unrouted is its last few writes after its fire
    assert max(watched.held) <= _TRIM_EVERY + 16


def test_a_retracted_cleanup_fact_dies_after_the_next_call():
    service = PolicyService(PolicyConfig(policy="greedy", max_streams=50))
    rng = random.Random(1)
    advice = service.submit_transfers("wf", "stage", [spec("a", rng)])
    service.complete_transfers(done=[a.tid for a in advice])
    (cleanup,) = service.submit_cleanups("wf", "clean", [("a", f"{DST}/a")])
    assert cleanup.action == "delete"
    released = weakref.ref(service.memory.lookup(CleanupFact, cid=cleanup.cid)[0])
    service.complete_cleanups([cleanup.cid])
    gc.collect()
    assert released() is not None       # the log holds the retraction
    # The next call fires over more than a trim interval of mutations,
    # so the session routes the retraction and then trims it away.
    before = service.memory.clock
    service.submit_transfers("wf", "big", [spec(f"b{i}", rng) for i in range(400)])
    assert service.memory.clock - before > _TRIM_EVERY
    gc.collect()
    assert released() is None
