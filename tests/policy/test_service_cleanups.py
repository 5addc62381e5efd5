"""Tests of cleanup handling: detach, protection, duplicates (Table I)."""

from repro.policy.model import StagedFileFact

from tests.conftest import counter
from tests.policy.conftest import spec


def stage(service, workflow, lfn, job="j"):
    advice = service.submit_transfers(workflow, job, [spec(lfn)])
    service.complete_transfers(done=[advice[0].tid])
    return advice[0].dst_url


def test_cleanup_of_unshared_file_approved(greedy_service):
    url = stage(greedy_service, "wf1", "f")
    advice = greedy_service.submit_cleanups("wf1", "cleanup_f", [("f", url)])
    assert advice[0].action == "delete"


def test_cleanup_of_shared_file_skipped(greedy_service):
    url = stage(greedy_service, "wf1", "shared")
    # wf2 now also uses the file (its transfer is skipped as staged).
    greedy_service.submit_transfers("wf2", "j2", [spec("shared")])
    advice = greedy_service.submit_cleanups("wf1", "c", [("shared", url)])
    assert advice[0].action == "skip"
    assert "in use" in advice[0].reason
    # wf1 was detached: only wf2 remains a user.
    resource = greedy_service.memory.facts_of(StagedFileFact)[0]
    assert resource.users == {"wf2"}


def test_cleanup_approved_after_all_users_detach(greedy_service):
    url = stage(greedy_service, "wf1", "shared")
    greedy_service.submit_transfers("wf2", "j2", [spec("shared")])
    greedy_service.submit_cleanups("wf1", "c1", [("shared", url)])  # skipped
    advice = greedy_service.submit_cleanups("wf2", "c2", [("shared", url)])
    assert advice[0].action == "delete"


def test_duplicate_cleanup_skipped(greedy_service):
    url = stage(greedy_service, "wf1", "f")
    first = greedy_service.submit_cleanups("wf1", "c1", [("f", url)])
    assert first[0].action == "delete"
    # The first cleanup is still in progress; a duplicate request is skipped.
    second = greedy_service.submit_cleanups("wf1", "c2", [("f", url)])
    assert second[0].action == "skip"
    assert "already handling" in second[0].reason


def test_cleanup_completion_drops_resource_allowing_restage(greedy_service):
    url = stage(greedy_service, "wf1", "f")
    advice = greedy_service.submit_cleanups("wf1", "c", [("f", url)])
    greedy_service.complete_cleanups([advice[0].cid])
    assert greedy_service.staging_state("f", url) == "unknown"
    restage = greedy_service.submit_transfers("wf1", "j2", [spec("f")])
    assert restage[0].action == "transfer"


def test_cleanup_of_untracked_file_approved(greedy_service):
    # Intermediate files created on-site never pass through the service.
    advice = greedy_service.submit_cleanups(
        "wf1", "c", [("proj_1.fits", "gsiftp://obelix/scratch/proj_1.fits")]
    )
    assert advice[0].action == "delete"


def test_unregister_workflow_releases_files(greedy_service):
    url = stage(greedy_service, "wf1", "shared")
    greedy_service.submit_transfers("wf2", "j", [spec("shared")])
    greedy_service.unregister_workflow("wf2")
    advice = greedy_service.submit_cleanups("wf1", "c", [("shared", url)])
    assert advice[0].action == "delete"


def test_cleanup_stats(greedy_service):
    url = stage(greedy_service, "wf1", "f")
    greedy_service.submit_transfers("wf2", "j", [spec("f")])
    greedy_service.submit_cleanups("wf1", "c", [("f", url)])
    assert counter(greedy_service, "repro_policy_cleanups_total", event="submitted") == 1
    assert counter(greedy_service, "repro_policy_cleanups_total", event="skipped") == 1
