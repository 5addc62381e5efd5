"""Process-backed shards: pipe RPC, crash, and journal replay in a
fresh worker process."""

import json

import pytest

from repro.policy import (
    PolicyConfig,
    PolicyController,
    PolicyRefusedError,
    PolicyRequestError,
)
from repro.policy.sharding import (
    ProcessShardBackend,
    ShardedPolicyService,
    ShardUnavailableError,
)

from tests.policy.sharding.conftest import make_single, multi_site_drive


def _cfg():
    return PolicyConfig(policy="greedy", default_streams=4, max_streams=12)


def test_process_fleet_matches_single_service():
    single_log = multi_site_drive(make_single())
    backends = [ProcessShardBackend(_cfg()) for _ in range(2)]
    router = ShardedPolicyService(_cfg(), num_shards=2, backends=backends)
    try:
        sharded_log = multi_site_drive(router)
    finally:
        router.close()
    assert json.dumps(single_log, sort_keys=True) == json.dumps(
        sharded_log, sort_keys=True
    )


def test_worker_errors_propagate_as_domain_errors():
    backend = ProcessShardBackend(_cfg())
    try:
        with pytest.raises(RuntimeError, match="AttributeError"):
            backend.invoke("definitely_not_a_method")
    finally:
        backend.close()


def test_a_refusal_crosses_the_pipe_as_a_refusal():
    """Anything else a worker raises arrives as ``RuntimeError`` text;
    a refusal must stay one, or the controller answers it 500."""
    backends = [ProcessShardBackend(_cfg()) for _ in range(2)]
    router = ShardedPolicyService(_cfg(), num_shards=2, backends=backends)
    try:
        with pytest.raises(PolicyRefusedError, match="^access control is not enabled"):
            router.deny_host("h")
        with pytest.raises(PolicyRequestError, match="^tenant 'nobody' is not registered"):
            PolicyController(router).bind_workflow({"workflow": "wf", "tenant": "nobody"})
    finally:
        router.close()


def test_crashed_worker_raises_unavailable_and_replays(tmp_path):
    backend = ProcessShardBackend(_cfg(), journal_dir=tmp_path)
    try:
        advice = backend.invoke(
            "submit_transfers", "wf", "j",
            [{"lfn": "p1", "src_url": "gsiftp://a/p1",
              "dst_url": "gsiftp://b/p1", "nbytes": 10.0}],
            tids=[1],
        )
        backend.invoke("complete_transfers", done=[advice[0].tid])
        backend.crash()
        with pytest.raises(ShardUnavailableError):
            backend.invoke("staging_state", "p1", "gsiftp://b/p1")
        backend.recover()
        # The fresh worker process replayed the shard's own journal.
        assert backend.invoke(
            "staging_state", "p1", "gsiftp://b/p1") == "staged"
    finally:
        backend.close()
