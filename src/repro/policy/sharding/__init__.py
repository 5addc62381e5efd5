"""Sharded Policy Service: consistent-hash routing over N shards.

The paper's Policy Engine is one process with one global working memory —
its acknowledged single point of failure and contention.  This package
partitions policy memory across N independent :class:`PolicyService`
shards behind a consistent-hash router:

* :mod:`repro.policy.sharding.hashring` — the deterministic ring mapping
  (source, destination) host pairs and destination URLs to shards;
* :mod:`repro.policy.sharding.shard` — one shard: an in-process
  `PolicyService` with its own journal, circuit breaker, and health
  state;
* :mod:`repro.policy.sharding.router` — :class:`ShardedPolicyService`,
  the drop-in façade implementing the full single-service surface:
  global id allocation, canonical group-id numbering, the staged-file
  ownership directory, degraded policy-free advice for a dead shard's
  keyspace, and per-shard journal replay.

See ``docs/sharding.md`` for the architecture, the ownership protocol,
and the failure matrix.
"""

from repro.policy.sharding.hashring import HashRing, pair_key
from repro.policy.sharding.router import ShardedPolicyService
from repro.policy.sharding.shard import ShardHandle, ShardUnavailableError

__all__ = [
    "HashRing",
    "ShardHandle",
    "ShardUnavailableError",
    "ShardedPolicyService",
    "pair_key",
]
