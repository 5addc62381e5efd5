"""The Policy Service (the paper's primary contribution).

A service that advises a workflow manager's transfer tool on *how to stage
data*: which transfers to skip (duplicates across and within workflows),
how to group them (by source/destination host pair), in what order, and
with how many parallel streams (greedy / balanced allocation against an
administrator-set threshold).  State about pending transfers and staged
files persists in **policy memory** across requests and across workflows.

Layering (paper Fig. 1):

* :mod:`repro.policy.model` — fact types and request/advice DTOs;
* :mod:`repro.policy.rules_common` — Table I rules (apply to all transfers);
* :mod:`repro.policy.rules_greedy` — Table II greedy stream allocation;
* :mod:`repro.policy.rules_balanced` — Table III balanced per-cluster
  allocation;
* :mod:`repro.policy.rules_priority` — structure-based ordering (paper
  future work, implemented here);
* :mod:`repro.policy.service` — the policy engine: sessions over the
  persistent memory;
* :mod:`repro.policy.controller` — request validation/translation (the
  paper's Policy Controller);
* :mod:`repro.policy.rest` / :mod:`repro.policy.client` — the RESTful
  web interface and clients (real HTTP on localhost, plus an in-process
  adapter that charges simulated service-call latency);
* :mod:`repro.policy.journal` — durable policy memory: a write-ahead
  journal + snapshots from which :meth:`PolicyService.recover` rebuilds
  the service after a crash;
* :mod:`repro.policy.allocation` — the analytic allocator (Table IV);
* :mod:`repro.policy.tuning` — threshold auto-tuning (paper future work);
* :mod:`repro.policy.sharding` — the consistent-hash shard router:
  N independent policy shards with per-shard journals, circuit
  breakers, degraded keyspace advice, and independent recovery (see
  ``docs/sharding.md``).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.policy.allocation import greedy_allocation_trace, max_streams_table
    from repro.policy.client import (
        CircuitBreaker, CircuitOpenError, InProcessPolicyClient, PolicyUnavailableError,
        RetryPolicy,
    )
    from repro.policy.controller import PolicyController, PolicyRequestError
    from repro.policy.journal import JournalError, PolicyJournal
    from repro.policy.model import PolicyConfig, TransferAdvice
    from repro.policy.rest import PolicyRestServer
    from repro.policy.service import PolicyRefusedError, PolicyService
    from repro.policy.sharding import HashRing, ShardedPolicyService, ShardUnavailableError

_EXPORTS = {  # name -> the module it is imported from
    "CircuitBreaker": ".client", "CircuitOpenError": ".client", "HashRing": ".sharding",
    "InProcessPolicyClient": ".client", "JournalError": ".journal", "PolicyConfig": ".model",
    "PolicyController": ".controller", "PolicyJournal": ".journal",
    "PolicyRefusedError": ".service", "PolicyRequestError": ".controller",
    "PolicyRestServer": ".rest", "PolicyService": ".service", "PolicyUnavailableError": ".client",
    "RetryPolicy": ".client", "ShardUnavailableError": ".sharding",
    "ShardedPolicyService": ".sharding", "TransferAdvice": ".model",
    "greedy_allocation_trace": ".allocation", "max_streams_table": ".allocation",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
