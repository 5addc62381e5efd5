"""Durable staged-data catalog: datasets -> replicas -> sites.

See ``docs/catalog.md``.  The catalog's facts live inside policy
memory, so durability, crash recovery, and transactional commits come
from :mod:`repro.policy.journal` unchanged.

The eviction rule pack lives in :mod:`repro.datacatalog.rules_eviction`
and is not imported here: it matches policy fact types
(:class:`~repro.policy.model.CleanupFact`), and importing it eagerly
would cycle with :mod:`repro.policy.model`'s import of
:class:`CatalogConfig`.
"""

from repro.datacatalog.catalog import DataCatalog, derive_checksum
from repro.datacatalog.linkcost import LinkCostModel
from repro.datacatalog.model import (
    EVICTION_POLICIES,
    CatalogConfig,
    EvictionSweepFact,
    ReplicaRecordFact,
    SiteCapacityFact,
)

__all__ = [
    "CatalogConfig",
    "DataCatalog",
    "EVICTION_POLICIES",
    "EvictionSweepFact",
    "LinkCostModel",
    "ReplicaRecordFact",
    "SiteCapacityFact",
    "derive_checksum",
]

