"""The tenant registry: who shares the deployment, and on what terms.

A :class:`TenantSpec` is the immutable contract for one tenant: a
fair-share ``weight`` (relative claim on staging bandwidth), a
``priority_class`` (strict tiers within the fair-share order), and three
optional budgets — ``max_bytes`` (aggregate bytes a tenant may stage
across the ensemble), ``max_streams`` (aggregate TCP streams across all
its in-flight transfers, enforced by the policy rules), and
``max_concurrent`` (simultaneously running workflows, enforced by the
admission controller).

Validation mirrors :class:`repro.policy.rules_fairshare.TenantFact` —
the registry is the front door and must reject anything the policy
service would: NaN/inf budgets in particular, since ``float('nan') < 0``
is False and would otherwise slip through naive range checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Optional

__all__ = ["TenantSpec", "TenantRegistry"]


def _check_finite_positive(value: float, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be a finite number > 0, got {value!r}")
    return float(value)


def _check_optional_bytes(value: Optional[float], name: str) -> Optional[float]:
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value) or value < 0:
        raise ValueError(f"{name} must be a finite number >= 0 or None, got {value!r}")
    return float(value)


def _check_optional_count(value: Optional[int], name: str) -> Optional[int]:
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1 or None, got {value!r}")
    return value


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's share and budgets (immutable; replace to update)."""

    tenant: str
    weight: float = 1.0
    priority_class: int = 0
    max_bytes: Optional[float] = None
    max_streams: Optional[int] = None
    max_concurrent: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.tenant or not isinstance(self.tenant, str):
            raise ValueError("tenant must be a non-empty string")
        _check_finite_positive(self.weight, "weight")
        if isinstance(self.priority_class, bool) or not isinstance(self.priority_class, int):
            raise ValueError(f"priority_class must be an integer, got {self.priority_class!r}")
        _check_optional_bytes(self.max_bytes, "max_bytes")
        _check_optional_count(self.max_streams, "max_streams")
        _check_optional_count(self.max_concurrent, "max_concurrent")


@dataclass
class TenantRegistry:
    """A mutable census of :class:`TenantSpec` entries, keyed by name."""

    _specs: dict[str, TenantSpec] = field(default_factory=dict)

    def register(self, spec: TenantSpec | str, **kwargs) -> TenantSpec:
        """Add (or replace) a tenant; accepts a spec or name + keywords."""
        if isinstance(spec, str):
            spec = TenantSpec(spec, **kwargs)
        elif kwargs:
            raise TypeError("pass either a TenantSpec or a name with keywords, not both")
        self._specs[spec.tenant] = spec
        return spec

    def get(self, tenant: str) -> TenantSpec:
        try:
            return self._specs[tenant]
        except KeyError:
            raise KeyError(f"unknown tenant {tenant!r}") from None

    def total_weight(self) -> float:
        return sum(spec.weight for spec in self._specs.values())

    def share(self, tenant: str) -> float:
        """The tenant's fair fraction of staging bandwidth (0..1)."""
        total = self.total_weight()
        return self.get(tenant).weight / total if total else 0.0

    def __iter__(self) -> Iterator[TenantSpec]:
        return iter(sorted(self._specs.values(), key=lambda s: s.tenant))

