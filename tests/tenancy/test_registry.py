"""Tests of the tenant registry and spec validation."""

import math

import pytest

from repro.tenancy import TenantRegistry, TenantSpec


def test_spec_defaults():
    spec = TenantSpec("acme")
    assert spec.weight == 1.0
    assert spec.priority_class == 0
    assert spec.max_bytes is None
    assert spec.max_streams is None
    assert spec.max_concurrent is None


@pytest.mark.parametrize("weight", [0, -1, float("nan"), float("inf"), True, "2"])
def test_spec_rejects_bad_weight(weight):
    with pytest.raises(ValueError):
        TenantSpec("acme", weight=weight)


@pytest.mark.parametrize("max_bytes", [-1, float("nan"), float("inf"), True, "10"])
def test_spec_rejects_non_finite_byte_quota(max_bytes):
    # NaN < 0 is False, so a naive range check would admit a poisoned quota.
    with pytest.raises(ValueError):
        TenantSpec("acme", max_bytes=max_bytes)


@pytest.mark.parametrize("field", ["max_streams", "max_concurrent"])
@pytest.mark.parametrize("value", [0, -3, 1.5, True])
def test_spec_rejects_bad_counts(field, value):
    with pytest.raises(ValueError):
        TenantSpec("acme", **{field: value})


def test_spec_rejects_empty_name():
    with pytest.raises(ValueError):
        TenantSpec("")


def test_register_and_share():
    reg = TenantRegistry()
    reg.register("bronze", weight=1)
    reg.register("silver", weight=2)
    reg.register(TenantSpec("gold", weight=4, priority_class=1))
    assert [s.tenant for s in reg] == ["bronze", "gold", "silver"]
    assert reg.total_weight() == 7
    assert math.isclose(reg.share("gold"), 4 / 7)
    assert math.isclose(sum(reg.share(s.tenant) for s in reg), 1.0)


def test_register_replaces():
    reg = TenantRegistry()
    reg.register("acme", weight=1)
    reg.register("acme", weight=5)
    assert reg.get("acme").weight == 5
    assert [s.tenant for s in reg] == ["acme"]


def test_register_spec_with_kwargs_is_an_error():
    reg = TenantRegistry()
    with pytest.raises(TypeError):
        reg.register(TenantSpec("acme"), weight=2)


def test_share_of_empty_registry_is_zero():
    reg = TenantRegistry()
    assert reg.total_weight() == 0
    reg.register("solo", weight=3)
    assert reg.share("solo") == 1.0
