"""Unit tests for network topology."""

import pytest

from repro.net import Host, Link, Network, Site
from repro.net.topology import GB, MB, mbit


def test_unit_helpers():
    assert MB == 1_000_000
    assert GB == 1_000_000_000
    assert mbit(28) == pytest.approx(3.5e6)


def test_site_host_validation():
    with pytest.raises(ValueError):
        Site("")
    site = Site("isi")
    with pytest.raises(ValueError):
        Host("", site)
    Host("obelix", site)


def test_link_validation():
    with pytest.raises(ValueError):
        Link("l", capacity=0)
    with pytest.raises(ValueError):
        Link("l", capacity=1, stream_rate_cap=0)
    with pytest.raises(ValueError):
        Link("l", capacity=1, knee=0)
    with pytest.raises(ValueError):
        Link("l", capacity=1, congestion_floor=0)
    with pytest.raises(ValueError):
        Link("l", capacity=1, congestion_slope=-1)


def build_net():
    net = Network()
    isi = net.add_site("isi")
    tacc = net.add_site("tacc")
    vm = net.add_host("futuregrid-vm", tacc)
    obelix = net.add_host("obelix", isi)
    wan = net.add_link(Link("wan", capacity=mbit(28), knee=70))
    lan = net.add_link(Link("lan", capacity=mbit(1000)))
    net.add_route(vm, obelix, [wan, lan])
    return net, vm, obelix, wan, lan


def test_route_lookup_by_object_and_name():
    net, vm, obelix, wan, lan = build_net()
    route = net.route(vm, obelix)
    assert route.links == (wan, lan)
    assert net.route("futuregrid-vm", "obelix") is route
    with pytest.raises(KeyError):
        net.route(obelix, vm)


def test_missing_route_raises():
    net, vm, obelix, *_ = build_net()
    with pytest.raises(KeyError, match="no route"):
        net.route(obelix, vm)


def test_duplicate_registrations_rejected():
    net, vm, obelix, wan, lan = build_net()
    with pytest.raises(ValueError):
        net.add_site("isi")
    with pytest.raises(ValueError):
        net.add_host("obelix", net.sites["isi"])
    with pytest.raises(ValueError):
        net.add_link(Link("wan", capacity=1))
    with pytest.raises(ValueError):
        net.add_route(vm, obelix, [wan])


def test_route_with_unregistered_link_rejected():
    net, vm, obelix, *_ = build_net()
    rogue = Link("rogue", capacity=1)
    with pytest.raises(ValueError, match="unregistered"):
        net.add_route(obelix, vm, [rogue])


def test_empty_route_rejected():
    net, vm, obelix, *_ = build_net()
    with pytest.raises(ValueError):
        net.add_route(obelix, vm, [])
