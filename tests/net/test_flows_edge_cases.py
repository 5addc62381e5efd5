"""Edge-case tests for the fluid-flow fabric."""

import pytest

from repro.des import Environment
from repro.net import FlowNetwork, Link, Network, StreamModel

from tests.net.test_flows import make_fabric


def test_flow_duration_property():
    env, fabric = make_fabric(capacity=100.0)
    flow = fabric.start_transfer("src", "dst", 100.0, streams=1)
    assert flow.duration is None  # in flight
    env.run()
    assert flow.duration == pytest.approx(1.0)


def test_many_small_flows_complete_exactly():
    env, fabric = make_fabric(capacity=1000.0)
    flows = [fabric.start_transfer("src", "dst", 10.0, streams=1) for _ in range(50)]
    env.run()
    assert all(f.state == "done" for f in flows)
    assert fabric.bytes_moved == pytest.approx(500.0)


def test_very_long_horizon_no_livelock():
    """A multi-hour simulated transfer completes without event explosion."""
    env, fabric = make_fabric(capacity=1e6)
    flow = fabric.start_transfer("src", "dst", 1e11, streams=4)  # ~27.8 h
    env.run(until=flow.done)
    assert env.now == pytest.approx(1e5, rel=1e-6)
    # The event count stayed tiny (one timer per reschedule).
    assert env._seq < 100


def test_flow_into_second_route_uses_other_links_only():
    env = Environment()
    net = Network()
    s = net.add_site("s")
    a, b, c = net.add_host("a", s), net.add_host("b", s), net.add_host("c", s)
    l1 = net.add_link(Link("l1", capacity=100.0))
    l2 = net.add_link(Link("l2", capacity=100.0))
    net.add_route(a, b, [l1])
    net.add_route(a, c, [l2])
    fabric = FlowNetwork(env, net, StreamModel(0, 0, 0))
    f1 = fabric.start_transfer("a", "b", 1000.0, streams=4)
    f2 = fabric.start_transfer("a", "c", 1000.0, streams=4)
    env.run()
    # Disjoint links: both run at full capacity, no interference.
    assert f1.t_done == pytest.approx(10.0)
    assert f2.t_done == pytest.approx(10.0)
    assert fabric.peak_streams == {"l1": 4, "l2": 4}
