"""Unit tests for the fluid-flow transfer engine."""

import pytest

from repro.des import Environment
from repro.net import FlowNetwork, Link, Network, StreamModel


def make_fabric(
    capacity=100.0,
    stream_rate_cap=None,
    knee=None,
    model=None,
    slope=0.5,
    floor=0.35,
):
    """Single WAN link between two hosts, zero setup by default."""
    env = Environment()
    net = Network()
    a_site, b_site = net.add_site("a"), net.add_site("b")
    src = net.add_host("src", a_site)
    dst = net.add_host("dst", b_site)
    wan = net.add_link(
        Link(
            "wan",
            capacity=capacity,
            stream_rate_cap=stream_rate_cap,
            knee=knee,
            congestion_slope=slope,
            congestion_floor=floor,
        )
    )
    net.add_route(src, dst, [wan])
    model = model or StreamModel(session_setup=0, stream_setup=0, ramp_time=0)
    return env, FlowNetwork(env, net, model)


def test_single_flow_runs_at_capacity():
    env, fabric = make_fabric(capacity=100.0)
    flow = fabric.start_transfer("src", "dst", 1000.0, streams=4)
    env.run(until=flow.done)
    assert env.now == pytest.approx(10.0)
    assert flow.state == "done"


def test_stream_rate_cap_limits_single_flow():
    env, fabric = make_fabric(capacity=100.0, stream_rate_cap=10.0)
    flow = fabric.start_transfer("src", "dst", 100.0, streams=2)  # cap 20 B/s
    env.run(until=flow.done)
    assert env.now == pytest.approx(5.0)


def test_equal_flows_share_capacity():
    env, fabric = make_fabric(capacity=100.0)
    f1 = fabric.start_transfer("src", "dst", 500.0, streams=4)
    f2 = fabric.start_transfer("src", "dst", 500.0, streams=4)
    env.run()
    assert f1.t_done == pytest.approx(10.0)
    assert f2.t_done == pytest.approx(10.0)


def test_weighted_sharing_by_streams():
    env, fabric = make_fabric(capacity=100.0)
    heavy = fabric.start_transfer("src", "dst", 750.0, streams=3)
    light = fabric.start_transfer("src", "dst", 250.0, streams=1)
    env.run()
    # Weighted fairly: both finish together at t=10.
    assert heavy.t_done == pytest.approx(10.0)
    assert light.t_done == pytest.approx(10.0)


def test_remaining_capacity_redistributed_after_completion():
    env, fabric = make_fabric(capacity=100.0)
    short = fabric.start_transfer("src", "dst", 100.0, streams=1)
    long = fabric.start_transfer("src", "dst", 200.0, streams=1)
    env.run()
    # Phase 1: 50/50 split until short finishes at t=2 (100B at 50B/s).
    assert short.t_done == pytest.approx(2.0)
    # Long has 100B left, now gets full 100 B/s -> finishes at t=3.
    assert long.t_done == pytest.approx(3.0)


def test_late_arrival_slows_existing_flow():
    env, fabric = make_fabric(capacity=100.0)
    first = fabric.start_transfer("src", "dst", 1000.0, streams=1)

    def later():
        yield env.timeout(5.0)
        fabric.start_transfer("src", "dst", 10_000.0, streams=1)

    env.process(later())
    env.run(until=first.done)
    # 500B moved in first 5s; remaining 500B at 50 B/s -> +10s.
    assert env.now == pytest.approx(15.0)


def test_congestion_knee_reduces_aggregate():
    # knee=4: two flows of 4 streams => 8 total, factor = 1/(1+0.5*1) = 2/3
    env, fabric = make_fabric(capacity=100.0, knee=4, slope=0.5, floor=0.1)
    f1 = fabric.start_transfer("src", "dst", 250.0, streams=4)
    f2 = fabric.start_transfer("src", "dst", 250.0, streams=4)
    env.run()
    assert f1.t_done == pytest.approx(7.5)  # 500B at 66.7 B/s aggregate
    assert f2.t_done == pytest.approx(7.5)


def test_setup_delay_charged_before_data():
    model = StreamModel(session_setup=2.0, stream_setup=0.5, ramp_time=1.0, ramp_ref=50)
    env, fabric = make_fabric(capacity=100.0, model=model)
    flow = fabric.start_transfer("src", "dst", 100.0, streams=2)
    env.run(until=flow.done)
    # setup = 2 + 0.5*2 + 1*(1+0) = 4; data = 1s
    assert env.now == pytest.approx(5.0)
    assert flow.t_data_start == pytest.approx(4.0)


def test_ramp_grows_with_contention():
    model = StreamModel(session_setup=0, stream_setup=0, ramp_time=1.0, ramp_ref=10)
    env, fabric = make_fabric(capacity=1000.0, model=model)
    fabric.start_transfer("src", "dst", 1e9, streams=10)  # long-lived
    second = fabric.start_transfer("src", "dst", 0.0, streams=1)
    env.run(until=second.done)
    # second's ramp = 1 * (1 + 10/10) = 2s
    assert env.now == pytest.approx(2.0)


def test_zero_byte_transfer_completes_after_setup():
    env, fabric = make_fabric()
    flow = fabric.start_transfer("src", "dst", 0.0, streams=1)
    env.run(until=flow.done)
    assert flow.state == "done"


def test_validation():
    env, fabric = make_fabric()
    with pytest.raises(ValueError):
        fabric.start_transfer("src", "dst", -1, streams=1)
    with pytest.raises(ValueError):
        fabric.start_transfer("src", "dst", 10, streams=0)
    with pytest.raises(KeyError):
        fabric.start_transfer("dst", "src", 10, streams=1)  # no reverse route


def test_peak_streams_tracked():
    env, fabric = make_fabric()
    fabric.start_transfer("src", "dst", 100.0, streams=4)
    fabric.start_transfer("src", "dst", 100.0, streams=6)
    env.run()
    assert fabric.peak_streams["wan"] == 10


def test_bytes_moved_accounting():
    env, fabric = make_fabric(capacity=100.0)
    fabric.start_transfer("src", "dst", 1000.0, streams=2)
    env.run()
    assert fabric.bytes_moved == pytest.approx(1000.0)


def test_two_links_bottleneck_is_binding():
    env = Environment()
    net = Network()
    s = net.add_site("s")
    a, b = net.add_host("a", s), net.add_host("b", s)
    fat = net.add_link(Link("fat", capacity=1000.0))
    thin = net.add_link(Link("thin", capacity=10.0))
    net.add_route(a, b, [fat, thin])
    fabric = FlowNetwork(env, net, StreamModel(0, 0, 0))
    flow = fabric.start_transfer("a", "b", 100.0, streams=4)
    env.run(until=flow.done)
    assert env.now == pytest.approx(10.0)


def test_shared_bottleneck_across_distinct_routes():
    """Two routes sharing one NFS link contend on it."""
    env = Environment()
    net = Network()
    s = net.add_site("s")
    a, b, c = net.add_host("a", s), net.add_host("b", s), net.add_host("c", s)
    la = net.add_link(Link("la", capacity=1000.0))
    lb = net.add_link(Link("lb", capacity=1000.0))
    nfs = net.add_link(Link("nfs", capacity=100.0))
    net.add_route(a, c, [la, nfs])
    net.add_route(b, c, [lb, nfs])
    fabric = FlowNetwork(env, net, StreamModel(0, 0, 0))
    f1 = fabric.start_transfer("a", "c", 500.0, streams=1)
    f2 = fabric.start_transfer("b", "c", 500.0, streams=1)
    env.run()
    assert f1.t_done == pytest.approx(10.0)
    assert f2.t_done == pytest.approx(10.0)


def test_deterministic_replay():
    def run_once():
        env, fabric = make_fabric(capacity=77.0, knee=6)
        flows = [
            fabric.start_transfer("src", "dst", 100.0 * (i + 1), streams=1 + i % 3)
            for i in range(6)
        ]
        env.run()
        return [f.t_done for f in flows]

    assert run_once() == run_once()
