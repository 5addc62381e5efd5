"""Property-based tests of the fluid-flow fabric (conservation, fairness)."""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.des import Environment
from repro.net import FlowNetwork, Link, Network, StreamModel
from repro.net.flows import _QUANTUM

transfer_strategy = st.tuples(
    st.floats(min_value=1.0, max_value=1e7),  # bytes
    st.integers(min_value=1, max_value=16),   # streams
    st.floats(min_value=0.0, max_value=50.0), # start offset
)


def build(capacity=1000.0, knee=None, stream_cap=None, model=None):
    env = Environment()
    net = Network()
    s = net.add_site("s")
    a, b = net.add_host("a", s), net.add_host("b", s)
    net.add_link(
        Link("l", capacity=capacity, knee=knee, stream_rate_cap=stream_cap)
    )
    net.add_route(a, b, [net.links["l"]])
    return env, FlowNetwork(env, net, model or StreamModel(0.1, 0.01, 0.1))


@given(transfers=st.lists(transfer_strategy, min_size=1, max_size=12))
# A byte-sized file whose last 1e-5 bytes drain in under a quantum: the
# flow finishes (the residue is delivered) without ``bytes_moved`` seeing it.
@example(transfers=[(2.00001, 1, 0.0), (1.0, 1, 0.0)])
@settings(max_examples=40, deadline=None)
def test_all_bytes_delivered_exactly(transfers):
    capacity = 1000.0
    env, fabric = build(capacity=capacity)
    flows = []

    def submit(nbytes, streams, offset):
        yield env.timeout(offset)
        flows.append(fabric.start_transfer("a", "b", nbytes, streams))

    for nbytes, streams, offset in transfers:
        env.process(submit(nbytes, streams, offset))
    env.run()
    assert all(f.state == "done" for f in flows)
    total = sum(t[0] for t in transfers)
    # The flow model's contract (see ``_QUANTUM``): every flow is delivered
    # in full, and the ``bytes_moved`` ledger is exact up to the bytes one
    # flow can move in one scheduling quantum — ``capacity x _QUANTUM``.
    assert math.isclose(
        fabric.bytes_moved, total,
        rel_tol=1e-6, abs_tol=len(transfers) * capacity * _QUANTUM,
    )


@given(transfers=st.lists(transfer_strategy, min_size=1, max_size=10))
@settings(max_examples=30, deadline=None)
def test_duration_never_beats_capacity_floor(transfers):
    """No transfer finishes faster than its bytes at full link capacity."""
    capacity = 1000.0
    env, fabric = build(capacity=capacity)
    flows = []

    def submit(nbytes, streams, offset):
        yield env.timeout(offset)
        flows.append((fabric.start_transfer("a", "b", nbytes, streams), nbytes))

    for nbytes, streams, offset in transfers:
        env.process(submit(nbytes, streams, offset))
    env.run()
    for flow, nbytes in flows:
        floor = nbytes / capacity
        assert flow.duration >= floor * (1 - 1e-9)


@given(
    transfers=st.lists(transfer_strategy, min_size=2, max_size=8),
    knee=st.integers(min_value=1, max_value=40),
)
@settings(max_examples=30, deadline=None)
def test_congestion_only_slows_things_down(transfers, knee):
    """A knee never makes any single transfer finish earlier."""

    def run(with_knee):
        env, fabric = build(knee=knee if with_knee else None)
        flows = []

        def submit(nbytes, streams, offset):
            yield env.timeout(offset)
            flows.append(fabric.start_transfer("a", "b", nbytes, streams))

        for nbytes, streams, offset in transfers:
            env.process(submit(nbytes, streams, offset))
        env.run()
        return [f.t_done for f in flows]

    free = run(False)
    congested = run(True)
    assert all(c >= f - 1e-6 for f, c in zip(free, congested))


@given(
    n=st.integers(min_value=1, max_value=10),
    streams=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=30, deadline=None)
def test_equal_flows_finish_together(n, streams):
    # Zero setup so starts are exactly simultaneous.
    env, fabric = build(model=StreamModel(0, 0, 0))
    flows = [fabric.start_transfer("a", "b", 1e5, streams) for _ in range(n)]
    env.run()
    ends = [f.t_done for f in flows]
    assert max(ends) - min(ends) < 1e-6
