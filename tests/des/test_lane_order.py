"""The laned kernel fires events in exactly the one-heap kernel's order.

Hypothesis generates small programs (processes that wait, fire and fail
shared gates, spawn children, yield events that already fired, and end in
an error) and a driver that cuts the run at horizons and acts between
them.  The same program runs on ``repro.des`` and on the one-heap oracle
of ``tests/des/heap_kernel.py``; both must write the same ``(now, label)``
log.
"""

import itertools

from hypothesis import example, given
from hypothesis import strategies as st

import repro.des
from tests.des import heap_kernel

GATES = 3
PROGRAMS = 4
MAX_DEPTH = 2
# 0.5, 1.0 and 1.5 land on each other's instants.  Started at 1e17 (float
# spacing 16) they all underflow and only 16.0 moves the clock.
DELAYS = (0.0, 0.5, 1.0, 1.5, 16.0)
HORIZONS = (0.0, 0.5, 1.0, 1.5, 2.0, 16.0, 17.0, 32.0)

_gate = st.integers(0, GATES - 1)
_program = st.integers(0, PROGRAMS - 1)
OPS = st.one_of(
    st.tuples(st.just("timeout"), st.sampled_from(DELAYS)),
    st.tuples(st.just("wait"), _gate),
    st.tuples(st.just("fire"), _gate),
    st.tuples(st.just("fail"), _gate, st.booleans()),   # defuse first?
    st.tuples(st.just("spawn"), _program, st.booleans()),  # join it?
    st.tuples(st.just("on"), _gate, _program),
    st.just(("rewait",)),
    st.just(("raise",)),
)


class Boom(Exception):
    pass


def simulate(kernel, base, programs, cuts):
    """Run ``programs[0]`` plus the ``cuts`` driver on ``kernel``; the log."""
    env = kernel.Environment(initial_time=base)
    pids = itertools.count()
    log = []

    def note(label):
        log.append((env.now, label))

    def watched(event, label):
        # Every event logs its own firing, so no reordering goes unseen.
        event.callbacks.append(lambda event: note(f"{label} fired ok={event._ok}"))
        return event

    def start(j, depth):
        pid = next(pids)
        return watched(env.process(body(pid, j, depth)), f"p{pid}")

    gates = [watched(env.event(), f"g{k}") for k in range(GATES)]

    def act(op, label, depth):
        kind = op[0]
        if kind in ("fire", "fail"):
            gate = gates[op[1]]
            if gate.triggered:
                return
            note(f"{label} {kind} g{op[1]}")
            if kind == "fire":
                gate.succeed(label)
                return
            if op[2]:
                gate.defuse()
            gate.fail(Boom(label))
        elif kind == "on" and depth < MAX_DEPTH:
            def spawn(_event):
                note(f"{label} on g{op[1]}")
                start(op[2], depth + 1)
            gate = gates[op[1]]
            if gate.callbacks is None:
                spawn(gate)
            else:
                gate.callbacks.append(spawn)
        elif kind == "spawn" and depth < MAX_DEPTH:
            return start(op[1], depth + 1)

    def body(pid, j, depth):
        last = None
        for i, op in enumerate(programs[j]):
            label = f"p{pid}.{i}"
            kind = op[0]
            target = None
            if kind == "timeout":
                target = watched(env.timeout(op[1], label), label)
            elif kind == "wait":
                target = gates[op[1]]
            elif kind == "rewait":
                target = last
            elif kind == "raise":
                note(f"{label} raise")
                raise Boom(label)
            else:
                child = act(op, label, depth)
                if kind == "spawn" and op[2]:
                    target = child
            if target is None:
                continue
            try:
                value = yield target
                note(f"{label} {kind} -> {value}")
            except Boom as exc:
                note(f"{label} {kind} caught {exc}")
            last = target
        note(f"p{pid} end")
        return pid

    def run(until=None):
        while True:
            try:
                env.run(until=until)
                return
            except Boom as exc:
                note(f"crash {exc}")

    start(0, 0)
    for n, (horizon, op) in enumerate(sorted(cuts, key=lambda cut: cut[0])):
        run(base + horizon)
        label = f"cut{n}"
        if op[0] == "timeout":
            watched(env.timeout(op[1]), label)
        else:
            act(op, label, 0)
    run()
    note("drained")
    return log


@given(
    base=st.sampled_from([0.0, 1e17]),
    programs=st.lists(st.lists(OPS, max_size=6), min_size=PROGRAMS, max_size=PROGRAMS),
    cuts=st.lists(st.tuples(st.sampled_from(HORIZONS), OPS), max_size=4),
)
# An underflowing timeout, then an end due at the same instant.
@example(1e17, [[("spawn", 1, False), ("timeout", 1.0)], [], [], []], [])
# timeout(0) beside delayed timeouts landing on one instant, and two cuts
# at that instant: one fails the gate a child waits on, one hooks a spawn.
@example(
    0.0,
    [
        [("spawn", 1, True), ("timeout", 0.5), ("timeout", 0.5), ("fire", 0)],
        [("timeout", 1.0), ("timeout", 0.0), ("wait", 1), ("rewait",)],
        [], [],
    ],
    [(1.0, ("fail", 1, False)), (1.0, ("on", 0, 2))],
)
def test_lanes_fire_in_one_heap_order(base, programs, cuts):
    expected = simulate(heap_kernel, base, programs, cuts)
    assert simulate(repro.des, base, programs, cuts) == expected
