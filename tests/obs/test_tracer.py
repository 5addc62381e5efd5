"""Tests of the Tracer: emission, spans, disabled mode, determinism basics."""

import pytest

from repro.obs import Tracer


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t


def test_instant_records_clock_category_and_args():
    clock = FakeClock(5.0)
    tracer = Tracer(clock=clock)
    tracer.instant("policy", "policy.lease_reap", track="policy", transfers=3)
    assert len(tracer) == 1
    event = tracer.events[0]
    assert event["ph"] == "i"
    assert event["ts"] == 5.0
    assert event["cat"] == "policy"
    assert event["name"] == "policy.lease_reap"
    assert event["track"] == "policy"
    assert event["args"] == {"transfers": 3}
    assert event["seq"] == 1


def test_span_covers_begin_to_end_with_merged_args():
    clock = FakeClock(10.0)
    tracer = Tracer(clock=clock)
    handle = tracer.begin("dagman", "job:j1", track="dagman:w1", kind="compute")
    clock.t = 17.5
    tracer.end(handle, state="done", attempts=1)
    (event,) = tracer.spans()
    assert event["ph"] == "X"
    assert event["ts"] == 10.0
    assert event["dur"] == 7.5
    assert event["args"] == {"kind": "compute", "state": "done", "attempts": 1}


def test_double_end_emits_once():
    tracer = Tracer(clock=FakeClock())
    handle = tracer.begin("c", "n")
    tracer.end(handle)
    tracer.end(handle, extra=1)
    assert len(tracer) == 1


def test_counter_event():
    tracer = Tracer(clock=FakeClock(2.0))
    tracer.counter("net", "streams:wan", track="net", streams=12)
    event = tracer.events[0]
    assert event["ph"] == "C"
    assert event["args"] == {"streams": 12}


def test_disabled_tracer_emits_nothing_and_begin_returns_none():
    tracer = Tracer(clock=FakeClock(), enabled=False)
    tracer.instant("c", "i")
    tracer.counter("c", "k", v=1)
    handle = tracer.begin("c", "s")
    assert handle is None
    tracer.end(handle)
    assert len(tracer) == 0


def test_end_none_is_noop_on_enabled_tracer():
    tracer = Tracer(clock=FakeClock())
    tracer.end(None, status=200)
    assert len(tracer) == 0


def test_unbound_tracer_stamps_zero():
    tracer = Tracer()
    tracer.instant("c", "n")
    assert tracer.events[0]["ts"] == 0.0


def test_track_ids_are_stable_insertion_ordered_small_ints():
    tracer = Tracer()
    assert tracer.track_id("policy") == 1
    assert tracer.track_id("net") == 2
    assert tracer.track_id("policy") == 1


def test_sequence_numbers_are_monotonic():
    tracer = Tracer(clock=FakeClock())
    for i in range(5):
        tracer.instant("c", f"e{i}")
    assert [e["seq"] for e in tracer.events] == [1, 2, 3, 4, 5]


def test_summary_counts_events_spans_and_categories():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.instant("fault", "fault.outage.begin")
    handle = tracer.begin("policy", "policy.submit_transfers")
    clock.t = 1.0
    tracer.end(handle)
    summary = tracer.summary()
    assert summary == {
        "events": 2,
        "spans": 1,
        "categories": {"fault": 1, "policy": 1},
    }


def test_by_category_filters():
    tracer = Tracer(clock=FakeClock())
    tracer.instant("a", "x")
    tracer.instant("b", "y")
    assert [e["name"] for e in tracer.by_category("b")] == ["y"]


def test_environment_binds_tracer_to_sim_clock():
    from repro.des import Environment

    tracer = Tracer()
    env = Environment(tracer=tracer)

    def proc():
        yield env.timeout(4.0)
        tracer.instant("test", "tick")

    env.process(proc())
    env.run()
    assert env.tracer is tracer
    assert tracer.events[0]["ts"] == 4.0


def test_null_tracer_absorbs_all_emission():
    from repro.obs.tracer import NULL_TRACER, NullTracer, as_tracer

    null = NullTracer()
    assert null.enabled is False
    span = null.begin("cat", "name", args={"k": 1})
    null.end(span)
    null.instant("cat", "mark")
    assert null.events == []
    assert null.summary()["events"] == 0
    with pytest.raises(ValueError):
        null.enabled = True
    null.enabled = False  # explicit re-disable stays legal


def test_as_tracer_substitutes_the_shared_null_object():
    from repro.obs.tracer import NULL_TRACER, Tracer, as_tracer

    assert as_tracer(None) is NULL_TRACER
    real = Tracer()
    assert as_tracer(real) is real
