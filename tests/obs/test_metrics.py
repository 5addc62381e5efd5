"""Tests of the MetricsRegistry and its Prometheus rendering."""

import pytest

from repro.obs import MetricsRegistry


def test_counter_inc_and_value():
    reg = MetricsRegistry()
    c = reg.counter("repro_things_total", "Things.")
    c.inc()
    c.inc(2.5)
    assert c.value() == 3.5


def test_counter_rejects_negative_increment():
    c = MetricsRegistry().counter("repro_x_total")
    with pytest.raises(ValueError):
        c.inc(-1)


def test_labelled_counter_children_are_independent():
    reg = MetricsRegistry()
    c = reg.counter("repro_events_total", "Events.", labelnames=("event",))
    c.labels(event="approved").inc(3)
    c.labels(event="denied").inc()
    assert c.value(event="approved") == 3
    assert c.value(event="denied") == 1
    assert c.value(event="never_used") == 0


def test_wrong_label_set_raises():
    reg = MetricsRegistry()
    c = reg.counter("repro_e_total", labelnames=("event",))
    with pytest.raises(ValueError):
        c.labels(kind="x")
    with pytest.raises(ValueError):
        c.inc()  # unlabelled use of a labelled family


def test_registration_is_idempotent_but_kind_mismatch_raises():
    reg = MetricsRegistry()
    a = reg.counter("repro_n_total", "N.", labelnames=("k",))
    b = reg.counter("repro_n_total", "other help", labelnames=("k",))
    assert a is b
    with pytest.raises(ValueError):
        reg.gauge("repro_n_total")
    with pytest.raises(ValueError):
        reg.counter("repro_n_total", labelnames=("other",))


def test_invalid_metric_name_rejected():
    reg = MetricsRegistry()
    with pytest.raises(ValueError):
        reg.counter("9starts_with_digit")
    with pytest.raises(ValueError):
        reg.counter("has space")


def test_histogram_buckets_are_cumulative():
    reg = MetricsRegistry()
    h = reg.histogram("repro_latency_seconds", buckets=(0.1, 1.0, 10.0))._only_child()
    for v in (0.05, 0.5, 0.5, 5.0, 50.0):
        h.observe(v)
    text = reg.render()
    assert 'repro_latency_seconds_bucket{le="0.1"} 1' in text
    assert 'repro_latency_seconds_bucket{le="1"} 3' in text
    assert 'repro_latency_seconds_bucket{le="10"} 4' in text
    assert 'repro_latency_seconds_bucket{le="+Inf"} 5' in text
    assert "repro_latency_seconds_count 5" in text
    assert "repro_latency_seconds_sum 56.05" in text


def test_render_has_help_and_type_headers_sorted_families():
    reg = MetricsRegistry()
    reg.counter("repro_b_total", "B things.").inc()
    reg.gauge("repro_a", "A level.").set(2)
    text = reg.render()
    assert text.index("# HELP repro_a A level.") < text.index("# HELP repro_b_total")
    assert "# TYPE repro_a gauge" in text
    assert "# TYPE repro_b_total counter" in text
    assert text.endswith("\n")


def test_label_values_escaped_in_render():
    reg = MetricsRegistry()
    c = reg.counter("repro_paths_total", labelnames=("path",))
    c.labels(path='a"b\\c\nd').inc()
    assert 'path="a\\"b\\\\c\\nd"' in reg.render()


def test_integer_values_render_bare():
    reg = MetricsRegistry()
    reg.counter("repro_i_total").inc(3)
    assert "repro_i_total 3\n" in reg.render()


def test_to_dict_census():
    reg = MetricsRegistry()
    c = reg.counter("repro_e_total", labelnames=("event",))
    c.labels(event="ok").inc(2)
    doc = reg.to_dict()
    assert doc == {"repro_e_total": {'repro_e_total{event="ok"}': 2.0}}
