"""Unit tests for metric containers and plain-text reporting."""

import pytest

from repro.experiments import Series, ascii_series_plot, format_series_table
from repro.experiments.tracing import summarize_records


# ---------------------------------------------------------------- Series
def test_series_add_and_stats():
    s = Series(label="makespan")
    s.add(4, [100.0, 110.0, 90.0])
    s.add(8, [200.0])
    assert s.xs == [4, 8]
    assert s.means() == [100.0, 200.0]
    assert s.at(4)[1] == pytest.approx(8.1649, rel=1e-3)
    mean, std = s.at(8)
    assert (mean, std) == (200.0, 0.0)


def test_series_rejects_empty_replicates():
    s = Series(label="x")
    with pytest.raises(ValueError):
        s.add(1, [])


def test_series_at_unknown_x():
    s = Series(label="x")
    s.add(1, [1.0])
    with pytest.raises(ValueError):
        s.at(99)


def test_series_roundtrip_dict():
    s = Series(label="x")
    s.add(1, [1.0, 2.0])
    doc = s.to_dict()
    assert doc == {"label": "x", "xs": [1], "ys": [[1.0, 2.0]]}


# ---------------------------------------------------------------- helpers
def test_summarize_records():
    stats = summarize_records([1.0, 2.0, 3.0, 4.0])
    assert stats["count"] == 4
    assert stats["mean"] == 2.5
    assert stats["min"] == 1.0
    assert stats["max"] == 4.0
    assert stats["p50"] == 2.5
    assert summarize_records([]) == {"count": 0}


# ---------------------------------------------------------------- reports
def two_series():
    a, b = Series(label="alpha"), Series(label="beta")
    for x in (1, 2, 3):
        a.add(x, [float(x * 10)])
        b.add(x, [float(x * 20), float(x * 22)])
    return [a, b]


def test_format_series_table():
    text = format_series_table("My Title", "x", two_series())
    assert "My Title" in text
    assert "alpha" in text and "beta" in text
    assert "10.0" in text
    assert text.count("\n") >= 5


def test_format_series_table_validation():
    with pytest.raises(ValueError):
        format_series_table("t", "x", [])
    a, b = two_series()
    b.add(4, [1.0])  # mismatched xs
    with pytest.raises(ValueError, match="mismatched"):
        format_series_table("t", "x", [a, b])


def test_ascii_plot_contains_marks_and_legend():
    text = ascii_series_plot("Plot", two_series())
    assert "Plot" in text
    assert "o = alpha" in text
    assert "x = beta" in text
    assert "o" in text


def test_ascii_plot_flat_series():
    s = Series(label="flat")
    s.add(1, [5.0])
    s.add(2, [5.0])
    text = ascii_series_plot("Flat", [s])
    assert "Flat" in text  # no division-by-zero on flat data


def test_ascii_plot_validation():
    with pytest.raises(ValueError):
        ascii_series_plot("t", [])
