"""Run metrics: aggregation and reporting helpers."""

from repro.metrics.collectors import RunMetrics, Series, summarize_records
from repro.metrics.provenance import ascii_timeline, run_provenance
from repro.metrics.report import ascii_series_plot, format_series_table

__all__ = [
    "RunMetrics",
    "Series",
    "ascii_series_plot",
    "ascii_timeline",
    "run_provenance",
    "format_series_table",
    "summarize_records",
]
