"""Observability: tracing, metrics, and rule-engine profiling, held
together per deployment by one :class:`Hooks`.

See ``docs/observability.md`` for the span taxonomy, metric names, and
exporter formats.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from .exporters import (
        chrome_trace_doc, decision_lines, jsonl_lines, write_chrome_trace, write_decisions,
        write_jsonl, write_prometheus, write_rule_profile,
    )
    from .hooks import Hooks
    from .metrics import DEFAULT_BUCKETS, Counter, Gauge, Histogram, MetricsRegistry
    from .profiler import RuleProfiler, RuleStats
    from .tracer import NullTracer, SpanHandle, Tracer, as_tracer

_EXPORTS = {  # name -> the module it is imported from
    "Tracer": ".tracer", "NullTracer": ".tracer", "as_tracer": ".tracer", "SpanHandle": ".tracer",
    "MetricsRegistry": ".metrics", "Counter": ".metrics", "Gauge": ".metrics",
    "Histogram": ".metrics", "DEFAULT_BUCKETS": ".metrics", "RuleProfiler": ".profiler",
    "RuleStats": ".profiler", "chrome_trace_doc": ".exporters", "decision_lines": ".exporters",
    "jsonl_lines": ".exporters", "write_chrome_trace": ".exporters",
    "write_decisions": ".exporters", "write_jsonl": ".exporters", "write_prometheus": ".exporters",
    "write_rule_profile": ".exporters", "Hooks": ".hooks",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
