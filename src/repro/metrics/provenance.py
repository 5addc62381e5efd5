"""Run reports: structured provenance export and terminal timelines.

Production workflow managers leave an execution record behind; these
helpers turn a :class:`~repro.metrics.collectors.RunMetrics` plus the
executor's :class:`~repro.engine.dagman.DAGManResult` into:

* a JSON-able provenance document (config, per-job timings, transfer
  stats, policy counters) for archival/comparison;
* an ASCII Gantt-style timeline of the run, grouped by job kind — handy
  for eyeballing where the staging phase sits relative to computation.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.engine.dagman import DAGManResult
from repro.metrics.collectors import RunMetrics, summarize_records
from repro.planner.executable import JobKind

__all__ = ["run_provenance", "ascii_timeline"]


def run_provenance(
    metrics: RunMetrics,
    result: Optional[DAGManResult] = None,
    config: Any = None,
    tracer: Any = None,
    frontend: Optional[str] = None,
) -> dict:
    """Build a JSON-able provenance record of one run.

    With ``tracer`` (a :class:`repro.obs.Tracer` that observed the run),
    the document gains a ``trace`` key summarizing the event stream —
    enough to tell whether/where the full trace artifacts exist without
    embedding them.  ``shard_count`` is read off the experiment config;
    ``frontend`` names how the Policy Service was reached
    (``"in-process"``, ``"rest"``, ``"rest-async"``) when the caller
    knows it.
    """
    doc: dict = {
        "workflow_id": metrics.workflow_id,
        "success": metrics.success,
        "makespan_s": metrics.makespan,
        "shard_count": getattr(config, "shards", None),
        "frontend": frontend,
        "staging": {
            "time_s": metrics.staging_time,
            "bytes": metrics.bytes_staged,
            "transfers_executed": metrics.transfers_executed,
            "transfers_skipped": metrics.transfers_skipped,
            "transfers_waited": metrics.transfers_waited,
            "stream_grants": list(metrics.stream_grants),
            "peak_streams": dict(metrics.peak_streams),
        },
        "storage": {
            "peak_footprint_bytes": metrics.peak_footprint,
            "final_footprint_bytes": metrics.final_footprint,
            "over_capacity_s": metrics.over_capacity_time,
        },
        "policy": {
            "calls": metrics.policy_calls,
            "overhead_s": metrics.policy_overhead,
            "stats": dict(metrics.policy_stats),
        },
        "job_durations": {
            kind: summarize_records(durations)
            for kind, durations in metrics.job_durations.items()
        },
    }
    if config is not None:
        fields = getattr(config, "__dataclass_fields__", {})
        doc["config"] = {
            name: repr(getattr(config, name))
            for name in fields
            if name != "testbed"
        }
    if result is not None:
        doc["jobs"] = [
            {
                "id": record.job_id,
                "kind": record.kind,
                "t_ready": record.t_ready,
                "t_start": record.t_start,
                "t_end": record.t_end,
                "attempts": record.attempts,
                "state": record.state,
            }
            for record in sorted(result.records.values(), key=lambda r: r.t_start)
        ]
    if tracer is not None:
        doc["trace"] = tracer.summary()
    return doc


def ascii_timeline(result: DAGManResult, width: int = 72) -> str:
    """Gantt-style view: one bar per job kind, plus a few sample jobs.

    Each kind's bar shows when *any* job of that kind was running.
    """
    records = [r for r in result.records.values() if r.state == "done"]
    if not records:
        return "(no completed jobs)"
    t_end = max(r.t_end for r in records)
    if t_end <= 0:
        return "(zero-length run)"
    scale = (width - 1) / t_end

    def bar_for(intervals: list[tuple[float, float]]) -> str:
        cells = [" "] * width
        for start, end in intervals:
            lo = int(start * scale)
            hi = max(lo, int(end * scale))
            for i in range(lo, min(hi + 1, width)):
                cells[i] = "#"
        return "".join(cells)

    lines = [f"timeline of {result.workflow_id} (0 .. {t_end:.0f} s)"]
    for kind in JobKind:
        intervals = [
            (r.t_start, r.t_end) for r in records if r.kind == kind.value
        ]
        if not intervals:
            continue
        lines.append(f"{kind.value:>10s} |{bar_for(intervals)}|")
    return "\n".join(lines)
