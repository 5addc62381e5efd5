"""Traced experiment runs: one call, a full set of trace artifacts.

:func:`run_traced_cell` is :func:`~repro.experiments.runner.run_cell`
with the observability stack attached: one :class:`~repro.obs.Hooks`
holding a :class:`~repro.obs.Tracer` bound to the DES clock, a shared
:class:`~repro.obs.MetricsRegistry`, and a :class:`~repro.obs.RuleProfiler`
on every rule session.  The returned :class:`TracedRun` holds the hooks
and writes the standard artifact set:

========================  ==================================================
``trace.json``            Chrome ``trace_event`` JSON — open in Perfetto
                          (https://ui.perfetto.dev) or ``chrome://tracing``
``events.jsonl``          canonical JSONL event log, byte-identical across
                          runs with the same seed and configuration
``metrics.prom``          Prometheus text exposition of the registry
``rule_profile.txt``      per-rule activation/fire/elapsed report
``provenance.json``       provenance document with a ``trace`` summary
``decisions.jsonl``       decision-provenance records, one canonical JSON
                          object per line, cross-referenced to the Chrome
                          trace by span sequence (``meta.span_seq``)
========================  ==================================================

Because trace events carry only simulation-derived data (wall-clock
timings live in the registry and profiler), ``events.jsonl`` is a
deterministic function of (workflow, config, seed).

:func:`run_provenance` builds the provenance document of any finished
run (config, per-job timings, staging and storage figures) and
:func:`ascii_timeline` a terminal Gantt view of it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Optional

from repro.engine.dagman import DAGManResult
from repro.experiments import stats
from repro.experiments.runner import (
    EnsembleResult,
    ExperimentConfig,
    RunMetrics,
    catalog_census_of,
    cell_workflow,
    execute_workflow,
    run_tenant_ensemble,
)
from repro.obs import (
    Hooks,
    MetricsRegistry,
    RuleProfiler,
    Tracer,
    jsonl_lines,
    write_chrome_trace,
    write_decisions,
    write_jsonl,
    write_prometheus,
    write_rule_profile,
)
from repro.policy.provenance import link_decisions_to_trace
from repro.planner.executable import JobKind
from repro.planner.planner import fresh_plan_ids
from repro.workflow.dag import Workflow

__all__ = [
    "TracedRun",
    "ascii_timeline",
    "run_provenance",
    "run_traced_cell",
    "run_traced_chaos",
    "run_traced_ensemble",
    "run_traced_workflow",
    "summarize_records",
]


@dataclass
class TracedRun:
    """A finished run (or tenant ensemble) plus the hooks that observed it."""

    hooks: Hooks
    provenance: dict
    #: a single run's metrics (None for an ensemble)
    metrics: Optional[RunMetrics] = None
    #: a tenant ensemble's result (None for a single run)
    result: Optional[EnsembleResult] = None
    #: decision-provenance records, span-linked to the trace
    decisions: list = field(default_factory=list)
    #: staged-data catalog census at end of run (None = catalog off)
    catalog_census: Optional[dict] = None

    def jsonl(self) -> list[str]:
        """The canonical JSONL event lines (deterministic per seed)."""
        return jsonl_lines(self.hooks.tracer)

    def write_artifacts(self, outdir) -> dict[str, str]:
        """Write the standard artifact set; returns {artifact: path}."""
        out = Path(outdir)
        out.mkdir(parents=True, exist_ok=True)
        paths = {
            "trace.json": out / "trace.json",
            "events.jsonl": out / "events.jsonl",
            "metrics.prom": out / "metrics.prom",
            "rule_profile.txt": out / "rule_profile.txt",
            "provenance.json": out / "provenance.json",
            "decisions.jsonl": out / "decisions.jsonl",
        }
        hooks = self.hooks
        write_chrome_trace(hooks.tracer, paths["trace.json"])
        write_jsonl(hooks.tracer, paths["events.jsonl"])
        write_prometheus(hooks.metrics, paths["metrics.prom"])
        write_rule_profile(hooks.profiler, paths["rule_profile.txt"])
        paths["provenance.json"].write_text(
            json.dumps(self.provenance, indent=2, sort_keys=True, default=repr) + "\n"
        )
        write_decisions(list(self.decisions), paths["decisions.jsonl"])
        if self.catalog_census is not None:
            # Canonical JSON (sorted keys, no indent-dependent whitespace
            # inside values): equal catalogs produce byte-equal artifacts.
            paths["catalog_census.json"] = out / "catalog_census.json"
            paths["catalog_census.json"].write_text(
                json.dumps(self.catalog_census, indent=2, sort_keys=True) + "\n"
            )
        return {name: str(path) for name, path in paths.items()}


def _traced(run) -> TracedRun:
    """Call ``run(hooks)`` with a fresh stack attached.

    ``run`` returns the remaining :class:`TracedRun` fields.  Workflow
    ids carry a process-global plan sequence; it restarts here so the
    event stream is identical no matter what was planned before.
    """
    hooks = Hooks(tracer=Tracer(), metrics=MetricsRegistry(), profiler=RuleProfiler())
    with fresh_plan_ids():
        fields = run(hooks)
    fields["decisions"] = link_decisions_to_trace(list(fields["decisions"]), hooks.tracer)
    return TracedRun(hooks=hooks, **fields)


def run_traced_workflow(cfg: ExperimentConfig, workflow: Workflow) -> TracedRun:
    """Plan + execute one workflow with the observability stack attached."""
    def run(hooks):
        execution = execute_workflow(cfg, workflow, hooks=hooks)
        metrics = execution.metrics()
        service = execution.policy.service if execution.policy is not None else None
        return dict(
            metrics=metrics,
            provenance=run_provenance(
                metrics, result=execution.result, config=cfg, tracer=hooks.tracer,
                frontend="in-process",
            ),
            decisions=service.decision_records() if service is not None else [],
            catalog_census=catalog_census_of(service) if service is not None else None,
        )

    return _traced(run)


def run_traced_ensemble(
    cfg: ExperimentConfig,
    tenants,
    submissions,
    admission=None,
    scheduler: str = "fair",
    initial_charges: Optional[dict] = None,
) -> TracedRun:
    """Run a tenant ensemble with the observability stack attached.

    The trace gains the ``tenant`` category (submit/admit/reject
    instants, per-workflow ``tenant.run`` spans, queue counters) next to
    the usual staging and rule spans; ``events.jsonl`` stays a
    deterministic function of (workflows, config, seed).  The returned
    :class:`TracedRun` carries the :class:`EnsembleResult` as ``result``.
    """
    def run(hooks):
        result = run_tenant_ensemble(
            cfg,
            tenants,
            submissions,
            admission=admission,
            scheduler=scheduler,
            initial_charges=initial_charges,
            hooks=hooks,
        )
        provenance = {
            "kind": "tenant-ensemble",
            "scheduler": scheduler,
            "config": {
                "extra_file_mb": cfg.extra_file_mb,
                "default_streams": cfg.default_streams,
                "policy": cfg.policy,
                "threshold": cfg.threshold,
                "seed": cfg.seed,
            },
            "admission_order": list(result.admission_order),
            "completed_order": list(result.completed_order),
            "rejected": [list(r) for r in result.rejected],
            "tenant_bytes": dict(sorted(result.tenant_bytes.items())),
            "tenant_shares": dict(sorted(result.tenant_shares.items())),
            "workflows": [m.workflow_id for m in result.metrics],
            "trace": hooks.tracer.summary(),
        }
        return dict(
            result=result,
            provenance=provenance,
            decisions=result.decisions,
            catalog_census=result.catalog_census,
        )

    return _traced(run)


def run_traced_cell(cfg: ExperimentConfig) -> TracedRun:
    """Run the augmented-Montage cell for ``cfg`` with tracing on."""
    return run_traced_workflow(cfg, cell_workflow(cfg))


def run_traced_chaos(cfg: ExperimentConfig, plan=None) -> TracedRun:
    """Run the chaos-Montage cell (mid-run service outage) with tracing on.

    The trace gains a ``fault`` track marking outage/drop/storm windows
    alongside the spans they perturb.  Without an explicit ``plan``, a
    single 30 s service outage hits 60 s into the run.
    """
    from repro.des.faults import FaultPlan
    from repro.experiments.chaos import run_chaos_montage

    plan = plan if plan is not None else FaultPlan.single_crash(at=60.0, duration=30.0)

    def run(hooks):
        result = run_chaos_montage(cfg, plan=plan, hooks=hooks)
        provenance = run_provenance(
            result.metrics, config=cfg, tracer=hooks.tracer, frontend="in-process"
        )
        provenance["fault_log"] = [[t, what] for t, what in result.fault_log]
        return dict(
            metrics=result.metrics,
            provenance=provenance,
            decisions=result.decisions,
            catalog_census=result.catalog_census,
        )

    return _traced(run)


def summarize_records(durations: Iterable[float]) -> dict:
    """Summary statistics of a duration population."""
    values = [float(d) for d in durations]
    if not values:
        return {"count": 0}
    return {
        "count": len(values),
        "mean": stats.mean(values),
        "std": stats.std(values),
        "min": min(values),
        "max": max(values),
        "p50": stats.percentile(values, 50),
        "p95": stats.percentile(values, 95),
    }


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
