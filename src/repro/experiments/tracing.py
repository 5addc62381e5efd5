"""Traced experiment runs: one call, a full set of trace artifacts.

:func:`run_traced_cell` is :func:`~repro.experiments.runner.run_cell`
with the observability stack attached: a :class:`~repro.obs.Tracer`
bound to the DES clock, a shared :class:`~repro.obs.MetricsRegistry`,
and a :class:`~repro.obs.RuleProfiler` on every rule session.  The
returned :class:`TracedRun` holds the live objects and writes the
standard artifact set:

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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.experiments.environment import build_testbed
from repro.experiments.runner import (
    EnsembleResult,
    ExperimentConfig,
    catalog_census_of,
    cell_workflow,
    execute_workflow,
    run_tenant_ensemble,
)
from repro.metrics.collectors import RunMetrics
from repro.metrics.provenance import run_provenance
from repro.obs import (
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
from repro.planner.planner import fresh_plan_ids
from repro.workflow.dag import Workflow

__all__ = [
    "TracedRun",
    "run_traced_cell",
    "run_traced_chaos",
    "run_traced_ensemble",
    "run_traced_workflow",
]


@dataclass
class TracedRun:
    """A finished run (or tenant ensemble) plus the live observability objects."""

    tracer: Tracer
    registry: MetricsRegistry
    profiler: RuleProfiler
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
        return jsonl_lines(self.tracer)

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
        write_chrome_trace(self.tracer, paths["trace.json"])
        write_jsonl(self.tracer, paths["events.jsonl"])
        write_prometheus(self.registry, paths["metrics.prom"])
        write_rule_profile(self.profiler, paths["rule_profile.txt"])
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


def _traced(run, tracer: Optional[Tracer] = None) -> TracedRun:
    """Call ``run(tracer, registry, profiler)`` with a fresh stack attached.

    ``run`` returns the remaining :class:`TracedRun` fields.  Workflow
    ids carry a process-global plan sequence; it restarts here so the
    event stream is identical no matter what was planned before.
    """
    tracer = tracer if tracer is not None else Tracer()
    registry, profiler = MetricsRegistry(), RuleProfiler()
    with fresh_plan_ids():
        fields = run(tracer, registry, profiler)
    fields["decisions"] = link_decisions_to_trace(list(fields["decisions"]), tracer)
    return TracedRun(tracer=tracer, registry=registry, profiler=profiler, **fields)


def run_traced_workflow(
    cfg: ExperimentConfig,
    workflow: Workflow,
    tracer: Optional[Tracer] = None,
) -> TracedRun:
    """Plan + execute one workflow with the observability stack attached."""
    def run(tracer, registry, profiler):
        bed = build_testbed(cfg.testbed, seed=cfg.seed, tracer=tracer)
        execution = execute_workflow(
            cfg, workflow, bed, metrics=registry, profiler=profiler
        )
        metrics = execution.metrics()
        service = execution.policy.service if execution.policy is not None else None
        return dict(
            metrics=metrics,
            provenance=run_provenance(
                metrics, result=execution.result, config=cfg, tracer=tracer,
                frontend="in-process",
            ),
            decisions=service.decision_records() if service is not None else [],
            catalog_census=catalog_census_of(service) if service is not None else None,
        )

    return _traced(run, tracer)


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
    def run(tracer, registry, profiler):
        result = run_tenant_ensemble(
            cfg,
            tenants,
            submissions,
            admission=admission,
            scheduler=scheduler,
            initial_charges=initial_charges,
            tracer=tracer,
            metrics=registry,
            profiler=profiler,
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
            "trace": tracer.summary(),
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

    def run(tracer, registry, profiler):
        result = run_chaos_montage(
            cfg, plan=plan, tracer=tracer, metrics=registry, profiler=profiler
        )
        provenance = run_provenance(
            result.metrics, config=cfg, tracer=tracer, frontend="in-process"
        )
        provenance["fault_log"] = [[t, what] for t, what in result.fault_log]
        return dict(
            metrics=result.metrics,
            provenance=provenance,
            decisions=result.decisions,
            catalog_census=result.catalog_census,
        )

    return _traced(run)
