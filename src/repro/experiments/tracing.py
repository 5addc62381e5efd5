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
    WorkflowExecution,
    build_policy_client,
    catalog_census_of,
    cell_workflow,
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
    "TracedEnsemble",
    "TracedRun",
    "run_traced_cell",
    "run_traced_chaos",
    "run_traced_ensemble",
    "run_traced_workflow",
]


def _write_artifact_set(
    tracer, registry, profiler, provenance, outdir, decisions=(),
    catalog_census=None,
) -> dict[str, str]:
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
    write_chrome_trace(tracer, paths["trace.json"])
    write_jsonl(tracer, paths["events.jsonl"])
    write_prometheus(registry, paths["metrics.prom"])
    write_rule_profile(profiler, paths["rule_profile.txt"])
    paths["provenance.json"].write_text(
        json.dumps(provenance, indent=2, sort_keys=True, default=repr) + "\n"
    )
    write_decisions(list(decisions), paths["decisions.jsonl"])
    if catalog_census is not None:
        # Canonical JSON (sorted keys, no indent-dependent whitespace
        # inside values): equal catalogs produce byte-equal artifacts.
        paths["catalog_census.json"] = out / "catalog_census.json"
        paths["catalog_census.json"].write_text(
            json.dumps(catalog_census, indent=2, sort_keys=True) + "\n"
        )
    return {name: str(path) for name, path in paths.items()}


@dataclass
class TracedRun:
    """A finished run plus the live observability objects."""

    metrics: RunMetrics
    tracer: Tracer
    registry: MetricsRegistry
    profiler: RuleProfiler
    provenance: dict
    #: decision-provenance records, span-linked to the trace
    decisions: list = field(default_factory=list)
    #: staged-data catalog census at end of run (None = catalog off)
    catalog_census: Optional[dict] = None

    def jsonl(self) -> list[str]:
        """The canonical JSONL event lines (deterministic per seed)."""
        return jsonl_lines(self.tracer)

    def write_artifacts(self, outdir) -> dict[str, str]:
        """Write the standard artifact set; returns {artifact: path}."""
        return _write_artifact_set(
            self.tracer, self.registry, self.profiler, self.provenance, outdir,
            decisions=self.decisions, catalog_census=self.catalog_census,
        )


def run_traced_workflow(
    cfg: ExperimentConfig,
    workflow: Workflow,
    tracer: Optional[Tracer] = None,
) -> TracedRun:
    """Plan + execute one workflow with the observability stack attached."""
    tracer = tracer if tracer is not None else Tracer()
    registry = MetricsRegistry()
    profiler = RuleProfiler()
    bed = build_testbed(cfg.testbed, seed=cfg.seed, tracer=tracer)
    policy = build_policy_client(cfg, bed, metrics=registry, profiler=profiler)
    # Workflow ids carry a process-global plan sequence; restart it so the
    # event stream is identical no matter what was planned before.
    with fresh_plan_ids():
        execution = WorkflowExecution(cfg, workflow, bed, policy)
        process = execution.start()
        bed.env.run(until=process)
    metrics = execution.metrics()
    provenance = run_provenance(
        metrics, result=execution.result, config=cfg, tracer=tracer,
        frontend="in-process",
    )
    decisions = link_decisions_to_trace(
        policy.service.decision_records(), tracer
    )
    return TracedRun(
        metrics=metrics,
        tracer=tracer,
        registry=registry,
        profiler=profiler,
        provenance=provenance,
        decisions=decisions,
        catalog_census=catalog_census_of(policy.service),
    )


@dataclass
class TracedEnsemble:
    """A finished multi-tenant ensemble plus the observability objects."""

    result: EnsembleResult
    tracer: Tracer
    registry: MetricsRegistry
    profiler: RuleProfiler
    provenance: dict
    #: decision-provenance records, span-linked to the trace
    decisions: list = field(default_factory=list)
    #: staged-data catalog census at end of run (None = catalog off)
    catalog_census: Optional[dict] = None

    def jsonl(self) -> list[str]:
        """The canonical JSONL event lines (deterministic per seed)."""
        return jsonl_lines(self.tracer)

    def write_artifacts(self, outdir) -> dict[str, str]:
        """Write the standard artifact set; returns {artifact: path}."""
        return _write_artifact_set(
            self.tracer, self.registry, self.profiler, self.provenance, outdir,
            decisions=self.decisions, catalog_census=self.catalog_census,
        )


def run_traced_ensemble(
    cfg: ExperimentConfig,
    tenants,
    submissions,
    admission=None,
    scheduler: str = "fair",
    initial_charges: Optional[dict] = None,
) -> TracedEnsemble:
    """Run a tenant ensemble with the observability stack attached.

    The trace gains the ``tenant`` category (submit/admit/reject
    instants, per-workflow ``tenant.run`` spans, queue counters) next to
    the usual staging and rule spans; ``events.jsonl`` stays a
    deterministic function of (workflows, config, seed).
    """
    tracer = Tracer()
    registry = MetricsRegistry()
    profiler = RuleProfiler()
    with fresh_plan_ids():
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
    return TracedEnsemble(
        result=result,
        tracer=tracer,
        registry=registry,
        profiler=profiler,
        provenance=provenance,
        decisions=link_decisions_to_trace(list(result.decisions), tracer),
        catalog_census=result.catalog_census,
    )


def run_traced_cell(cfg: ExperimentConfig) -> TracedRun:
    """Run the augmented-Montage cell for ``cfg`` with tracing on."""
    return run_traced_workflow(cfg, cell_workflow(cfg))


def run_traced_chaos(cfg: ExperimentConfig, plan=None, journal_dir=None) -> TracedRun:
    """Run the chaos-Montage cell (mid-run service outage) with tracing on.

    The trace gains a ``fault`` track marking outage/drop/storm windows
    alongside the spans they perturb.  Without an explicit ``plan``, a
    single 30 s service outage hits 60 s into the run.
    """
    from repro.des.faults import FaultPlan
    from repro.experiments.chaos import run_chaos_montage

    tracer = Tracer()
    registry = MetricsRegistry()
    profiler = RuleProfiler()
    plan = plan if plan is not None else FaultPlan.single_crash(at=60.0, duration=30.0)
    with fresh_plan_ids():
        result = run_chaos_montage(
            cfg, plan=plan, journal_dir=journal_dir,
            tracer=tracer, metrics=registry, profiler=profiler,
        )
    provenance = run_provenance(
        result.metrics, config=cfg, tracer=tracer, frontend="in-process"
    )
    provenance["fault_log"] = [[t, what] for t, what in result.fault_log]
    return TracedRun(
        metrics=result.metrics,
        tracer=tracer,
        registry=registry,
        profiler=profiler,
        provenance=provenance,
        decisions=link_decisions_to_trace(list(result.decisions), tracer),
        catalog_census=result.catalog_census,
    )
