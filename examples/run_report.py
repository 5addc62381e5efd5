#!/usr/bin/env python
"""Provenance records and execution timelines.

Runs a small augmented Montage campaign and prints what a production
deployment would archive: the JSON provenance record (config, staging and
storage accounting, per-kind job statistics) and an ASCII Gantt view of
where staging sat relative to computation and cleanup.

Run:  python examples/run_report.py
"""

import json

from repro.experiments import ExperimentConfig
from repro.experiments.runner import execute_workflow
from repro.experiments import ascii_timeline, run_provenance
from repro.workflow.montage import MB, MontageConfig, augmented_montage


def main() -> None:
    cfg = ExperimentConfig(
        extra_file_mb=50, default_streams=8, policy="greedy",
        threshold=50, n_images=20, seed=8,
    )
    workflow = augmented_montage(50 * MB, MontageConfig(n_images=20, name="report-demo"))
    execution = execute_workflow(cfg, workflow)

    metrics = execution.metrics()
    provenance = run_provenance(metrics, execution.result, cfg)

    print("== provenance record (excerpt)")
    excerpt = {
        key: provenance[key]
        for key in ("workflow_id", "success", "makespan_s", "staging", "storage")
    }
    print(json.dumps(excerpt, indent=2, default=str)[:1200])

    print("\n== per-kind job statistics")
    for kind, stats in provenance["job_durations"].items():
        if stats.get("count"):
            print(f"   {kind:10s} n={stats['count']:4d} "
                  f"mean={stats['mean']:6.1f}s p95={stats['p95']:6.1f}s")

    print("\n== execution timeline")
    print(ascii_timeline(execution.result))


if __name__ == "__main__":
    main()
