"""A14 — storage-constrained staging: footprint vs makespan trade-off.

The ref [15] scenario: the execution site's scratch cannot hold the full
input set.  We sweep the staging byte budget on the augmented Montage
workload and report the measured peak footprint (feasibility) against the
makespan cost of the serialization the constraint forces.
"""

import numpy as np

from repro.experiments import ExperimentConfig
from repro.experiments.runner import run_replicates
from repro.experiments import Series, format_series_table

GB = 1e9
BUDGETS_GB = (None, 6.0, 3.0, 1.5)  # None = unconstrained


def test_storage_budget_sweep(benchmark, archive, replicates):
    def sweep():
        makespans = Series(label="makespan (s)")
        peaks = Series(label="peak footprint (GB)")
        for budget in BUDGETS_GB:
            cfg = ExperimentConfig(
                extra_file_mb=100,
                default_streams=8,
                policy="greedy",
                threshold=50,
                max_staging_bytes=budget * GB if budget else None,
                seed=51,
            )
            metrics = run_replicates(cfg, replicates)
            label = "none" if budget is None else budget
            makespans.add(label, [m.makespan for m in metrics])
            peaks.add(label, [m.peak_footprint / GB for m in metrics])
        return makespans, peaks

    makespans, peaks = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report = format_series_table(
        "A14 — staging byte budget (GB) vs makespan and measured peak "
        "footprint (89 x 100 MB extras + images)",
        "budget",
        [makespans, peaks],
    )
    archive(
        "ablation_storage_constrained",
        {"makespan": makespans.to_dict(), "peak": peaks.to_dict()},
        report,
    )

    # Note: with cleanup enabled and fast compute, the *observed*
    # unconstrained peak is already well below the worst case (files are
    # consumed and deleted quickly), so loose budgets change the plan's
    # worst-case guarantee more than the measured peak.  The measurable
    # contract: every run stays within budget + the intermediates' share,
    # and the tightest budget visibly shrinks the peak.
    unconstrained_peak = peaks.at("none")[0]
    for budget in BUDGETS_GB[1:]:
        assert peaks.at(budget)[0] < budget + 1.0
    assert peaks.at(1.5)[0] < unconstrained_peak * 0.75
    # Feasibility costs time: the tightest budget is slowest.
    assert makespans.at(1.5)[0] >= makespans.at("none")[0]
