"""A5 — policy service call overhead vs benefit.

The paper notes that consulting an external service "incurs overheads for
the service calls".  We sweep the per-call latency and find where the
policy's stream-management benefit is eaten by its own overhead, compared
against the no-policy baseline.
"""

from dataclasses import replace

from repro.experiments import ExperimentConfig, TestbedParams
from repro.experiments.runner import run_replicates
from repro.experiments import Series, format_series_table

LATENCIES = (0.0, 0.15, 1.0, 5.0)


def test_service_latency_sweep(benchmark, archive, replicates):
    def sweep():
        series = Series(label="greedy@50 makespan")
        calls = Series(label="policy overhead (s)")
        for latency in LATENCIES:
            cfg = ExperimentConfig(
                extra_file_mb=100,
                default_streams=8,
                policy="greedy",
                threshold=50,
                seed=29,
                testbed=replace(TestbedParams(), policy_latency=latency),
            )
            metrics = run_replicates(cfg, replicates)
            series.add(latency, [m.makespan for m in metrics])
            calls.add(latency, [m.policy_overhead for m in metrics])
        nop_cfg = ExperimentConfig(
            extra_file_mb=100, default_streams=4, policy=None, seed=29
        )
        nop = [m.makespan for m in run_replicates(nop_cfg, replicates)]
        return series, calls, nop

    series, calls, nop = benchmark.pedantic(sweep, rounds=1, iterations=1)
    nop_mean = sum(nop) / len(nop)
    report = format_series_table(
        "A5 — policy-service call latency vs workflow time (100 MB extras)",
        "latency (s)",
        [series, calls],
    )
    report += f"\n\nno-policy baseline: {nop_mean:.1f} s"
    archive(
        "ablation_overhead",
        {"series": series.to_dict(), "overhead": calls.to_dict(), "no_policy": nop},
        report,
    )

    # Latency monotonically costs time...
    means = series.means()
    assert means[0] <= means[-1]
    # ...and at the paper-like latency (0.15 s) the policy still wins.
    assert series.at(0.15)[0] < nop_mean
    # At an absurd 5 s per call the advantage is gone.
    assert series.at(5.0)[0] > series.at(0.15)[0]
