"""A1 — effect of the Pegasus clustering factor on data staging.

Paper Fig. 2 motivates clustering: grouping transfers eliminates the
initialization overhead between transfer jobs, at the price of less
staging parallelism.  We sweep the clustering factor for the 100 MB
augmented Montage workload (no clustering = the paper's evaluation
config, factor 1 = fully serialized staging).
"""

from repro.experiments import ExperimentConfig
from repro.experiments.runner import run_replicates
from repro.experiments import Series, format_series_table


def test_clustering_factor_sweep(benchmark, archive, replicates):
    factors = [None, 20, 10, 4, 1]

    def sweep():
        series = Series(label="makespan")
        staging = Series(label="staging time")
        for factor in factors:
            cfg = ExperimentConfig(
                extra_file_mb=100,
                default_streams=4,
                policy="greedy",
                threshold=50,
                cluster_factor=factor,
                seed=17,
            )
            metrics = run_replicates(cfg, replicates)
            label = "none" if factor is None else factor
            series.add(label, [m.makespan for m in metrics])
            staging.add(label, [m.staging_time for m in metrics])
        return series, staging

    series, staging = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report = format_series_table(
        "A1 — clustering factor vs execution/staging time (100 MB extras)",
        "cluster factor",
        [series, staging],
    )
    archive(
        "ablation_clustering",
        {"makespan": series.to_dict(), "staging": staging.to_dict()},
        report,
    )

    # Serializing all staging into one clustered job is clearly worse than
    # the paper's 20-wide staging.
    assert series.at(1)[0] > series.at("none")[0] * 1.3
    # A clustering factor equal to the job limit performs comparably to
    # no clustering (same staging concurrency, fewer session setups).
    assert abs(series.at(20)[0] - series.at("none")[0]) / series.at("none")[0] < 0.15
