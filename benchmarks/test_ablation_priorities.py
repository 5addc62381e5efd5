"""A3 — structure-based staging priorities (paper §III.c, future work).

Compares the four priority algorithms (BFS, DFS, direct-dependent-based,
dependent-based) against unprioritized staging on the augmented Montage
workload with a tight staging throttle, where release order matters.
"""

from repro.experiments import ExperimentConfig
from repro.experiments.runner import run_replicates
from repro.experiments import Series, format_series_table

ALGORITHMS = [None, "bfs", "dfs", "direct-dependent", "dependent"]


def test_priority_algorithms(benchmark, archive, replicates):
    def sweep():
        series = Series(label="makespan")
        for algorithm in ALGORITHMS:
            cfg = ExperimentConfig(
                extra_file_mb=100,
                default_streams=4,
                policy="greedy",
                threshold=50,
                priority_algorithm=algorithm,
                order_by="priority" if algorithm else "urls",
                job_limit=5,   # tight throttle: release order matters
                seed=23,
            )
            metrics = run_replicates(cfg, replicates)
            series.add(algorithm or "none", [m.makespan for m in metrics])
        return series

    series = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report = format_series_table(
        "A3 — structure-based priority algorithms (job limit 5, 100 MB extras)",
        "algorithm",
        [series],
    )
    archive("ablation_priorities", {"series": series.to_dict()}, report)

    # All algorithms complete; none is pathologically worse than baseline.
    baseline = series.at("none")[0]
    for algorithm in ALGORITHMS[1:]:
        assert series.at(algorithm)[0] < baseline * 1.25
