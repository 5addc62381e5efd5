"""Fig. 5 — workflow execution time vs default streams per transfer,
one series per extra-staged-file size (0 / 10 / 100 / 500 / 1000 MB),
greedy threshold fixed at 50.

Paper shape: the additional file size has a significant effect above
100 MB, while increasing the default number of streams per transfer has
relatively little impact.
"""

from repro.experiments import ExperimentConfig
from repro.experiments.figures import fig5_series
from repro.experiments import ascii_series_plot, format_series_table


def test_fig5(benchmark, archive, replicates, stream_sweep, quick):
    sizes = (0, 100, 1000) if quick else (0, 10, 100, 500, 1000)

    def sweep():
        return fig5_series(
            base=ExperimentConfig(),
            sizes_mb=sizes,
            defaults=stream_sweep,
            replicates=replicates,
        )

    series = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report = format_series_table(
        "Fig. 5 — execution time (s) vs default streams, greedy threshold 50",
        "streams",
        series,
    )
    report += "\n\n" + ascii_series_plot("Fig. 5", series)
    archive("fig5", {"series": [s.to_dict() for s in series]}, report)

    by_size = {s.label: s for s in series}
    baseline = by_size[f"{0} MB extra"]
    big = by_size[f"{1000} MB extra"]
    mid = by_size[f"{100} MB extra"]

    # Shape 1: time grows strongly with extra-file size >= 100 MB.
    for streams in stream_sweep:
        assert big.at(streams)[0] > 2.0 * baseline.at(streams)[0]
        assert mid.at(streams)[0] > 1.2 * baseline.at(streams)[0]

    # Shape 2: default streams per transfer have comparatively little
    # impact — each series varies < 20% across the whole sweep.
    for s in series:
        means = s.means()
        assert max(means) / min(means) < 1.2, s.label
