"""Shared driver for Figs. 6-9 (threshold comparison at a fixed size)."""

from repro.experiments import ExperimentConfig
from repro.experiments.figures import fig_threshold_series, no_policy_point
from repro.experiments import ascii_series_plot, format_series_table

THRESHOLDS = (50, 100, 200)


def run_threshold_figure(size_mb, replicates, stream_sweep):
    """All series for one of Figs. 6-9: thresholds + the no-policy point."""
    series = fig_threshold_series(
        size_mb,
        base=ExperimentConfig(),
        thresholds=THRESHOLDS,
        defaults=stream_sweep,
        replicates=replicates,
    )
    nop = no_policy_point(size_mb, base=ExperimentConfig(), replicates=replicates)
    return series, nop


def figure_report(fig_no, size_mb, series, nop):
    title = (
        f"Fig. {fig_no} — execution time (s) with additional {size_mb} MB files, "
        f"greedy thresholds vs no policy"
    )
    report = format_series_table(title, "streams", series)
    mean, std = nop.at(4)
    report += (
        f"\n\nno policy (default Pegasus, 4 streams/transfer): "
        f"{mean:.1f} ± {std:.1f} s"
    )
    report += "\n\n" + ascii_series_plot(f"Fig. {fig_no}", series)
    return report


def payload(series, nop):
    return {"series": [s.to_dict() for s in series], "no_policy": nop.to_dict()}


def series_by_threshold(series):
    return {
        int(s.label.rsplit(" ", 1)[-1]): s
        for s in series
    }
