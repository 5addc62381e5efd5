"""Series builders for the paper's evaluation artifacts (Table IV, Figs 5-9).

Every figure in the paper's evaluation plots *workflow execution time*
against the *default number of parallel streams per transfer*:

* **Fig. 5** fixes the greedy threshold at 50 and varies the size of the
  extra staged file (0 / 10 / 100 / 500 / 1000 MB);
* **Figs. 6-9** fix the extra-file size (10 / 100 / 500 / 1000 MB) and
  compare greedy thresholds 50 / 100 / 200 plus the single no-policy
  point (default Pegasus, 4 streams per transfer);
* **Table IV** is the analytic maximum-streams table
  (:func:`repro.policy.allocation.max_streams_table`), which we also
  cross-check against the streams observed on the simulated WAN.

Each builder returns :class:`Series` objects with per-replicate samples,
matching the paper's mean ± std-dev plots; :func:`format_series_table`
and :func:`ascii_series_plot` render them in a terminal (no plotting
dependencies are available offline).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from repro.experiments import stats
from repro.experiments.runner import ExperimentConfig, run_replicates


def _seed(*parts) -> int:
    """Stable cross-process seed (``hash()`` is randomized per process)."""
    return zlib.crc32(repr(parts).encode()) % 10_000

__all__ = [
    "DEFAULT_STREAM_SWEEP",
    "FIG5_SIZES_MB",
    "THRESHOLD_SWEEP",
    "Series",
    "ascii_series_plot",
    "fig5_series",
    "fig_threshold_series",
    "format_series_table",
    "no_policy_point",
]

#: Default-streams-per-transfer sweep used by every figure (paper x-axis).
DEFAULT_STREAM_SWEEP = (4, 6, 8, 10, 12)
#: Extra-file sizes of Fig. 5 (MB).
FIG5_SIZES_MB = (0, 10, 100, 500, 1000)
#: Greedy thresholds compared in Figs. 6-9.
THRESHOLD_SWEEP = (50, 100, 200)
#: Figs. 6-9 fix these sizes respectively.
FIG_SIZE_MB = {6: 10, 7: 100, 8: 500, 9: 1000}


@dataclass
class Series:
    """One experiment series: y(x) with replicate statistics.

    ``ys[i]`` holds the replicate measurements at ``xs[i]``.
    """

    label: str
    xs: list = field(default_factory=list)
    ys: list = field(default_factory=list)

    def add(self, x, replicate_values: Sequence[float]) -> None:
        values = [float(v) for v in replicate_values]
        if not values:
            raise ValueError(f"series {self.label!r}: empty replicate set at x={x}")
        self.xs.append(x)
        self.ys.append(values)

    def means(self) -> list[float]:
        return [stats.mean(v) for v in self.ys]

    def at(self, x) -> tuple[float, float]:
        """(mean, std) at a given x."""
        idx = self.xs.index(x)
        return stats.mean(self.ys[idx]), stats.std(self.ys[idx])

    def to_dict(self) -> dict:
        return {"label": self.label, "xs": list(self.xs), "ys": [list(v) for v in self.ys]}


def fig5_series(
    base: Optional[ExperimentConfig] = None,
    sizes_mb: Sequence[float] = FIG5_SIZES_MB,
    defaults: Sequence[int] = DEFAULT_STREAM_SWEEP,
    replicates: int = 3,
) -> list[Series]:
    """Fig. 5: one series per extra-file size, threshold fixed at 50."""
    base = base or ExperimentConfig()
    out = []
    for size in sizes_mb:
        series = Series(label=f"{int(size)} MB extra")
        for streams in defaults:
            cfg = replace(
                base,
                extra_file_mb=size,
                default_streams=streams,
                policy="greedy",
                threshold=50,
                seed=_seed(size, streams),
            )
            metrics = run_replicates(cfg, replicates)
            series.add(streams, [m.makespan for m in metrics])
        out.append(series)
    return out


def fig_threshold_series(
    size_mb: float,
    base: Optional[ExperimentConfig] = None,
    thresholds: Sequence[int] = THRESHOLD_SWEEP,
    defaults: Sequence[int] = DEFAULT_STREAM_SWEEP,
    replicates: int = 3,
) -> list[Series]:
    """Figs. 6-9: one series per greedy threshold at a fixed extra size."""
    base = base or ExperimentConfig()
    out = []
    for threshold in thresholds:
        series = Series(label=f"greedy threshold {threshold}")
        for streams in defaults:
            cfg = replace(
                base,
                extra_file_mb=size_mb,
                default_streams=streams,
                policy="greedy",
                threshold=threshold,
                seed=_seed(size_mb, threshold, streams),
            )
            metrics = run_replicates(cfg, replicates)
            series.add(streams, [m.makespan for m in metrics])
        out.append(series)
    return out


def no_policy_point(
    size_mb: float,
    base: Optional[ExperimentConfig] = None,
    replicates: int = 3,
) -> Series:
    """The figures' single no-policy point: default Pegasus, 4 streams."""
    base = base or ExperimentConfig()
    cfg = replace(
        base,
        extra_file_mb=size_mb,
        default_streams=4,
        policy=None,
        seed=_seed(size_mb, "nopolicy"),
    )
    series = Series(label="no policy (default Pegasus)")
    metrics = run_replicates(cfg, replicates)
    series.add(4, [m.makespan for m in metrics])
    return series


def format_series_table(title: str, x_label: str, series_list: Sequence[Series]) -> str:
    """A table with one row per x and mean±std columns per series."""
    if not series_list:
        raise ValueError("need at least one series")
    xs = series_list[0].xs
    for s in series_list:
        if s.xs != xs:
            raise ValueError(f"series {s.label!r} has mismatched x values")
    header = [x_label] + [s.label for s in series_list]
    widths = [max(len(h), 12) for h in header]
    lines = [title, ""]
    lines.append(" | ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("-+-".join("-" * w for w in widths))
    for i, x in enumerate(xs):
        cells = [str(x).ljust(widths[0])]
        for s, w in zip(series_list, widths[1:]):
            mean, std = s.at(x)
            cells.append(f"{mean:10.1f} ±{std:6.1f}".ljust(w))
        lines.append(" | ".join(cells))
    return "\n".join(lines)


def ascii_series_plot(
    title: str, series_list: Sequence[Series], width: int = 60, height: int = 16
) -> str:
    """Rough terminal scatter/line plot of series means vs x index."""
    if not series_list:
        raise ValueError("need at least one series")
    marks = "ox+*#@%&"
    all_means = [m for s in series_list for m in s.means()]
    lo, hi = min(all_means), max(all_means)
    if hi == lo:
        hi = lo + 1.0
    grid = [[" "] * width for _ in range(height)]
    n = max(len(s.xs) for s in series_list)
    for si, s in enumerate(series_list):
        for xi, mean in enumerate(s.means()):
            col = int(xi / max(n - 1, 1) * (width - 1))
            row = height - 1 - int((mean - lo) / (hi - lo) * (height - 1))
            grid[row][col] = marks[si % len(marks)]
    lines = [title]
    lines.append(f"{hi:10.1f} +" + "".join(grid[0]))
    for row in grid[1:-1]:
        lines.append(" " * 10 + " |" + "".join(row))
    lines.append(f"{lo:10.1f} +" + "".join(grid[-1]))
    legend = "   ".join(
        f"{marks[i % len(marks)]} = {s.label}" for i, s in enumerate(series_list)
    )
    lines.append(" " * 12 + legend)
    return "\n".join(lines)
