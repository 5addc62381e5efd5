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

Each builder returns :class:`~repro.metrics.collectors.Series` objects
with per-replicate samples, matching the paper's mean ± std-dev plots.
"""

from __future__ import annotations

import zlib
from dataclasses import replace
from typing import Optional, Sequence

from repro.experiments.runner import ExperimentConfig, run_replicates
from repro.metrics.collectors import Series


def _seed(*parts) -> int:
    """Stable cross-process seed (``hash()`` is randomized per process)."""
    return zlib.crc32(repr(parts).encode()) % 10_000

__all__ = [
    "DEFAULT_STREAM_SWEEP",
    "FIG5_SIZES_MB",
    "THRESHOLD_SWEEP",
    "fig5_series",
    "fig_threshold_series",
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
