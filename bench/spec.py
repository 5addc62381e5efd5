"""Metric and workload declarations.

``BENCHMARK.json`` is the single source for the workload list, the
per-layer metric list, and the end-to-end metrics every workload emits.
The contract requires each run to report *every* metric in its
``end_to_end`` list and forbids metrics that can read 0, so the metrics
that apply to only some workloads (latencies, ``recover_s``,
``sim_makespan_s``) and ``fail_ratio`` (always 0 on a healthy run)
cannot live there; they are declared in :data:`LOCAL_END_TO_END` and
are reported by ``python -m bench run`` / judged by ``bench compare``
exactly like the others.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
GOLDEN = Path(__file__).resolve().parent / "golden.json"

DEFAULT_SEED = 1
MIN_REPS = 4

SIM = ("montage_cell", "montage_sharded4", "tenant_ensemble", "dag10k_nopolicy")
SERVICE = ("svc_smallbatch", "svc_bigbatch", "rest_loopback")

#: End-to-end metrics that do not apply to every workload (or may read 0).
#: ``bound`` 0 means "must not get worse at all".  The issue asked for
#: 10-15% on the host-time metrics; ten-seed sweeps on this shared VM
#: measured spreads of 7-15% for them (bench/README.md), so they carry the
#: contract's widest bound, like ``wall_s``.
LOCAL_END_TO_END = [
    {"name": "xfer_submit_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25,
     "workloads": SERVICE},
    {"name": "cleanup_submit_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25,
     "workloads": SERVICE},
    {"name": "call_p95_ms", "unit": "ms", "better": "lower", "bound": 0.25,
     "workloads": ("svc_smallbatch", "rest_loopback")},
    {"name": "recover_s", "unit": "s", "better": "lower", "bound": 0.25,
     "workloads": ("svc_smallbatch",)},
    {"name": "fail_ratio", "unit": "ratio", "better": "lower", "bound": 0.0,
     "workloads": SIM + SERVICE},
    {"name": "sim_makespan_s", "unit": "sim_s", "better": "lower", "bound": 0.0,
     "workloads": SIM},
]

#: Per-workload sizes.  ``reps`` is the repetition count at the
#: contract's ``run_seconds`` (scaled linearly by ``--seconds``, never
#: below MIN_REPS), tuned so the timed phase is about that long here.
#: ``quick`` is ~10x smaller and always runs MIN_REPS repetitions.
SIZES = {
    "montage_cell": {
        "full": {"reps": 15, "n_images": 89, "extra_mb": 100.0},
        "quick": {"n_images": 12, "extra_mb": 100.0},
    },
    "montage_sharded4": {
        "full": {"reps": 13, "n_images": 89, "extra_mb": 100.0},
        "quick": {"n_images": 12, "extra_mb": 100.0},
    },
    "tenant_ensemble": {
        "full": {"reps": 4, "tenants": 4, "n_images": 89, "extra_mb": 10.0},
        "quick": {"tenants": 4, "n_images": 12, "extra_mb": 10.0},
    },
    "dag10k_nopolicy": {
        "full": {"reps": 5, "lanes": 50, "chunks": 66},
        "quick": {"lanes": 10, "chunks": 33},
    },
    "svc_smallbatch": {
        "full": {"reps": 4, "resident": 2000, "pool": 200, "workflows": 3, "jobs": 60},
        "quick": {"resident": 200, "pool": 20, "workflows": 2, "jobs": 20},
    },
    "svc_bigbatch": {
        "full": {"reps": 4, "resident": 10000, "batch": 300, "hosts": 8},
        "quick": {"resident": 1000, "batch": 60, "hosts": 8},
    },
    "rest_loopback": {
        "full": {"reps": 4, "workflows": 4, "jobs": 45},
        "quick": {"workflows": 2, "jobs": 12},
    },
}


@functools.cache
def load() -> dict:
    """The parsed ``BENCHMARK.json`` (shared: treat it as read-only)."""
    return json.loads(BENCHMARK_JSON.read_text())


def workload_names() -> list[str]:
    return [w["name"] for w in load()["workloads"]]


def end_to_end(workload: str) -> list[dict]:
    """Every end-to-end metric declaration that applies to ``workload``."""
    return list(load()["end_to_end"]) + [
        m for m in LOCAL_END_TO_END if workload in m["workloads"]
    ]


def per_layer() -> list[dict]:
    return list(load()["per_layer"])


def size_of(workload: str, quick: bool, seconds: float) -> dict:
    """Resolved size parameters (including ``reps``) for one run."""
    sizes = SIZES[workload]
    if quick:
        return {**sizes["quick"], "reps": MIN_REPS}
    full = dict(sizes["full"])
    scale = seconds / load()["run_seconds"]
    full["reps"] = max(MIN_REPS, round(full["reps"] * scale))
    return full
