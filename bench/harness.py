"""Run one workload in this process and summarise it.

One run = set-up (several times, median reported), ``reps`` timed
repetitions, the workload's ``finish()``, output checks, and — for the
default seed at full size — the comparison with ``bench/golden.json``.
A metric's value is the median across repetitions, kept with its
quartiles, sample count and samples.  Host times are scaled to the
reference host speed (see :mod:`bench.probe`); the raw walls and probe
results are kept under ``"raw"``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import shutil
import statistics
import tempfile
import time
from pathlib import Path

from bench import spec, trace
from bench.probe import probe, scaled, slowdown
from bench.workloads import WORKLOADS, self_peak_rss_mb

SETUP_ROUNDS = 3
#: stop repeating (never below MIN_REPS) once the timed phase has used
#: this many times the requested seconds, so a slow host cannot push a
#: run past the driver's per-run limit
OVERRUN = 1.5


def canonical_sha256(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile (q in [0, 1]) of a non-empty list."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summarise(samples: list[float], unit: str) -> dict:
    return {
        "value": statistics.median(samples),
        "unit": unit,
        "q1": quantile(samples, 0.25),
        "q3": quantile(samples, 0.75),
        "n": len(samples),
        "samples": list(samples),
    }


def run_reps(workload, count: int, seconds: float) -> list:
    """The timed phase."""
    reps = []
    start = time.perf_counter()
    for i in range(count):
        gc.collect()    # every repetition starts from a collected heap
        rep = workload.rep(i)
        workload.verify(i, rep)
        reps.append(rep)
        if len(reps) >= spec.MIN_REPS and time.perf_counter() - start > OVERRUN * seconds:
            break
    return reps


def end_to_end_samples(reps, setup_samples, extra, rss_mb) -> dict:
    """Per-metric sample lists from the repetitions of one run."""
    walls = [r.scaled for r in reps]
    samples = {
        "setup_s": setup_samples,
        "wall_s": walls,
        "ops_per_s": [r.ops / wall for r, wall in zip(reps, walls)],
        "peak_rss_mb": [rss_mb],
        "fail_ratio": [
            sum(r.failed for r in reps) / max(1, sum(r.ops for r in reps))
        ],
    }
    if reps[0].sim_makespan is not None:
        # Only the repetitions every run has, so the value repeats exactly
        # per seed even when a slow host cut the repetition count.
        samples["sim_makespan_s"] = [r.sim_makespan for r in reps[:spec.MIN_REPS]]
    if reps[0].latencies:
        def per_rep_ms(calls, q):
            return [
                quantile([s for c in calls for s in r.latencies[c]], q) * 1e3 for r in reps
            ]

        samples["xfer_submit_p50_ms"] = per_rep_ms(["submit_transfers"], 0.5)
        samples["cleanup_submit_p50_ms"] = per_rep_ms(["submit_cleanups"], 0.5)
        samples["call_p95_ms"] = per_rep_ms(list(reps[0].latencies), 0.95)
    samples.update(extra)
    return samples


def golden_problems(workload: str, digests: list[str]) -> list[str]:
    """Compare per-repetition digests with the committed ones (prefix-wise)."""
    golden = json.loads(spec.GOLDEN.read_text()).get(workload)
    if golden is None:
        return [f"golden: no digests for {workload}"]
    common = min(len(golden), len(digests))
    return [
        f"golden: rep {i} result digest {digests[i][:12]} != {golden[i][:12]}"
        for i in range(common)
        if digests[i] != golden[i]
    ]


def run_workload(
    name: str,
    seed: int = spec.DEFAULT_SEED,
    seconds: float = 10.0,
    traced: bool = False,
    quick: bool = False,
    import_s: float = 0.0,
) -> dict:
    """Run ``name`` once; returns the full result document.

    ``import_s`` is the raw time from process start to here (imports);
    it is scaled by a probe taken now and added to every set-up sample.
    """
    import_s /= slowdown([probe()])
    size = spec.size_of(name, quick, seconds)
    tmp_root = spec.ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=tmp_root))
    try:
        baseline_wall = _untraced_wall(name, size, seed, workdir) if traced else None
        tracer = trace.install() if traced else None
        workload = WORKLOADS[name](size, seed, workdir, traced=traced)
        try:
            # A traced run reports no set-up time, so it sets up once.
            setup_samples = [
                import_s + scaled(workload.prepare)[0]
                for _ in range(1 if traced else SETUP_ROUNDS)
            ]
            if tracer is not None:
                tracer.mark()
            phase_start = time.perf_counter()
            reps = run_reps(workload, size["reps"], seconds)
            phase_end = time.perf_counter()
            if tracer is not None:
                tracer.mark()
            finished = workload.finish()
            rss_mb = self_peak_rss_mb()
        finally:
            workload.close()
            if tracer is not None:
                trace.uninstall(tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [p for r in reps for p in r.problems] + list(finished.get("problems", ()))
    digests = [canonical_sha256(r.digest) for r in reps]
    if seed == spec.DEFAULT_SEED and not quick:
        problems += golden_problems(name, digests)

    samples = end_to_end_samples(reps, setup_samples, finished.get("samples", {}), rss_mb)
    units = {m["name"]: m["unit"] for m in spec.end_to_end(name)}
    result = {
        "workload": name,
        "seed": seed,
        "quick": quick,
        "traced": traced,
        "reps": len(reps),
        "attempted": sum(r.ops for r in reps),
        "failed": sum(r.failed for r in reps) + len(problems),
        "problems": problems,
        "rep_digests": digests,
        "result_sha256": canonical_sha256(digests),
        "end_to_end": {
            metric: summarise(samples[metric], unit)
            for metric, unit in units.items()
            if metric in samples
        },
        "raw": {
            "wall_s": [r.wall for r in reps],
            "host_slowdown": [r.wall / r.scaled for r in reps],
        },
    }
    if problems:
        # A failed output check is a failed operation.
        ratio = result["end_to_end"]["fail_ratio"]
        ratio["value"] = max(ratio["value"], len(problems) / max(1, result["attempted"]))
    if tracer is not None:
        docs = [tracer.dump()] + list(finished.get("trace_docs", ()))
        spans = trace.Aggregate(docs, (phase_start, phase_end))
        walls = [r.wall for r in reps]
        result["per_layer"] = trace.derive(
            spans, walls,
            overhead_ratio=statistics.median(samples["wall_s"]) / baseline_wall,
            policy_wait_sim_s=sum(r.policy_wait_sim for r in reps),
        )
        result["layer_shares"] = trace.layer_shares(spans, walls)
    return result


def _untraced_wall(name: str, size: dict, seed: int, workdir: Path) -> float:
    """Median scaled wall of two untraced repetitions, the base of
    ``trace.overhead_ratio``; run before the wrappers are installed."""
    workload = WORKLOADS[name](size, seed, workdir)
    try:
        workload.prepare()
        return statistics.median(r.scaled for r in run_reps(workload, 2, 0.0))
    finally:
        workload.close()
