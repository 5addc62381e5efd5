#!/usr/bin/env python
"""Policy-service microbenchmark: a long-lived memory and a shard fleet.

Measures the policy service's decision hot path under the regime the
paper's future work worries about — a long-lived Policy Memory serving
transfer batches — and emits ``BENCH_rules.json``.  (Big batches against
a large resident set are the ``svc_bigbatch`` workload of ``bench/``.)

Scenarios
---------
``long_lived``
    Repeated workflow lifetimes against one service: per-batch latency
    must stay flat and the fact census empty, demonstrating the
    bounded-retention fixes (no leak-driven slowdown, no residual
    per-workflow facts).
``sharded``
    Batch-advice throughput through the shard router with every shard a
    separate :class:`~repro.policy.sharding.ProcessShardBackend` worker
    process, 1 shard vs 4.  Pairs are spread over 16 source sites so the
    consistent-hash ring splits each batch across the fleet and the
    per-shard rule evaluations overlap.  On hosts with >= 4 cores the
    shards run concurrently and wall-clock throughput is the metric; on
    starved CI hosts the dispatch falls back to serial, each shard's RPC
    is timed individually, and the metric is the measured **critical
    path** (router overhead + slowest shard per batch — the wall time
    the same run takes once each shard has a core).  Full runs must show
    >= 1.6x critical-path throughput at 4 shards vs 1.

Usage
-----
    PYTHONPATH=src python benchmarks/bench_rules.py [--quick] [--out PATH]

``--quick`` (or ``REPRO_QUICK=1``) shrinks every scenario for CI smoke
runs.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def _specs(n: int, tag: str):
    return [
        {
            "lfn": f"{tag}{i}",
            "src_url": f"gsiftp://fg-vm/data/{tag}{i}",
            "dst_url": f"gsiftp://obelix/scratch/{tag}{i}",
            "nbytes": 1000.0,
        }
        for i in range(n)
    ]


def run_long_lived(lifetimes: int, per_batch: int) -> dict:
    """Repeated workflow lifetimes on one service."""
    from repro.policy import PolicyConfig, PolicyService

    service = PolicyService(
        PolicyConfig(policy="greedy", default_streams=4, max_streams=4000)
    )
    latencies = []
    for life in range(lifetimes):
        wf = f"wf{life}"
        t0 = time.perf_counter()
        advice = service.submit_transfers(
            wf, "stage", _specs(per_batch, tag=f"{wf}-")
        )
        latencies.append(time.perf_counter() - t0)
        service.complete_transfers(done=[a.tid for a in advice])
        service.unregister_workflow(wf)
    census = service.snapshot()["memory"]
    head = latencies[: max(1, lifetimes // 3)]
    tail = latencies[-max(1, lifetimes // 3):]
    return {
        "lifetimes": lifetimes,
        "per_batch": per_batch,
        "mean_first_third_s": sum(head) / len(head),
        "mean_last_third_s": sum(tail) / len(tail),
        "residual_facts": census,
    }


# -- sharded batch-advice scaling --------------------------------------------
SHARDED_SPEEDUP_FULL = 1.6  # 4-shard throughput bar vs 1 shard


def _sharded_specs(batch: int, batch_size: int, sites: int):
    """One batch whose (src, dst) pairs spread across ``sites`` sources."""
    specs = []
    for i in range(batch_size):
        site = f"site{i % sites}"
        lfn = f"b{batch}f{i}"
        specs.append({
            "lfn": lfn,
            "src_url": f"gsiftp://{site}/data/{lfn}",
            "dst_url": f"gsiftp://obelix/scratch/{lfn}",
            "nbytes": 1000.0,
        })
    return specs


class _TimedBackend:
    """Shard-backend shim that records the wall time of every RPC."""

    def __init__(self, inner):
        self.inner = inner
        self.calls: list[float] = []

    def invoke(self, name, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return self.inner.invoke(name, *args, **kwargs)
        finally:
            self.calls.append(time.perf_counter() - t0)

    def metrics_text(self):
        return self.inner.metrics_text()

    def crash(self):
        self.inner.crash()

    def recover(self):
        self.inner.recover()

    def close(self):
        self.inner.close()


def run_sharded(num_shards: int, batches: int, batch_size: int,
                sites: int = 16) -> dict:
    """Drive submit_transfers batches through an N-process shard fleet.

    Both arms (1 shard and 4) go through the router with process-backed
    shards, so the pipe-RPC overhead cancels and the ratio isolates the
    parallel rule evaluation.  When the host has fewer cores than
    shards, dispatch runs serially (concurrent workers would only
    contend) and the **critical path** is derived per batch from the
    individually-timed shard RPCs: router overhead plus the slowest
    shard — the wall time of the identical run on an unstarved host.
    With enough cores the dispatch is concurrent and the critical path
    IS the measured wall time.
    """
    from repro.policy import PolicyConfig
    from repro.policy.sharding import ProcessShardBackend, ShardedPolicyService

    cpus = len(os.sched_getaffinity(0))
    concurrent = cpus >= num_shards
    config = PolicyConfig(policy="greedy", default_streams=4, max_streams=4000)
    backends = [_TimedBackend(ProcessShardBackend(config)) for _ in range(num_shards)]
    router = ShardedPolicyService(
        config, num_shards=num_shards, backends=backends, concurrent=concurrent
    )
    try:
        # Warm up: fork the workers' rule sessions before the clock starts.
        router.submit_transfers("bench", "warmup",
                                _sharded_specs(-1, batch_size, sites))
        total = 0
        wall = 0.0
        critical = 0.0
        for b in range(batches):
            for backend in backends:
                backend.calls.clear()
            t0 = time.perf_counter()
            advice = router.submit_transfers(
                "bench", f"job{b}", _sharded_specs(b, batch_size, sites))
            elapsed = time.perf_counter() - t0
            wall += elapsed
            total += len(advice)
            shard_times = [sum(backend.calls) for backend in backends]
            if concurrent:
                # Shards overlapped — the wall time already is the path.
                critical += elapsed
            else:
                # Serial dispatch: replace the summed shard time with the
                # slowest shard to get the unstarved-host wall time.
                critical += elapsed - sum(shard_times) + max(shard_times)
    finally:
        router.close()
    return {
        "shards": num_shards,
        "batches": batches,
        "batch_size": batch_size,
        "sites": sites,
        "cpus": cpus,
        "concurrent": concurrent,
        "advice": total,
        "elapsed_s": wall,
        "advice_per_s": total / wall,
        "critical_path_s": critical,
        "critical_path_advice_per_s": total / critical,
    }


def run_sharded_scaling(batches: int, batch_size: int) -> dict:
    results = {}
    for shards in (1, 4):
        results[str(shards)] = run_sharded(shards, batches, batch_size)
        r = results[str(shards)]
        print(f"  {shards} shard(s): {r['advice_per_s']:.0f} advice/s wall, "
              f"{r['critical_path_advice_per_s']:.0f} advice/s critical-path "
              f"({'concurrent' if r['concurrent'] else 'serial'}, "
              f"{r['cpus']} cpus)", flush=True)
    results["speedup_4_vs_1"] = (
        results["4"]["advice_per_s"] / results["1"]["advice_per_s"]
    )
    results["critical_path_speedup_4_vs_1"] = (
        results["4"]["critical_path_advice_per_s"]
        / results["1"]["critical_path_advice_per_s"]
    )
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_rules.json"))
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke scale (also via REPRO_QUICK=1)")
    args = parser.parse_args(argv)

    quick = args.quick or os.environ.get("REPRO_QUICK", "0") == "1"
    lifetimes, per_batch = (10, 10) if quick else (30, 20)

    report = {
        "benchmark": "bench_rules",
        "quick": quick,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "scenarios": {},
    }
    print("[long_lived]", flush=True)
    ll = report["scenarios"]["long_lived"] = run_long_lived(lifetimes, per_batch)
    print(f"  first third {ll['mean_first_third_s'] * 1e3:.1f}ms/batch, "
          f"last third {ll['mean_last_third_s'] * 1e3:.1f}ms/batch, "
          f"residual facts: {ll['residual_facts'] or '{}'}", flush=True)

    print("[sharded]", flush=True)
    sharded_batches, sharded_size = (4, 64) if quick else (12, 128)
    report["scenarios"]["sharded"] = run_sharded_scaling(
        sharded_batches, sharded_size)
    print(f"  4-vs-1 shard speedup: "
          f"{report['scenarios']['sharded']['speedup_4_vs_1']:.2f}x wall, "
          f"{report['scenarios']['sharded']['critical_path_speedup_4_vs_1']:.2f}x "
          f"critical-path", flush=True)

    out = pathlib.Path(args.out)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")

    failures = []
    if ll["residual_facts"]:
        failures.append(f"long_lived: residual facts {ll['residual_facts']}")
    sharded_speedup = report["scenarios"]["sharded"][
        "critical_path_speedup_4_vs_1"]
    if not quick and sharded_speedup < SHARDED_SPEEDUP_FULL:
        failures.append(
            f"sharded: 4-vs-1 critical-path speedup {sharded_speedup:.2f}x "
            f"below {SHARDED_SPEEDUP_FULL:.1f}x")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("PASS: no residual facts"
          + ("" if quick else
             f", >={SHARDED_SPEEDUP_FULL:.1f}x sharded 4-vs-1"))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    raise SystemExit(main())
