#!/usr/bin/env python
"""Rule-engine microbenchmark: compiled vs indexed vs seed policy engine.

Measures the policy service's decision hot path under the regime the
paper's future work worries about — a long-lived Policy Memory serving
large transfer batches — and emits ``BENCH_rules.json`` so the repo's
perf trajectory has a committed baseline per PR.

Scenarios
---------
``calibration``
    A scale small enough that the seed (full re-scan) engine finishes,
    giving a *measured* speedup for all three engines.
``batch``
    The acceptance scenario: one 1,000-transfer batch against a memory
    pre-loaded with 10,000 staged-file facts.  The seed engine is run in
    a subprocess under a timeout budget; when it times out the reported
    speedup is a **lower bound** (budget / indexed time).  The compiled
    engine (join network + memoized partial matches) must beat the
    indexed engine by >= 10x here, with byte-identical advice.
``long_lived``
    Repeated workflow lifetimes against one service (indexed *and*
    compiled): per-batch latency must stay flat and the fact census
    empty, demonstrating the bounded-retention fixes (no leak-driven
    slowdown, no residual per-workflow facts).
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
runs.  Each engine measurement runs in a fresh subprocess so the
engines never share interpreter state and the seed run can be killed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import subprocess
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

SEED_TIMEOUT = 120.0  # seconds granted to the seed engine per scenario

# The compiled engine's acceptance bar against indexed on the ``batch``
# scenario.  Quick mode runs a ~10x smaller problem where fixed per-batch
# overheads dominate, so the bar is lower there.
COMPILED_SPEEDUP_FULL = 10.0
COMPILED_SPEEDUP_QUICK = 1.5


def _build_service(engine: str, staged: int):
    from repro.policy import PolicyConfig, PolicyService
    from repro.policy.model import StagedFileFact

    service = PolicyService(
        PolicyConfig(policy="greedy", default_streams=4, max_streams=4000),
        engine=engine,
    )
    for i in range(staged):
        fact = StagedFileFact(
            lfn=f"pre{i}",
            dst_url=f"gsiftp://obelix/pre/{i}",
            owner_tid=-1,
            workflow="wfpre",
        )
        fact.status = "staged"
        service.memory.insert(fact)
    return service


def _specs(n: int, tag: str = "f"):
    return [
        {
            "lfn": f"{tag}{i}",
            "src_url": f"gsiftp://fg-vm/data/{tag}{i}",
            "dst_url": f"gsiftp://obelix/scratch/{tag}{i}",
            "nbytes": 1000.0,
        }
        for i in range(n)
    ]


def run_batch(engine: str, staged: int, transfers: int) -> dict:
    """One submit_transfers batch; the measured hot path."""
    service = _build_service(engine, staged)
    specs = _specs(transfers)
    t0 = time.perf_counter()
    advice = service.submit_transfers("bench", "stage", specs)
    elapsed = time.perf_counter() - t0
    approved = sum(1 for a in advice if a.action == "transfer")
    digest = hashlib.sha256(
        json.dumps([a.to_dict() for a in advice], sort_keys=True).encode()
    ).hexdigest()
    return {
        "elapsed_s": elapsed,
        "approved": approved,
        "advice": len(advice),
        "advice_sha256": digest,
    }


def run_long_lived(engine: str, lifetimes: int, per_batch: int) -> dict:
    """Repeated workflow lifetimes on one service."""
    service = _build_service(engine, staged=0)
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
        "engine": engine,
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
    backends = [
        _TimedBackend(ProcessShardBackend(config, engine="compiled"))
        for _ in range(num_shards)
    ]
    router = ShardedPolicyService(
        config, num_shards=num_shards, engine="compiled", backends=backends,
        concurrent=concurrent,
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


# -- subprocess driver -------------------------------------------------------
def _worker_main(engine: str, staged: int, transfers: int) -> None:
    print(json.dumps(run_batch(engine, staged, transfers)))


def _measure(engine: str, staged: int, transfers: int, timeout: float) -> dict:
    """Run one batch measurement in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [
        sys.executable, str(pathlib.Path(__file__).resolve()),
        "--worker", engine, str(staged), str(transfers),
    ]
    try:
        proc = subprocess.run(
            cmd, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return {"engine": engine, "timed_out": True, "timeout_s": timeout}
    if proc.returncode != 0:
        raise RuntimeError(f"{engine} worker failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result.update({"engine": engine, "timed_out": False})
    return result


def _scenario(name: str, staged: int, transfers: int, timeout: float) -> dict:
    print(f"[{name}] staged={staged} transfers={transfers}", flush=True)
    indexed = _measure("indexed", staged, transfers, timeout)
    print(f"  indexed: {indexed['elapsed_s']:.3f}s", flush=True)
    compiled = _measure("compiled", staged, transfers, timeout)
    compiled_speedup = indexed["elapsed_s"] / compiled["elapsed_s"]
    print(f"  compiled: {compiled['elapsed_s']:.3f}s "
          f"-> {compiled_speedup:.1f}x vs indexed", flush=True)
    if compiled["advice_sha256"] != indexed["advice_sha256"]:
        raise RuntimeError(
            "compiled and indexed engines produced different advice")
    seed = _measure("seed", staged, transfers, timeout)
    if seed["timed_out"]:
        speedup = timeout / indexed["elapsed_s"]
        kind = "lower_bound"
        print(f"  seed: timed out after {timeout:.0f}s -> speedup >= {speedup:.1f}x",
              flush=True)
    else:
        speedup = seed["elapsed_s"] / indexed["elapsed_s"]
        kind = "measured"
        print(f"  seed: {seed['elapsed_s']:.3f}s -> speedup {speedup:.1f}x",
              flush=True)
        if seed["advice_sha256"] != indexed["advice_sha256"]:
            raise RuntimeError(
                "seed and indexed engines produced different advice")
    return {
        "staged_files": staged,
        "transfer_batch": transfers,
        "indexed": indexed,
        "compiled": compiled,
        "seed": seed,
        "speedup": speedup,
        "speedup_kind": kind,
        "compiled_speedup_vs_indexed": compiled_speedup,
        "advice_identical": True,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_rules.json"))
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke scale (also via REPRO_QUICK=1)")
    parser.add_argument("--seed-timeout", type=float, default=SEED_TIMEOUT)
    parser.add_argument("--worker", nargs=3, metavar=("ENGINE", "STAGED", "N"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.worker:
        engine, staged, transfers = args.worker
        _worker_main(engine, int(staged), int(transfers))
        return 0

    quick = args.quick or os.environ.get("REPRO_QUICK", "0") == "1"
    if quick:
        calibration = (200, 20)
        batch = (1000, 100)
        lifetimes, per_batch = (10, 10)
    else:
        calibration = (500, 50)
        batch = (10_000, 1000)
        lifetimes, per_batch = (30, 20)

    report = {
        "benchmark": "bench_rules",
        "quick": quick,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "seed_timeout_s": args.seed_timeout,
        "scenarios": {
            "calibration": _scenario("calibration", *calibration,
                                     timeout=args.seed_timeout),
            "batch": _scenario("batch", *batch, timeout=args.seed_timeout),
        },
    }
    print("[long_lived]", flush=True)
    report["scenarios"]["long_lived"] = {}
    for engine in ("indexed", "compiled"):
        ll = run_long_lived(engine, lifetimes, per_batch)
        report["scenarios"]["long_lived"][engine] = ll
        print(f"  {engine}: first third {ll['mean_first_third_s'] * 1e3:.1f}ms/batch, "
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
    for name in ("calibration", "batch"):
        if report["scenarios"][name]["speedup"] < 5.0:
            failures.append(f"{name}: indexed-vs-seed speedup below 5x")
    compiled_bar = COMPILED_SPEEDUP_QUICK if quick else COMPILED_SPEEDUP_FULL
    batch_compiled = report["scenarios"]["batch"]["compiled_speedup_vs_indexed"]
    if batch_compiled < compiled_bar:
        failures.append(
            f"batch: compiled-vs-indexed speedup {batch_compiled:.1f}x "
            f"below {compiled_bar:.0f}x")
    for engine, ll in report["scenarios"]["long_lived"].items():
        if ll["residual_facts"]:
            failures.append(
                f"long_lived[{engine}]: residual facts {ll['residual_facts']}")
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
    print(f"PASS: >=5x vs seed, >={compiled_bar:.0f}x compiled vs indexed, "
          "no residual facts"
          + ("" if quick else
             f", >={SHARDED_SPEEDUP_FULL:.1f}x sharded 4-vs-1"))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    raise SystemExit(main())
