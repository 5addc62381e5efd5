"""The seven workloads.

Each workload drives the program only through public entry points with
the *default* engine and frontend (no ``engine=`` / ``--engine`` /
``--frontend`` anywhere), so the numbers follow whatever the shipped
default becomes.  A workload object has:

``prepare()``
    Everything before the first timed repetition: input generation,
    resident warm-up, server spawn, and one *small* warm-up repetition.
    The harness calls it several times and reports the median as part of
    ``setup_s``; each call replaces the previous state.
``rep(i)``
    One repetition.  Inputs come from ``seed * 1000 + i``; only the
    program's work is inside the timed window (``Rep.wall``).
``verify(i, rep)``
    Untimed output checks for that repetition; fills ``rep.digest`` and
    appends to ``rep.problems``.
``finish()``
    After the last repetition: extra end-to-end samples (``recover_s``,
    the REST server's ``peak_rss_mb``), white-box checks, and — for
    ``rest_loopback`` under tracing — the server's span dump.
``close()``
    Stops every process the workload started and waits for it.
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro import ExperimentConfig, PolicyConfig, PolicyService, run_cell, run_workflow
from repro.datacatalog.model import CatalogConfig
from repro.experiments import build_testbed, run_tenant_ensemble
from repro.experiments.runner import build_policy_client
from repro.policy.client import HTTPPolicyClient
from repro.policy.journal import PolicyJournal
from repro.tenancy import AdmissionConfig, TenantSpec
# Generators are called through their modules so the traced run's
# wrappers (installed as module attributes) see the calls.
from repro.workflow import montage, synthetic

from bench.probe import probe, scaled, slowdown
from bench.spec import ROOT, SRC

MB = montage.MB
TIMED_CALLS = (
    "submit_transfers", "complete_transfers", "submit_cleanups",
    "complete_cleanups", "staging_state", "unregister_workflow",
)


@dataclass
class Rep:
    """What one repetition produced."""

    wall: float                         # raw seconds of the program's work
    scaled: float                       # the same, scaled to the reference host speed
    ops: int
    failed: int = 0
    raw: object = None                  # program outputs, digested by verify()
    latencies: dict = field(default_factory=dict)   # call name -> [scaled seconds]
    sim_makespan: Optional[float] = None
    policy_wait_sim: float = 0.0        # simulated seconds inside policy calls
    digest: object = None               # canonical JSON-able witness
    problems: list = field(default_factory=list)


def rep_seed(seed: int, i: int) -> int:
    return seed * 1000 + i


def quiescence_problems(snapshot: dict, resident: dict) -> list[str]:
    """Violations of "at rest" in a service status document.

    After every workflow unregistered, the memory census must be exactly
    the resident set: any TransferFact / CleanupFact / HostPairFact /
    ClusterAllocationFact left over is an in-progress grant or a stream
    ledger that did not return to zero.
    """
    problems = []
    if dict(snapshot["memory"]) != dict(resident):
        problems.append(f"memory census {snapshot['memory']} != resident {resident}")
    for pair, doc in snapshot["host_pairs"].items():
        if doc.get("allocated"):
            problems.append(f"host pair {pair} still holds {doc['allocated']} streams")
    for tenant in snapshot.get("tenants", ()):
        if tenant.get("inflight_streams"):
            problems.append(f"tenant {tenant['tenant']} still holds streams")
    return problems


def sim_digest(m) -> list:
    """The per-run witness of a simulated workflow (bit-stable per seed)."""
    return [
        bool(m.success), m.policy_calls, m.transfers_executed,
        m.transfers_skipped, m.transfers_waited, m.bytes_staged,
        list(m.stream_grants), round(m.makespan, 6),
    ]


class Workload:
    name = ""

    def __init__(self, size: dict, seed: int, workdir: Path, traced: bool = False):
        self.size = size
        self.seed = seed
        self.workdir = workdir
        self.traced = traced

    def prepare(self) -> None:
        raise NotImplementedError

    def rep(self, i: int) -> Rep:
        raise NotImplementedError

    def verify(self, i: int, rep: Rep) -> None:
        raise NotImplementedError

    def finish(self) -> dict:
        """``{"samples": {metric: [values]}, "problems": [...], "trace_docs": [...]}``."""
        return {}

    def close(self) -> None:
        pass


# --------------------------------------------------------------------- sim
class MontageCell(Workload):
    """``run_cell`` on the paper's augmented Montage (optionally sharded)."""

    name = "montage_cell"
    shards = 0

    def cfg(self, seed: int, **overrides) -> ExperimentConfig:
        fields = dict(
            extra_file_mb=self.size["extra_mb"], default_streams=8, threshold=50,
            n_images=self.size["n_images"], shards=self.shards, seed=seed,
        )
        fields.update(overrides)
        return ExperimentConfig(**fields)

    def prepare(self) -> None:
        run_cell(self.cfg(rep_seed(self.seed, 0), n_images=6))

    def rep(self, i: int) -> Rep:
        cfg = self.cfg(rep_seed(self.seed, i))
        scaled_wall, wall, m = scaled(lambda: run_cell(cfg))
        return Rep(wall, scaled_wall, ops=m.policy_calls, failed=0 if m.success else 1,
                   raw=m, sim_makespan=m.makespan, policy_wait_sim=m.policy_overhead)

    def verify(self, i: int, rep: Rep) -> None:
        rep.digest = sim_digest(rep.raw)
        if i == 0:
            self._rep0 = rep.digest
        if not rep.raw.success:
            rep.problems.append(f"rep {i}: workflow failed")

    def finish(self) -> dict:
        """Re-run repetition 0 hand-wired so the service can be inspected.

        ``run_cell`` returns only metrics; the same cell assembled from
        its public parts (testbed, policy client, ``run_workflow``) must
        give the same digest and leave the service at rest.
        """
        cfg = self.cfg(rep_seed(self.seed, 0))
        bed = build_testbed(cfg.testbed, seed=cfg.seed)
        client = build_policy_client(cfg, bed)
        workflow = montage.augmented_montage(
            cfg.extra_file_mb * MB,
            montage.MontageConfig(n_images=cfg.n_images, name=f"montage-{cfg.n_images}img"),
        )
        m = run_workflow(cfg, workflow, bed, client)
        problems = []
        if sim_digest(m) != self._rep0:
            problems.append("hand-wired repetition 0 digest differs from run_cell's")
        problems += quiescence_problems(client.service.snapshot(), {})
        return {"problems": problems}


class MontageSharded4(MontageCell):
    name = "montage_sharded4"
    shards = 4

    def finish(self) -> dict:
        out = super().finish()
        # The repo's N-shard byte-identity oracle: the sharded cell must
        # give exactly the unsharded cell's result for the same seed.
        single = run_cell(self.cfg(rep_seed(self.seed, 0), shards=0))
        if sim_digest(single) != self._rep0:
            out["problems"].append("sharded repetition 0 digest differs from unsharded cell")
        return out


class TenantEnsemble(Workload):
    """Concurrent tenants sharing LFNs on one policy memory + data catalog."""

    name = "tenant_ensemble"

    def _submissions(self, n_images: int):
        return [
            (f"t{t}", montage.augmented_montage(
                self.size["extra_mb"] * MB,
                montage.MontageConfig(n_images=n_images, name=f"wf-t{t}", lfn_prefix=""),
            ))
            for t in range(self.size["tenants"])
        ]

    def _run(self, seed: int, submissions, n_images: int):
        cfg = ExperimentConfig(
            extra_file_mb=self.size["extra_mb"], n_images=n_images,
            catalog=CatalogConfig(default_capacity=50e9), seed=seed,
        )
        return run_tenant_ensemble(
            cfg,
            tenants=[TenantSpec(f"t{t}") for t in range(self.size["tenants"])],
            submissions=submissions,
            admission=AdmissionConfig(max_concurrent=self.size["tenants"]),
            scheduler="fair",
        )

    def prepare(self) -> None:
        self.submissions = self._submissions(self.size["n_images"])
        self.shared_lfns = len(
            {f.lfn for _, wf in self.submissions for f in wf.input_files()}
        )
        self._run(rep_seed(self.seed, 0), self._submissions(3), 3)

    def rep(self, i: int) -> Rep:
        scaled_wall, wall, result = scaled(
            lambda: self._run(rep_seed(self.seed, i), self.submissions, self.size["n_images"])
        )
        metrics = result.metrics
        # All tenants share one client, so each RunMetrics carries the
        # same running call count; the largest is the ensemble's total.
        return Rep(
            wall, scaled_wall,
            ops=max(m.policy_calls for m in metrics),
            failed=sum(1 for m in metrics if not m.success),
            raw=result,
            sim_makespan=max(m.makespan for m in metrics),
            policy_wait_sim=max(m.policy_overhead for m in metrics),
        )

    def verify(self, i: int, rep: Rep) -> None:
        result = rep.raw
        rep.digest = [sim_digest(m) for m in result.metrics] + [
            list(result.admission_order), list(result.completed_order),
        ]
        if not all(m.success for m in result.metrics):
            rep.problems.append(f"rep {i}: a tenant workflow failed")
        if len(result.metrics) != self.size["tenants"] or result.rejected:
            rep.problems.append(f"rep {i}: submissions rejected: {result.rejected}")
        staged = sum(m.transfers_executed for m in result.metrics)
        if staged != self.shared_lfns:
            rep.problems.append(
                f"rep {i}: {staged} transfers executed for {self.shared_lfns} shared LFNs"
            )
        replicas = len(result.catalog_census["replicas"])
        if replicas != self.shared_lfns:
            rep.problems.append(f"rep {i}: catalog tracks {replicas} replicas")


class Dag10kNoPolicy(Workload):
    """Default Pegasus (no policy) on a 10^4-job synthetic DAG."""

    name = "dag10k_nopolicy"

    def prepare(self) -> None:
        self.workflow = synthetic.epigenomics_workflow(
            lanes=self.size["lanes"], chunks=self.size["chunks"]
        )
        run_workflow(
            ExperimentConfig(policy=None, default_streams=8, seed=rep_seed(self.seed, 0)),
            synthetic.epigenomics_workflow(lanes=2, chunks=3),
        )

    def rep(self, i: int) -> Rep:
        cfg = ExperimentConfig(policy=None, default_streams=8, seed=rep_seed(self.seed, i))
        scaled_wall, wall, m = scaled(lambda: run_workflow(cfg, self.workflow))
        jobs = sum(len(v) for v in m.job_durations.values())
        return Rep(wall, scaled_wall, ops=jobs, failed=0 if m.success else 1, raw=m,
                   sim_makespan=m.makespan)

    def verify(self, i: int, rep: Rep) -> None:
        rep.digest = sim_digest(rep.raw) + [rep.ops]
        if not rep.raw.success:
            rep.problems.append(f"rep {i}: workflow failed")
        if rep.raw.policy_calls:
            rep.problems.append(f"rep {i}: policy was consulted with policy=None")
        if rep.ops < len(self.workflow.jobs):
            rep.problems.append(f"rep {i}: only {rep.ops} executable jobs completed")


# ----------------------------------------------------------------- service
def _spec(lfn: str, src_host: str, nbytes: float) -> dict:
    return {
        "lfn": lfn,
        "src_url": f"gsiftp://{src_host}/data/{lfn}",
        "dst_url": f"gsiftp://obelix/scratch/{lfn}",
        "nbytes": nbytes,
    }


def _resident_files(count: int) -> list[tuple]:
    return [
        (f"res{n:05d}", f"gsiftp://obelix/scratch/res{n:05d}", 1.0 * MB)
        for n in range(count)
    ]


def staging_plan(rng: random.Random, tag: str, jobs: int, pool: int) -> list[list[dict]]:
    """One workflow's staging jobs: ``jobs`` batches of 1-4 transfers.

    The batch-size multiset and the share of shared-pool files (20% of
    the slots, when there is a pool) are fixed so every seed does the
    same amount of work; the seed picks the order, names, sizes and
    which pool files are hit.
    """
    sizes = [1 + j % 4 for j in range(jobs)]
    rng.shuffle(sizes)
    slots = sum(sizes)
    shared = set(rng.sample(range(slots), slots // 5)) if pool else set()
    plan, slot = [], 0
    for j, size in enumerate(sizes):
        batch = []
        for k in range(size):
            if slot in shared:
                lfn = f"res{rng.randrange(pool):05d}"
            else:
                lfn = f"{tag}j{j}f{k}"
            batch.append(_spec(lfn, "fg-vm", float(rng.randint(1, 100)) * MB))
            slot += 1
        plan.append(batch)
    return plan


class CallTimer:
    """Times the calls of one repetition and scales them to host speed.

    The repetition is cut into segments by host-speed probes: one when
    the timer is created, one at the final :meth:`cut`, and — with
    ``probe_every`` (single-threaded workloads only) — one after every
    that many calls.
    Each segment's time and call latencies are scaled by the probes at
    its two ends; the probes' own time belongs to no segment.  Appending
    to a list is atomic, so the two client threads of ``rest_loopback``
    share one timer (one segment, no probes inside).
    """

    def __init__(self, probe_every: int = 0):
        self.by_call = {name: [] for name in TIMED_CALLS}    # scaled seconds
        self.probe_every = probe_every
        self.raw = 0.0
        self.scaled = 0.0
        self._segment: list[tuple[str, float]] = []
        self._calls = 0
        self._probe = probe()
        self._t0 = time.perf_counter()

    def cut(self) -> None:
        """Close the current segment with a probe and open the next."""
        elapsed = time.perf_counter() - self._t0
        ends = [self._probe, probe()]
        factor = slowdown(ends)
        self.raw += elapsed
        self.scaled += elapsed / factor
        for name, seconds in self._segment:
            self.by_call[name].append(seconds / factor)
        self._segment = []
        self._probe = ends[1]
        self._t0 = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        self._segment.append((name, time.perf_counter() - t0))
        self._calls += 1
        if self.probe_every and self._calls % self.probe_every == 0:
            self.cut()
        return result

    def count(self) -> int:
        return sum(len(v) for v in self.by_call.values())


def drive_workflow(api, workflow: str, plan: list[list[dict]], timer: CallTimer,
                   polls: int = 0):
    """The closed loop one workflow runs against a service or HTTP client.

    Returns ``(transfer advice, cleanup advice)`` in call order.
    """
    call = timer.call
    transfer_advice, cleanup_advice, files = [], [], []
    for j, batch in enumerate(plan):
        advice = call("submit_transfers", api.submit_transfers, workflow, f"stage{j}", batch)
        transfer_advice.append(advice)
        for _ in range(polls):
            call("staging_state", api.staging_state, batch[0]["lfn"], batch[0]["dst_url"])
        done = [a.tid for a in advice if a.action == "transfer"]
        call("complete_transfers", api.complete_transfers, done=done)
        files += [(spec["lfn"], spec["dst_url"]) for spec in batch]
    for g in range(0, len(files), 4):
        advice = call("submit_cleanups", api.submit_cleanups, workflow, f"clean{g}",
                      files[g:g + 4])
        cleanup_advice.append(advice)
        call("complete_cleanups", api.complete_cleanups,
             [a.cid for a in advice if a.action == "delete"])
    call("unregister_workflow", api.unregister_workflow, workflow)
    return transfer_advice, cleanup_advice


class SvcSmallBatch(Workload):
    """A long-lived journaled service with a resident working set."""

    name = "svc_smallbatch"
    config = PolicyConfig(policy="greedy", default_streams=4, max_streams=50)

    def prepare(self) -> None:
        self.close()
        self.journal_dir = self.workdir / "journal"
        shutil.rmtree(self.journal_dir, ignore_errors=True)
        self.service = PolicyService(self.config, journal=PolicyJournal(self.journal_dir))
        self.service.reconcile_staged("resident", _resident_files(self.size["resident"]))
        self.resident = dict(self.service.memory.snapshot())
        plan = staging_plan(random.Random(self.seed), "warm", 4, self.size["pool"])
        drive_workflow(self.service, "warmup", plan, CallTimer())

    def rep(self, i: int) -> Rep:
        rng = random.Random(rep_seed(self.seed, i))
        plans = [
            (f"s{self.seed}r{i}w{w}",
             staging_plan(rng, f"s{self.seed}r{i}w{w}", self.size["jobs"], self.size["pool"]))
            for w in range(self.size["workflows"])
        ]
        timer = CallTimer(probe_every=25)
        advice = [
            drive_workflow(self.service, workflow, plan, timer) for workflow, plan in plans
        ]
        timer.cut()
        return Rep(timer.raw, timer.scaled, ops=timer.count(), raw=advice,
                   latencies=timer.by_call)

    def verify(self, i: int, rep: Rep) -> None:
        rep.digest = [
            [[a.to_dict() for a in batch] for batch in calls]
            for pair in rep.raw for calls in pair
        ]
        skipped = sum(
            a.action == "skip" for transfers, _ in rep.raw for batch in transfers for a in batch
        )
        if self.size["pool"] and not skipped:
            rep.problems.append(f"rep {i}: no shared-pool transfer was skipped")
        rep.problems += [
            f"rep {i}: {p}" for p in quiescence_problems(self.service.snapshot(), self.resident)
        ]

    def finish(self) -> dict:
        """Close the journal and time ``PolicyService.recover``.

        Recovery compacts the journal it reads, so each of the three
        timings recovers its own copy of the directory.
        """
        live = self.service
        live.journal.close()
        samples, problems = [], []
        for n in range(3):
            copy = self.workdir / f"recover{n}"
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(self.journal_dir, copy)
            seconds, _, recovered = scaled(lambda: PolicyService.recover(copy, self.config))
            samples.append(seconds)
            recovered.journal.close()
            if len(recovered.memory) != len(live.memory):
                problems.append(
                    f"recovered {len(recovered.memory)} facts, live has {len(live.memory)}"
                )
            if recovered.counters() != live.counters():
                problems.append(
                    f"recovered counters {recovered.counters()} != live {live.counters()}"
                )
        return {"samples": {"recover_s": samples}, "problems": problems}

    def close(self) -> None:
        service = getattr(self, "service", None)
        if service is not None and service.journal is not None:
            service.journal.close()


class SvcBigBatch(Workload):
    """Big batches against a large resident set: rule match/join dominates."""

    name = "svc_bigbatch"

    def prepare(self) -> None:
        self.service = PolicyService(
            PolicyConfig(policy="greedy", default_streams=4, max_streams=4000)
        )
        self.service.reconcile_staged("resident", _resident_files(self.size["resident"]))
        self.resident = dict(self.service.memory.snapshot())
        specs = self._specs("warmup", random.Random(self.seed), 8)
        self._cycle("warmup", specs, CallTimer())

    def _specs(self, tag: str, rng: random.Random, batch: int) -> list[dict]:
        hosts = self.size["hosts"]
        specs = [
            _spec(f"{tag}f{n}", f"src{n % hosts}", float(rng.randint(1, 100)) * MB)
            for n in range(batch)
        ]
        rng.shuffle(specs)
        return specs

    def _cycle(self, tag: str, specs: list[dict], timer: CallTimer):
        svc, call = self.service, timer.call
        transfers = call("submit_transfers", svc.submit_transfers, tag, "stage", specs)
        call("complete_transfers", svc.complete_transfers,
             done=[a.tid for a in transfers if a.action == "transfer"])
        cleanups = call("submit_cleanups", svc.submit_cleanups, tag, "clean",
                        [(s["lfn"], s["dst_url"]) for s in specs])
        call("complete_cleanups", svc.complete_cleanups,
             [a.cid for a in cleanups if a.action == "delete"])
        call("unregister_workflow", svc.unregister_workflow, tag)
        return transfers, cleanups

    def rep(self, i: int) -> Rep:
        rng = random.Random(rep_seed(self.seed, i))
        specs = self._specs(f"s{self.seed}c{i}", rng, self.size["batch"])
        timer = CallTimer(probe_every=1)
        advice = self._cycle(f"s{self.seed}c{i}", specs, timer)
        timer.cut()
        return Rep(timer.raw, timer.scaled, ops=timer.count(), raw=advice,
                   latencies=timer.by_call)

    def verify(self, i: int, rep: Rep) -> None:
        transfers, cleanups = rep.raw
        rep.digest = [[a.to_dict() for a in transfers], [a.to_dict() for a in cleanups]]
        if any(a.action != "transfer" for a in transfers):
            rep.problems.append(f"rep {i}: not every transfer was approved")
        if any(a.action != "delete" for a in cleanups):
            rep.problems.append(f"rep {i}: not every cleanup was approved")
        rep.problems += [
            f"rep {i}: {p}" for p in quiescence_problems(self.service.snapshot(), self.resident)
        ]


class RestLoopback(Workload):
    """``python -m repro serve`` driven by two HTTP client threads."""

    name = "rest_loopback"
    connections = 2

    def prepare(self) -> None:
        self.close()
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join([str(SRC), str(ROOT)]),
            "PYTHONUNBUFFERED": "1",
        }
        self.server_log = self.workdir / "server.log"
        if self.traced:
            self.server_dump = self.workdir / "server_trace.json"
            argv = ["-m", "bench.serve_traced", str(self.server_dump), "--port", "0"]
        else:
            argv = ["-m", "repro", "serve", "--port", "0"]
        with self.server_log.open("w") as log:
            self.server = subprocess.Popen(
                [sys.executable, *argv], env=env, cwd=ROOT,
                stdout=subprocess.PIPE, stderr=log, text=True,
            )
        line = self.server.stdout.readline()
        if "http://" not in line:
            self.close()
            raise RuntimeError(
                f"server did not announce a URL: {line!r}\n{self.server_log.read_text()[-2000:]}"
            )
        self.url = "http://" + line.rsplit("http://", 1)[1].strip()
        self.clients = [HTTPPolicyClient(self.url) for _ in range(self.connections)]
        plan = staging_plan(random.Random(self.seed), "warm", 4, 0)
        drive_workflow(self.clients[0], "warmup", plan, CallTimer(), polls=2)

    def rep(self, i: int) -> Rep:
        rng = random.Random(rep_seed(self.seed, i))
        plans = [
            (f"s{self.seed}r{i}w{w}",
             staging_plan(rng, f"s{self.seed}r{i}w{w}", self.size["jobs"], 0))
            for w in range(self.size["workflows"])
        ]
        advice: dict = {}
        errors: list = []

        def worker(client, share):
            for workflow, plan in share:
                try:
                    advice[workflow] = drive_workflow(client, workflow, plan, timer, polls=2)
                except Exception as exc:  # noqa: BLE001 - counted as a failed op
                    errors.append(f"{workflow}: {exc!r}")

        threads = [
            threading.Thread(target=worker, args=(client, plans[n::self.connections]))
            for n, client in enumerate(self.clients)
        ]
        timer = CallTimer()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        timer.cut()
        rep = Rep(timer.raw, timer.scaled, ops=timer.count() + len(errors),
                  failed=len(errors), raw=advice, latencies=timer.by_call)
        rep.problems += [f"rep {i}: {e}" for e in errors]
        return rep

    def verify(self, i: int, rep: Rep) -> None:
        # Two connections interleave, so ids and group ids are not
        # repeatable; what each workflow was told to do is.
        rep.digest = {
            workflow: [
                [[(a.lfn, a.action, a.streams) for a in batch] for batch in transfers],
                [[(a.lfn, a.action) for a in batch] for batch in cleanups],
            ]
            for workflow, (transfers, cleanups) in sorted(rep.raw.items())
        }
        status = self.clients[0].status()
        rep.problems += [f"rep {i}: {p}" for p in quiescence_problems(status, {})]

    def _stop_server(self) -> Optional[float]:
        """Terminate the server, wait for it; its peak RSS in MiB."""
        server = getattr(self, "server", None)
        if server is None or server.returncode is not None:
            return None
        server.send_signal(signal.SIGTERM)
        try:
            _, status, usage = os.wait4(server.pid, 0)
        except ChildProcessError:
            server.wait()
            return None
        server.returncode = os.waitstatus_to_exitcode(status)
        server.stdout.close()
        return usage.ru_maxrss / 1024.0

    def finish(self) -> dict:
        out: dict = {"samples": {}, "problems": []}
        rss = self._stop_server()
        if rss is None:
            out["problems"].append("server was gone before the run ended")
        else:
            out["samples"]["peak_rss_mb"] = [rss]
        if self.traced:
            if self.server_dump.exists():
                out["trace_docs"] = [json.loads(self.server_dump.read_text())]
            else:
                out["problems"].append("traced server wrote no span dump")
        return out

    def close(self) -> None:
        self._stop_server()


WORKLOADS = {
    cls.name: cls
    for cls in (
        MontageCell, MontageSharded4, TenantEnsemble, Dag10kNoPolicy,
        SvcSmallBatch, SvcBigBatch, RestLoopback,
    )
}


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
