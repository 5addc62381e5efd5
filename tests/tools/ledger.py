"""The ledger: the counts and bounds the repo pins end to end, and their trajectory.

    PYTHONPATH=src python -m tests.tools.ledger [SCENARIO ...] [--append LABEL [--why TEXT]]

runs the named scenarios (all by default), each in a fresh process, two at a time, and exits
1 naming each pinned check that fails (a Python expression; a dot in a name reads as ``_``)
and each value that differs from the last entry of ``BENCH_e2e.json``.  ``--append`` records
a full run as a new entry (``--why`` if a value rose over 2%).  *Tracked* values (``cProfile``
calls, ``tracemalloc`` bytes) depend on the interpreter (3.12 inlines comprehensions): they
compare only under the same Python.  Nothing the scenarios run imports numpy."""

import argparse
import cProfile
import gc
import json
import platform
import random
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

from repro.experiments import ExperimentConfig, run_cell
from repro.experiments.runner import execute_workflow
from repro.policy import PolicyJournal, PolicyService
from repro.policy.provenance import DecisionLog
from repro.rules.facts import _CHANGELOG_CAP, _TRIM_EVERY
from repro.workflow import epigenomics_workflow

from bench.spec import SIZES
from bench.workloads import CallTimer, TenantEnsemble, drive_workflow, staging_plan

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
LEDGER = ROOT / "BENCH_e2e.json"
#: the values that depend on the interpreter: call counts and byte counts
TRACKED = re.compile(r"^calls|_B$")
#: bench/'s full-size ensemble: 4 tenants x one 89-image Montage, 10 MB extras
ENSEMBLE = TenantEnsemble(SIZES["tenant_ensemble"]["full"], seed=1, workdir=ROOT)
PAPER_CELL = dict(extra_file_mb=100, default_streams=8, threshold=50, n_images=89, seed=1000)
#: a direct call of a sink (tracer, registry child, profiler, access log, call envelope)
EMITTER = re.compile(r"tracer\.(instant|counter|begin|end)\(|profiler\.(record_match|record_fire"
                     r"|record_node|sample_agenda|register|clock)\(|(_m_[a-z_]+(\[[^]]*\])?|_(requests"
                     r"|dispatches|degraded)\[[^]]*\])\.(inc|observe|set)\(|log_request\(|hooks\.[a-z_]+"
                     r"\(|(count|gauge)\.(inc|set)\(|_seconds\.observe\(|access_log\.append\(|Envelope\(|_ask\(")


def traced(args: str, checks: str) -> tuple:
    """A traced quick ``bench/run.py --workload ARGS`` (``bench/`` is used read-only)."""
    checks = "correct; " + checks
    names = {name for check in checks.split(";") for name in compile(check.strip(), "", "eval").co_names}

    def run() -> dict:
        out = subprocess.run([sys.executable, "bench/run.py", "--quick", "--trace", "1",
                              "--workload", *args.split()], cwd=ROOT, check=True,
                             capture_output=True, text=True).stdout
        result = json.loads(out.splitlines()[-1])
        values = {k: v["value"] for k, v in result["metrics"].items()} | result
        return {k: v for k, v in sorted(values.items()) if k.replace(".", "_") in names}

    return run, checks


def profiled(run) -> tuple:
    """Primitive calls, in all and per package, then the peak of a run of its own; both warm."""

    def measure() -> dict:
        run()
        profiler = cProfile.Profile()
        profiler.runcall(run)
        calls = {"calls": 0}
        for entry in profiler.getstats():
            path = getattr(entry.code, "co_filename", "").partition(f"{SRC}/")[2]
            for key in ("calls", f"calls.{path.split('/')[0].removesuffix('.py') or 'other'}"):
                calls[key] = calls.get(key, 0) + entry.callcount - entry.reccallcount
        gc.collect()
        tracemalloc.start()
        run()
        return dict(sorted(calls.items())) | {"peak_B": tracemalloc.get_traced_memory()[1]}

    return measure, ""


def fill(service, full, timer=CallTimer, **drive) -> int:
    """Workflows of bench/'s rest_loopback-shaped staging plans driven until ``full()``."""
    rng, w = random.Random(0), 0
    while not full():
        drive_workflow(service, f"w{w}", staging_plan(rng, f"w{w}", 40, 0), timer(), **drive)
        w += 1
    return w


def change_log() -> dict:
    """A long-lived service past the change log's 65,536-entry cap."""
    service = PolicyService()
    memory, most = service.memory, {"held": 0, "routed": 0}

    class Watch(CallTimer):
        def call(self, name, fn, *args, **kwargs):
            result = fn(*args, **kwargs)
            held, unrouted = memory.retained_changes, memory.clock - service._rule_session.network.seq
            most.update(held=max(most["held"], held), routed=max(most["routed"], held - unrouted))
            return result

    workflows = fill(service, lambda: memory.clock > _CHANGELOG_CAP + _TRIM_EVERY, Watch, polls=2)
    return {**most, "mutations": memory.clock, "workflows": workflows, "trim_every": _TRIM_EVERY}


def decision_log() -> dict:
    """One service's decision log filled to ``decision_log_cap``, then cleared."""
    tracemalloc.start()
    service = PolicyService()
    cap = service.config.decision_log_cap
    workflows = fill(service, lambda: len(service.decisions) >= cap)
    gc.collect()
    held = tracemalloc.get_traced_memory()[0]
    service.decisions = DecisionLog(cap)
    gc.collect()
    return {"cap": cap, "workflows": workflows, "freed_B": held - tracemalloc.get_traced_memory()[0]}


def recovery() -> dict:
    """The same fill, journaled, then recovered from the journal."""
    with tempfile.TemporaryDirectory() as root:
        service = PolicyService(journal=PolicyJournal(root))
        cap = service.config.decision_log_cap
        workflows = fill(service, lambda: len(service.decisions) >= cap)
        service.close()
        del service
        gc.collect()
        tracemalloc.start()
        recovered = PolicyService.recover(root)
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
        recovered.close()
    return {"cap": cap, "workflows": workflows, "recovered": len(recovered.decisions),
            "transient_B": peak - held}


def compact_10k() -> dict:
    """dag10k's workflow (23,352 jobs) planned and run with policy off."""
    tracemalloc.start()
    workflow = epigenomics_workflow(lanes=50, chunks=66)
    gc.collect()
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    execution = execute_workflow(ExperimentConfig(policy=None, seed=1), workflow)
    return {"success": execution.result.success, "jobs": len(execution.plan.jobs),
            "peak_B": tracemalloc.get_traced_memory()[1] - base}


def size() -> dict:
    """Lines of src/repro, and its emitter sites outside src/repro/obs."""
    texts = {path: path.read_text() for path in SRC.rglob("*.py")}
    return {"src_repro_lines": sum(text.count("\n") for text in texts.values()),
            "emitter_sites": sum(len(EMITTER.findall(line)) for path, text in texts.items()
                                 if path.parent.name != "obs" for line in text.splitlines())}


#: name -> (run, checks); the longest first
SCENARIOS = {
    # The log holds each record pickled: clearing a full one frees ≤ 8 MB (20.0 as dicts).
    "decision_log": (decision_log, "freed_B <= 8e6"),
    # Recovery streams the snapshot and the journal into the pickled log: beyond what it
    # keeps it holds ≤ 8 MB more (28.8 MB as one JSON tree and a list of decoded records).
    "recovery": (recovery, "recovered == cap; transient_B <= 8e6"),
    "tenant_ensemble": profiled(lambda: ENSEMBLE._run(1, ENSEMBLE._submissions(89), 89)),
    # No per-job __dict__, one shared () for empty per-job sequences, no per-event logs:
    # the peak above the workflow was 40.2 MB with them, 32.7 MB without, 26.8 MB with
    # the plan's edges stored once (the bound leaves ~8% above that).
    "compact_10k": (compact_10k, "success and jobs == 23352; peak_B <= 29.0e6"),
    "sharded4_cell": profiled(lambda: run_cell(ExperimentConfig(**PAPER_CELL, shards=4))),
    "paper_cell": profiled(lambda: run_cell(ExperimentConfig(**PAPER_CELL))),
    # A long-lived service fed bench/'s rest_loopback-shaped calls: between calls
    # the log holds fewer than _TRIM_EVERY entries the session has routed.
    "change_log": (change_log, "routed < trim_every; held <= trim_every + 16"),
    # One rule session per service, not one per fire; one encoded journal line
    # per changed fact per transaction (7,075 B with a line per mutation).
    "svc_smallbatch": traced("svc_smallbatch", "service_sessions < service_calls_submit_transfers; "
                             "journal_commits > 0; journal_bytes_per_commit < 5000"),
    # The REST round trip: one request per call on an open connection; a
    # client that resends, or a server that answers an error, moves them.
    "rest_loopback": traced("rest_loopback --seed 1", "client_calls == rest_requests == 520; "
                            "rest_bytes_in == 74956; client_retries == 0 == rest_errors"),
    # The 4-shard router: one that routes, merges or sweeps differently moves
    # the calls, the policy work behind them, or the per-shard split.
    "montage_sharded4": traced("montage_sharded4 --seed 1", "router_calls == 728; router_shard_calls "
                               "== 820; client_calls == 724; rules_firings == 1192; provenance_records "
                               "== 388; des_events == 4820; router_shard_imbalance == 1.5804878048780489"),
    "svc_bigbatch": traced("svc_bigbatch --seed 1", "rules_firings == 2224; rules_wm_ops == 4896; "
                           "provenance_records == 480"),  # big batches: counts repeat per seed
    # One DES process per job, started when the job becomes ready: a re-added per-job hop
    # shows as +engine.jobs events (67,996 with a run-* process per job).
    "dag10k_nopolicy": traced("dag10k_nopolicy --seed 1", "engine_jobs == planner_jobs == 9448; "
                              "des_events == 58548"),
    # The paper cell on one service (montage_sharded4 pins the same work routed).
    "montage_cell": traced("montage_cell --seed 1", "rules_firings == 1192; rules_wm_ops == 2864; "
                           "provenance_records == 388; client_calls == 724; des_events == 4820"),
    "size": (size, ""),
}


def failures(name: str, values: dict) -> list[str]:
    """The checks of scenario ``name`` that ``values`` fail."""
    names = {key.replace(".", "_"): value for key, value in values.items()}
    return [f"{name}: {check.strip()} fails ({', '.join(f'{n}={names[n]!r}' for n in code.co_names)})"
            for check in SCENARIOS[name][1].split(";") if check.strip()
            for code in [compile(check.strip(), name, "eval")] if not eval(code, {}, names)]


def compare(values: dict, entry: dict, interpreter: dict) -> list[tuple]:
    """``(field, old, new)`` for each value that differs from ``entry``'s: tracked ones only
    when ``entry`` ran under the same ``interpreter``, bytes by more than 0.1% (id-keyed
    tables resize at address-dependent points: compact_10k's 26 MB peak spans 3.3 kB)."""
    same = all(entry.get(key) == version for key, version in interpreter.items())
    return [(f"{name}.{field}", a, b) for name, new in values.items()
            for old in [entry["scenarios"].get(name, {})] for field in sorted(new.keys() | old.keys())
            for a, b in [(old.get(field), new.get(field))]
            if (same or not TRACKED.search(field)) and a != b
            and not (field.endswith("_B") and None not in (a, b) and abs(b - a) <= 1e-3 * a)]


def measure(name: str) -> tuple[dict, float]:
    start = time.perf_counter()
    return SCENARIOS[name][0](), time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scenarios", nargs="*", metavar="SCENARIO", help=", ".join(SCENARIOS))
    parser.add_argument("--append", metavar="LABEL", help="record the run as a new entry")
    parser.add_argument("--why", help="why a value rose by more than 2%%")
    args = parser.parse_args(argv)
    names = args.scenarios or list(SCENARIOS)
    if set(names) - SCENARIOS.keys() or args.append and len(set(names)) < len(SCENARIOS):
        parser.error(f"scenarios are {', '.join(SCENARIOS)}; --append runs them all")
    interpreter = {"python": platform.python_version()}
    values = {}
    with ProcessPoolExecutor(2, mp_context=get_context("spawn"), max_tasks_per_child=1) as pool:
        for name, run in [(name, pool.submit(measure, name)) for name in names]:
            values[name], seconds = run.result()
            print(f"{name:16s} {seconds:5.1f} s  {json.dumps(values[name])}", flush=True)
    entries = json.loads(LEDGER.read_text()) if LEDGER.exists() else []
    problems = [problem for name in names for problem in failures(name, values[name])]
    moved = compare(values, entries[-1], interpreter) if entries else []
    if not args.append:
        problems += [f"{field}: {old!r} -> {new!r}" for field, old, new in moved]
    elif not args.why:
        problems += [f"{field} rose by more than 2% ({old!r} -> {new!r}); say --why" for field,
                     old, new in moved if {type(old), type(new)} <= {int, float} and new > 1.02 * old]
    sys.stderr.writelines(f"ledger: {problem}\n" for problem in problems)
    if args.append and not problems:
        entry = {"label": args.append, **interpreter, **({"why": args.why} if args.why else {})}
        LEDGER.write_text(json.dumps(entries + [entry | {"scenarios": values}], indent=1) + "\n")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
