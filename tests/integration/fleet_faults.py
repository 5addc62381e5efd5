"""Fleet fault sweep: seeds x shard-fault plans on a journaled 2-shard fleet.

Every run must end like the clean single-service run of its seed: the
same staged set, no leaked grant, nothing reaped by the final lease
sweep, no operation still owed to a shard, and no recovery error.  The
plans are the shard faults a fault explorer composes: a partition and a
slowdown that heal on their own, a crash with journal replay, and a
crash inside a partition.

Not part of tier-1 (it runs 50 cells); CI's ``fleet-faults`` job runs::

    PYTHONPATH=src python -m tests.integration.fleet_faults --seeds 10

It prints one line per failing run and exits 1 if any run failed.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

from repro.des.faults import FaultPlan, RouterPartition, ShardCrash
from repro.experiments.chaos import run_chaos_montage

from tests.integration.test_chaos import HEALS, chaos_config

PLANS = {
    **HEALS,
    "crash": FaultPlan.single_shard_crash(at=60.0, shard=0, down_for=30.0),
    "crash-in-partition": FaultPlan(
        partitions=(RouterPartition(at=10.0, duration=60.0, shard=0),),
        shard_crashes=(ShardCrash(at=30.0, shard=0, down_for=20.0),),
    ),
}


def problems_of(seed: int, plan: FaultPlan, staged: list, journal_root: Path) -> list[str]:
    """What the run of ``plan`` on ``seed`` got wrong (empty when none)."""
    run = run_chaos_montage(
        chaos_config(seed=seed, shards=2, journal_root=journal_root), plan=plan
    )
    checks = {
        "failed": not run.metrics.success,
        "staged set differs from the clean run": run.staged_files != staged,
        f"{run.leaked_in_progress} leaked grants": run.leaked_in_progress,
        f"reaped {run.reaped}": run.reaped != {"transfers": [], "cleanups": []},
        f"{run.owed} operations still owed": run.owed,
        f"recovery errors {run.recovery_errors}": run.recovery_errors,
    }
    return [problem for problem, wrong in checks.items() if wrong]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10, help="seeds 0..N-1")
    args = parser.parse_args(argv)
    failed = 0
    for seed in range(args.seeds):
        clean = run_chaos_montage(chaos_config(seed=seed))
        for name, plan in PLANS.items():
            with tempfile.TemporaryDirectory() as root:
                problems = problems_of(seed, plan, clean.staged_files, Path(root))
            if problems:
                failed += 1
                print(f"seed {seed} {name}: {'; '.join(problems)}")
    print(f"{failed} of {args.seeds * len(PLANS)} runs failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
