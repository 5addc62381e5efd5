"""``python -m bench`` — run every workload, compare two results, list the contract.

    PYTHONPATH=src python -m bench run [--workload NAME] [--seed N] [--traced]
                                       [--quick] [--seconds S] [--out FILE]
    PYTHONPATH=src python -m bench compare A.json B.json
    PYTHONPATH=src python -m bench --list

``run`` starts one fresh ``bench/run.py`` process per workload (so peak
RSS and interpreter state are per workload), prints every metric by name
with its unit, and exits non-zero when any output check failed.  With
``--traced`` each workload runs a second time under the span wrappers
and the per-layer metrics are printed too; end-to-end numbers always
come from the untraced run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from bench import compare, spec

RUN_PY = Path(__file__).resolve().parent / "run.py"


def list_contract(out=None) -> None:
    """Workloads, metrics, units, directions and bounds, straight from
    ``BENCHMARK.json`` (plus the workload-specific end-to-end metrics)."""
    benchmark = spec.load()
    print(f"command: {' '.join(benchmark['command'])}   run_seconds: "
          f"{benchmark['run_seconds']}", file=out)
    print("\nworkloads:", file=out)
    for w in benchmark["workloads"]:
        print(f"  {w['name']:<18} {w['why']}", file=out)
    print("\nend-to-end metrics (every workload):", file=out)
    for m in benchmark["end_to_end"]:
        print(f"  {m['name']:<24} {m['unit']:<6} {m['better']:<7} bound {m['bound']:.0%}",
              file=out)
    print("\nend-to-end metrics (some workloads; bench/spec.py):", file=out)
    for m in spec.LOCAL_END_TO_END:
        scope = "all" if len(m["workloads"]) == len(benchmark["workloads"]) else ", ".join(
            m["workloads"])
        print(f"  {m['name']:<24} {m['unit']:<6} {m['better']:<7} bound {m['bound']:.0%}"
              f"   [{scope}]", file=out)
    print("\nper-layer metrics (traced run, no bound):", file=out)
    for m in benchmark["per_layer"]:
        print(f"  {m['name']:<34} {m['unit']:<6} {m['better']}", file=out)


def run_one(workload: str, args, traced: bool) -> dict:
    """One ``bench/run.py`` subprocess; returns its full result document."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "result.json"
        command = [
            sys.executable, str(RUN_PY), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", "1" if traced else "0", "--out", str(out),
        ]
        if args.quick:
            command.append("--quick")
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        if not out.exists():
            raise SystemExit(
                f"bench: {workload} produced no result (exit {done.returncode})")
        return json.loads(out.read_text())


def print_result(result: dict, out=None) -> None:
    print(f"\n== {result['workload']}  seed {result['seed']}  reps {result['reps']}  "
          f"attempted {result['attempted']}  failed {result['failed']}  "
          f"sha256 {result['result_sha256'][:16]}", file=out)
    for name, m in result["end_to_end"].items():
        print(f"  {name:<24} {m['value']:>14.6g} {m['unit']:<6} "
              f"[q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n {m['n']}]", file=out)
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}", file=out)
    if "per_layer" in result:
        units = {m["name"]: m["unit"] for m in spec.per_layer()}
        print("  -- per layer (traced run; des.callback_self_s = DES kernel + "
              "callbacks of no named process, not separable from outside)", file=out)
        for name, value in result["per_layer"].items():
            print(f"  {name:<34} {value:>14.6g} {units[name]}", file=out)


def cmd_run(args) -> int:
    names = [args.workload] if args.workload else spec.workload_names()
    document = {"seed": args.seed, "quick": args.quick, "workloads": {}}
    for name in names:
        result = run_one(name, args, traced=False)
        if args.traced:
            traced = run_one(name, args, traced=True)
            result["per_layer"] = traced["per_layer"]
            result["layer_shares"] = traced["layer_shares"]
            result["problems"] += [f"traced run: {p}" for p in traced["problems"]]
        if args.write_golden:
            stale = [p for p in result["problems"] if p.startswith("golden:")]
            result["problems"] = [p for p in result["problems"] if p not in stale]
            result["failed"] -= len(stale)
        print_result(result)
        document["workloads"][name] = result
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    if args.write_golden:
        if args.quick or args.seed != spec.DEFAULT_SEED:
            raise SystemExit("bench: golden digests are for full size and the default seed")
        golden = json.loads(spec.GOLDEN.read_text())
        golden.update({n: r["rep_digests"] for n, r in document["workloads"].items()})
        spec.GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    failed = [n for n, r in document["workloads"].items() if r["problems"] or r["failed"]]
    if failed:
        print(f"\nFAILED output checks: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__.splitlines()[0])
    parser.add_argument("--list", action="store_true", help="print the benchmark contract")
    sub = parser.add_subparsers(dest="command")
    run = sub.add_parser("run", help="run the workloads and print every metric")
    run.add_argument("--workload", choices=spec.workload_names())
    run.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    run.add_argument("--seconds", type=float, default=spec.load()["run_seconds"])
    run.add_argument("--traced", action="store_true", help="add the per-layer split")
    run.add_argument("--quick", action="store_true", help="~10x smaller, for smoke runs")
    run.add_argument("--out", help="write the result document here")
    run.add_argument("--write-golden", action="store_true",
                     help="record this run's digests in bench/golden.json "
                          "(after a declared policy change)")
    cmp_parser = sub.add_parser("compare", help="judge B against A with the bounds")
    cmp_parser.add_argument("a")
    cmp_parser.add_argument("b")
    args = parser.parse_args(argv)
    if args.list:
        list_contract()
        return 0
    if args.command == "run":
        return cmd_run(args)
    if args.command == "compare":
        return compare.main(args.a, args.b)
    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
