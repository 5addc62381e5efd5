#!/usr/bin/env python3
"""Run ONE workload once; the command named in ``BENCHMARK.json``.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Prints one JSON object as the last line of stdout::

    {"correct": true, "attempted": 19680, "failed": 0,
     "metrics": {"wall_s": {"value": 0.6312, "unit": "s"}, ...}}

With ``--trace 0`` the metrics are the ``end_to_end`` list of
``BENCHMARK.json``; with ``--trace 1`` its ``per_layer`` list, taken from
a run with the span wrappers installed.  ``--out FILE`` additionally
writes the full result (workload-specific end-to-end metrics, quartiles,
samples, digests, problems) for ``python -m bench run`` / ``compare``.
Exit code 0 only when every output check passed.

The program is imported from ``src/`` of the checkout this file sits
in — never from an installed copy — so without ``src/repro`` next to
``bench/`` the command fails before printing anything.
"""

import sys
import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

_ROOT = Path(__file__).resolve().parent.parent
if not (_ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"bench: no program to measure: {_ROOT / 'src' / 'repro'} is missing")
# The script's own directory would shadow the stdlib ``trace`` module.
sys.path[:] = [str(_ROOT / "src"), str(_ROOT)] + [
    p for p in sys.path if Path(p or ".").resolve() != _ROOT / "bench"
]

from bench import harness, spec  # noqa: E402  (imports the program too)


def main(argv=None) -> int:
    import_s = time.perf_counter() - _T0
    benchmark = spec.load()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=spec.workload_names())
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="~10x smaller sizes, 4 repetitions (smoke runs)")
    parser.add_argument("--out", default=None, help="also write the full result here")
    args = parser.parse_args(argv)

    result = harness.run_workload(
        args.workload, seed=args.seed, seconds=args.seconds,
        traced=bool(args.trace), quick=args.quick, import_s=import_s,
    )
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    for problem in result["problems"]:
        print(f"bench: {args.workload}: CHECK FAILED: {problem}", file=sys.stderr)

    if args.trace:
        units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
        metrics = {
            name: {"value": result["per_layer"][name], "unit": unit}
            for name, unit in units.items()
        }
    else:
        metrics = {
            m["name"]: {
                "value": result["end_to_end"][m["name"]]["value"], "unit": m["unit"],
            }
            for m in benchmark["end_to_end"]
        }
    correct = not result["problems"] and result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
