"""The repo benchmark: seven workloads, end-to-end metrics, a traced per-layer split.

``BENCHMARK.json`` at the repo root is the contract (workloads, metric
names, units, directions, bounds); this package measures it.  See
``bench/README.md`` for the tables and the rules for using the numbers.

Entry points::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1   # one run, JSON last line
    PYTHONPATH=src python -m bench run [--workload NAME] [--seed N] [--traced] [--quick] [--out FILE]
    PYTHONPATH=src python -m bench compare A.json B.json
    PYTHONPATH=src python -m bench --list
"""
