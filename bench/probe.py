"""A host-speed probe, so timings survive a noisy shared host.

This container is a shared VM whose cores switch between a fast and a
~1.45x slower state for stretches of milliseconds to tens of seconds (a
fixed busy loop measured 0.22 s and 0.335 s in one minute).  Raw medians
of ten identical runs then differ by 10-45%, which would drown any bound
the benchmark could fix.  So every timed segment is bracketed by
:func:`probe` — a fixed pure-Python loop — and host times are reported
**scaled to the reference speed**: ``seconds * REFERENCE_S / probe
seconds``.  On an undisturbed core the factor is 1 and the numbers are
plain seconds; the raw walls and probe times are kept in the result
document.  Measured over 10 seeds x 7 workloads, this took the spread of
``wall_s`` (quartile distance / median) from 9-46% down to 3-11% in
ordinary hours (bench/README.md has the table).
"""

from __future__ import annotations

import statistics
import time

#: what one probe takes on an undisturbed core of this host class
REFERENCE_S = 0.0100
_ITERATIONS = 150_000


def probe() -> float:
    """Seconds the fixed loop took just now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - t0


def slowdown(probes: list[float]) -> float:
    """How much slower than the reference the host ran (1.0 = reference)."""
    return statistics.fmean(probes) / REFERENCE_S


def scaled(fn) -> tuple[float, float, object]:
    """``(scaled seconds, raw seconds, fn())``, probed at both edges."""
    before = probe()
    t0 = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - t0
    return raw / slowdown([before, probe()]), raw, result
