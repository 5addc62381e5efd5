"""Replicate statistics that round as numpy's do.

``mean``, ``std`` and ``percentile`` return the very floats ``np.mean``,
``np.std`` and ``np.percentile`` (its default 'linear' method) return for
the same list of floats, so results recorded with numpy keep their digits
without it.  The sums follow numpy's pairwise summation, not a left fold
(and not ``sum``, which compensates on Python 3.12).
"""

from __future__ import annotations

from math import floor, nan, sqrt
from typing import Sequence

__all__ = ["mean", "percentile", "std"]

#: numpy's unroll factor and the block it sums without halving
_UNROLL, _BLOCK = 8, 128


def _pairwise(values: Sequence[float], lo: int, n: int) -> float:
    """numpy's ``pairwise_sum`` of ``values[lo:lo + n]``."""
    if n < _UNROLL:
        total = 0.0
        for i in range(lo, lo + n):
            total += values[i]
        return total
    if n <= _BLOCK:
        stop = lo + n - n % _UNROLL
        r = []
        for j in range(_UNROLL):  # eight interleaved accumulators
            acc = values[lo + j]
            for i in range(lo + j + _UNROLL, stop, _UNROLL):
                acc += values[i]
            r.append(acc)
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for i in range(stop, lo + n):
            total += values[i]
        return total
    half = n // 2
    half -= half % _UNROLL
    return _pairwise(values, lo, half) + _pairwise(values, lo + half, n - half)


def _sum(values: Sequence[float]) -> float:
    return 0.0 + _pairwise(values, 0, len(values))


def mean(values: Sequence[float]) -> float:
    """``np.mean(values)`` (nan when empty)."""
    values = [float(v) for v in values]
    return _sum(values) / len(values) if values else nan


def std(values: Sequence[float]) -> float:
    """``np.std(values)``: the population standard deviation."""
    values = [float(v) for v in values]
    if not values:
        return nan
    centre = _sum(values) / len(values)
    return sqrt(_sum([(v - centre) * (v - centre) for v in values]) / len(values))


def percentile(values: Sequence[float], q: float) -> float:
    """``np.percentile(values, q)`` by linear interpolation between order
    statistics, including numpy's two-sided form of the interpolation."""
    ordered = sorted(float(v) for v in values)
    n = len(ordered)
    virtual = (n - 1) * (q / 100)
    if virtual >= n - 1:
        below = above = n - 1
        gamma = virtual + 1  # numpy measures from index -1 here
    else:
        below = floor(virtual)
        above = below + 1
        gamma = virtual - below
    a, b = ordered[below], ordered[above]
    diff = b - a
    return b - diff * (1 - gamma) if gamma >= 0.5 else a + diff * gamma
