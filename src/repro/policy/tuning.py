"""Threshold auto-tuning (paper future work, implemented).

The paper closes by proposing "machine learning algorithms to identify the
data transfer settings (such as the threshold number of streams) that are
the most beneficial".  We implement that as an epsilon-greedy multi-armed
bandit over candidate thresholds: each observed workflow run is a reward
sample (negative execution time) for the threshold it used; the tuner
exploits the best-known arm while still exploring.

Used by ``benchmarks/test_ablation_tuning.py`` and
``examples/threshold_tuning.py``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.des.rng import Stream
from repro.experiments.stats import mean

__all__ = ["ThresholdTuner"]


class ThresholdTuner:
    """Epsilon-greedy bandit over candidate stream thresholds.

    Parameters
    ----------
    candidates:
        Thresholds to choose among (e.g. ``(25, 50, 100, 200)``).
    epsilon:
        Exploration probability per suggestion.
    rng:
        Random stream (deterministic tuning runs): a
        :class:`~repro.des.rng.Stream` or anything with its methods.
    """

    def __init__(
        self,
        candidates: Sequence[int],
        epsilon: float = 0.2,
        rng: Optional[Stream] = None,
    ):
        candidates = list(dict.fromkeys(int(c) for c in candidates))
        if not candidates:
            raise ValueError("need at least one candidate threshold")
        if any(c < 1 for c in candidates):
            raise ValueError("thresholds must be >= 1")
        if not 0 <= epsilon <= 1:
            raise ValueError("epsilon must be in [0, 1]")
        self.candidates = candidates
        self.epsilon = epsilon
        self.rng = rng or Stream(0)
        self._times: dict[int, list[float]] = {c: [] for c in candidates}

    # -- bandit API -----------------------------------------------------------
    def suggest(self) -> int:
        """Next threshold to try."""
        untried = [c for c in self.candidates if not self._times[c]]
        if untried:
            return untried[0]
        if self.rng.random() < self.epsilon:
            return int(self.rng.choice(self.candidates))
        return self.best()

    def observe(self, threshold: int, execution_time: float) -> None:
        """Record a run's execution time for a threshold."""
        if threshold not in self._times:
            raise ValueError(f"unknown threshold {threshold}")
        if execution_time <= 0:
            raise ValueError("execution_time must be positive")
        self._times[threshold].append(float(execution_time))

    def best(self) -> int:
        """Threshold with the lowest mean observed time (tried arms only)."""
        tried = {c: times for c, times in self._times.items() if times}
        if not tried:
            return self.candidates[0]
        return min(tried, key=lambda c: mean(tried[c]))

    def mean_time(self, threshold: int) -> Optional[float]:
        times = self._times.get(threshold)
        return mean(times) if times else None

    def observations(self) -> dict[int, int]:
        """Sample count per arm."""
        return {c: len(t) for c, t in self._times.items()}
