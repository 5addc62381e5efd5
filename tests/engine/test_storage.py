"""Unit tests for scratch-storage accounting."""

import pytest

from repro.des import Environment
from repro.engine import StorageTracker
from repro.experiments import ExperimentConfig, run_cell


def test_add_remove_and_peak():
    env = Environment()
    tracker = StorageTracker(env, site="isi")
    tracker.add("a", 100)
    tracker.add("b", 50)
    assert tracker.used == 150
    assert tracker.peak == 150
    assert tracker.remove("a") == 100
    assert tracker.used == 50
    assert tracker.peak == 150  # peak sticks


def test_duplicate_add_is_idempotent():
    env = Environment()
    tracker = StorageTracker(env, site="isi")
    tracker.add("a", 100)
    tracker.add("a", 100)  # restage of an existing file
    assert tracker.used == 100


def test_remove_unknown_is_zero():
    env = Environment()
    tracker = StorageTracker(env, site="isi")
    assert tracker.remove("ghost") == 0
    assert tracker.used == 0


def test_validation():
    env = Environment()
    with pytest.raises(ValueError):
        StorageTracker(env, site="isi", capacity=0)
    tracker = StorageTracker(env, site="isi")
    with pytest.raises(ValueError):
        tracker.add("a", -1)


def test_nan_capacity_is_refused():
    # Every ``used > nan`` is False: a NaN capacity would never count
    # over-capacity time.
    with pytest.raises(ValueError, match="capacity must be positive, got nan"):
        StorageTracker(Environment(), site="isi", capacity=float("nan"))


def test_over_capacity_time_tracked():
    env = Environment()
    tracker = StorageTracker(env, site="isi", capacity=100)

    def scenario():
        tracker.add("a", 80)
        yield env.timeout(5)
        tracker.add("b", 50)   # over capacity at t=5
        yield env.timeout(10)
        tracker.remove("b")    # back under at t=15
        yield env.timeout(3)

    env.process(scenario())
    env.run()
    tracker.finish()
    assert tracker.over_capacity_time == pytest.approx(10.0)


def test_over_capacity_open_interval_closed_by_finish():
    env = Environment()
    tracker = StorageTracker(env, site="isi", capacity=10)

    def scenario():
        tracker.add("a", 20)
        yield env.timeout(7)

    env.process(scenario())
    env.run()
    tracker.finish()
    assert tracker.over_capacity_time == pytest.approx(7.0)


def test_add_then_remove_keeps_peak_and_no_over_capacity_time():
    env = Environment()
    tracker = StorageTracker(env, site="isi", capacity=5)
    tracker.add("a", 10)   # over capacity at t=0 ...
    tracker.remove("a")    # ... and back under at the same instant
    tracker.finish()
    assert tracker.used == 0
    assert tracker.peak == 10
    assert tracker.over_capacity_time == 0.0


# ------------------------------------------------------- end-to-end footprint
def test_cleanup_reduces_peak_footprint():
    """The paper's cleanup motivation: smaller data footprint on scratch."""
    base = dict(extra_file_mb=10, n_images=16, seed=5, policy="greedy")
    with_cleanup = run_cell(ExperimentConfig(**base, cleanup=True))
    without = run_cell(ExperimentConfig(**base, cleanup=False))
    assert with_cleanup.peak_footprint < without.peak_footprint
    # Without cleanup, nothing is ever deleted from scratch.
    assert without.final_footprint == pytest.approx(without.peak_footprint)
    # With cleanup, the end-of-run footprint is a small remainder.
    assert with_cleanup.final_footprint < 0.5 * without.final_footprint
