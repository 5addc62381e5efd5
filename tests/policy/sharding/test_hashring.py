"""Consistent-hash ring: determinism, spread, and key builders."""

import subprocess
import sys

from repro.policy.sharding import HashRing, pair_key
from repro.policy.sharding.hashring import url_key


def test_ring_is_deterministic_across_instances():
    a, b = HashRing(4), HashRing(4)
    keys = [pair_key(f"site{i}", "obelix") for i in range(64)]
    assert [a.node_for(k) for k in keys] == [b.node_for(k) for k in keys]


def test_ring_is_independent_of_hash_randomization():
    """SHA-256, not ``hash()`` — assignments survive PYTHONHASHSEED."""
    script = (
        "import sys; sys.path.insert(0, 'src')\n"
        "from repro.policy.sharding import HashRing, pair_key\n"
        "ring = HashRing(4)\n"
        "print([ring.node_for(pair_key(f'site{i}', 'obelix'))"
        " for i in range(32)])\n"
    )
    outs = set()
    for seed in ("0", "12345"):
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True,
            env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        outs.add(proc.stdout.strip())
    assert len(outs) == 1


def test_single_shard_ring_routes_everything_to_zero():
    ring = HashRing(1)
    assert {ring.node_for(f"k{i}") for i in range(100)} == {0}


def test_spread_is_roughly_balanced():
    ring = HashRing(4)
    keys = [pair_key(f"site{i}", "obelix") for i in range(200)]
    counts = [0] * ring.num_shards
    for key in keys:
        counts[ring.node_for(key)] += 1
    assert sum(counts) == 200
    # With 64 vnodes/shard no shard should be starved or dominant.
    assert min(counts) >= 20 and max(counts) <= 90


def test_ring_validates_shard_count():
    import pytest

    with pytest.raises(ValueError):
        HashRing(0)


def test_key_builders():
    assert pair_key("a", "b") == "pair:a|b"
    assert pair_key("a", "b") != pair_key("b", "a")
    assert url_key("gsiftp://h/p").startswith("url:")


def test_adding_a_shard_moves_a_minority_of_keys():
    """Consistent hashing: growing the fleet remaps ~1/N of the keys."""
    keys = [pair_key(f"s{i}", f"d{i % 7}") for i in range(500)]
    before = [HashRing(4).node_for(k) for k in keys]
    after = [HashRing(5).node_for(k) for k in keys]
    moved = sum(1 for b, a in zip(before, after) if b != a)
    assert moved < len(keys) // 2
