"""``Stream`` against numpy's ``default_rng``, the oracle it reproduces.

Every method is drawn interleaved with the others, so the 32-bit buffer
``choice`` keeps between 64-bit draws carries across ``random`` and
``normal`` as it does in numpy.  The seeds include the sub-seeds
``RngRegistry`` derives for the shipped scenarios' streams.  The
statistics helpers are compared with numpy's reductions the same way.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.des.rng import RngRegistry, Stream
from repro.experiments import stats
from repro.experiments.tracing import summarize_records
from tests.tools import ziggurat

#: (root seed, stream name) of the streams the shipped scenarios draw from
SCENARIO_STREAMS = [
    (root, name) for root in (0, 1000)
    for name in ("gridftp", "policy-retry", "faults",
                 "compute:montage-89img-extra100MB", "retry:montage-89img-extra100MB",
                 "compute:epigenomics", "retry:epigenomics", "compute:wf-t0-extra10MB")
]
SEEDS = [
    *range(75), 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64, 2**96 + 5, 2**127 + 3, 2**128,
    2**200 + 17, 12345678901234567890, 0xDEADBEEF,
    *(int.from_bytes(hashlib.blake2b(f"{root}:{name}".encode(), digest_size=8).digest(),
                     "little") for root, name in SCENARIO_STREAMS),
]
DRAWS = 10_000
POPULATIONS = ([7], [1, 2], [3, 5, 7], list(range(10)), list(range(1000)))
#: the same as arrays: numpy's ``choice`` converts a list on every call
ARRAYS = tuple(np.asarray(p) for p in POPULATIONS)


def draw(rng, method: str, i: int):
    if method == "random":
        return rng.random()
    if method == "uniform":
        return rng.uniform(0.05, 0.95)
    if method == "normal":
        return rng.normal(1.5, 0.3)
    populations = ARRAYS if isinstance(rng, np.random.Generator) else POPULATIONS
    return rng.choice(populations[i % len(populations)])


def sequence(rng, method: str) -> list:
    """``DRAWS`` draws of ``method`` and another method: every second
    draw of a ``choice`` sequence is a ``random``, every eighth of the
    others a ``choice`` (which leaves half a 64-bit word buffered)."""
    other, every = ("random", 2) if method == "choice" else ("choice", 8)
    return [draw(rng, other if i % every == every - 1 else method, i) for i in range(DRAWS)]


def test_the_seeds_cover_a_hundred_and_the_scenario_streams():
    assert len(set(SEEDS)) >= 100
    for root, name in SCENARIO_STREAMS[:3]:
        ours = RngRegistry(root).stream(name)
        digest = hashlib.blake2b(f"{root}:{name}".encode(), digest_size=8).digest()
        theirs = np.random.default_rng(int.from_bytes(digest, "little"))
        assert [ours.random() for _ in range(5)] == [theirs.random() for _ in range(5)]


@pytest.mark.parametrize("method", ["random", "uniform", "normal", "choice"])
def test_each_method_draws_what_numpy_draws(method):
    for seed in SEEDS:
        ours, theirs = sequence(Stream(seed), method), sequence(np.random.default_rng(seed), method)
        assert ours == theirs, (seed, next(i for i, (a, b) in enumerate(zip(ours, theirs)) if a != b))


def test_a_population_of_one_draws_nothing():
    stream, rng = Stream(3), np.random.default_rng(3)
    assert stream.choice(["only"]) == "only"
    rng.choice(["only"])
    assert stream.random() == rng.random()


def test_the_committed_ziggurat_tables_are_the_binarys():
    tables = ziggurat.read_tables(ziggurat.binary().read_bytes())
    assert ziggurat.render(tables) == ziggurat.TARGET.read_text()


#: finite floats of every magnitude, without -0.0 (whose order against 0.0
#: numpy's partition and ``sorted`` may break differently)
floats = st.floats(-1e100, 1e100).map(lambda x: x + 0.0)
samples = st.integers(0, 300).flatmap(lambda n: st.lists(floats, min_size=n, max_size=n))
EDGES = [7, 8, 9, 15, 16, 127, 128, 129, 136, 255, 256, 257]


def numpy_summary(durations) -> dict:
    """``summarize_records`` as numpy computed it."""
    arr = np.asarray(list(durations), dtype=float)
    if arr.size == 0:
        return {"count": 0}
    return {"count": int(arr.size), "mean": float(arr.mean()), "std": float(arr.std()),
            "min": float(arr.min()), "max": float(arr.max()),
            "p50": float(np.percentile(arr, 50)), "p95": float(np.percentile(arr, 95))}


def exact(doc: dict) -> dict:
    return {k: v.hex() if isinstance(v, float) else v for k, v in doc.items()}


@given(samples)
@example([])
@example([0.1, 0.2, 0.3])
def test_mean_and_std_round_as_numpys(values):
    if not values:
        assert stats.mean(values) != stats.mean(values) and stats.std(values) != stats.std(values)
        return
    assert stats.mean(values).hex() == float(np.mean(values)).hex()
    assert stats.std(values).hex() == float(np.std(values)).hex()


@given(samples.filter(bool), st.one_of(st.sampled_from([0, 50, 95, 100]), st.floats(0, 100)))
def test_percentile_interpolates_as_numpys(values, q):
    assert stats.percentile(values, q).hex() == float(np.percentile(values, q)).hex()


@given(samples)
def test_summarize_records_matches_numpys_summary(values):
    assert exact(summarize_records(values)) == exact(numpy_summary(values))


@pytest.mark.parametrize("n", EDGES)
def test_the_pairwise_blocks_split_where_numpys_do(n):
    # Magnitudes spread so that any other grouping of the sum rounds differently.
    values = [(-1.0) ** i * 10.0 ** (i % 17) + i / 7 for i in range(n)]
    assert exact(summarize_records(values)) == exact(numpy_summary(values))
