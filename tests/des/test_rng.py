"""Unit tests for deterministic named RNG streams."""

from repro.des import RngRegistry


def draws(stream, n):
    return [stream.random() for _ in range(n)]


def test_same_seed_same_stream():
    a = draws(RngRegistry(seed=7).stream("net"), 5)
    b = draws(RngRegistry(seed=7).stream("net"), 5)
    assert a == b


def test_different_names_differ():
    reg = RngRegistry(seed=7)
    a = draws(reg.stream("net"), 5)
    b = draws(reg.stream("compute"), 5)
    assert a != b


def test_different_seeds_differ():
    a = draws(RngRegistry(seed=1).stream("net"), 5)
    b = draws(RngRegistry(seed=2).stream("net"), 5)
    assert a != b


def test_stream_cached_not_restarted():
    reg = RngRegistry(seed=3)
    first = reg.stream("x").random()
    second = reg.stream("x").random()
    assert first != second  # continuing the same stream, not restarting


def test_creation_order_does_not_matter():
    reg1 = RngRegistry(seed=11)
    reg1.stream("a")
    draw1 = draws(reg1.stream("b"), 3)

    reg2 = RngRegistry(seed=11)
    draw2 = draws(reg2.stream("b"), 3)  # "a" never created here
    assert draw1 == draw2
