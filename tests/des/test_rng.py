"""Unit tests for deterministic named RNG streams."""

from repro.des import RngRegistry


def test_same_seed_same_stream():
    a = RngRegistry(seed=7).stream("net").random(5)
    b = RngRegistry(seed=7).stream("net").random(5)
    assert (a == b).all()


def test_different_names_differ():
    reg = RngRegistry(seed=7)
    a = reg.stream("net").random(5)
    b = reg.stream("compute").random(5)
    assert not (a == b).all()


def test_different_seeds_differ():
    a = RngRegistry(seed=1).stream("net").random(5)
    b = RngRegistry(seed=2).stream("net").random(5)
    assert not (a == b).all()


def test_stream_cached_not_restarted():
    reg = RngRegistry(seed=3)
    first = reg.stream("x").random()
    second = reg.stream("x").random()
    assert first != second  # continuing the same stream, not restarting


def test_creation_order_does_not_matter():
    reg1 = RngRegistry(seed=11)
    reg1.stream("a")
    draw1 = reg1.stream("b").random(3)

    reg2 = RngRegistry(seed=11)
    draw2 = reg2.stream("b").random(3)  # "a" never created here
    assert (draw1 == draw2).all()
