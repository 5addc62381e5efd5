"""Unit tests for the GridFTP-like transfer client."""

import numpy as np
import pytest

from repro.des import Environment
from repro.net import (
    FlowNetwork,
    GridFTPClient,
    Link,
    Network,
    StreamModel,
    TransferError,
    parse_url,
)


def make_fabric():
    env = Environment()
    net = Network()
    s = net.add_site("s")
    src = net.add_host("srv", s)
    dst = net.add_host("cli", s)
    net.add_link(Link("wan", capacity=100.0))
    net.add_route(src, dst, [net.links["wan"]])
    fabric = FlowNetwork(env, net, StreamModel(0, 0, 0))
    return env, fabric


# ------------------------------------------------------------------- URLs
def test_parse_url():
    assert parse_url("gsiftp://hostA/data/f.fits") == ("hostA", "/data/f.fits")
    assert parse_url("http://web/f") == ("web", "/f")
    assert parse_url("file://local/tmp/x") == ("local", "/tmp/x")


def test_parse_url_rejects_malformed():
    for bad in ["nope", "gsiftp:/missing", "://nohost/x", "gsiftp:///path", "weird://h/p"]:
        with pytest.raises(ValueError):
            parse_url(bad)


# ---------------------------------------------------------------- transfers
def test_basic_transfer_returns_record():
    env, fabric = make_fabric()
    client = GridFTPClient(fabric)
    out = {}

    def run():
        rec = yield from client.transfer(
            "gsiftp://srv/a.dat", "gsiftp://cli/a.dat", 1000.0, streams=2
        )
        out["rec"] = rec

    env.process(run())
    env.run()
    rec = out["rec"]
    assert rec.t_done - rec.t_submit == pytest.approx(10.0)
    assert client.records == [rec]


def test_server_registry_is_gone():
    with pytest.raises(ImportError):
        from repro.net import GridFTPServer  # noqa: F401
    env, fabric = make_fabric()
    with pytest.raises(TypeError):
        GridFTPClient(fabric, require_server=True)


def test_failure_injection_raises_transfer_error():
    env, fabric = make_fabric()
    client = GridFTPClient(fabric, rng=np.random.default_rng(1), failure_rate=0.999)

    def run():
        yield from client.transfer("gsiftp://srv/a", "gsiftp://cli/a", 100.0, 1)

    p = env.process(run())
    with pytest.raises(TransferError, match="interrupted"):
        env.run(until=p)
    assert client.records == []  # failed transfers are not recorded


def test_overhead_jitter_inflates_duration_deterministically():
    def run_with(seed):
        env, fabric = make_fabric()
        client = GridFTPClient(
            fabric, rng=np.random.default_rng(seed), overhead_jitter=0.05
        )

        def run():
            yield from client.transfer("gsiftp://srv/a", "gsiftp://cli/a", 1000.0, 1)

        env.process(run())
        env.run()
        return env.now

    base = 10.0
    t1, t2 = run_with(7), run_with(7)
    assert t1 == t2  # deterministic
    assert t1 >= base  # overhead only ever adds


def test_client_validation():
    env, fabric = make_fabric()
    with pytest.raises(ValueError):
        GridFTPClient(fabric, overhead_jitter=-0.1)
    with pytest.raises(ValueError):
        GridFTPClient(fabric, failure_rate=1.0)
