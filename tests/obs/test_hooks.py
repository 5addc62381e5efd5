"""One hooks object per deployment: its sinks, and who takes it."""

import inspect
from collections import deque
from dataclasses import fields

from repro.obs import Hooks, MetricsRegistry, RuleProfiler, Tracer
from repro.obs.tracer import NULL_TRACER
from repro.policy import PolicyConfig, PolicyService, ShardedPolicyService
from repro.policy.rest import PolicyRestServer

POLICY = PolicyConfig(policy="greedy", default_streams=4, max_streams=50)


def test_every_sink_declares_its_clock_and_defaults_to_nothing():
    hooks = Hooks()
    assert set(Hooks.SIM_DETERMINISTIC) == {f.name for f in fields(Hooks)}
    assert [name for name, sim in Hooks.SIM_DETERMINISTIC.items() if sim] == ["tracer"]
    assert hooks.tracer is NULL_TRACER and not hooks.tracer.enabled
    assert hooks.metrics is hooks.profiler is hooks.access_log is None
    assert Hooks(tracer=None).tracer is NULL_TRACER


def test_a_service_owns_a_registry_unless_the_hooks_bring_one():
    registry, profiler, other = MetricsRegistry(), RuleProfiler(), RuleProfiler()
    private = PolicyService(POLICY)
    assert isinstance(private.metrics, MetricsRegistry)
    assert private.hooks.metrics is private.metrics
    shared = PolicyService(POLICY, hooks=Hooks(metrics=registry, profiler=profiler))
    assert shared.metrics is registry and shared.hooks.profiler is profiler
    # ``profiler=`` replaces the hooks' profiler (bench/trace.py binds it).
    replaced = PolicyService(POLICY, hooks=Hooks(profiler=profiler), profiler=other)
    assert replaced.hooks.profiler is other


def test_a_fleet_hands_its_shards_one_hooks_without_its_registry():
    tracer, registry, profiler = Tracer(), MetricsRegistry(), RuleProfiler()
    fleet = ShardedPolicyService(
        POLICY, num_shards=3, hooks=Hooks(tracer=tracer, metrics=registry, profiler=profiler),
    )
    services = [handle.service for handle in fleet.shards]
    assert fleet.metrics is registry
    assert len({id(s.hooks.metrics) for s in services} | {id(registry)}) == 4
    assert all(s.hooks.tracer is tracer and s.hooks.profiler is profiler for s in services)


def test_a_rest_server_takes_the_services_hooks_and_a_private_log():
    tracer = Tracer()
    service = PolicyService(POLICY, hooks=Hooks(tracer=tracer))
    server = PolicyRestServer(service)
    assert server.hooks.tracer is tracer
    assert isinstance(server.hooks.access_log, deque) and server.hooks.access_log.maxlen == 1024
    log = deque(maxlen=5)
    assert PolicyRestServer(service, hooks=Hooks(access_log=log)).hooks.access_log is log


def test_the_constructors_take_hooks_and_only_the_service_keeps_profiler():
    for init in (PolicyService.__init__, PolicyService.recover, ShardedPolicyService.__init__):
        names = set(inspect.signature(init).parameters)
        assert "hooks" in names and not names & {"tracer", "metrics", "registry"}
        # bench/trace.py binds ``profiler=`` on PolicyService.__init__ alone:
        # recover and every shard build their services through it.
        assert ("profiler" in names) == (init is PolicyService.__init__)
    names = set(inspect.signature(PolicyRestServer.__init__).parameters)
    assert "hooks" in names and not names & {"tracer", "metrics", "profiler"}
