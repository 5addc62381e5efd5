"""In-memory span tracing of the program's layers, from outside the program.

:func:`install` replaces the public callables listed in :data:`WRAPS`
(``module:qualname`` -> span name) with timing wrappers; :func:`uninstall`
puts the originals back.  Nothing inside ``src/`` changes.  Three kinds
of wrapper exist:

* plain callables get one span per call;
* generator entry points (``DAGMan.run``, ``PegasusTransferTool.execute``,
  the in-process policy client ...) return a proxy that records one span
  per *resumption*, so only host time spent inside the generator frame
  is counted, not the simulated time it sleeps through;
* ``Environment.process`` wraps the generators of DES processes by the
  name prefix the program gives them (``job-``, ``run-``, ``flow-`` ...),
  which is how the engine's and the flow solver's callbacks — closures
  that no attribute path reaches — still get a layer.

A span is ``[name, start, end, parent, request, thread, extra]``.
``parent`` is the enclosing span on the same thread; spans of one policy
request share ``request``; ``extra`` carries counts measured at the same
boundary (bytes, jobs, shard index).  Spans stay in memory until
:meth:`Tracer.dump`.  A span's *self time* is its duration minus its
direct children's durations.

Three sources are cumulative rather than spans: the DES event counter,
the program's public ``RuleProfiler`` (passed as ``profiler=`` to every
``PolicyService`` built while tracing is installed — the match/action
split), and the services' own metric registries (catalog hits).
:meth:`Tracer.mark` snapshots them at the edges of the timed phase.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import os
import statistics
import threading
import time
from collections import Counter, defaultdict

from repro.obs.profiler import RuleProfiler

SERVICE_OPS = (
    "submit_transfers", "complete_transfers", "submit_cleanups", "complete_cleanups",
)
_MUTATING_OPS = SERVICE_OPS + ("unregister_workflow", "reconcile_staged")
_QUERY_OPS = ("staging_state", "transfer_state")
_ADMIN_OPS = ("register_tenant", "bind_workflow", "register_priorities", "catalog_census")

NAME, START, END, PARENT, REQUEST, THREAD, EXTRA = range(7)
#: span names summed over the whole run, not just the timed phase:
#: generation happens during set-up and recovery after the last repetition
WHOLE_RUN = ("workflow.generate", "journal.load")


# ------------------------------------------------------------------ tracer
class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.des_events = 0
        self.profiler = RuleProfiler()
        self.services: list = []
        self.clients: dict[int, object] = {}
        self._marks: list[Counter] = []
        self._local = threading.local()
        self._requests = itertools.count(1)
        self._journal_sizes: dict[str, int] = {}
        self._undo: list = []

    def begin(self, name: str, request: bool = False) -> list:
        local = self._local
        parent = getattr(local, "span", None)
        rid = parent[REQUEST] if parent is not None else 0
        if request and not rid:
            rid = next(self._requests)
        span = [name, time.perf_counter(), None, parent, rid, threading.get_ident(), None]
        local.span = span
        self.spans.append(span)
        return span

    def end(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._local.span = span[PARENT]

    def totals(self) -> Counter:
        """The cumulative sources, as of now."""
        totals = Counter({"des.events": self.des_events})
        for row in self.profiler.stats.values():
            totals["rules.firings"] += row.fires
            totals["rules.activations"] += row.activations
            totals["rules.match_s"] += row.match_s
            totals["rules.action_s"] += row.action_s
        for service in self.services:
            events = service.metrics.to_dict().get("repro_policy_catalog_events_total", {})
            for key, value in events.items():
                for event in ("hits", "selected"):
                    if f'"{event}"' in key:
                        totals[f"catalog.{event}"] += value
        for client in self.clients.values():
            totals["client.retries"] += client.failed_calls
        return totals

    def mark(self) -> None:
        """Call at the start and at the end of the timed phase."""
        self._marks.append(self.totals())

    def dump(self) -> dict:
        """JSON-able copy: parents become indices, open spans are dropped.

        ``totals`` covers the marked phase, or the whole run when
        :meth:`mark` was never called (the traced REST server).
        """
        if len(self._marks) == 2:
            totals = self._marks[1] - self._marks[0]
        else:
            totals = self.totals()
        index = {id(span): n for n, span in enumerate(self.spans)}
        return {
            "spans": [
                [*s[:PARENT], index[id(s[PARENT])] if s[PARENT] is not None else -1,
                 *s[REQUEST:]]
                for s in self.spans
                if s[END] is not None
            ],
            "totals": dict(totals),
        }


class _GeneratorProxy:
    """Times each resumption of a generator as one span."""

    __slots__ = ("_tracer", "_name", "_gen", "_first", "_on_return", "_on_error", "__name__")

    def __init__(self, tracer, name, gen, first=None, on_return=None, on_error=None):
        self._tracer = tracer
        self._name = name
        self._gen = gen
        self._first = first if first is not None else {"first": 1}
        self._on_return = on_return
        self._on_error = on_error
        self.__name__ = getattr(gen, "__name__", name)

    def __iter__(self):
        return self

    def __next__(self):
        return self._resume(self._gen.send, None)

    def send(self, value):
        return self._resume(self._gen.send, value)

    def throw(self, *exc):
        return self._resume(self._gen.throw, *exc)

    def close(self):
        self._gen.close()

    def _resume(self, step, *args):
        tracer = self._tracer
        span = tracer.begin(self._name)
        span[EXTRA], self._first = self._first, None
        try:
            return step(*args)
        except StopIteration as stop:
            if self._on_return is not None:
                span[EXTRA] = {**(span[EXTRA] or {}), **self._on_return(stop.value)}
            raise
        except BaseException as exc:
            if self._on_error is not None:
                span[EXTRA] = {**(span[EXTRA] or {}), **self._on_error(exc)}
            raise
        finally:
            tracer.end(span)


# ----------------------------------------------------------------- hooks
# An ``after`` hook runs once the span has ended (its cost lands in no
# layer) and returns the span's ``extra`` dict.
def _jobs(tracer, args, result) -> dict:
    return {"jobs": len(result.jobs)}


def _resident(tracer, args, result) -> dict:
    return {"facts": len(args[0].memory)}


def _json_bytes(tracer, args, result) -> dict:
    return {
        "bytes_in": len(json.dumps(args[1])) if len(args) > 1 else 0,
        "bytes_out": len(json.dumps(result)),
    }


def _journal_bytes(tracer, args, result) -> dict:
    path = str(args[0].journal_path)
    size = os.path.getsize(path)
    grown = max(0, size - tracer._journal_sizes.get(path, 0))
    tracer._journal_sizes[path] = size
    return {"bytes": grown}


def _journal_truncated(tracer, args, result) -> dict:
    tracer._journal_sizes[str(args[0].journal_path)] = 0
    return {}


def _shard(tracer, args, result) -> dict:
    return {"shard": args[0].index}


def _dagman_retries(result) -> dict:
    return {"retries": sum(max(0, r.attempts - 1) for r in result.records.values())}


def _transfer_failed(exc) -> dict:
    return {"failed": 1}


# ------------------------------------------------------------------ table
def _ops(target: str, layer: str, ops, **options):
    return [(f"{target}.{op}", f"{layer}.{op}", options) for op in ops]


#: ``module:qualname`` -> (span name, options).  Options: ``request``
#: (the span opens a request id when none is active), ``after`` (see
#: above), ``on_return`` / ``on_error`` (generator proxies), ``remember``
#: (keep the bound instance, for its public failure counter).
WRAPS: list[tuple[str, str, dict]] = [
    # workflow generators (the runner binds its own name for run_cell)
    ("repro.experiments.runner:augmented_montage", "workflow.generate", {"after": _jobs}),
    ("repro.workflow.montage:augmented_montage", "workflow.generate", {"after": _jobs}),
    ("repro.workflow.synthetic:epigenomics_workflow", "workflow.generate", {"after": _jobs}),
    # planner + catalogs
    ("repro.planner.planner:Planner.plan", "planner.plan", {"after": _jobs}),
    ("repro.catalogs.replica:ReplicaCatalog.lookup", "catalogs.lookup", {}),
    ("repro.catalogs.replica:ReplicaCatalog.has", "catalogs.lookup", {}),
    # des
    ("repro.des.core:Environment.run", "des.run", {}),
    # net
    ("repro.net.flows:FlowNetwork.start_transfer", "net.start_transfer", {}),
    ("repro.net.gridftp:GridFTPClient.transfer", "net.gridftp", {"on_error": _transfer_failed}),
    # engine
    ("repro.engine.dagman:DAGMan.run", "engine.dagman", {"on_return": _dagman_retries}),
    ("repro.engine.transfer_tool:PegasusTransferTool.execute", "engine.ptt", {}),
    ("repro.engine.transfer_tool:PegasusTransferTool.finalize", "engine.ptt", {}),
    ("repro.engine.cleanup_tool:CleanupTool.execute", "engine.cleanup", {}),
    # policy clients
    *_ops("repro.policy.client:InProcessPolicyClient", "client", _MUTATING_OPS + _QUERY_OPS,
          remember=True),
    *_ops("repro.policy.client:HTTPPolicyClient", "client", _MUTATING_OPS + _QUERY_OPS,
          request=True),
    # REST: both frontends' handler classes are private closures; the
    # controller is the public seam between a frontend and the service
    *_ops("repro.policy.controller:PolicyController", "controller",
          _MUTATING_OPS + ("staging_state",), request=True, after=_json_bytes),
    # sharding
    *_ops("repro.policy.sharding.router:ShardedPolicyService", "router",
          _MUTATING_OPS + _QUERY_OPS + _ADMIN_OPS, request=True),
    ("repro.policy.sharding.shard:ShardHandle.call", "router.shard_call", {"after": _shard}),
    # service
    *_ops("repro.policy.service:PolicyService", "service", _MUTATING_OPS,
          request=True, after=_resident),
    *_ops("repro.policy.service:PolicyService", "service",
          _QUERY_OPS + _ADMIN_OPS + ("snapshot", "recover"), request=True),
    # rules
    ("repro.rules.engine:Session.__init__", "rules.session_init", {}),
    ("repro.rules.engine:Session.fire_all", "rules.fire_all", {}),
    ("repro.rules.facts:WorkingMemory.insert", "rules.wm", {}),
    ("repro.rules.facts:WorkingMemory.update", "rules.wm", {}),
    ("repro.rules.facts:WorkingMemory.retract", "rules.wm", {}),
    # journal
    ("repro.policy.journal:PolicyJournal.record_mutation", "journal.record", {}),
    ("repro.policy.journal:PolicyJournal.record_decision", "journal.record", {}),
    ("repro.policy.journal:PolicyJournal.commit", "journal.commit", {"after": _journal_bytes}),
    ("repro.policy.journal:PolicyJournal.write_snapshot", "journal.snapshot",
     {"after": _journal_truncated}),
    ("repro.policy.journal:PolicyJournal.load", "journal.load", {}),
    # provenance (the service binds these names at import)
    ("repro.policy.service:ledger_snapshot", "provenance.ledger_snapshot", {}),
    ("repro.policy.service:transfer_record", "provenance.record_build", {}),
    ("repro.policy.service:cleanup_record", "provenance.record_build", {}),
    ("repro.policy.service:eviction_record", "provenance.record_build", {}),
    ("repro.policy.provenance:DecisionLog.add", "provenance.log_add", {}),
    # datacatalog
    *[(f"repro.datacatalog.catalog:DataCatalog.{op}", "catalog.op", {})
      for op in ("register", "unregister", "touch", "select_source", "pin", "unpin",
                 "over_budget_sites", "lookup")],
    ("repro.datacatalog.catalog:DataCatalog.census", "catalog.census", {}),
    # tenancy
    ("repro.tenancy.admission:AdmissionController.submit", "tenancy.submit", {}),
    ("repro.tenancy.scheduler:EnsembleScheduler.select", "tenancy.scheduler", {}),
    ("repro.tenancy.scheduler:EnsembleScheduler.charge", "tenancy.scheduler", {}),
]

#: DES process name prefix -> span name (first match wins).  A generator
#: that is already proxied (``DAGMan.run`` as ``dagman-*``) is left alone.
PROCESS_LAYERS = [
    ("job-", "engine.dagman"),
    ("run-", "engine.runner"),
    ("exec-", "engine.runner"),
    ("flow-", "net.solver"),
    ("net-timer-", "net.solver"),
    ("admission", "tenancy.dispatch"),
    ("tenant-run-", "tenancy.dispatch"),
]


# --------------------------------------------------------------- install
def _resolve(target: str):
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def _wrap(tracer: Tracer, name: str, fn, options: dict):
    request = options.get("request", False)
    after = options.get("after")
    if inspect.isgeneratorfunction(fn):
        remember = options.get("remember", False)
        on_return, on_error = options.get("on_return"), options.get("on_error")

        def generator_wrapper(*args, **kwargs):
            if remember:
                tracer.clients[id(args[0])] = args[0]
            return _GeneratorProxy(
                tracer, name, fn(*args, **kwargs), on_return=on_return, on_error=on_error
            )

        return generator_wrapper

    def wrapper(*args, **kwargs):
        span = tracer.begin(name, request)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.end(span)
            span[EXTRA] = {"error": 1}
            raise
        tracer.end(span)
        if after is not None:
            span[EXTRA] = after(tracer, args, result)
        return result

    return wrapper


def _patch(tracer: Tracer, owner, attr: str, make) -> None:
    """Replace ``owner.attr`` with ``make(original)``, remembering the original."""
    raw = owner.__dict__[attr] if inspect.isclass(owner) else getattr(owner, attr)
    if isinstance(raw, classmethod):
        replacement = classmethod(make(raw.__func__))
    else:
        replacement = make(raw)
    setattr(owner, attr, replacement)
    tracer._undo.append((owner, attr, raw))


def install() -> Tracer:
    """Install every wrapper; returns the tracer collecting the spans."""
    from repro.des.core import Environment
    from repro.policy.service import PolicyService

    tracer = Tracer()
    for target, name, options in WRAPS:
        owner, attr = _resolve(target)
        _patch(tracer, owner, attr,
               lambda fn, name=name, options=options: _wrap(tracer, name, fn, options))

    def count_events(step):
        def counted(self):
            tracer.des_events += 1
            return step(self)
        return counted

    def label_processes(process):
        def labelled(self, generator, name=""):
            if not isinstance(generator, _GeneratorProxy):
                for prefix, layer in PROCESS_LAYERS:
                    if name.startswith(prefix):
                        first = {"process": prefix, "sim_now": self.now}
                        generator = _GeneratorProxy(tracer, layer, generator, first=first)
                        break
            return process(self, generator, name)
        return labelled

    def inject_profiler(init):
        signature = inspect.signature(init)

        def initialised(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            if bound.arguments.get("profiler") is None:
                bound.arguments["profiler"] = tracer.profiler
            init(*bound.args, **bound.kwargs)
            tracer.services.append(args[0])
        return initialised

    _patch(tracer, Environment, "step", count_events)
    _patch(tracer, Environment, "process", label_processes)
    _patch(tracer, PolicyService, "__init__", inject_profiler)
    return tracer


def uninstall(tracer: Tracer) -> None:
    """Put every original callable back (in reverse order)."""
    while tracer._undo:
        owner, attr, raw = tracer._undo.pop()
        setattr(owner, attr, raw)


# ---------------------------------------------------------------- derive
class Aggregate:
    """Per span name over the windowed spans of some dumps: ``count``,
    ``busy`` (sum of durations), ``self`` time, ``durations`` and the
    spans' ``extras``; plus self time and threads per dump, and the
    dumps' cumulative ``totals`` added up.

    ``docs[0]`` is this process's dump; further docs come from child
    processes (the traced REST server).  ``perf_counter`` is the
    system-wide monotonic clock on Linux, so one window filters both.
    """

    def __init__(self, docs: list[dict], window: tuple[float, float]):
        lo, hi = window
        self.count: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.self: defaultdict = defaultdict(float)
        self.durations: defaultdict = defaultdict(list)
        self.extras: defaultdict = defaultdict(list)
        self.self_by_doc = [defaultdict(float) for _ in docs]
        self.threads_by_doc = [set() for _ in docs]
        self.totals: Counter = Counter()
        for n_doc, doc in enumerate(docs):
            self.totals.update(doc["totals"])
            spans = doc["spans"]
            child_time = [0.0] * len(spans)
            for span in spans:
                if span[PARENT] >= 0:
                    child_time[span[PARENT]] += span[END] - span[START]
            for n, (name, start, end, _parent, _rid, thread, extra) in enumerate(spans):
                if name in WHOLE_RUN:
                    self.durations[name].append(end - start)
                    if extra:
                        self.extras[name].append(extra)
                    continue
                if start < lo or end > hi:
                    continue
                duration = end - start
                self.count[name] += 1
                self.busy[name] += duration
                self.self[name] += duration - child_time[n]
                self.self_by_doc[n_doc][name] += duration - child_time[n]
                self.durations[name].append(duration)
                self.threads_by_doc[n_doc].add(thread)
                if extra:
                    self.extras[name].append(extra)

    def layer(self, table, prefix: str) -> float:
        return sum(v for k, v in table.items() if k.startswith(prefix))

    def extra_sum(self, prefix: str, key: str) -> float:
        return sum(
            e.get(key, 0) for name, extras in self.extras.items()
            if name.startswith(prefix) for e in extras
        )

    def starts(self, prefix: str) -> int:
        """Generator-proxied calls: first resumptions, not resumptions."""
        return int(self.extra_sum(prefix, "first"))


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def derive(agg: Aggregate, walls: list[float], overhead_ratio: float,
           policy_wait_sim_s: float) -> dict:
    """Every per-layer metric of ``BENCHMARK.json`` from aggregated spans."""
    count, busy, self_time, totals = agg.count, agg.busy, agg.self, agg.totals

    processes = Counter(
        e["process"] for extras in agg.extras.values() for e in extras if "process" in e
    )
    shard_calls = Counter(e["shard"] for e in agg.extras["router.shard_call"])
    over_http = agg.layer(count, "controller.") > 0
    client_calls = agg.layer(count, "client.") if over_http else agg.starts("client.")
    client_durations = [d for k, v in agg.durations.items() if k.startswith("client.") for d in v]
    service_durations = [d for k, v in agg.durations.items() if k.startswith("service.") for d in v]
    call_durations = sorted(client_durations if over_http else service_durations)
    router_calls = agg.layer(count, "router.") - count["router.shard_call"]

    metrics = {
        "workflow.generate_s": sum(agg.durations["workflow.generate"]),
        "workflow.jobs": agg.extra_sum("workflow.generate", "jobs"),
        "planner.plan_s": busy["planner.plan"],
        "planner.jobs": agg.extra_sum("planner.plan", "jobs"),
        "catalogs.lookups": count["catalogs.lookup"],
        "catalogs.lookup_s": busy["catalogs.lookup"],
        "des.events": totals["des.events"],
        "des.run_s": busy["des.run"],
        "des.events_per_s": _ratio(totals["des.events"], busy["des.run"]),
        # Kernel heap work plus event callbacks that belong to no named
        # process (resource grants, condition events); these cannot be
        # split further from outside the program.
        "des.callback_self_s": self_time["des.run"],
        "net.transfers": count["net.start_transfer"],
        "net.start_transfer_s": busy["net.start_transfer"],
        "net.solver_self_s": self_time["net.solver"],
        "net.gridftp_transfers": agg.starts("net.gridftp"),
        "net.transfer_failures": agg.extra_sum("net.gridftp", "failed"),
        "engine.jobs": processes["job-"],
        "engine.retries": agg.extra_sum("engine.dagman", "retries"),
        "engine.dagman_self_s": self_time["engine.dagman"],
        "engine.runner_self_s": self_time["engine.runner"],
        "engine.ptt_self_s": self_time["engine.ptt"],
        "engine.cleanup_self_s": self_time["engine.cleanup"],
        "engine.policy_wait_sim_s": policy_wait_sim_s,
        "client.calls": client_calls,
        "client.busy_s": agg.layer(busy, "client."),
        "client.self_s": agg.layer(self_time, "client."),
        "client.retries": totals["client.retries"],
        "client.failures": agg.extra_sum("client.", "error"),
        "rest.requests": agg.layer(count, "controller."),
        "rest.errors": agg.extra_sum("client.", "error") if over_http else 0,
        "rest.overhead_ms": (
            (statistics.median(client_durations) - statistics.median(service_durations)) * 1e3
            if over_http and service_durations else 0.0
        ),
        "rest.bytes_in": agg.extra_sum("controller.", "bytes_in"),
        "rest.bytes_out": agg.extra_sum("controller.", "bytes_out"),
        "controller.self_s": agg.layer(self_time, "controller."),
        **{f"service.calls.{op}": count[f"service.{op}"] for op in SERVICE_OPS},
        **{f"service.busy_s.{op}": busy[f"service.{op}"] for op in SERVICE_OPS},
        "service.self_s": agg.layer(self_time, "service."),
        "service.sessions": count["rules.session_init"],
        "service.resident_facts_max": max(
            (e["facts"] for k, v in agg.extras.items() if k.startswith("service.")
             for e in v if "facts" in e), default=0),
        "rules.fire_all_calls": count["rules.fire_all"],
        "rules.fire_all_s": busy["rules.fire_all"],
        "rules.firings": totals["rules.firings"],
        "rules.activations": totals["rules.activations"],
        "rules.firings_per_activation": _ratio(totals["rules.firings"], totals["rules.activations"]),
        "rules.match_s": totals["rules.match_s"],
        "rules.action_s": totals["rules.action_s"],
        "rules.wm_ops": count["rules.wm"],
        "rules.wm_s": busy["rules.wm"],
        "journal.commits": count["journal.commit"],
        "journal.commit_s": busy["journal.commit"],
        "journal.snapshots": count["journal.snapshot"],
        "journal.snapshot_s": busy["journal.snapshot"],
        "journal.bytes_per_commit": _ratio(
            agg.extra_sum("journal.commit", "bytes"), count["journal.commit"]),
        "journal.load_s": (
            statistics.median(agg.durations["journal.load"])
            if agg.durations["journal.load"] else 0.0
        ),
        "provenance.records": count["provenance.log_add"],
        "provenance.ledger_snapshots": count["provenance.ledger_snapshot"],
        "provenance.ledger_snapshot_s": busy["provenance.ledger_snapshot"],
        "provenance.record_build_s": busy["provenance.record_build"],
        "router.calls": router_calls,
        "router.busy_s": agg.layer(busy, "router.") - busy["router.shard_call"],
        "router.self_s": agg.layer(self_time, "router."),
        "router.shard_calls": sum(shard_calls.values()),
        "router.fanout": _ratio(sum(shard_calls.values()), router_calls),
        "router.shard_imbalance": _ratio(
            max(shard_calls.values(), default=0),
            statistics.fmean(shard_calls.values()) if shard_calls else 0),
        "catalog.ops": count["catalog.op"],
        "catalog.busy_s": busy["catalog.op"],
        "catalog.hits": totals["catalog.hits"],
        "catalog.selected": totals["catalog.selected"],
        "catalog.census_s": busy["catalog.census"],
        "tenancy.admitted": processes["tenant-run-"],
        "tenancy.busy_s": agg.layer(self_time, "tenancy."),
        # every submission is queued at simulated time 0, so a tenant
        # run's start time is how long it waited for admission
        "tenancy.queue_wait_sim_s": sum(
            e["sim_now"] for e in agg.extras["tenancy.dispatch"]
            if e.get("process") == "tenant-run-"),
        "trace.overhead_ratio": overhead_ratio,
        # Wall of the timed phase that no span's self time explains.  The
        # bench process's spans run on len(threads) threads, each of
        # which can cover the wall once.
        "trace.unattributed_s": max(
            0.0,
            sum(walls) - sum(agg.self_by_doc[0].values()) / max(1, len(agg.threads_by_doc[0]))),
        "trace.call_p99_ms": (
            call_durations[int(0.99 * (len(call_durations) - 1))] * 1e3
            if call_durations else 0.0
        ),
    }
    return metrics


def layer_shares(agg: Aggregate, walls: list[float]) -> dict:
    """Self time per layer (first name component) as a share of the wall.

    With a traced child process (the REST server) the shares are the
    child's: its requests are serialised by the service lock, so they
    add up to at most the wall and the rest is HTTP, JSON, the client
    and lock wait.
    """
    children = agg.self_by_doc[1:]
    shares: defaultdict = defaultdict(float)
    for table in children or agg.self_by_doc:
        for name, seconds in table.items():
            shares[name.split(".")[0]] += seconds
    wall = sum(walls) * (1 if children else max(1, len(agg.threads_by_doc[0])))
    return {name: seconds / wall for name, seconds in sorted(shares.items())}
