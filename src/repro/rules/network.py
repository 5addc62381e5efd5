"""TREAT-style join network with memoized partial matches and lazy probes.

This is the matcher of every :class:`~repro.rules.engine.Session` (see
:mod:`repro.rules.compiler` for the static pass).  One
:class:`JoinNetwork` evaluates one rule pack against one working memory,
driven by the memory's change log:

* **Beta memories** — for every ``join``-plan rule and every position
  ``p``, the network memoizes the binding prefixes that satisfy
  positions ``0..p-1``, bucketed by the values position ``p``'s join key
  computes from the prefix.  A dirty fact at position ``p`` joins only
  its bucket instead of re-enumerating the frontier.
* **Lazy probes** — a dirty fact at the **last** position (the
  allocation counters updated by every firing) does not join its bucket
  eagerly.  A probe walks the bucket in activation-rank order and only
  materializes the next candidate; each firing therefore costs
  ``O(log n)`` bookkeeping instead of an ``O(n)`` frontier re-join,
  which would be quadratic over a batch.
* **Candidate heap** — candidates from all rules land in per-salience
  rank heaps keyed ``(sorted fact ids, definition order)``, the
  activation order of the engine's semantics.  Entries are validated at
  pop time (facts live, constraints, guards and gates re-evaluated
  against current memory), so the store only ever needs to be a
  *superset* of the true activations: the first valid pop is provably
  the activation a full rescan (:mod:`repro.rules.reference`) would
  fire.
* **Alpha routing, tier-lazy sync** — a scan routes the change-log tail
  to the pending lists of the rules each mutation can concern, judged by
  the rule's position-0 alpha memory (``docs/engine.md``); a rule
  applies them only when its salience tier is about to be popped, so
  rules below a busy tier sync once per quiescence of the tiers above,
  not once per firing.
* **Read-gated updates** — an update whose changed attributes the rule
  reads none of (``RulePlan.reads``) cannot change what the rule
  matches, only the versions refraction keys on: routing re-offers the
  rule's spent candidates binding the fact instead of queuing the
  change, so they fire again exactly as re-derived ones would.
* **Spent candidates** — a candidate that was popped and is still a
  match (it fired, or refraction / ``no_loop`` held it back) stays in
  the store but not in the heap.  :meth:`JoinNetwork.rearm` pushes
  those back, so a network that outlives one evaluation offers the next
  one exactly what a freshly built network would.

The :class:`~repro.rules.engine.Session` firing loop owns refraction,
``no_loop`` suppression, tracing, profiling and the divergence guard; it
builds the network on its first evaluation and re-arms it on ``reset()``.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right, insort
from typing import Any, Optional

from repro.rules.compiler import PLAN_JOIN, CompiledRuleset, RulePlan
from repro.rules.engine import Session, _activation_key
from repro.rules.facts import Fact, WorkingMemory
from repro.rules.patterns import Absent, Collect, _check

__all__ = ["JoinNetwork"]

_MISSING = object()


def _feeds(later: tuple, fact: Fact) -> bool:
    """Do ``fact``'s attributes equal the constant keys of one of these
    positions?  (A mismatch refutes the position's constraints.)"""
    for const_keys in later:
        for attr, value in const_keys:
            if getattr(fact, attr, _MISSING) != value:
                break
        else:
            return True
    return False


class _PrefixEntry:
    """A memoized partial match: bindings satisfying positions 0..p-1."""

    __slots__ = ("fids", "rank", "bindings", "facts", "bucket_key", "alive")

    def __init__(self, fids: tuple, bindings: dict, facts: tuple, bucket_key):
        self.fids = fids                     # position-ordered fact ids
        self.rank = tuple(sorted(fids))      # activation-rank prefix
        self.bindings = bindings
        self.facts = facts                   # position-ordered facts
        self.bucket_key = bucket_key
        self.alive = True


class _Bucket:
    """Rank-sorted slots of one beta-memory bucket, with tombstones.

    ``gen`` counts structural changes (inserts and compactions) so probe
    cursors know when their saved index into ``ranked`` went stale and a
    marker re-bisect is needed; between changes a cursor walks by plain
    index increments.
    """

    __slots__ = ("ranked", "inlist", "dead", "gen")

    def __init__(self) -> None:
        self.ranked: list[tuple[tuple, tuple]] = []  # (rank, fids), sorted
        self.inlist: set = set()
        self.dead = 0
        self.gen = 0

    def add(self, entry: _PrefixEntry) -> None:
        if entry.fids in self.inlist:
            self.dead -= 1  # its tombstoned slot is live again
            return
        insort(self.ranked, (entry.rank, entry.fids))
        self.inlist.add(entry.fids)
        self.gen += 1

    def compact(self, entries: dict) -> None:
        live = [
            slot for slot in self.ranked
            if (e := entries.get(slot[1])) is not None
            and e.alive and e.rank == slot[0]
        ]
        self.ranked = live
        self.inlist = {fids for _rank, fids in live}
        self.dead = 0
        self.gen += 1


class _PrefixStore:
    """Beta memory feeding one join position of one rule: prefixes
    bucketed by the key the position's constraints compute from them
    (``()`` for every prefix of an unconstrained position)."""

    __slots__ = ("element", "entries", "by_fid", "buckets")

    def __init__(self, position) -> None:
        self.element = position.element
        self.entries: dict[tuple, _PrefixEntry] = {}
        self.by_fid: dict[int, set] = {}
        self.buckets: dict[tuple, _Bucket] = {}

    def add(self, fids: tuple, bindings: dict, facts: tuple) -> Optional[_PrefixEntry]:
        """Store a prefix; None when it is already stored or extends to
        nothing here (a reference its constraints cannot read)."""
        if fids in self.entries:  # only live entries are kept there
            return None
        key = self.element.key(bindings)
        if key is None:
            return None
        bucket = self.buckets.get(key)
        if bucket is None:
            bucket = self.buckets[key] = _Bucket()
        entry = self.entries[fids] = _PrefixEntry(fids, bindings, facts, key)
        by_fid = self.by_fid
        for fid in fids:
            refs = by_fid.get(fid)
            if refs is None:
                by_fid[fid] = {fids}
            else:
                refs.add(fids)
        bucket.add(entry)
        return entry

    def discard_fid(self, fid: int) -> None:
        for fids in self.by_fid.pop(fid, ()):
            entry = self.entries.get(fids)
            if entry is None or not entry.alive:
                continue
            entry.alive = False
            del self.entries[fids]
            for other in fids:
                if other != fid:
                    refs = self.by_fid.get(other)
                    if refs is not None:
                        refs.discard(fids)
                        if not refs:
                            del self.by_fid[other]
            bucket = self.buckets.get(entry.bucket_key)
            if bucket is not None:
                bucket.dead += 1
                if bucket.dead == len(bucket.ranked):
                    # Nothing alive under this key any more.  Keys are
                    # as many as the values ever joined on (every lfn a
                    # long-lived service has seen), so an empty bucket
                    # is forgotten, not kept; a probe still holding it
                    # just finds it exhausted.
                    del self.buckets[entry.bucket_key]
                # Fired prefixes die in rank order, piling tombstones at
                # the front of the ranked list where every fresh probe
                # starts its walk — compact early (bounds a probe's dead
                # skips at len/16) but proportionally (a big bucket with
                # scattered deaths still compacts only O(log) times).
                elif bucket.dead > 8 and bucket.dead * 16 >= len(bucket.ranked):
                    bucket.compact(self.entries)

    def bucket_for(self, fact: Fact) -> Optional[_Bucket]:
        """The bucket of the prefixes ``fact`` may extend: the one keyed
        by its own attributes, so they meet the constraints; None when
        no prefix has that key."""
        return self.buckets.get(self.element.fact_key(fact))

    def joinable(self, fact: Fact):
        """Live prefixes ``fact`` may extend."""
        bucket = self.bucket_for(fact)
        if bucket is not None:
            for _rank, fids in bucket.ranked:
                entry = self.entries.get(fids)
                if entry is not None and entry.alive:
                    yield entry


class _Cand:
    """A stored candidate activation (a superset member, validated at pop)."""

    __slots__ = ("key_fids", "facts", "alive")

    def __init__(self, key_fids: tuple, facts: tuple):
        self.key_fids = key_fids   # sorted bound fids = agenda rank
        self.facts = facts         # position-ordered Pattern facts (None if unbound)
        self.alive = True


class _Probe:
    """Lazy enumeration of one dirty last-position fact against the
    prefix frontier, in activation-rank order.

    The cursor into the bucket is a plain index validated against the
    bucket's ``gen``; the rank marker (last consumed slot) is only used
    to re-bisect after the bucket mutated underneath the probe, so the
    steady-state walk costs O(1) per slot instead of O(log n)."""

    __slots__ = ("driver", "fid", "store", "bucket", "marker", "gen", "next", "alive")

    def __init__(self, driver: Fact, fid: int, store: _PrefixStore, bucket: _Bucket):
        self.driver = driver
        self.fid = fid
        self.store = store
        self.bucket = bucket  # store.bucket_for(driver)
        self.marker = ((), ())
        self.gen = -1
        self.next = 0
        self.alive = True

    def next_entry(self) -> Optional[_PrefixEntry]:
        """The next live prefix entry in rank order (guards not applied)."""
        bucket = self.bucket
        if self.gen != bucket.gen:
            self.gen = bucket.gen
            self.next = bisect_right(bucket.ranked, self.marker)
        ranked = bucket.ranked
        entries = self.store.entries
        while self.next < len(ranked):
            slot = self.marker = ranked[self.next]
            self.next += 1
            entry = entries.get(slot[1])
            if entry is not None and entry.alive and entry.rank == slot[0]:
                return entry
        return None


class _RuleState:
    """Per-network runtime state of one rule."""

    __slots__ = ("plan", "tier", "pending", "cands", "by_fid", "stores",
                 "probes", "alpha", "refs")

    def __init__(self, plan: RulePlan, tier: int):
        self.plan = plan
        self.tier = tier
        # change-log entries routed to this rule and not yet applied
        self.pending: list = []
        self.cands: dict[tuple, _Cand] = {}
        self.by_fid: dict[int, set] = {}
        # join plans: beta memory feeding position p lives at stores[p]
        # (prefixes over positions 0..p-1); stores[0] is unused.
        self.stores: list[Optional[_PrefixStore]] = []
        self.probes: dict[int, _Probe] = {}
        # position-0 alpha memory: fids of the facts matching the first
        # Pattern (None when the first element is no Pattern)
        self.alpha: Optional[set[int]] = None
        # the fid-keyed maps above: a fid in none of them is referenced
        # by nothing this rule stores
        self.refs: tuple = ()


class JoinNetwork:
    """Runtime join network over one working memory (see module docs)."""

    def __init__(
        self,
        ruleset: CompiledRuleset,
        memory: WorkingMemory,
        globals_dict: dict,
        profiler: Optional[Any] = None,
    ):
        self.ruleset = ruleset
        self.memory = memory
        self.seed = {"_globals": globals_dict}
        self.profiler = profiler
        self._serial = 0
        #: the memory clock up to which the change log has been routed
        self.seq = -1
        self._states: dict[str, _RuleState] = {}
        # per salience tier (as ``ruleset.tiers``): the rules with
        # pending mutations, and the rank heap
        self._dirty: list[list[_RuleState]] = []
        self._heaps: list[list] = []
        # (concrete fact type, changed attributes) -> ``_route``'s answer
        self._routes: dict[tuple, tuple] = {}
        # popped candidates that are still matches, awaiting rearm() or a
        # re-offer: exactly the live candidates in no heap
        self._spent: dict[_Cand, _RuleState] = {}
        self._build_all()
        memory.add_reader(self)

    # ------------------------------------------------------------- build
    def _build_all(self) -> None:
        self._heaps = [[] for _ in self.ruleset.tiers]
        self._dirty = [[] for _ in self.ruleset.tiers]
        self._routes = {}
        self._spent.clear()
        # Build in definition order so candidate discovery order (the
        # heap tie-breaker) is the order a full rescan enumerates in.
        self._states = {
            plan.rule.name: _RuleState(plan, tier)
            for tier, plans in enumerate(self.ruleset.tiers) for plan in plans
        }
        for plan in self.ruleset.plans:
            self._build_rule(self._states[plan.rule.name])
        self.seq = self.memory.clock

    def _build_rule(self, state: _RuleState) -> None:
        plan = state.plan
        memory, seed = self.memory, self.seed
        profiler = self.profiler
        t0 = profiler.clock() if profiler is not None else 0.0
        if plan.alpha is not None:
            head = plan.alpha.element
            state.alpha = {
                memory.fid_of(fact) for fact in head.candidates(memory, seed)
                if _check(head.where, fact, seed)
            }
        if plan.kind == PLAN_JOIN:
            state.stores = [None] + [
                _PrefixStore(pos) for pos in plan.positions[1:]
            ]
            state.refs = (
                state.by_fid, state.probes, *(s.by_fid for s in state.stores[1:])
            )
            frontier = [((), seed, ())]
            for pos in plan.positions[:-1]:
                element = pos.element
                store = state.stores[pos.index + 1]
                nxt = []
                for fids, bindings, facts in frontier:
                    for fact in element.candidates(memory, bindings):
                        if not _check(element.where, fact, bindings):
                            continue
                        child = (
                            fids + (memory.fid_of(fact),),
                            {**bindings, element.binding: fact},
                            facts + (fact,),
                        )
                        store.add(*child)
                        nxt.append(child)
                frontier = nxt
                if not frontier:
                    break
            last = plan.positions[-1].element
            for fids, bindings, facts in frontier:
                for fact in last.candidates(memory, bindings):
                    if _check(last.where, fact, bindings):
                        self._add_cand(
                            state, tuple(sorted(fids + (memory.fid_of(fact),))), facts + (fact,)
                        )
        else:
            state.refs = (state.by_fid,)
            self._rebuild_delta(state)
        if profiler is not None:
            profiler.record_match(
                plan.rule.name, len(state.cands), profiler.clock() - t0
            )

    def _rebuild_delta(self, state: _RuleState) -> None:
        """(Re)enumerate a delta-plan rule from scratch."""
        self._drop_all(state)
        self._add_matches(state, state.plan.rule.matches(self.memory, self.seed))

    def _add_matches(self, state: _RuleState, matches: list[dict]) -> None:
        memory, plan = self.memory, state.plan
        for bindings in matches:
            self._add_cand(
                state,
                _activation_key(memory, plan.rule, bindings)[1],
                tuple(
                    bindings.get(pos.binding) if pos.binding else None
                    for pos in plan.positions
                ),
            )

    # ------------------------------------------------------- candidates
    def _add_cand(self, state: _RuleState, key_fids: tuple, facts: tuple) -> None:
        existing = state.cands.get(key_fids)
        if existing is not None and existing.alive:
            return
        cand = self._store_cand(state, key_fids, facts)
        self._push(state, key_fids, ("c", state, cand))

    @staticmethod
    def _store_cand(state: _RuleState, key_fids: tuple, facts: tuple) -> _Cand:
        cand = state.cands[key_fids] = _Cand(key_fids, facts)
        by_fid = state.by_fid
        for fid in key_fids:
            refs = by_fid.get(fid)
            if refs is None:
                by_fid[fid] = {key_fids}
            else:
                refs.add(key_fids)
        return cand

    def rearm(self) -> None:
        """Offer again every candidate an earlier evaluation consumed.

        Called when the owning session is reset: with its refraction and
        ``no_loop`` memory gone, a stored match that already fired is
        fireable again, as it would be in a network built from scratch.
        Costs one push per candidate still alive, i.e. per activation
        the coming evaluation will consider anyway.
        """
        spent, self._spent = self._spent, {}
        for cand, state in spent.items():
            self._push(state, cand.key_fids, ("c", state, cand))

    def _reoffer(self, state: _RuleState, keys: set) -> None:
        """Push back the spent candidates among ``keys`` (one of
        ``state.by_fid``'s sets): a fact they bind was updated in nothing
        the rule reads, so they still match, under a new version."""
        profiler = self.profiler
        t0 = profiler.clock() if profiler is not None else 0.0
        spent, cands = self._spent, state.cands
        for key_fids in keys:
            cand = cands.get(key_fids)
            if cand is not None and spent.pop(cand, None) is not None:
                self._push(state, key_fids, ("c", state, cand))
        if profiler is not None:
            profiler.record_match(state.plan.rule.name, 0, profiler.clock() - t0)

    def _drop_routed(self, state: _RuleState, fid: int) -> None:
        """:meth:`_drop_fid`, made while routing instead of by a sync."""
        profiler = self.profiler
        if profiler is None:
            self._drop_fid(state, fid)
            return
        t0 = profiler.clock()
        self._drop_fid(state, fid)
        profiler.record_match(state.plan.rule.name, 0, profiler.clock() - t0)

    def _push(self, state: _RuleState, rank: tuple, payload: tuple) -> None:
        self._serial += 1
        heapq.heappush(
            self._heaps[state.tier],
            (rank, state.plan.order, self._serial, payload),
        )

    def _drop_fid(self, state: _RuleState, fid: int) -> None:
        """Tombstone every candidate, prefix and probe that binds ``fid``."""
        spent = self._spent
        for key_fids in state.by_fid.pop(fid, ()):
            cand = state.cands.get(key_fids)
            if cand is None or not cand.alive:
                continue
            cand.alive = False
            del state.cands[key_fids]
            spent.pop(cand, None)
            for other in key_fids:
                if other != fid:
                    refs = state.by_fid.get(other)
                    if refs is not None:
                        refs.discard(key_fids)
                        if not refs:
                            del state.by_fid[other]
        if state.stores:
            for store in state.stores[1:]:
                if fid in store.by_fid:
                    store.discard_fid(fid)
            probe = state.probes.pop(fid, None)
            if probe is not None:
                probe.alive = False

    def _drop_all(self, state: _RuleState) -> None:
        spent = self._spent
        for cand in state.cands.values():
            cand.alive = False
            spent.pop(cand, None)
        state.cands.clear()
        state.by_fid.clear()

    # ------------------------------------------------------------- sync
    def _route_changes(self) -> None:
        """Hand the mutations since the last scan to the rules they concern.

        A rule whose first condition element is a Pattern keeps the fids
        matching that pattern — its position-0 alpha memory, exact
        after every call — and is handed a mutation only when the fact
        is in or enters it, when the fid is referenced by what the rule
        stores, or, while the memory is non-empty, when the fact can
        feed a gate or a later position (``docs/engine.md``, "Alpha
        routing", has the conditions and why skipping the rest is
        sound).  A fact leaving the alpha memory of a rule in which its
        type fills position 0 only is dropped from the rule at once: the
        sync could do nothing else.  Any other rule sees every mutation
        of its types.  A routed rule syncs when its salience tier is
        reached.

        An update that changes no attribute the rule reads is never
        queued: the rule's stored candidates binding the fact are
        re-offered instead ("Read-gated updates").
        """
        memory = self.memory
        if self.seq == memory.clock:
            return
        changes = memory.changes_since(self.seq)
        if changes is None:
            # Fell behind the bounded change log: rebuild everything.
            self._build_all()
            return
        self.seq = seq = memory.clock
        if seq >= memory.trim_at:
            memory.trim()
        seed, routes, dirty = self.seed, self._routes, self._dirty
        for change in changes:
            fid, fact, op, changed = change
            key = (type(fact), changed)
            route = routes.get(key)
            if route is None:
                route = routes[key] = self._route(*key)
            unread, groups = route
            for state in unread:
                # nothing the rule matches on moved: alpha membership
                # and what is stored stand
                keys = state.by_fid.get(fid)
                if keys:
                    self._reoffer(state, keys)
            for heads, members in groups:
                fits = heads is not None and op != "r" and _feeds(heads, fact)
                for state, where, wide, later in members:
                    alpha = state.alpha
                    if alpha is None:
                        pass
                    elif fits and _check(where, fact, seed):
                        alpha.add(fid)
                    elif fid in alpha:
                        alpha.discard(fid)
                        if later is None:
                            # the type fills position 0 only: a sync
                            # could only drop what binds the fact
                            self._drop_routed(state, fid)
                            continue
                    elif later is None:
                        # the type reaches position 0 only, and what is
                        # stored for that position is in the alpha memory
                        continue
                    elif not (alpha and (wide or (later and _feeds(later, fact)))):
                        for refs in state.refs:
                            if fid in refs:
                                break
                        else:
                            continue
                    if not state.pending:
                        dirty[state.tier].append(state)
                    state.pending.append(change)

    def _route(self, fact_type: type, changed: Optional[frozenset]) -> tuple:
        """How a mutation of ``fact_type`` that changed the attributes
        ``changed`` is routed (None: an insert, a retract or an update
        of unknown attributes), decided once per pair.

        Returns the rules that read none of ``changed``, whose stored
        candidates binding the fact are re-offered; and the other rules
        the mutation may concern, grouped by the constraints of the
        position 0 it feeds (None: it feeds none; constants only, as no
        binding precedes position 0) so one comparison refuses a whole
        group.  A rule with unbounded reads or a Collect gate is never in
        the first part."""
        unread, groups = [], {}
        for plan, route in self.ruleset.dispatch(fact_type):
            state = self._states[plan.rule.name]
            reads = None if any(isinstance(g, Collect) for g in plan.gates) else plan.reads
            if changed is not None and reads is not None and changed.isdisjoint(reads):
                unread.append(state)
                continue
            head, wide, later = route or (None, True, ())
            heads, where = ((head.const_keys,), head.element.where) if head else (None, None)
            groups.setdefault(heads, []).append((state, where, wide, later))
        return tuple(unread), list(groups.items())

    def _sync_tier(self, dirty: list[_RuleState]) -> None:
        """Apply the pending mutations of one tier's dirty rules."""
        profiler = self.profiler
        for state in dirty:
            changes, state.pending = state.pending, []
            t0 = profiler.clock() if profiler is not None else 0.0
            before = len(state.cands)
            self._sync_rule(state, changes)
            if profiler is not None:
                profiler.record_match(
                    state.plan.rule.name,
                    max(len(state.cands) - before, 0),
                    profiler.clock() - t0,
                )
        dirty.clear()

    def _sync_rule(self, state: _RuleState, dirty: list) -> None:
        plan = state.plan
        if plan.kind == PLAN_JOIN:
            self._sync_join(state, dirty)
        elif plan.gates and self._gates_dirty(state, dirty):
            self._rebuild_delta(state)
        else:
            self._delta_patterns(state, dirty)

    @staticmethod
    def _gates_dirty(state: _RuleState, dirty: list) -> bool:
        """Could any of these mutations flip an Absent/Collect gate?

        Only a flip *towards* matching forces a rebuild — gates flipping
        away are caught by pop-time validation.  An ``Absent`` insert can
        only invalidate, and an update whose changed attributes are
        disjoint from what the gate reads (``RulePlan.gate_reads``)
        provably leaves the gate's truth (and a Collect's membership)
        untouched.  A fact a stored candidate collects is the exception:
        its version is part of the activation's identity, and the
        delta path cannot re-derive a match from a collected fact.
        """
        plan, by_fid = state.plan, state.by_fid
        for fid, fact, op, changed in dirty:
            for gate, reads in zip(plan.gates, plan.gate_reads):
                if not isinstance(fact, gate.fact_type):
                    continue
                if op == "i" and isinstance(gate, Absent):
                    continue
                if (
                    op == "u"
                    and changed is not None
                    and reads is not None
                    and changed.isdisjoint(reads)
                    and not (fid in by_fid and isinstance(gate, Collect))
                ):
                    continue
                return True
        return False

    def _touched(self, state: _RuleState, dirty: list):
        """Tombstone what these mutations touched in ``state``; returns
        the distinct facts among them that are still in memory."""
        contains = self.memory.contains
        if len(dirty) == 1:  # the usual scan: one fact changed
            self._drop_fid(state, dirty[0][0])
            fact = dirty[0][1]
            return (fact,) if contains(fact) else ()
        for fid in {change[0] for change in dirty}:
            self._drop_fid(state, fid)
        return {
            id(change[1]): change[1] for change in dirty if contains(change[1])
        }.values()

    def _delta_patterns(self, state: _RuleState, dirty: list) -> None:
        """Delta plan: drop touched candidates, re-join dirty facts at
        every Pattern position."""
        live = self._touched(state, dirty)
        if not live:
            return
        rule, alpha, fid_of = state.plan.rule, state.alpha, self.memory.fid_of
        if state.plan.lone:  # alpha membership is the whole match
            for fact in live:
                if (fid := fid_of(fact)) in alpha:
                    self._add_cand(state, (fid,), (fact,))
            return
        for pos in state.plan.positions:
            candidates = [
                f for f in live if isinstance(f, pos.fact_type)
                # position 0's match is the one routing evaluated
                and (pos.index or alpha is None or fid_of(f) in alpha)
            ]
            if candidates:
                self._add_matches(state, rule.matches(
                    self.memory, self.seed, restrict=(pos.index, candidates)
                ))

    def _sync_join(self, state: _RuleState, dirty: list) -> None:
        live = self._touched(state, dirty)
        if not live:
            return
        memory = self.memory
        fid_of = memory.fid_of
        positions, stores = state.plan.positions, state.stores
        # A dirty fact at the last position (a counter every firing
        # updates) joins the whole frontier: it goes lazy, one probe
        # each — over the prefixes that exist now; the ones added below
        # extend eagerly.  No prefix to walk, no probe.
        last = len(positions) - 1
        for fact in live:
            if isinstance(fact, positions[last].fact_type):
                bucket = stores[last].bucket_for(fact)
                if bucket is not None:
                    fid = fid_of(fact)
                    probe = state.probes[fid] = _Probe(fact, fid, stores[last], bucket)
                    self._advance_probe(state, probe)
        # Re-derive prefixes left to right; these cascades stay eager (a
        # dirty transfer joins few counters).  ``new`` holds the
        # prefixes added over positions 0..p-1.
        new: list[_PrefixEntry] = []
        for p, pos in enumerate(positions):
            element = pos.element
            where, binding = element.where, element.binding
            grown: list[Optional[_PrefixEntry]] = []
            # New prefixes extend over the full extent at this position.
            for prefix in new:
                bindings = prefix.bindings
                for fact in element.candidates(memory, bindings):
                    if not _check(where, fact, bindings):
                        continue
                    fids, facts = prefix.fids + (fid_of(fact),), prefix.facts + (fact,)
                    if p == last:
                        self._add_cand(state, tuple(sorted(fids)), facts)
                    else:
                        grown.append(stores[p + 1].add(
                            fids, {**bindings, binding: fact}, facts
                        ))
            if p == last:
                return
            for fact in live:
                if not isinstance(fact, pos.fact_type):
                    continue
                fid = fid_of(fact)
                if p == 0:
                    if fid in state.alpha:  # the match routing evaluated
                        grown.append(stores[1].add(
                            (fid,), {**self.seed, binding: fact}, (fact,)
                        ))
                    continue
                # the prefixes' bucket is keyed by the fact's own
                # attributes: the constraints hold, the guard decides
                for prefix in stores[p].joinable(fact):
                    if _check(where, fact, prefix.bindings):
                        grown.append(stores[p + 1].add(
                            prefix.fids + (fid,),
                            {**prefix.bindings, binding: fact},
                            prefix.facts + (fact,),
                        ))
            new = [entry for entry in grown if entry is not None]

    def _advance_probe(self, state: _RuleState, probe: _Probe) -> None:
        """Push the probe's next head into the heap, guard *unchecked*.

        The head is only a rank claim — pop-time validation applies the
        guard.  Deferring the check is what makes probes O(1) per
        firing: a rule whose guard currently rejects everything (e.g. a
        partial-grant variant while the pool still has room) never pops,
        because a better candidate of equal rank and earlier definition
        order wins the heap, so its probe never walks the frontier."""
        if not probe.alive:
            return
        entry = probe.next_entry()
        if entry is None:
            return
        if self.profiler is not None:
            self.profiler.record_node(state.plan.rule.name, "probe_steps")
        rank = tuple(sorted(entry.fids + (probe.fid,)))
        self._push(state, rank, ("p", state, probe, entry))

    # -------------------------------------------------------------- pop
    def next_activation(self, session: Session):
        """The next fireable ``(rank, rule, bindings, key)``, or None."""
        self._route_changes()
        for dirty, heap in zip(self._dirty, self._heaps):
            if dirty:
                self._sync_tier(dirty)
            while heap:
                rank, order, _serial, payload = heapq.heappop(heap)
                kind = payload[0]
                if kind == "c":
                    _tag, state, cand = payload
                    if not cand.alive:
                        continue
                    result = self._validate(session, state, cand.facts, order)
                    if result == "dead":
                        cand.alive = False
                        state.cands.pop(cand.key_fids, None)
                        for fid in cand.key_fids:
                            refs = state.by_fid.get(fid)
                            if refs is not None:
                                refs.discard(cand.key_fids)
                        continue
                    self._spent[cand] = state
                    if result == "skip":
                        continue
                    return result
                _tag, state, probe, entry = payload
                if not probe.alive:
                    continue
                # Keep the probe chain alive before handling this head.
                self._advance_probe(state, probe)
                if not entry.alive:
                    continue
                existing = state.cands.get(rank)
                if existing is not None and existing.alive:
                    continue  # already covered by an eager candidate
                facts = entry.facts + (probe.driver,)
                result = self._validate(session, state, facts, order)
                if result == "dead":
                    continue
                # A match: from here on it is an ordinary (spent) candidate.
                self._spent[self._store_cand(state, rank, facts)] = state
                if result == "skip":
                    continue
                return result
        return None

    def _validate(self, session: Session, state: _RuleState, facts: tuple,
                  order: int):
        """Re-evaluate a candidate against current memory.

        Returns the ``(rank, rule, bindings, key)`` tuple when the
        activation is live and fireable, ``"dead"`` when it is no longer
        a match (drop and await re-derivation), ``"skip"`` when it is a
        match but must not fire in this evaluation (refraction /
        ``no_loop``, both forgotten by ``Session.reset``)."""
        memory = self.memory
        rule = state.plan.rule
        bindings = dict(self.seed)
        for element, slot in zip(rule.when, state.plan.slots):
            fact = facts[slot] if slot >= 0 else None
            if fact is None:
                # A gate or an unbound pattern (delta plan):
                # re-check against memory.
                expanded = element.expand(memory, bindings)
                if not expanded:
                    return "dead"
                if slot < 0:
                    bindings = expanded[0]
            elif (
                not memory.contains(fact)
                or not element.holds(fact, bindings)
                or not _check(element.where, fact, bindings)
            ):
                return "dead"
            elif element.binding:
                bindings[element.binding] = fact
        key = _activation_key(memory, rule, bindings)
        if key in session._fired or session._suppressed_by_no_loop(rule, key):
            return "skip"
        return ((key[1], order), rule, bindings, key)

    # ------------------------------------------------------------ stats
    def candidate_count(self) -> int:
        return sum(len(s.cands) for s in self._states.values())
