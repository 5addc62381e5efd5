"""TREAT-style join network with memoized partial matches and lazy probes.

This is the runtime of the compiled engine (see
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
  ``O(log n)`` bookkeeping instead of the ``O(n)`` frontier re-join that
  made the indexed engine quadratic over a batch.
* **Candidate heap** — candidates from all rules land in per-salience
  rank heaps keyed ``(sorted fact ids, definition order)``, the exact
  activation order of the interpreted engines.  Entries are validated at
  pop time (facts live, guards and gates re-evaluated against current
  memory), so the store only ever needs to be a *superset* of the true
  activations: the first valid pop is provably the same activation the
  seed and indexed engines would fire.
* **Tier-lazy sync** — a scan routes the change-log tail to per-rule
  pending lists; a rule applies them only when its salience tier is
  about to be popped, so rules below a busy tier sync once per
  quiescence of the tiers above, not once per firing.
* **Spent candidates** — a candidate that was popped and is still a
  match (it fired, or refraction / ``no_loop`` held it back) stays in
  the store but not in the heap.  :meth:`JoinNetwork.rearm` pushes
  those back, so a network that outlives one evaluation offers the next
  one exactly what a freshly built network would.

:class:`CompiledSession` plugs the network into the ordinary
:class:`~repro.rules.engine.Session` firing loop, inheriting refraction,
``no_loop`` suppression, tracing, profiling, and the divergence guard —
advice is byte-identical across ``seed``, ``indexed``, and ``compiled``.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right, insort
from typing import Any, Optional, Sequence

from repro.rules.compiler import (
    PLAN_JOIN,
    CompiledRuleset,
    RulePlan,
    compile_rules,
)
from repro.rules.engine import Rule, Session, _activation_key
from repro.rules.facts import Fact, WorkingMemory
from repro.rules.patterns import Absent, Pattern, _check

__all__ = ["JoinNetwork", "CompiledSession"]

_MISSING = object()


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
    """Beta memory feeding one join position of one rule."""

    __slots__ = ("key_attrs", "key_fns", "entries", "by_fid", "buckets", "wildcard")

    def __init__(self, position) -> None:
        element = position.element
        self.key_attrs = position.key_attrs
        self.key_fns = (
            [element.keys[a] for a in position.key_attrs]
            if position.key_attrs is not None else None
        )
        self.entries: dict[tuple, _PrefixEntry] = {}
        self.by_fid: dict[int, set] = {}
        self.buckets: dict[tuple, _Bucket] = {}
        self.wildcard = _Bucket()

    def _entry_bucket(self, bindings: dict) -> tuple[Optional[tuple], _Bucket]:
        if self.key_fns is None:
            return None, self.wildcard
        try:
            key = tuple(fn(bindings) for fn in self.key_fns)
        except AttributeError:
            # Mirrors Pattern.candidates: a key fn that cannot be computed
            # falls back to the unkeyed path (the guard still decides).
            return None, self.wildcard
        bucket = self.buckets.get(key)
        if bucket is None:
            bucket = self.buckets[key] = _Bucket()
        return key, bucket

    def add(self, fids: tuple, bindings: dict, facts: tuple) -> Optional[_PrefixEntry]:
        existing = self.entries.get(fids)
        if existing is not None and existing.alive:
            return None
        key, bucket = self._entry_bucket(bindings)
        entry = _PrefixEntry(fids, bindings, facts, key)
        self.entries[fids] = entry
        for fid in fids:
            self.by_fid.setdefault(fid, set()).add(fids)
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
            bucket = (
                self.wildcard if entry.bucket_key is None
                else self.buckets.get(entry.bucket_key)
            )
            if bucket is not None:
                bucket.dead += 1
                if bucket.dead == len(bucket.ranked) and bucket is not self.wildcard:
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

    def buckets_for_fact(self, fact: Fact) -> tuple[_Bucket, _Bucket]:
        """The keyed bucket matching ``fact`` plus the wildcard bucket."""
        if self.key_attrs is None:
            return self.wildcard, self.wildcard
        key = tuple(getattr(fact, a, _MISSING) for a in self.key_attrs)
        bucket = self.buckets.get(key)
        if bucket is None or bucket is self.wildcard:
            return self.wildcard, self.wildcard
        return bucket, self.wildcard

    def live_in(self, bucket: _Bucket):
        entries = self.entries
        for _rank, fids in bucket.ranked:
            entry = entries.get(fids)
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

    The cursor into each bucket is a plain index validated against the
    bucket's ``gen``; the rank marker (last consumed slot) is only used
    to re-bisect after the bucket mutated underneath the probe, so the
    steady-state walk costs O(1) per slot instead of O(log n)."""

    __slots__ = ("driver", "fid", "store", "bucket", "wildcard",
                 "marker_b", "marker_w", "gen_b", "gen_w",
                 "next_b", "next_w", "alive")

    def __init__(self, driver: Fact, fid: int, store: _PrefixStore):
        self.driver = driver
        self.fid = fid
        self.store = store
        self.bucket, self.wildcard = store.buckets_for_fact(driver)
        start = ((), ())
        self.marker_b = start
        self.marker_w = start
        self.gen_b = -1
        self.gen_w = -1
        self.next_b = 0
        self.next_w = 0
        self.alive = True

    def next_entry(self) -> Optional[_PrefixEntry]:
        """The next live prefix entry in rank order (guards not applied)."""
        bucket, wildcard = self.bucket, self.wildcard
        same = bucket is wildcard
        if self.gen_b != bucket.gen:
            self.gen_b = bucket.gen
            self.next_b = bisect_right(bucket.ranked, self.marker_b)
        if not same and self.gen_w != wildcard.gen:
            self.gen_w = wildcard.gen
            self.next_w = bisect_right(wildcard.ranked, self.marker_w)
        ranked_b = bucket.ranked
        ranked_w = wildcard.ranked
        entries = self.store.entries
        while True:
            slot_b = ranked_b[self.next_b] if self.next_b < len(ranked_b) else None
            slot_w = (
                None if same
                else ranked_w[self.next_w] if self.next_w < len(ranked_w) else None
            )
            if slot_b is None and slot_w is None:
                return None
            if slot_w is None or (slot_b is not None and slot_b <= slot_w):
                slot = slot_b
                self.marker_b = slot
                self.next_b += 1
                if same:
                    self.marker_w = slot
            else:
                slot = slot_w
                self.marker_w = slot
                self.next_w += 1
            entry = entries.get(slot[1])
            if entry is not None and entry.alive and entry.rank == slot[0]:
                return entry


class _RuleState:
    """Per-network runtime state of one rule."""

    __slots__ = ("plan", "tier", "pending", "cands", "by_fid", "stores", "probes")

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
        self._seq = -1
        self._states: dict[str, _RuleState] = {}
        # rule states grouped like ``ruleset.tiers``, one heap per tier
        self._tiers: list[list[_RuleState]] = []
        self._heaps: list[list] = [[] for _ in ruleset.tiers]
        # popped candidates that are still matches, awaiting rearm()
        self._spent: list[tuple[_RuleState, _Cand]] = []
        self._build_all()

    # ------------------------------------------------------------- build
    def _build_all(self) -> None:
        self._heaps = [[] for _ in self.ruleset.tiers]
        self._spent.clear()
        self._tiers = [
            [_RuleState(plan, tier_index) for plan in tier]
            for tier_index, tier in enumerate(self.ruleset.tiers)
        ]
        self._states = {
            state.plan.rule.name: state for tier in self._tiers for state in tier
        }
        # Build in definition order so candidate discovery order (the
        # heap tie-breaker) matches the interpreted engines' enumeration.
        for plan in self.ruleset.plans:
            self._build_rule(self._states[plan.rule.name])
        self._seq = self.memory.clock

    def _build_rule(self, state: _RuleState) -> None:
        plan = state.plan
        profiler = self.profiler
        t0 = profiler.clock() if profiler is not None else 0.0
        before = len(state.cands)
        if plan.kind == PLAN_JOIN:
            state.stores = [None] + [
                _PrefixStore(pos) for pos in plan.positions[1:]
            ]
            memory = self.memory
            frontier = [((), self.seed, ())]
            for pos in plan.positions[:-1]:
                element = pos.element
                store = state.stores[pos.index + 1]
                nxt = []
                for fids, bindings, facts in frontier:
                    for fact in element.candidates(memory, bindings):
                        if not _check(element.where, fact, bindings):
                            continue
                        nb = dict(bindings)
                        nb[element.binding] = fact
                        child = (fids + (memory.fid_of(fact),), nb, facts + (fact,))
                        store.add(*child)
                        nxt.append(child)
                frontier = nxt
                if not frontier:
                    break
            last = plan.positions[-1].element
            for fids, bindings, facts in frontier:
                for fact in last.candidates(memory, bindings):
                    if _check(last.where, fact, bindings):
                        nb = dict(bindings)
                        nb[last.binding] = fact
                        self._add_cand(state, facts + (fact,), nb)
        else:
            self._rebuild_delta(state)
        if profiler is not None:
            profiler.record_match(
                plan.rule.name, len(state.cands) - before, profiler.clock() - t0
            )

    def _rebuild_delta(self, state: _RuleState) -> None:
        """(Re)enumerate a delta-plan rule from scratch."""
        self._drop_all(state)
        rule = state.plan.rule
        for bindings in rule.matches(self.memory, self.seed):
            facts = tuple(
                bindings.get(pos.binding) if pos.binding else None
                for pos in state.plan.positions
            )
            self._add_cand(state, facts, bindings)

    # ------------------------------------------------------- candidates
    def _add_cand(self, state: _RuleState, facts: tuple, bindings: dict) -> None:
        key_fids = _activation_key(self.memory, state.plan.rule, bindings)[1]
        existing = state.cands.get(key_fids)
        if existing is not None and existing.alive:
            return
        cand = self._store_cand(state, key_fids, facts)
        self._push(state, key_fids, ("c", state, cand))

    @staticmethod
    def _store_cand(state: _RuleState, key_fids: tuple, facts: tuple) -> _Cand:
        cand = _Cand(key_fids, facts)
        state.cands[key_fids] = cand
        for fid in key_fids:
            state.by_fid.setdefault(fid, set()).add(key_fids)
        return cand

    def rearm(self) -> None:
        """Offer again every candidate an earlier evaluation consumed.

        Called when the owning session is reset: with its refraction and
        ``no_loop`` memory gone, a stored match that already fired is
        fireable again, as it would be in a network built from scratch.
        Costs one push per candidate still alive, i.e. per activation
        the coming evaluation will consider anyway.
        """
        spent, self._spent = self._spent, []
        for state, cand in spent:
            if cand.alive:
                self._push(state, cand.key_fids, ("c", state, cand))

    def _push(self, state: _RuleState, rank: tuple, payload: tuple) -> None:
        self._serial += 1
        heapq.heappush(
            self._heaps[state.tier],
            (rank, state.plan.order, self._serial, payload),
        )

    def _drop_fid(self, state: _RuleState, fid: int) -> None:
        for key_fids in state.by_fid.pop(fid, ()):
            cand = state.cands.get(key_fids)
            if cand is None or not cand.alive:
                continue
            cand.alive = False
            del state.cands[key_fids]
            for other in key_fids:
                if other != fid:
                    refs = state.by_fid.get(other)
                    if refs is not None:
                        refs.discard(key_fids)

    def _drop_all(self, state: _RuleState) -> None:
        for cand in state.cands.values():
            cand.alive = False
        state.cands.clear()
        state.by_fid.clear()

    # ------------------------------------------------------------- sync
    def _route_changes(self) -> None:
        """Hand the mutations since the last scan to the rules they touch.

        Routing is all a scan pays up front: a rule applies its pending
        mutations only when its salience tier is reached
        (:meth:`_sync_tier`), so a low-tier rule that every firing of a
        higher tier dirties is synced once per quiescence of the tiers
        above it, not once per firing.
        """
        memory = self.memory
        if self._seq == memory.clock:
            return
        changes = memory.changes_since_verbose(self._seq)
        if changes is None:
            # Fell behind the bounded change log: rebuild everything.
            self._build_all()
            return
        self._seq = memory.clock
        dispatch = self.ruleset.dispatch
        states = self._states
        for change in changes:
            for plan, _info in dispatch(type(change[1])):
                states[plan.rule.name].pending.append(change)

    def _sync_tier(self, tier: list[_RuleState]) -> None:
        """Apply the pending mutations of one tier's rules."""
        profiler = self.profiler
        for state in tier:
            if not state.pending:
                continue
            dirty, state.pending = state.pending, []
            t0 = profiler.clock() if profiler is not None else 0.0
            before = len(state.cands)
            self._sync_rule(state, dirty)
            if profiler is not None:
                profiler.record_match(
                    state.plan.rule.name,
                    max(len(state.cands) - before, 0),
                    profiler.clock() - t0,
                )

    def _sync_rule(self, state: _RuleState, dirty: list) -> None:
        plan = state.plan
        rule = plan.rule
        if plan.kind != PLAN_JOIN:
            if self._gates_dirty(plan, dirty):
                self._rebuild_delta(state)
                return
            self._delta_patterns(state, dirty)
            return
        self._sync_join(state, dirty)

    @staticmethod
    def _gates_dirty(plan: RulePlan, dirty: list) -> bool:
        """Could any of these mutations flip an Absent/Exists/Collect gate?

        Only a flip *towards* matching forces a rebuild — gates flipping
        away are caught by pop-time validation.  An ``Absent`` insert can
        only invalidate, and an update whose changed attributes are
        disjoint from the gate's declared ``reads`` provably leaves the
        gate's truth (and a Collect's membership) untouched.
        """
        for _fid, fact, op, changed in dirty:
            for gate in plan.gates:
                if not isinstance(fact, gate.fact_type):
                    continue
                if op == "i" and isinstance(gate, Absent):
                    continue
                if (
                    op == "u"
                    and changed is not None
                    and gate.reads is not None
                    and changed.isdisjoint(gate.reads)
                ):
                    continue
                return True
        return False

    def _delta_patterns(self, state: _RuleState, dirty: list) -> None:
        """Delta plan: drop touched candidates, re-join dirty facts at
        every Pattern position (the incremental agenda's strategy)."""
        memory = self.memory
        rule = state.plan.rule
        for fid, _fact, _op, _ch in dirty:
            self._drop_fid(state, fid)
        live: list[Fact] = []
        seen: set[int] = set()
        for _fid, fact, _op, _ch in dirty:
            if id(fact) not in seen and memory.contains(fact):
                seen.add(id(fact))
                live.append(fact)
        if not live:
            return
        for pos in state.plan.positions:
            candidates = [f for f in live if isinstance(f, pos.fact_type)]
            if not candidates:
                continue
            for bindings in rule.matches(
                memory, self.seed, restrict=(pos.index, candidates)
            ):
                facts = tuple(
                    bindings.get(p.binding) if p.binding else None
                    for p in state.plan.positions
                )
                self._add_cand(state, facts, bindings)

    def _sync_join(self, state: _RuleState, dirty: list) -> None:
        memory = self.memory
        plan = state.plan
        positions = plan.positions
        last_index = len(positions) - 1
        # 1. Tombstone everything referencing a dirty fact.
        seen_fids: set[int] = set()
        for fid, _fact, _op, _ch in dirty:
            if fid in seen_fids:
                continue
            seen_fids.add(fid)
            self._drop_fid(state, fid)
            for store in state.stores[1:]:
                store.discard_fid(fid)
            probe = state.probes.pop(fid, None)
            if probe is not None:
                probe.alive = False
        # 2. Live dirty facts per position.
        live: list[Fact] = []
        seen_ids: set[int] = set()
        for _fid, fact, _op, _ch in dirty:
            if id(fact) not in seen_ids and memory.contains(fact):
                seen_ids.add(id(fact))
                live.append(fact)
        if not live:
            return
        # 3. Re-derive prefixes left to right; cascades stay eager (a
        #    dirty transfer joins few counters), only the last position's
        #    dirt goes lazy (a dirty counter joins the whole frontier).
        added: list[list[_PrefixEntry]] = [[] for _ in range(len(positions) + 1)]
        for p, pos in enumerate(positions[:-1]):
            element = pos.element
            store = state.stores[p + 1]
            if p == 0:
                for fact in live:
                    if not isinstance(fact, pos.fact_type):
                        continue
                    if _check(element.where, fact, self.seed):
                        nb = dict(self.seed)
                        nb[element.binding] = fact
                        entry = store.add(
                            (memory.fid_of(fact),), nb, (fact,)
                        )
                        if entry is not None:
                            added[1].append(entry)
            else:
                source = state.stores[p]
                for fact in live:
                    if not isinstance(fact, pos.fact_type):
                        continue
                    bucket, wildcard = source.buckets_for_fact(fact)
                    seen_prefix: set = set()
                    for b in (bucket, wildcard):
                        for prefix in source.live_in(b):
                            if prefix.fids in seen_prefix:
                                continue
                            seen_prefix.add(prefix.fids)
                            if _check(element.where, fact, prefix.bindings):
                                nb = dict(prefix.bindings)
                                nb[element.binding] = fact
                                entry = store.add(
                                    prefix.fids + (memory.fid_of(fact),),
                                    nb, prefix.facts + (fact,),
                                )
                                if entry is not None:
                                    added[p + 1].append(entry)
                # New prefixes from earlier positions extend over the full
                # extent at this position.
                for prefix in added[p]:
                    if not prefix.alive:
                        continue
                    for fact in element.candidates(memory, prefix.bindings):
                        if _check(element.where, fact, prefix.bindings):
                            nb = dict(prefix.bindings)
                            nb[element.binding] = fact
                            entry = store.add(
                                prefix.fids + (memory.fid_of(fact),),
                                nb, prefix.facts + (fact,),
                            )
                            if entry is not None:
                                added[p + 1].append(entry)
        # 4. Last position: eager extension of new prefixes...
        last = positions[-1].element
        for prefix in added[last_index]:
            if not prefix.alive:
                continue
            for fact in last.candidates(memory, prefix.bindings):
                if _check(last.where, fact, prefix.bindings):
                    nb = dict(prefix.bindings)
                    nb[last.binding] = fact
                    self._add_cand(state, prefix.facts + (fact,), nb)
        # ... and a lazy probe per dirty last-position fact.
        for fact in live:
            if not isinstance(fact, positions[-1].fact_type):
                continue
            fid = memory.fid_of(fact)
            probe = _Probe(fact, fid, state.stores[last_index])
            state.probes[fid] = probe
            self._advance_probe(state, probe)

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
        """The next fireable activation, or None — same contract as
        ``Session._next_activation_incremental``."""
        self._route_changes()
        for tier, heap in zip(self._tiers, self._heaps):
            self._sync_tier(tier)
            while heap:
                rank, order, _serial, payload = heapq.heappop(heap)
                kind = payload[0]
                if kind == "c":
                    _tag, state, cand = payload
                    if not cand.alive:
                        continue
                    result = self._validate(session, state, cand.facts, rank, order)
                    if result == "dead":
                        cand.alive = False
                        state.cands.pop(cand.key_fids, None)
                        for fid in cand.key_fids:
                            refs = state.by_fid.get(fid)
                            if refs is not None:
                                refs.discard(cand.key_fids)
                        continue
                    self._spent.append((state, cand))
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
                result = self._validate(session, state, facts, rank, order)
                if result == "dead":
                    continue
                # A match: from here on it is an ordinary (spent) candidate.
                self._spent.append((state, self._store_cand(state, rank, facts)))
                if result == "skip":
                    continue
                return result
        return None

    def _validate(self, session: Session, state: _RuleState, facts: tuple,
                  rank: tuple, order: int):
        """Re-evaluate a candidate against current memory.

        Returns the ``(rank, rule, bindings, key)`` tuple when the
        activation is live and fireable, ``"dead"`` when it is no longer
        a match (drop and await re-derivation), ``"skip"`` when it is a
        match but must not fire in this evaluation (refraction /
        ``no_loop``, both forgotten by ``Session.reset``)."""
        memory = self.memory
        rule = state.plan.rule
        bindings = dict(self.seed)
        pattern_at = {pos.index: i for i, pos in enumerate(state.plan.positions)}
        for index, element in enumerate(rule.when):
            if isinstance(element, Pattern):
                i = pattern_at[index]
                fact = facts[i] if i < len(facts) else None
                if fact is None:
                    # Unbound pattern (delta plan): existential re-check.
                    if not element.expand(memory, bindings):
                        return "dead"
                    continue
                if not memory.contains(fact):
                    return "dead"
                if not _check(element.where, fact, bindings):
                    return "dead"
                if element.binding:
                    bindings[element.binding] = fact
            else:
                expanded = element.expand(memory, bindings)
                if not expanded:
                    return "dead"
                bindings = expanded[0]
        key = _activation_key(memory, rule, bindings)
        if key in session._fired or session._suppressed_by_no_loop(rule, key):
            return "skip"
        return ((key[1], order), rule, bindings, key)

    # ------------------------------------------------------------ stats
    def candidate_count(self) -> int:
        return sum(len(s.cands) for s in self._states.values())


class CompiledSession(Session):
    """A :class:`~repro.rules.engine.Session` whose agenda is a
    :class:`JoinNetwork` (the ``engine="compiled"`` runtime).

    Accepts a pre-built :class:`~repro.rules.compiler.CompiledRuleset`
    so callers running several sessions over one pack compile it once;
    compiles on the fly otherwise.  The network is built on the first
    evaluation and kept: ``reset()`` re-arms it instead of discarding it
    (the Policy Service runs one session for its whole life).
    Everything else — refraction, ``no_loop``, tracing, profiler hooks,
    ``max_firings`` — is inherited, and the firing sequence is identical
    to the interpreted engines.
    """

    def __init__(
        self,
        rules: Sequence[Rule],
        memory: Optional[WorkingMemory] = None,
        globals: Optional[dict] = None,
        max_firings: int = 100_000,
        profiler: Optional[Any] = None,
        ruleset: Optional[CompiledRuleset] = None,
    ):
        super().__init__(
            rules, memory=memory, globals=globals, max_firings=max_firings,
            incremental=False, profiler=profiler,
        )
        if ruleset is not None and ruleset.rules != list(rules):
            raise ValueError("ruleset was compiled from a different rule pack")
        self.ruleset = ruleset if ruleset is not None else compile_rules(self.rules)
        self.network: Optional[JoinNetwork] = None

    def reset(self) -> None:
        super().reset()
        if self.network is not None:
            self.network.rearm()

    def _next_activation(self):
        if self.network is None:
            self.network = JoinNetwork(
                self.ruleset, self.memory, self.globals, profiler=self.profiler
            )
        return self.network.next_activation(self)

    def _agenda_sample_size(self) -> int:
        return self.network.candidate_count() if self.network is not None else 0
