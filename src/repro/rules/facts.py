"""Facts and working memory for the rule engine.

Facts are plain mutable objects; the working memory assigns them handles
(ids) and version numbers.  Rules never see retracted facts, and updates
bump the version so refraction (fire-once-per-version) works like Drools.

The memory keeps **hash indexes** over attribute tuples, built lazily the
first time :meth:`WorkingMemory.lookup` is called for a given
``(fact type, attributes)`` combination and maintained incrementally on
every insert / update / retract afterwards.  Rule condition elements use
``lookup`` (via their ``keys`` parameter) to fetch only the facts that can
possibly join instead of scanning the whole type extent, and sessions use
the memory's **change log** to re-match only what actually changed.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterator, Optional, Type, TypeVar

__all__ = ["Fact", "WorkingMemory"]

F = TypeVar("F", bound="Fact")

_MISSING = object()
_NO_FACTS: dict[int, "Fact"] = {}  # the extent of a type no fact has (read-only)

#: Mutations remembered for :meth:`WorkingMemory.changes_since`.  A session
#: that falls behind further than this rebuilds its join network.
_CHANGELOG_CAP = 65_536


class Fact:
    """Base class for working-memory facts.

    Subclasses are ordinary classes (dataclasses work well).  Identity is
    object identity; equality of attribute values does *not* merge facts.
    """

    __slots__ = ()

    def describe(self) -> str:
        """Human-readable one-liner used in engine traces."""
        attrs = getattr(self, "__dict__", None)
        if attrs:
            inner = ", ".join(f"{k}={v!r}" for k, v in list(attrs.items())[:6])
        else:
            inner = ""
        return f"{type(self).__name__}({inner})"


class _Entry:
    __slots__ = ("fact", "fid", "version", "last_modifier")

    def __init__(self, fact: Fact, fid: int):
        self.fact = fact
        self.fid = fid
        self.version = 0
        self.last_modifier: Optional[str] = None


class WorkingMemory:
    """Fact store with per-type extents and lazy hash indexes.

    Lookup by type returns facts of that type *or any subclass* so rules can
    match on base classes (mirrors Drools' class-based patterns).
    """

    def __init__(self) -> None:
        self._entries: dict[int, _Entry] = {}   # id(fact) -> entry
        # type -> {id(fact): fact} in insertion order (O(1) retract)
        self._by_type: dict[type, dict[int, Fact]] = {}
        self._by_fid: dict[int, Fact] = {}
        self._next_fid = 0
        self._clock = 0
        #: optional ``observer(fact, fid, op)`` invoked after every mutation
        #: has been applied — the hook the policy journal records through.
        self.observer: Optional[Any] = None
        # (fact type, sorted attr names) -> key tuple -> {id(fact): fact}
        self._indexes: dict[tuple[type, tuple[str, ...]], dict[tuple, dict[int, Fact]]] = {}
        self._indexes_of: dict[type, list] = {}  # see _applicable_indexes
        # (clock, fid, fact, op, changed) log sessions catch up from.  A ring
        # buffer: appending beyond the cap drops the oldest entry in O(1)
        # instead of the O(cap) copy-shift a list compaction would cost on
        # the mutation hot path.  Clock ticks once per entry, so the
        # retained window is always the last ``_CHANGELOG_CAP`` sequences.
        self._log: deque[tuple[int, int, Fact, str, Optional[frozenset]]] = deque(
            maxlen=_CHANGELOG_CAP
        )

    @property
    def clock(self) -> int:
        """Monotonic mutation counter (one tick per insert/update/retract)."""
        return self._clock

    def _touch(
        self, fact: Fact, fid: int, op: str, changed: Optional[frozenset] = None
    ) -> None:
        self._clock += 1
        self._log.append((self._clock, fid, fact, op, changed))
        if self.observer is not None:
            self.observer(fact, fid, op)

    def changes_since(
        self, seq: int
    ) -> Optional[list[tuple[int, Fact, str, Optional[frozenset]]]]:
        """``(fid, fact, op, changed)`` mutations after clock ``seq``,
        oldest first.

        ``op`` is ``"i"`` (insert), ``"u"`` (update) or ``"r"`` (retract);
        ``changed`` is the set of attribute names an update actually
        changed (value really differed), ``None`` when unknown (inserts,
        retracts, or in-place mutation the memory could not observe) — it
        lets a session prove an update cannot have flipped a condition
        that only reads other attributes.  Returns ``None`` when the
        requested range has been evicted from the bounded change log
        (caller must fall back to a full rebuild).  A fact appears once
        per mutation; retracted facts are included — check
        :meth:`contains` for liveness.
        """
        if seq >= self._clock:
            return []
        log = self._log
        if not log or log[0][0] > seq + 1:
            return None
        # Walk back from the newest entry: the tail after ``seq`` is the
        # common case (a session catching up after one firing), so cost is
        # proportional to the answer, not to the window size.
        out = []
        for s, fid, fact, op, changed in reversed(log):
            if s <= seq:
                break
            out.append((fid, fact, op, changed))
        out.reverse()
        return out

    # -- index maintenance ---------------------------------------------------
    def _applicable_indexes(self, fact: Fact) -> list:
        """``(attrs, buckets)`` of every index ``fact`` belongs in,
        cached per concrete type until an index is built."""
        applicable = self._indexes_of.get(type(fact))
        if applicable is None:
            applicable = self._indexes_of[type(fact)] = [
                (attrs, buckets)
                for (klass, attrs), buckets in self._indexes.items()
                if isinstance(fact, klass)
            ]
        return applicable

    @staticmethod
    def _index_key(fact: Fact, attrs: tuple[str, ...]):
        key = []
        for attr in attrs:
            value = getattr(fact, attr, _MISSING)
            if value is _MISSING:
                return None
            key.append(value)
        return tuple(key)

    def _index_add(self, fact: Fact, fid: int, attrs: tuple[str, ...], buckets) -> None:
        key = self._index_key(fact, attrs)
        if key is None:
            return
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = {fid: fact}
            return
        # Keep buckets sorted by fid so lookups need no sort.  New facts
        # have the highest fid (plain append); only re-slotting an old
        # fact after an update pays a re-sort of its bucket.
        if next(reversed(bucket)) < fid:
            bucket[fid] = fact
        else:
            bucket[fid] = fact
            buckets[key] = {k: bucket[k] for k in sorted(bucket)}

    def _index_discard(self, fact: Fact, fid: int, attrs: tuple[str, ...], buckets) -> None:
        key = self._index_key(fact, attrs)
        if key is None:
            return
        bucket = buckets.get(key)
        if bucket is not None:
            bucket.pop(fid, None)
            if not bucket:
                del buckets[key]

    def _build_index(self, fact_type: type, attrs: tuple[str, ...]):
        buckets: dict[tuple, dict[int, Fact]] = {}
        entries = self._entries
        for fact in self._by_type.get(fact_type, _NO_FACTS).values():
            key = self._index_key(fact, attrs)
            if key is not None:
                buckets.setdefault(key, {})[entries[id(fact)].fid] = fact
        self._indexes[(fact_type, attrs)] = buckets
        self._indexes_of.clear()
        return buckets

    # -- mutation -----------------------------------------------------------
    def insert(self, fact: Fact, modifier: Optional[str] = None) -> Fact:
        """Add a fact; returns it for chaining.  Re-inserting is an error."""
        if not isinstance(fact, Fact):
            raise TypeError(f"working memory accepts Fact instances, got {fact!r}")
        if id(fact) in self._entries:
            raise ValueError(f"fact already in working memory: {fact.describe()}")
        entry = _Entry(fact, self._next_fid)
        self._next_fid += 1
        entry.last_modifier = modifier
        self._entries[id(fact)] = entry
        self._by_fid[entry.fid] = fact
        for klass in type(fact).__mro__:
            if klass is object:
                break
            self._by_type.setdefault(klass, {})[id(fact)] = fact
        if self._indexes:
            for attrs, buckets in self._applicable_indexes(fact):
                self._index_add(fact, entry.fid, attrs, buckets)
        self._touch(fact, entry.fid, "i")
        return fact

    def update(self, fact: Fact, modifier: Optional[str] = None, **changes: Any) -> Fact:
        """Apply attribute changes and bump the fact's version."""
        entry = self._entries.get(id(fact))
        if entry is None:
            raise KeyError(f"fact not in working memory: {fact.describe()}")
        changed = set()
        for key, value in changes.items():
            if not hasattr(fact, key):
                raise AttributeError(f"{type(fact).__name__} has no attribute {key!r}")
            try:
                if getattr(fact, key) != value:
                    changed.add(key)
            except Exception:
                changed.add(key)  # incomparable value: assume it changed
        # Re-slot the fact in any index whose key attributes are changing;
        # the old key must be read before the attributes are assigned.
        touched_indexes = []
        if self._indexes:
            for attrs, buckets in self._applicable_indexes(fact):
                if any(a in changes for a in attrs):
                    self._index_discard(fact, entry.fid, attrs, buckets)
                    touched_indexes.append((attrs, buckets))
        for key, value in changes.items():
            setattr(fact, key, value)
        for attrs, buckets in touched_indexes:
            self._index_add(fact, entry.fid, attrs, buckets)
        entry.version += 1
        entry.last_modifier = modifier
        # No kwargs means the caller mutated the fact in place before
        # announcing the update — the changed set is unknowable, not empty.
        self._touch(fact, entry.fid, "u", frozenset(changed) if changes else None)
        return fact

    def retract(self, fact: Fact) -> None:
        """Remove a fact from memory."""
        entry = self._entries.pop(id(fact), None)
        if entry is None:
            raise KeyError(f"fact not in working memory: {fact.describe()}")
        self._by_fid.pop(entry.fid, None)
        for klass in type(fact).__mro__:
            if klass is object:
                break
            bucket = self._by_type.get(klass)
            if bucket is not None:
                del bucket[id(fact)]
        if self._indexes:
            for attrs, buckets in self._applicable_indexes(fact):
                self._index_discard(fact, entry.fid, attrs, buckets)
        self._touch(fact, entry.fid, "r")

    # -- queries ------------------------------------------------------------
    def contains(self, fact: Fact) -> bool:
        return id(fact) in self._entries

    def facts_of(self, fact_type: Type[F]) -> list[F]:
        """All live facts of ``fact_type`` (including subclasses), in
        insertion order."""
        return list(self._by_type.get(fact_type, _NO_FACTS).values())

    def lookup(self, fact_type: Type[F], **keys: Any) -> list[F]:
        """Live facts of ``fact_type`` whose attributes equal ``keys``.

        Results are in insertion order, identical to filtering
        :meth:`facts_of` on attribute equality; answered from a hash
        index on the key attributes (built lazily, maintained
        incrementally).
        """
        if not keys:
            return self.facts_of(fact_type)
        attrs = tuple(sorted(keys))
        buckets = self._indexes.get((fact_type, attrs))
        if buckets is None:
            buckets = self._build_index(fact_type, attrs)
        bucket = buckets.get(tuple(keys[a] for a in attrs))
        if not bucket:
            return []
        return list(bucket.values())  # buckets are kept in fid order

    def version_of(self, fact: Fact) -> int:
        return self._entries[id(fact)].version

    def fid_of(self, fact: Fact) -> int:
        return self._entries[id(fact)].fid

    def fact_with_fid(self, fid: int) -> Optional[Fact]:
        """The live fact with handle ``fid``, or None if retracted."""
        return self._by_fid.get(fid)

    def modifier_of(self, fact: Fact) -> Optional[str]:
        return self._entries[id(fact)].last_modifier

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Fact]:
        return iter(entry.fact for entry in self._entries.values())

    def snapshot(self) -> dict[str, int]:
        """Count of live facts per concrete type name (for diagnostics)."""
        counts: dict[str, int] = {}
        for entry in self._entries.values():
            name = type(entry.fact).__name__
            counts[name] = counts.get(name, 0) + 1
        return counts
