"""Facts and working memory for the rule engine.

Facts are plain mutable objects; the working memory assigns them handles
(ids) and version numbers.  Rules never see retracted facts, and updates
bump the version so refraction (fire-once-per-version) works like Drools.

The memory keeps **hash indexes** over attribute tuples, built lazily the
first time :meth:`WorkingMemory.lookup` is called for a given
``(fact type, attributes)`` combination and maintained incrementally on
every insert / update / retract afterwards.  Rule condition elements use
``lookup`` (on their equality constraints) to fetch only the facts that
can possibly join instead of scanning the whole type extent, and sessions use
the memory's **change log** to re-match only what actually changed.

A fact's state is its ``__dict__``: :func:`encode_fact` writes it as a
JSON-safe document and :func:`decode_fact` revives it without ``__init__``
(the one codec of the journal, the verifier's documents and probe soups).
"""

from __future__ import annotations

import json
import weakref
from collections import deque
from typing import Any, Callable, Iterator, Optional, Type, TypeVar

__all__ = ["Fact", "WorkingMemory", "encode_fact", "decode_fact", "encode_value", "decode_value"]

F = TypeVar("F", bound="Fact")

_MISSING = object()
_NO_FACTS: dict[int, "Fact"] = {}  # the extent of a type no fact has (read-only)

#: Most mutations :meth:`WorkingMemory.changes_since` can serve: the whole
#: log of a memory without readers, and the bound on a stalled reader's
#: range (one that falls further behind rebuilds its join network).
#: Readers' catch-ups trim what all of them have routed (``_TRIM_EVERY``).
_CHANGELOG_CAP = 65_536

#: Clock ticks between two trims of the log prefix every live reader has
#: consumed; one trim costs a pass over the readers, so none runs per route.
_TRIM_EVERY = 1_024


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


# --------------------------------------------------------------------------
# The state codec
# --------------------------------------------------------------------------
_PLAIN = frozenset({str, int, float, bool, type(None)})
_TAGS = ("__set__", "__tuple__", "__pairs__")


def encode_value(value: Any, default: Optional[Callable] = None) -> Any:
    """``value`` made JSON-safe so that :func:`decode_value` of its
    ``json.loads`` round trip gives it back: a set or frozenset becomes
    ``{"__set__": [...]}`` (sorted; by canonical JSON text if its members
    do not compare), a tuple ``{"__tuple__": [...]}``, a dict with a
    non-string or tag key ``{"__pairs__": [[key, value], ...]}``.  Any
    other value goes to ``default`` if one is given, else is kept."""
    if type(value) in _PLAIN or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, list):
        return [encode_value(item, default) for item in value]
    if isinstance(value, (set, frozenset)):
        items = encode_value(list(value), default)
        try:
            items.sort()
        except TypeError:
            items.sort(key=lambda item: json.dumps(item, sort_keys=True, default=repr))
        return {"__set__": items}
    if isinstance(value, tuple):
        return {"__tuple__": encode_value(list(value), default)}
    if not isinstance(value, dict):
        return value if default is None else default(value)
    if all(isinstance(key, str) and key not in _TAGS for key in value):
        return {key: encode_value(item, default) for key, item in value.items()}
    return {"__pairs__": encode_value([list(pair) for pair in value.items()], default)}


def decode_value(value: Any, object_hook: Optional[Callable] = None, frozen: bool = False) -> Any:
    """The inverse of :func:`encode_value`.  A set that must hash (a dict
    key, or inside a set or a tuple that must) comes back frozen; any
    other dict goes to ``object_hook``, its members decoded, if given."""
    if isinstance(value, list):
        return [decode_value(item, object_hook) for item in value]
    if not isinstance(value, dict):
        return value
    if "__set__" in value:
        items = [decode_value(item, object_hook, True) for item in value["__set__"]]
        return frozenset(items) if frozen else set(items)
    if "__tuple__" in value:
        return tuple([decode_value(item, object_hook, frozen) for item in value["__tuple__"]])
    if "__pairs__" in value:
        return {
            decode_value(key, object_hook, True): decode_value(item, object_hook)
            for key, item in value["__pairs__"]
        }
    doc = {key: decode_value(item, object_hook) for key, item in value.items()}
    return doc if object_hook is None else object_hook(doc)


def encode_fact(fact: Fact) -> dict:
    """The JSON-safe document of a fact's state (:func:`encode_value`)."""
    return {
        key: value if type(value) in _PLAIN else encode_value(value)
        for key, value in fact.__dict__.items()
    }


def decode_fact(fact_type: Type[F], state: dict) -> F:
    """A ``fact_type`` holding :func:`encode_fact`'s ``state``, built without
    running ``__init__`` (constructors validate and derive; a state is literal)."""
    fact = fact_type.__new__(fact_type)
    fact.__dict__.update({
        key: value if type(value) in _PLAIN else decode_value(value)
        for key, value in state.items()
    })
    return fact


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
        # retained window is always a suffix of the last ``_CHANGELOG_CAP``
        # sequences; :meth:`trim` shortens it to what readers still need.
        self._log: deque[tuple[int, int, Fact, str, Optional[frozenset]]] = deque(
            maxlen=_CHANGELOG_CAP
        )
        self._readers: weakref.WeakSet = weakref.WeakSet()
        #: the clock at which a reader's catch-up next calls :meth:`trim`
        self.trim_at = _TRIM_EVERY

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

    @property
    def retained_changes(self) -> int:
        """Change-log entries currently held (a diagnostic)."""
        return len(self._log)

    def add_reader(self, reader: Any) -> None:
        """Keep the change log after ``reader.seq`` for ``reader``.

        ``reader.seq`` is the clock up to which the reader has consumed
        :meth:`changes_since`, and may only grow.  The memory holds the
        reader weakly: once it is garbage-collected it pins nothing.
        """
        self._readers.add(reader)

    def trim(self) -> None:
        """Drop the change-log entries every live reader has consumed.

        A reader calls this when its position reaches :attr:`trim_at`,
        which then moves ``_TRIM_EVERY`` ticks on, so the pass over the
        readers is paid once per that many mutations.  The entries of a
        firing in flight are never dropped: a reader's position does not
        pass a mutation it has not routed.
        """
        self.trim_at = self._clock + _TRIM_EVERY
        floor = min(reader.seq for reader in self._readers)
        log = self._log
        if floor >= self._clock:  # the usual case: one reader, caught up
            log.clear()
            return
        while log[0][0] <= floor:
            log.popleft()

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
        differ = []
        for key, value in changes.items():
            old = getattr(fact, key, _MISSING)
            if old is _MISSING:
                raise AttributeError(f"{type(fact).__name__} has no attribute {key!r}")
            try:
                if old != value:
                    differ.append(key)
            except Exception:
                differ.append(key)  # incomparable value: assume it changed
        changed = frozenset(differ)
        # Re-slot the fact in any index whose key values are changing (an
        # equal value keeps its bucket); the old key must be read before
        # the attributes are assigned.
        touched_indexes = []
        if changed and self._indexes:
            for attrs, buckets in self._applicable_indexes(fact):
                if not changed.isdisjoint(attrs):
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
        self._touch(fact, entry.fid, "u", changed if changes else None)
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
        return self.lookup_keyed(fact_type, attrs, tuple([keys[a] for a in attrs]))

    def lookup_keyed(
        self, fact_type: Type[F], attrs: tuple[str, ...], values: tuple
    ) -> list[F]:
        """:meth:`lookup` with the key already split: ``attrs`` sorted and
        non-empty, ``values`` the values they must equal, in that order."""
        buckets = self._indexes.get((fact_type, attrs))
        if buckets is None:
            buckets = self._build_index(fact_type, attrs)
        bucket = buckets.get(values)
        if not bucket:
            return []
        return list(bucket.values())  # buckets are kept in fid order

    def entry_of(self, fact: Fact) -> Optional[_Entry]:
        """The live fact's handle and version record, or None."""
        return self._entries.get(id(fact))

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
