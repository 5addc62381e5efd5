"""A zero-dependency metrics registry (Prometheus-style).

Counters, gauges, and histograms, each optionally labelled; one
:class:`MetricsRegistry` per service/run owns the families and renders
the whole census as Prometheus text exposition format
(:meth:`MetricsRegistry.render`) or a JSON-able dict
(:meth:`MetricsRegistry.to_dict`).

Hot paths pre-resolve label children once
(``child = family.labels(action="approved")``) so each increment is one
attribute lookup and a float add — the same cost as the ad-hoc counter
dicts this replaces.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

__all__ = ["MetricsRegistry", "Counter", "Gauge", "Histogram"]

#: default histogram buckets (seconds-flavoured, like Prometheus')
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_VALID_FIRST = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_:")


def _check_name(name: str) -> str:
    if not name or name[0] not in _VALID_FIRST or not all(
        c.isalnum() or c in "_:" for c in name
    ):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    as_int = int(value)
    if value == as_int:
        return str(as_int)
    return repr(value)


def _label_suffix(labelnames: Sequence[str], labelvalues: tuple) -> str:
    if not labelnames:
        return ""
    pairs = ",".join(
        f'{name}="{_escape_label(str(value))}"'
        for name, value in zip(labelnames, labelvalues)
    )
    return "{" + pairs + "}"


class _Family:
    """Common machinery: a named metric with labelled children."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: Sequence[str]):
        self.name = _check_name(name)
        self.help = help
        self.labelnames = tuple(labelnames)
        self._children: dict[tuple, object] = {}

    def _child_for(self, labelvalues: tuple):
        child = self._children.get(labelvalues)
        if child is None:
            child = self._children[labelvalues] = self._new_child()
        return child

    def labels(self, **labels: object):
        """The child for one label combination (created on first use)."""
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels {list(self.labelnames)}, "
                f"got {sorted(labels)}"
            )
        return self._child_for(tuple(str(labels[n]) for n in self.labelnames))

    def _only_child(self):
        if self.labelnames:
            raise ValueError(f"metric {self.name!r} is labelled; use .labels(...)")
        return self._child_for(())

    def _new_child(self):  # pragma: no cover - abstract
        raise NotImplementedError

    def samples(self) -> Iterable[tuple[str, str, float]]:
        """(name, label-suffix, value) triples, labels sorted for stable text."""
        for labelvalues in sorted(self._children):
            child = self._children[labelvalues]
            suffix = _label_suffix(self.labelnames, labelvalues)
            yield from child._samples(self.name, self.labelnames, labelvalues, suffix)


class _CounterChild:
    __slots__ = ("_value",)

    def __init__(self):
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def _samples(self, name, labelnames, labelvalues, suffix):
        yield (name, suffix, self._value)


class Counter(_Family):
    """Monotonically increasing count."""

    kind = "counter"

    def _new_child(self):
        return _CounterChild()

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        (self.labels(**labels) if labels else self._only_child()).inc(amount)

    def value(self, **labels: object) -> float:
        child = self.labels(**labels) if labels else self._children.get(())
        return child.value if child is not None else 0.0


class _GaugeChild:
    __slots__ = ("_value",)

    def __init__(self):
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount

    @property
    def value(self) -> float:
        return self._value

    def _samples(self, name, labelnames, labelvalues, suffix):
        yield (name, suffix, self._value)


class Gauge(_Family):
    """A value that can go up and down."""

    kind = "gauge"

    def _new_child(self):
        return _GaugeChild()

    def set(self, value: float, **labels: object) -> None:
        (self.labels(**labels) if labels else self._only_child()).set(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        (self.labels(**labels) if labels else self._only_child()).inc(amount)

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        (self.labels(**labels) if labels else self._only_child()).dec(amount)

    def value(self, **labels: object) -> float:
        child = self.labels(**labels) if labels else self._children.get(())
        return child.value if child is not None else 0.0


class _HistogramChild:
    __slots__ = ("buckets", "counts", "total", "count")

    def __init__(self, buckets: tuple[float, ...]):
        self.buckets = buckets
        self.counts = [0] * len(buckets)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.total += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1

    def _samples(self, name, labelnames, labelvalues, suffix):
        # ``observe`` increments every bucket whose bound admits the value,
        # so the stored counts are already cumulative (Prometheus "le").
        for bound, bucket_count in zip(self.buckets, self.counts):
            le = _label_suffix(
                labelnames + ("le",), labelvalues + (_format_value(bound),)
            )
            yield (name + "_bucket", le, float(bucket_count))
        inf = _label_suffix(labelnames + ("le",), labelvalues + ("+Inf",))
        yield (name + "_bucket", inf, float(self.count))
        yield (name + "_sum", suffix, self.total)
        yield (name + "_count", suffix, float(self.count))


class Histogram(_Family):
    """Cumulative-bucket histogram of observed values."""

    kind = "histogram"

    def __init__(self, name, help, labelnames, buckets: Sequence[float] = DEFAULT_BUCKETS):
        super().__init__(name, help, labelnames)
        cleaned = tuple(sorted(float(b) for b in buckets))
        if not cleaned:
            raise ValueError("histogram needs at least one bucket")
        self.buckets = cleaned

    def _new_child(self):
        return _HistogramChild(self.buckets)

    def observe(self, value: float, **labels: object) -> None:
        (self.labels(**labels) if labels else self._only_child()).observe(value)


class MetricsRegistry:
    """Owns metric families; renders the Prometheus text census."""

    def __init__(self):
        self._families: dict[str, _Family] = {}

    def _register(self, cls, name: str, help: str, labelnames: Sequence[str], **kwargs):
        existing = self._families.get(name)
        if existing is not None:
            if type(existing) is not cls or existing.labelnames != tuple(labelnames):
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind} "
                    f"with labels {list(existing.labelnames)}"
                )
            return existing
        family = cls(name, help, labelnames, **kwargs)
        self._families[name] = family
        return family

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Counter:
        return self._register(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Gauge:
        return self._register(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._register(Histogram, name, help, labelnames, buckets=buckets)

    def get(self, name: str) -> Optional[_Family]:
        return self._families.get(name)

    # ------------------------------------------------------------------ export
    def render(self, labelled: Sequence[tuple[str, "MetricsRegistry"]] = ()) -> str:
        """Prometheus text exposition format (families in name order).

        Each ``(label, registry)`` of ``labelled`` (``'shard="0"'``) adds
        that registry's families after this one's, every sample led by
        ``label``; a family several registries hold renders once, its
        samples in registry order.
        """
        blocks: dict[str, list[str]] = {}
        for label, registry in (("", self), *labelled):
            for name in sorted(registry._families):
                family = registry._families[name]
                block = blocks.get(name)
                if block is None:
                    block = blocks[name] = (
                        [f"# HELP {name} {family.help}"] if family.help else []
                    )
                    block.append(f"# TYPE {name} {family.kind}")
                for sample_name, suffix, value in family.samples():
                    if label:
                        suffix = "{" + label + ("," + suffix[1:] if suffix else "}")
                    block.append(f"{sample_name}{suffix} {_format_value(value)}")
        return "\n".join(line for block in blocks.values() for line in block) + "\n"

    def to_dict(self) -> dict:
        """JSON-able census: {family: {label-suffix or "": value}}."""
        doc: dict = {}
        for name in sorted(self._families):
            family = self._families[name]
            series: dict[str, float] = {}
            for sample_name, suffix, value in family.samples():
                key = sample_name + suffix
                series[key] = value
            doc[name] = series
        return doc
