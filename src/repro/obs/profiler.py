"""Rule-engine profiling: which rules dominate the decision hot path.

A :class:`RuleProfiler` is attached to rule
:class:`~repro.rules.engine.Session` objects (the Policy Service passes
one long-lived profiler to every session it opens) and tallies, per rule:

* **activations** — activations discovered while (re)deriving agendas,
* **fires** — how often the rule's action actually ran,
* **match_s / action_s** — wall time spent matching the rule's LHS and
  executing its RHS,

plus a stream of **agenda-size samples** (total not-yet-fired
activations at each firing) showing how much work the join network
carries between firings.

Wall-clock tallies live here and in the metrics registry — deliberately
*not* in the tracer, whose event stream must stay deterministic.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable

__all__ = ["RuleProfiler", "RuleStats"]


class RuleStats:
    """Per-rule tallies (one row of the profile report)."""

    __slots__ = ("name", "activations", "fires", "match_s", "action_s", "nodes")

    def __init__(self, name: str):
        self.name = name
        self.activations = 0
        self.fires = 0
        self.match_s = 0.0
        self.action_s = 0.0
        #: per-node event counters from the join network
        #: (e.g. ``probe_steps``: beta-memory slots walked by lazy probes)
        self.nodes: dict[str, int] = {}

    @property
    def total_s(self) -> float:
        return self.match_s + self.action_s

    def to_dict(self) -> dict:
        return {
            "rule": self.name,
            "activations": self.activations,
            "fires": self.fires,
            "match_s": self.match_s,
            "action_s": self.action_s,
            "total_s": self.total_s,
            "nodes": dict(self.nodes),
        }


class RuleProfiler:
    """Accumulates rule-engine cost across many sessions.

    ``time_fn`` is injectable for tests; sessions call :meth:`clock`
    around their match/action work only when a profiler is attached, so
    unprofiled runs never touch ``perf_counter``.
    """

    def __init__(self, time_fn: Callable[[], float] = time.perf_counter):
        self.clock = time_fn
        self.stats: dict[str, RuleStats] = {}
        self.agenda_samples: list[int] = []
        self.sessions = 0
        self.total_firings = 0

    # ------------------------------------------------------------------ intake
    def register(self, rule_names: Iterable[str]) -> None:
        """Ensure every rule of a session appears in the report (0 rows too)."""
        self.sessions += 1
        for name in rule_names:
            if name not in self.stats:
                self.stats[name] = RuleStats(name)

    def _row(self, rule_name: str) -> RuleStats:
        row = self.stats.get(rule_name)
        if row is None:
            row = self.stats[rule_name] = RuleStats(rule_name)
        return row

    def record_match(self, rule_name: str, new_activations: int, elapsed_s: float) -> None:
        row = self._row(rule_name)
        row.activations += new_activations
        row.match_s += elapsed_s

    def record_fire(self, rule_name: str, elapsed_s: float) -> None:
        row = self._row(rule_name)
        row.fires += 1
        row.action_s += elapsed_s
        self.total_firings += 1

    def record_node(self, rule_name: str, event: str, n: int = 1) -> None:
        """Count a join-network node event."""
        nodes = self._row(rule_name).nodes
        nodes[event] = nodes.get(event, 0) + n

    def sample_agenda(self, size: int) -> None:
        self.agenda_samples.append(size)

    # ------------------------------------------------------------------ report
    def rows(self) -> list[RuleStats]:
        """Rows sorted by total elapsed (desc), name-tie-broken."""
        return sorted(
            self.stats.values(), key=lambda r: (-r.total_s, -r.fires, r.name)
        )

    def to_dict(self) -> dict:
        samples = self.agenda_samples
        return {
            "sessions": self.sessions,
            "total_firings": self.total_firings,
            "agenda": {
                "samples": len(samples),
                "max": max(samples) if samples else 0,
                "mean": sum(samples) / len(samples) if samples else 0.0,
            },
            "rules": [row.to_dict() for row in self.rows()],
        }

    def report(self) -> str:
        """Human-readable profile table, hottest rules first."""
        rows = self.rows()
        header = (
            f"{'rule':<42} {'activ':>7} {'fires':>7} "
            f"{'match ms':>9} {'action ms':>10} {'total ms':>9}"
        )
        lines = [header, "-" * len(header)]
        for row in rows:
            lines.append(
                f"{row.name:<42} {row.activations:>7} {row.fires:>7} "
                f"{row.match_s * 1e3:>9.2f} {row.action_s * 1e3:>10.2f} "
                f"{row.total_s * 1e3:>9.2f}"
            )
        samples = self.agenda_samples
        mean = sum(samples) / len(samples) if samples else 0.0
        lines.append("-" * len(header))
        lines.append(
            f"{len(rows)} rules, {self.total_firings} firings across "
            f"{self.sessions} sessions; agenda size mean {mean:.1f}, "
            f"max {max(samples) if samples else 0} "
            f"({len(samples)} samples)"
        )
        return "\n".join(lines)
