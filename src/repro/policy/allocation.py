"""Analytic stream-allocation math (drives the paper's Table IV).

These pure functions mirror what the rule packs do operationally, so the
expected allocations can be computed (and tested) without running the rule
engine.  ``max_streams_table`` regenerates Table IV: the maximum number of
simultaneous streams between a host pair when 20 data staging jobs run
concurrently (the paper's local job limit).
"""

from __future__ import annotations

__all__ = [
    "greedy_allocate",
    "greedy_allocation_trace",
    "max_streams_table",
    "TABLE4_DEFAULTS",
    "TABLE4_THRESHOLDS",
    "NO_POLICY_DEFAULT_STREAMS",
]

#: Default-streams-per-transfer values reported in Table IV.
TABLE4_DEFAULTS = (4, 6, 8, 10, 12)
#: Greedy thresholds reported in Table IV.
TABLE4_THRESHOLDS = (50, 100, 200)
#: Default Pegasus (no policy) uses 4 streams per transfer (Fig. 6 caption).
NO_POLICY_DEFAULT_STREAMS = 4
#: The paper's local job limit: at most 20 staging jobs run at once.
PAPER_JOB_LIMIT = 20


def greedy_allocate(requested: int, allocated: int, threshold: int) -> int:
    """Streams the greedy policy grants one transfer.

    ``allocated`` is the pair's current total; grants never push a pair
    below one stream per transfer (no starvation).
    """
    if requested < 1:
        raise ValueError("requested must be >= 1")
    if allocated < 0 or threshold < 1:
        raise ValueError("allocated >= 0 and threshold >= 1 required")
    if allocated >= threshold:
        return 1
    if allocated + requested > threshold:
        return threshold - allocated
    return requested


def greedy_allocation_trace(
    n_transfers: int, default_streams: int, threshold: int
) -> list[int]:
    """Per-transfer grants for ``n_transfers`` arriving concurrently."""
    if n_transfers < 0:
        raise ValueError("n_transfers must be >= 0")
    grants: list[int] = []
    allocated = 0
    for _ in range(n_transfers):
        grant = greedy_allocate(default_streams, allocated, threshold)
        grants.append(grant)
        allocated += grant
    return grants


def max_streams_table(
    defaults: tuple[int, ...] = TABLE4_DEFAULTS,
    thresholds: tuple[int, ...] = TABLE4_THRESHOLDS,
    n_jobs: int = PAPER_JOB_LIMIT,
    no_policy_streams: int = NO_POLICY_DEFAULT_STREAMS,
) -> dict:
    """Regenerate Table IV.

    Returns ``{"no_policy": N, "greedy": {threshold: {default: max_streams}}}``
    where ``max_streams`` is the total streams allocated when ``n_jobs``
    staging jobs run simultaneously.
    """
    table: dict = {"no_policy": n_jobs * no_policy_streams, "greedy": {}}
    for threshold in thresholds:
        row = {}
        for default in defaults:
            row[default] = sum(greedy_allocation_trace(n_jobs, default, threshold))
        table["greedy"][threshold] = row
    return table


def format_table4(table: dict) -> str:
    """Render Table IV the way the paper prints it."""
    defaults = sorted(next(iter(table["greedy"].values())))
    lines = ["Greedy streams threshold | " + " ".join(f"{d:>5}" for d in defaults)]
    for threshold in sorted(table["greedy"]):
        row = table["greedy"][threshold]
        lines.append(
            f"{threshold:>24} | " + " ".join(f"{row[d]:>5}" for d in defaults)
        )
    lines.append(f"{'No policy case':>24} | {table['no_policy']:>5}")
    return "\n".join(lines)
