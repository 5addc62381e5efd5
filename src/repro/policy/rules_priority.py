"""Structure-based priority rules (paper §III.c, future work — implemented).

Workflows register per-job priorities computed from the DAG structure
(:mod:`repro.workflow.priorities`).  The rules stamp those priorities onto
incoming transfers; the service then orders advice by priority when
``PolicyConfig.order_by == "priority"``, so higher-priority staging (e.g.
data feeding root jobs or high-fan-out jobs) is performed first.
"""

from __future__ import annotations

from repro.rules import Fact, Pattern, Ref, Rule

from repro.policy import salience
from repro.policy.model import TransferFact

__all__ = ["JobPriorityFact", "priority_rules"]


class JobPriorityFact(Fact):
    """A registered priority for one job of one workflow."""

    def __init__(self, workflow: str, job: str, priority: int):
        self.workflow = workflow
        self.job = job
        self.priority = int(priority)


def _stamp_priority(ctx):
    ctx.update(ctx.t, priority=ctx.p.priority)


def priority_rules() -> list[Rule]:
    """Rules stamping registered structure-based priorities onto transfers."""
    return [
        Rule(
            "Assign the registered structure-based priority to a transfer",
            salience=salience.PRIORITY_STAMP,
            when=[
                Pattern(
                    TransferFact,
                    "t",
                    where=lambda t, b: t.priority == 0,
                    status="new",
                ),
                Pattern(
                    JobPriorityFact,
                    "p",
                    where=lambda p, b: p.priority != 0,
                    workflow=Ref("t", "workflow"),
                    job=Ref("t", "job"),
                ),
            ],
            then=_stamp_priority,
        ),
    ]
