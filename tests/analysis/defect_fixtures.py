"""Seeded-defect fixtures: rule sets and plans that each checker must flag.

Every builder returns an artifact carrying exactly one planted defect, so
the analyzer tests can assert each check fires on its target and stays
quiet otherwise.  The defects planted into the *shipped* packs, and which
check or dynamic oracle catches each, are the mutation scorecard's
(``tests/tools/scorecard.py``).
"""

from repro.planner.executable import (
    ExecutableJob,
    ExecutableWorkflow,
    JobKind,
    TransferSpec,
)
from repro.rules import Fact, Pattern, Rule


class ProbeFact(Fact):
    """A small fact with a status, an id and a file name."""

    def __init__(self, tid: int, status: str, lfn: str):
        self.tid = tid
        self.status = status
        self.lfn = lfn


class CounterFact(Fact):
    def __init__(self, value: int):
        self.value = value


def _noop(ctx):
    pass


# -- rule-set defects -------------------------------------------------------
def magic_salience_rules():
    """R008: salience 77 is not a named tier in repro.policy.salience."""
    return [
        Rule("Fires at an unregistered tier", when=[Pattern(ProbeFact, "t")],
             then=_noop, salience=77)
    ]


def duplicate_name_rules():
    """R010: the same rule name appears in two loaded packs."""
    pack_a = [
        Rule("Grant the probe", when=[Pattern(ProbeFact, "t")], then=_noop)
    ]
    pack_b = [
        Rule("Grant the probe", when=[Pattern(CounterFact, "c")], then=_noop)
    ]
    return pack_a + pack_b


def unkeyed_join_rules():
    """R009: a join-plan rule whose last pattern states no equality
    constraint."""
    return [
        Rule(
            "Join with an unkeyed last position",
            when=[
                Pattern(ProbeFact, "t", status="new"),
                Pattern(CounterFact, "c",
                        where=lambda c, b: c.value >= 0),
            ],
            then=_noop,
        )
    ]


# -- plan defects -----------------------------------------------------------
def _stage_in(job_id: str, lfn: str) -> ExecutableJob:
    return ExecutableJob(
        id=job_id,
        kind=JobKind.STAGE_IN,
        site="isi",
        transfers=[TransferSpec(lfn, f"http://src/{lfn}", f"gsiftp://isi/{lfn}", 1.0)],
    )


def _compute(job_id: str, inputs=(), outputs=()) -> ExecutableJob:
    return ExecutableJob(
        id=job_id,
        kind=JobKind.COMPUTE,
        transform="process",
        site="isi",
        input_files=[(lfn, 1.0) for lfn in inputs],
        output_files=[(lfn, 1.0) for lfn in outputs],
    )


def cyclic_plan() -> ExecutableWorkflow:
    """P001: a -> b -> a."""
    plan = ExecutableWorkflow("defect-cycle", "defect-cycle#1")
    plan.add_job(_compute("a"))
    plan.add_job(_compute("b"))
    plan.add_edge("a", "b")
    plan.add_edge("b", "a")
    return plan


def unconsumed_stage_in_plan() -> ExecutableWorkflow:
    """P002: stages 'extra.dat' which no compute job reads."""
    plan = ExecutableWorkflow("defect-unconsumed", "defect-unconsumed#1")
    plan.add_job(_stage_in("stage_in_a", "raw.dat"))
    plan.add_job(_stage_in("stage_in_extra", "extra.dat"))
    plan.add_job(_compute("a", inputs=["raw.dat"], outputs=["out.dat"]))
    plan.add_edge("stage_in_a", "a")
    plan.add_edge("stage_in_extra", "a")
    return plan


def premature_cleanup_plan() -> ExecutableWorkflow:
    """P003: cleanup of 'raw.dat' is not ordered after consumer 'b'."""
    plan = ExecutableWorkflow("defect-early-cleanup", "defect-early-cleanup#1")
    plan.add_job(_stage_in("stage_in_a", "raw.dat"))
    plan.add_job(_compute("a", inputs=["raw.dat"], outputs=["mid.dat"]))
    plan.add_job(_compute("b", inputs=["raw.dat", "mid.dat"], outputs=["out.dat"]))
    plan.add_job(
        ExecutableJob(
            id="cleanup_raw.dat",
            kind=JobKind.CLEANUP,
            site="isi",
            cleanup_files=[("raw.dat", "gsiftp://isi/raw.dat")],
        )
    )
    plan.add_edge("stage_in_a", "a")
    plan.add_edge("a", "b")
    plan.add_edge("a", "cleanup_raw.dat")  # b still needs raw.dat
    return plan


def unproduced_input_plan() -> ExecutableWorkflow:
    """P004: 'ghost.dat' is consumed but never staged nor produced."""
    plan = ExecutableWorkflow("defect-ghost", "defect-ghost#1")
    plan.add_job(_compute("a", inputs=["ghost.dat"], outputs=["out.dat"]))
    return plan


def clean_plan() -> ExecutableWorkflow:
    """A small defect-free plan (stage-in -> compute chain -> cleanup)."""
    plan = ExecutableWorkflow("clean", "clean#1")
    plan.add_job(_stage_in("stage_in_a", "raw.dat"))
    plan.add_job(_compute("a", inputs=["raw.dat"], outputs=["mid.dat"]))
    plan.add_job(_compute("b", inputs=["mid.dat"], outputs=["out.dat"]))
    plan.add_job(
        ExecutableJob(
            id="cleanup_raw.dat",
            kind=JobKind.CLEANUP,
            site="isi",
            cleanup_files=[("raw.dat", "gsiftp://isi/raw.dat")],
        )
    )
    plan.add_edge("stage_in_a", "a")
    plan.add_edge("a", "b")
    plan.add_edge("a", "cleanup_raw.dat")
    return plan
