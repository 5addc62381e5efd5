"""Seeded-defect fixtures: rule sets and plans that each checker must flag.

Every builder returns an artifact carrying exactly one planted defect, so
the analyzer tests can assert each check fires on its target and stays
quiet otherwise.
"""

from repro.planner.executable import (
    ExecutableJob,
    ExecutableWorkflow,
    JobKind,
    TransferSpec,
)
from repro.rules import Fact, Pattern, Rule


class ProbeFact(Fact):
    """A small fact with the attribute shapes the factory understands."""

    def __init__(self, tid: int, status: str, lfn: str):
        self.tid = tid
        self.status = status
        self.lfn = lfn


class CounterFact(Fact):
    def __init__(self, value: int):
        self.value = value


class OrphanFact(Fact):
    """Never inserted by any action or service entry point."""

    def __init__(self, tid: int):
        self.tid = tid


class PingFact(Fact):
    def __init__(self, tid: int):
        self.tid = tid


class PongFact(Fact):
    def __init__(self, tid: int):
        self.tid = tid


def _noop(ctx):
    pass


# -- rule-set defects -------------------------------------------------------
def bad_key_hint_rules():
    """R001: the keys hint filters on 'submitted' while the guard accepts
    'new' — every keyed lookup silently misses the guard's matches."""
    return [
        Rule(
            "Probe new transfers with a stale key hint",
            when=[
                Pattern(
                    ProbeFact,
                    "t",
                    where=lambda t, b: t.status == "new",
                    keys={"status": lambda b: "submitted"},
                )
            ],
            then=_noop,
        )
    ]


def unknown_attribute_rules():
    """R002: the guard probes an attribute ProbeFact does not define."""
    return [
        Rule(
            "Probe a misspelled status attribute",
            when=[Pattern(ProbeFact, "t", where=lambda t, b: t.statuss == "new")],
            then=_noop,
        )
    ]


def salience_tie_rules():
    """R003: two equal-salience rules activate on the same facts."""
    return [
        Rule("First unguarded probe", when=[Pattern(ProbeFact, "t")], then=_noop,
             salience=10),
        Rule("Second unguarded probe", when=[Pattern(ProbeFact, "t")], then=_noop,
             salience=10),
    ]


def shadowing_rules():
    """R004: the high-salience rule retracts every fact the low one needs."""

    def _consume(ctx):
        ctx.retract(ctx.t)

    return [
        Rule("Consume every probe fact", when=[Pattern(ProbeFact, "t")],
             then=_consume, salience=20),
        Rule("Starved low-salience probe", when=[Pattern(ProbeFact, "t")],
             then=_noop, salience=5),
    ]


def divergent_rules():
    """R005: updates its own matched fact without no_loop and with a guard
    its action never falsifies — classic max_firings divergence."""

    def _bump(ctx):
        ctx.update(ctx.c, value=ctx.c.value + 1)

    return [
        Rule(
            "Increment a counter forever",
            when=[Pattern(CounterFact, "c", where=lambda c, b: c.value >= 0)],
            then=_bump,
        )
    ]


def unreachable_rules():
    """R006: OrphanFact is never inserted by anything."""
    return [
        Rule("Wait for a fact that never arrives",
             when=[Pattern(OrphanFact, "o")], then=_noop)
    ]


def dependency_cycle_rules():
    """R007: ping inserts pong, pong inserts ping."""

    def _ping(ctx):
        ctx.retract(ctx.p)
        ctx.insert(PongFact(ctx.p.tid))

    def _pong(ctx):
        ctx.retract(ctx.q)
        ctx.insert(PingFact(ctx.q.tid + 1))

    return [
        Rule("Ping", when=[Pattern(PingFact, "p")], then=_ping),
        Rule("Pong", when=[Pattern(PongFact, "q")], then=_pong),
    ]


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
    """R009: a join-plan rule whose last pattern declares no keys."""
    return [
        Rule(
            "Join with an unkeyed last position",
            when=[
                Pattern(ProbeFact, "t", where=lambda t, b: t.status == "new",
                        keys={"status": lambda b: "new"}),
                Pattern(CounterFact, "c",
                        where=lambda c, b: c.value >= 0),
            ],
            then=_noop,
        )
    ]


# -- verifier defects (V001/V002/V004) -------------------------------------
class GrantFact(Fact):
    """Lifecycle subject: enters 'submitted', is driven to done/failed."""

    def __init__(self, tid: int, status: str = "submitted"):
        self.tid = tid
        self.status = status


class PoolFact(Fact):
    """Carries a reserve-shaped ledger the defect pack fails to unwind."""

    def __init__(self, pool: str):
        self.pool = pool
        self.reserved = 0


def non_confluent_rules():
    """V001: both rules claim the same 'new' probe at equal salience and
    steer it to different states — whichever fires first wins, so the
    final memory depends on the agenda tie-break."""

    def _route_a(ctx):
        ctx.update(ctx.t, status="path-a")

    def _route_b(ctx):
        ctx.update(ctx.t, status="path-b")

    return [
        Rule(
            "Route new probes through path A",
            when=[Pattern(ProbeFact, "t", where=lambda t, b: t.status == "new")],
            then=_route_a,
            salience=10,
        ),
        Rule(
            "Route new probes through path B",
            when=[Pattern(ProbeFact, "t", where=lambda t, b: t.status == "new")],
            then=_route_b,
            salience=10,
        ),
    ]


def unbalanced_reserve_rules():
    """V002: admission charges PoolFact.reserved, but only the 'done'
    terminal releases it — failed grants leak their reservation."""

    def _reserve(ctx):
        ctx.update(ctx.g, status="held")
        ctx.update(ctx.p, reserved=ctx.p.reserved + 1)

    def _release_done(ctx):
        ctx.update(ctx.p, reserved=ctx.p.reserved - 1)
        ctx.retract(ctx.g)

    return [
        Rule(
            "Reserve a pool slot for a submitted grant",
            when=[
                Pattern(GrantFact, "g", where=lambda g, b: g.status == "submitted"),
                Pattern(PoolFact, "p"),
            ],
            then=_reserve,
            salience=40,
        ),
        Rule(
            "Release the pool slot of a completed grant",
            when=[
                Pattern(GrantFact, "g", where=lambda g, b: g.status == "done"),
                Pattern(PoolFact, "p"),
            ],
            then=_release_done,
            salience=90,
        ),
        # no release path for status == "failed": the planted defect
    ]


def approving_pack():
    """Half of the V001 cross-pack conflict: approves pending probes.
    Clean alone — the conflict only exists composed with denying_pack."""

    def _approve(ctx):
        ctx.update(ctx.t, status="approved")

    return [
        Rule(
            "Approve pending probes",
            when=[Pattern(ProbeFact, "t", where=lambda t, b: t.status == "pending")],
            then=_approve,
            salience=50,
        )
    ]


def denying_pack():
    """Other half of the cross-pack conflict: denies the same probes."""

    def _deny(ctx):
        ctx.update(ctx.t, status="denied")

    return [
        Rule(
            "Deny pending probes",
            when=[Pattern(ProbeFact, "t", where=lambda t, b: t.status == "pending")],
            then=_deny,
            salience=50,
        )
    ]


def stale_globals_rules():
    """V004 (dynamic): the counter rule's guard reads a session global
    that the promoting rule sets.  A global is no fact, so setting it
    routes nothing: the join network never re-checks the counter rule,
    while the re-enumerating reference fires it."""

    def _promote(ctx):
        ctx.globals["opened"] = True
        ctx.update(ctx.t, status="new")

    def _mark(ctx):
        if ctx.c.value != 99:
            ctx.update(ctx.c, value=99)

    return [
        Rule(
            "Promote submitted probes and open the counter",
            when=[Pattern(ProbeFact, "t", where=lambda t, b: t.status == "submitted")],
            then=_promote,
            salience=20,
        ),
        Rule(
            "Mark the counter once a probe opened it",
            when=[
                Pattern(CounterFact, "c",
                        where=lambda c, b: b["_globals"].get("opened")),
            ],
            then=_mark,
            salience=10,
        ),
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
