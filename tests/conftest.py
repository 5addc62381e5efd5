"""Fixtures shared by every suite."""

from contextlib import nullcontext

import pytest
from hypothesis import Phase, settings

from tests.reference import reference_engine

# Tier-1 Hypothesis bounds: deterministic, no per-example deadline, and
# Hypothesis's own 100 examples for a test that pins none.  The step
# count bounds the Table I-III state machine of
# tests/policy/test_policy_model.py, which ``--hypothesis-profile=long``
# runs on a larger budget outside tier-1.
settings.register_profile(
    "tier1", max_examples=100, stateful_step_count=25, deadline=None, derandomize=True
)
settings.register_profile(
    "long", settings.get_profile("tier1"), max_examples=400, stateful_step_count=60
)
# The same examples without shrinking: the mutation scorecard
# (tests/tools/scorecard.py) needs the first failure, not the smallest.
settings.register_profile(
    "scorecard", settings.get_profile("tier1"),
    phases=[Phase.explicit, Phase.reuse, Phase.generate],
)
settings.load_profile("tier1")

#: Decorator running a test that takes the ``engine`` fixture twice: on
#: the oracle and on the join network.  The ids are the ones these legs
#: have always had — ``seed`` for the full-rescan matcher the
#: reproduction started from, ``compiled`` for the compiled network — so
#: a test's history stays under one id.
both_engines = pytest.mark.parametrize("engine", ["seed", "compiled"], indirect=True)


@pytest.fixture
def engine(request):
    """Under ``"seed"`` every ``PolicyService`` the test builds matches on
    the reference session, under ``"compiled"`` on the join network every
    service ships with (see :data:`both_engines`)."""
    with reference_engine() if request.param == "seed" else nullcontext():
        yield request.param


def counter(service, family: str, **labels) -> int:
    """A counter of ``service``'s registry, summed over a fleet's live
    shards: ``counter(service, "repro_policy_transfers_total",
    event="approved")``."""
    if hasattr(service, "shards"):
        services = [h.service for h in service.shards if h.service is not None]
    else:
        services = [service]
    return int(sum(s.metrics.get(family).value(**labels) for s in services))
