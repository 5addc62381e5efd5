"""Fixtures shared by every suite."""

from contextlib import nullcontext

import pytest

from tests.reference import reference_engine

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
