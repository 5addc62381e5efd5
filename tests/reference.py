"""The seam through which service-level suites reach the oracle.

``PolicyService.session_class`` is the class every service builds its
one rule session from — directly, through ``recover``, inside a shard
backend or under ``run_cell``.  Production code never assigns it; inside
``reference_engine()`` it is the full-rescan
:class:`~repro.rules.reference.ReferenceSession`, so a suite runs the
same scenario once on each side and compares bytes.
"""

from contextlib import contextmanager

from repro.policy.service import PolicyService
from repro.rules.reference import ReferenceSession


@contextmanager
def reference_engine():
    """Services built inside the block match with the reference session."""
    saved = PolicyService.session_class
    PolicyService.session_class = ReferenceSession
    try:
        yield
    finally:
        PolicyService.session_class = saved

