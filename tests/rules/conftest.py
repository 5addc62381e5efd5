"""The one equivalence harness of the rule-engine suites."""

from repro.rules import Session
from repro.rules.reference import ReferenceSession

#: the oracle first: a mismatch is reported against what it fired
SESSIONS = {"reference": ReferenceSession, "network": Session}


def new_session(mode, rules, memory=None):
    """A ``mode`` session (a key of :data:`SESSIONS`) over ``memory``."""
    return SESSIONS[mode](rules, memory=memory)


def run_equivalent(make_rules, scenario):
    """Run ``scenario(session, trace)`` on the reference session and on
    the join network; the firing traces must be equal.  Returns it."""
    traces = {}
    for mode in SESSIONS:
        trace = traces[mode] = []
        scenario(new_session(mode, make_rules(trace)), trace)
    assert traces["network"] == traces["reference"]
    return traces["reference"]
