"""A guard helper that names a constant of its own module: a guard in
another module that calls it reads that name through the helper."""

OPEN_STATES = ("new", "queued")


def is_open(fact):
    return fact.status in OPEN_STATES
