"""The compiled shape of every shipped rule, pinned by name.

Per condition element: its kind, the attributes of its index key
(``key_attrs``, None when it states no equality) and its constant keys;
per rule: its read set (``RulePlan.reads``, None when unbounded).  The
join network buckets, probes and routes on the first two and read-gates
updates on the third, so an index that drifts or a read set that
shrinks changes what is matched or re-derived.  The table was generated
while the packs declared their indexes as ``keys=`` functions, so it
holds the constraints to the same indexes; its read sets omit only the
name of ``_pair_of``, an equality helper the guards no longer call.
"""

import pytest

from repro.analysis.rulelint import shipped_rule_sets
from repro.rules import compile_rules

#: rule name -> ([(element kind, key_attrs, constant keys)], sorted reads)
SHAPES = {
    'Assign a default level of parallel streams to a transfer': (
        [
            ('Pattern', ('status',), {'status': 'new'}),
        ],
        ['requested_streams', 'status'],
    ),
    'Assign the group ID to a transfer based on its source and destination host pair': (
        [
            ('Pattern', ('status',), {'status': 'new'}),
            ('Pattern', ('dst_host', 'src_host'), {}),
        ],
        ['dst_host', 'group_id', 'src_host', 'status'],
    ),
    'Assign the registered structure-based priority to a transfer': (
        [
            ('Pattern', ('status',), {'status': 'new'}),
            ('Pattern', ('job', 'workflow'), {}),
        ],
        ['job', 'priority', 'status', 'workflow'],
    ),
    'Associate a transfer with a resource to track the number of workflows using the staged file': (
        [
            ('Pattern', ('status',), {'status': 'new'}),
            ('Pattern', ('dst_url', 'lfn'), {}),
        ],
        ['dst_url', 'lfn', 'status', 'users', 'workflow'],
    ),
    "Charge an admitted transfer against its workflow's quota": (
        [
            ('Pattern', ('status',), {'status': 'new'}),
            ('Pattern', ('workflow',), {}),
        ],
        ['max_bytes', 'nbytes', 'quota_charged', 'status', 'used_bytes', 'workflow'],
    ),
    "Clamp a transfer's streams to its tenant's remaining aggregate budget and charge the reservation": (
        [
            ('Pattern', ('status',), {'status': 'new'}),
            ('Pattern', ('tenant',), {}),
        ],
        ['max_streams', 'requested_streams', 'status', 'tenant', 'tenant_streams_reserved'],
    ),
    'Create a resource for a new transfer to track the resulting staged file': (
        [
            ('Pattern', ('status',), {'status': 'new'}),
            ('Absent', ('dst_url', 'lfn'), {}),
        ],
        ['dst_url', 'lfn', 'status'],
    ),
    'Deny transfers that involve an administratively denied host': (
        [
            ('Pattern', None, {}),
            ('Pattern', ('status',), {'status': 'new'}),
        ],
        ['direction', 'dst_host', 'host', 'src_host', 'status'],
    ),
    "Deny transfers that would exceed their workflow's staging quota": (
        [
            ('Pattern', ('status',), {'status': 'new'}),
            ('Pattern', ('workflow',), {}),
        ],
        ['max_bytes', 'nbytes', 'quota_charged', 'status', 'used_bytes', 'workflow'],
    ),
    "Detach a transfer from the resource when it requests to cleanup the resource's staged file": (
        [
            ('Pattern', ('status',), {'status': 'new'}),
            ('Pattern', ('dst_url',), {}),
        ],
        ['dst_url', 'status', 'url', 'users', 'workflow'],
    ),
    "Enforce the max number of parallel streams on a transfer that fits within its cluster's share": (
        [
            ('Pattern', ('status',), {'status': 'new'}),
            ('Pattern', ('cluster', 'dst_host', 'src_host'), {}),
        ],
        None,
    ),
    'Enforce the max number of parallel streams on a transfer that violates the number of available streams below the threshold on its cluster': (
        [
            ('Pattern', ('status',), {'status': 'new'}),
            ('Pattern', ('cluster', 'dst_host', 'src_host'), {}),
        ],
        None,
    ),
    'Enforce the maximum number of parallel streams on a transfer': (
        [
            ('Pattern', ('status',), {'status': 'new'}),
            ('Pattern', ('dst_host', 'src_host'), {}),
        ],
        ['allocated', 'allocated_streams', 'dst_host', 'group_id', 'requested_streams', 'src_host', 'status', 'threshold'],
    ),
    'Ensure each transfer has at least one parallel stream assigned': (
        [
            ('Pattern', ('status',), {'status': 'new'}),
        ],
        ['requested_streams', 'status'],
    ),
    'Expire a cleanup whose lease deadline has passed': (
        [
            ('Pattern', None, {}),
            ('Pattern', ('status',), {'status': 'in_progress'}),
        ],
        ['lease_deadline', 'now', 'status'],
    ),
    'Expire a transfer whose lease deadline has passed': (
        [
            ('Pattern', None, {}),
            ('Pattern', ('status',), {'status': 'in_progress'}),
        ],
        ['lease_deadline', 'now', 'status'],
    ),
    'Generate a unique group ID for a source and destination host pair': (
        [
            ('Pattern', ('status',), {'status': 'new'}),
            ('Absent', ('dst_host', 'src_host'), {}),
        ],
        ['dst_host', 'src_host', 'status'],
    ),
    'If the number of requested streams would exceed the maximum streams threshold, then allocate only the number of streams that does not exceed the threshold': (
        [
            ('Pattern', ('status',), {'status': 'new'}),
            ('Pattern', ('dst_host', 'src_host'), {}),
        ],
        ['allocated', 'allocated_streams', 'dst_host', 'group_id', 'requested_streams', 'src_host', 'status', 'threshold'],
    ),
    'If the threshold has been reached or exceeded, allocate one stream for the new transfer': (
        [
            ('Pattern', ('status',), {'status': 'new'}),
            ('Pattern', ('dst_host', 'src_host'), {}),
        ],
        ['allocated', 'allocated_streams', 'dst_host', 'group_id', 'requested_streams', 'src_host', 'status', 'threshold'],
    ),
    'Insert new cleanups into policy memory': (
        [
            ('Pattern', ('status',), {'status': 'submitted'}),
        ],
        ['status'],
    ),
    'Insert new cleanups into policy memory for resources that no longer have transfers using their staged files': (
        [
            ('Pattern', None, {}),
            ('Absent', ('dst_url',), {}),
        ],
        ['dst_url', 'len', 'status', 'url', 'users'],
    ),
    'Insert new transfers into policy memory': (
        [
            ('Pattern', ('status',), {'status': 'submitted'}),
        ],
        ['status'],
    ),
    'Record the number of parallel streams used by a transfer against the defined cluster threshold (share exhausted: single stream)': (
        [
            ('Pattern', ('status',), {'status': 'new'}),
            ('Pattern', ('cluster', 'dst_host', 'src_host'), {}),
        ],
        None,
    ),
    "Refund a failed transfer's quota charge": (
        [
            ('Pattern', ('status',), {'status': 'failed'}),
            ('Pattern', ('workflow',), {}),
        ],
        ['quota_charged', 'status', 'workflow'],
    ),
    'Refund the tenant reservation beyond what the pair threshold actually granted': (
        [
            ('Pattern', ('status',), {'status': 'new'}),
            ('Pattern', ('tenant',), {}),
        ],
        ['allocated_streams', 'status', 'tenant', 'tenant_streams_reserved'],
    ),
    "Release a completed transfer's tenant reservation and account its bytes to the tenant's staged-byte ledger": (
        [
            ('Pattern', ('status',), {'status': 'done'}),
            ('Pattern', ('tenant',), {}),
        ],
        ['status', 'tenant', 'tenant_settled'],
    ),
    "Release a failed transfer's tenant reservation": (
        [
            ('Pattern', ('status',), {'status': 'failed'}),
            ('Pattern', ('tenant',), {}),
        ],
        ['status', 'tenant', 'tenant_settled'],
    ),
    'Remove a transfer that has completed': (
        [
            ('Pattern', ('status',), {'status': 'done'}),
        ],
        ['status'],
    ),
    'Remove a transfer that has failed': (
        [
            ('Pattern', ('status',), {'status': 'failed'}),
        ],
        ['status'],
    ),
    'Remove cleanups from the cleanup list that specify resources that have other transfers using the staged files': (
        [
            ('Pattern', None, {}),
            ('Pattern', ('dst_url',), {}),
        ],
        ['dst_url', 'len', 'status', 'url', 'users'],
    ),
    'Remove duplicate cleanup requests that are in progress or completed': (
        [
            ('Pattern', ('status',), {'status': 'new'}),
            ('Pattern', ('url',), {}),
        ],
        ['cid', 'status', 'url'],
    ),
    'Remove duplicate transfers from the transfer list': (
        [
            ('Pattern', ('status',), {'status': 'new'}),
            ('Pattern', ('dst_url', 'lfn'), {}),
        ],
        ['dst_url', 'lfn', 'status', 'tid'],
    ),
    'Remove transfers from the transfer list that are already in progress': (
        [
            ('Pattern', ('status',), {'status': 'new'}),
            ('Pattern', ('dst_url', 'lfn'), {}),
            ('Pattern', ('dst_url', 'lfn'), {}),
        ],
        ['dst_url', 'lfn', 'status'],
    ),
    'Remove transfers whose file is already staged': (
        [
            ('Pattern', ('status',), {'status': 'new'}),
            ('Pattern', ('dst_url', 'lfn'), {}),
        ],
        ['dst_url', 'lfn', 'status'],
    ),
    'Retain cleanups for catalog replicas while their site has capacity': (
        [
            ('Pattern', None, {}),
            ('Pattern', ('url',), {}),
            ('Pattern', ('site',), {}),
        ],
        ['_under_budget', 'capacity_bytes', 'site', 'status', 'url', 'used_bytes'],
    ),
    'Retire a completed eviction sweep': (
        [
            ('Pattern', None, {}),
        ],
        [],
    ),
    'Retire a completed lease sweep': (
        [
            ('Pattern', None, {}),
        ],
        [],
    ),
    'Retrieve the parallel streams threshold defined between a source and destination host': (
        [
            ('Pattern', None, {}),
        ],
        ['threshold'],
    ),
    'Retrieve the parallel streams threshold defined for a single cluster between a source and destination host': (
        [
            ('Pattern', ('status',), {'status': 'new'}),
            ('Absent', ('cluster', 'dst_host', 'src_host'), {}),
        ],
        ['allocated_streams', 'cluster', 'dst_host', 'group_id', 'requested_streams', 'src_host', 'status'],
    ),
    'Select eviction victims on a site over its byte budget': (
        [
            ('Pattern', None, {}),
            ('Pattern', None, {}),
            ('Collect', ('site',), {}),
        ],
        ['capacity_bytes', 'pin_count', 'site', 'used_bytes'],
    ),
    'Stamp the owning tenant onto a newly admitted transfer': (
        [
            ('Pattern', ('status',), {'status': 'new'}),
            ('Pattern', ('workflow',), {}),
        ],
        ['status', 'tenant', 'workflow'],
    ),
}


COMPOSITIONS = shipped_rule_sets()


@pytest.mark.parametrize("composition", sorted(COMPOSITIONS))
def test_every_position_key_and_read_set_is_pinned(composition):
    rules, _globals = COMPOSITIONS[composition]
    for plan in compile_rules(rules).plans:
        name = plan.rule.name
        elements, reads = SHAPES[name]
        shape = [
            (type(el).__name__, el.key_attrs, dict(el.const_keys)) for el in plan.rule.when
        ]
        assert shape == elements, f"{composition}: {name!r} indexes {shape}"
        for position in plan.positions:
            assert (position.key_attrs, dict(position.const_keys)) == elements[
                position.index
            ][1:], f"{composition}: {name!r} position {position.index}"
        got = None if plan.reads is None else sorted(plan.reads)
        assert got == reads, f"{composition}: {name!r} reads {got}"


def test_the_table_names_only_shipped_rules():
    shipped = {rule.name for rules, _globals in COMPOSITIONS.values() for rule in rules}
    assert shipped == set(SHAPES)
