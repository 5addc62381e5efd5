"""The router calls its in-process shards serially; dispatch has no knobs."""

import pytest

from repro.policy import PolicyConfig, ShardedPolicyService


def test_concurrent_is_not_an_option():
    """There is no threaded dispatch to ask for: the old ``concurrent=``
    override is refused, not accepted and ignored."""
    with pytest.raises(TypeError):
        ShardedPolicyService(PolicyConfig(), num_shards=2, concurrent=True)
