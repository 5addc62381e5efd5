"""How the router dispatches sub-batches is derived from its backends."""

import pytest

from repro.policy import PolicyConfig, ShardedPolicyService


def test_concurrent_is_not_an_option():
    """Threaded dispatch follows from caller-supplied (process) backends;
    the old ``concurrent=`` override is refused, not accepted and ignored."""
    with pytest.raises(TypeError):
        ShardedPolicyService(PolicyConfig(), num_shards=2, concurrent=True)
