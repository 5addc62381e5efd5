"""Every entry point ships the same default rule engine — the join network.

The default is spelled in a handful of signatures (service, recovery,
experiment config, shards, CLI); they must agree, and state written under
the previous default (``"indexed"``) must recover under the new one.
"""

import inspect

from repro import ExperimentConfig, PolicyConfig, PolicyService
from repro.analysis.verifier.replay import _fresh_session
from repro.cli import build_parser
from repro.policy.journal import PolicyJournal
from repro.policy.sharding import ShardedPolicyService
from repro.policy.sharding.procshard import ProcessShardBackend
from repro.policy.sharding.shard import InProcessShardBackend
from repro.rules import CompiledSession

from tests.policy.conftest import spec
from tests.policy.test_journal import apply_op, greedy_config, trace

DEFAULT = "compiled"


def test_service_config_router_and_recovery_agree(tmp_path):
    assert PolicyService().engine == DEFAULT
    assert isinstance(PolicyService()._rule_session, CompiledSession)
    assert ExperimentConfig().engine == DEFAULT
    router = ShardedPolicyService(PolicyConfig(), num_shards=2)
    assert [h.backend.service.engine for h in router.shards] == [DEFAULT] * 2
    router.close()
    for entry_point in (
        PolicyService.recover, InProcessShardBackend, ShardedPolicyService,
        ProcessShardBackend, _fresh_session,
    ):
        assert inspect.signature(entry_point).parameters["engine"].default == DEFAULT
    PolicyService(journal=PolicyJournal(tmp_path / "j")).submit_transfers(
        "wf", "job", [spec("a")]
    )
    assert PolicyService.recover(tmp_path / "j").engine == DEFAULT


def test_every_cli_engine_flag_defaults_to_it(capsys):
    parser = build_parser()
    for argv in (["serve"], ["trace", "examples-montage"], ["explain", "1"], ["ensemble"]):
        assert parser.parse_args(argv).engine == DEFAULT
    try:
        parser.parse_args(["serve", "--help"])
    except SystemExit:
        pass
    assert "compiled, the join network, is the default" in " ".join(
        capsys.readouterr().out.split()
    )


def test_journal_written_under_indexed_recovers_under_the_default(tmp_path):
    ops = trace()
    reference = PolicyService(greedy_config(), engine="indexed")
    expected = [apply_op(reference, op) for op in ops]

    journaled = PolicyService(
        greedy_config(), engine="indexed", journal=PolicyJournal(tmp_path / "j")
    )
    for op in ops[:6]:
        apply_op(journaled, op)
    recovered = PolicyService.recover(tmp_path / "j", config=greedy_config())
    assert recovered.engine == DEFAULT
    assert recovered.memory.snapshot() == journaled.memory.snapshot()
    assert recovered.counters() == journaled.counters()
    assert [r["digest"] for r in recovered.decision_records()] == [
        r["digest"] for r in journaled.decision_records()
    ]
    assert [apply_op(recovered, op) for op in ops[6:]] == expected[6:]
    assert [r["digest"] for r in recovered.decision_records()] == [
        r["digest"] for r in reference.decision_records()
    ]
