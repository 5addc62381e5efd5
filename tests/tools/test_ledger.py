"""The committed ledger (``BENCH_e2e.json``) and the checks of ``tests/tools/ledger.py``.

The scenarios themselves run in CI's ``bench-selftest`` job (~1 min); here
only the recorded entry and the comparison are checked.
"""

import copy
import json

import pytest

from repro.rules.facts import _TRIM_EVERY
from tests.tools import ledger


@pytest.fixture(scope="module")
def last():
    return json.loads(ledger.LEDGER.read_text())[-1]


def interpreter(entry, **versions):
    return {"python": entry["python"], **versions}


def test_the_last_entry_holds_every_value_the_old_ci_steps_pinned(last):
    v = last["scenarios"]
    smallbatch = v["svc_smallbatch"]
    assert smallbatch["correct"] is True
    assert smallbatch["service.sessions"] < smallbatch["service.calls.submit_transfers"]
    assert smallbatch["journal.commits"] > 0
    assert smallbatch["journal.bytes_per_commit"] < 5000
    assert v["svc_bigbatch"] == {"correct": True, "rules.firings": 2224, "rules.wm_ops": 4896,
                                 "provenance.records": 480}
    assert v["montage_cell"] == {"correct": True, "rules.firings": 1192, "rules.wm_ops": 2864,
                                 "provenance.records": 388, "client.calls": 724,
                                 "des.events": 4820}
    assert v["dag10k_nopolicy"] == {"correct": True, "engine.jobs": 9448, "planner.jobs": 9448,
                                    "des.events": 58548}
    compact = v["compact_10k"]
    assert compact["success"] is True and compact["jobs"] == 23352
    assert compact["peak_B"] / 1e6 <= 29.0
    assert v["rest_loopback"] == {"correct": True, "client.calls": 520, "rest.requests": 520,
                                  "rest.bytes_in": 74956, "client.retries": 0, "rest.errors": 0}
    assert v["montage_sharded4"] == {
        "correct": True, "router.calls": 728, "router.shard_calls": 820, "client.calls": 724,
        "rules.firings": 1192, "provenance.records": 388, "des.events": 4820,
        "router.shard_imbalance": 1.5804878048780489,
    }
    assert v["change_log"]["routed"] < _TRIM_EVERY
    assert v["change_log"]["held"] <= _TRIM_EVERY + 16
    assert v["decision_log"]["freed_B"] <= 8e6
    assert v["recovery"]["recovered"] == v["recovery"]["cap"]
    assert v["recovery"]["transient_B"] <= 8e6


@pytest.mark.parametrize("name", list(ledger.SCENARIOS))
def test_the_last_entry_passes_every_check(name, last):
    assert ledger.failures(name, last["scenarios"][name]) == []


def test_a_failed_check_is_named(last):
    values = dict(last["scenarios"]["montage_cell"], **{"rules.firings": 1193})
    [problem] = ledger.failures("montage_cell", values)
    assert "rules_firings == 1192" in problem and "1193" in problem


def test_a_moved_count_differs_on_every_interpreter(last):
    values = copy.deepcopy(last["scenarios"])
    values["montage_cell"]["des.events"] += 1
    for running in (interpreter(last), interpreter(last, python="3.12.0")):
        assert ledger.compare(values, last, running) == [("montage_cell.des.events", 4820, 4821)]


def test_a_moved_tracked_value_differs_only_under_the_same_interpreter(last):
    values = copy.deepcopy(last["scenarios"])
    values["paper_cell"]["calls.rules"] += 1
    values["compact_10k"]["peak_B"] *= 1.01
    assert {field for field, _, _ in ledger.compare(values, last, interpreter(last))} == {
        "paper_cell.calls.rules", "compact_10k.peak_B"}
    assert ledger.compare(values, last, interpreter(last, python="3.12.0")) == []


def test_bytes_within_a_tenth_of_a_percent_agree(last):
    values = copy.deepcopy(last["scenarios"])
    values["compact_10k"]["peak_B"] += 2048
    assert ledger.compare(values, last, interpreter(last)) == []
