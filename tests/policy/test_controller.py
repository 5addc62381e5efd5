"""Tests of the Policy Controller's validation/translation layer."""

import pytest

from repro.policy import PolicyConfig, PolicyController, PolicyRequestError, PolicyService


@pytest.fixture
def controller():
    return PolicyController(PolicyService(PolicyConfig(policy="greedy")))


def transfer_payload(**overrides):
    payload = {
        "workflow": "wf",
        "job": "j",
        "transfers": [
            {
                "lfn": "f",
                "src_url": "gsiftp://src/d/f",
                "dst_url": "gsiftp://dst/s/f",
                "nbytes": 100,
            }
        ],
    }
    payload.update(overrides)
    return payload


def test_submit_transfers_roundtrip(controller):
    doc = controller.submit_transfers(transfer_payload())
    assert doc["workflow"] == "wf"
    assert len(doc["advice"]) == 1
    advice = doc["advice"][0]
    assert advice["action"] == "transfer"
    assert advice["streams"] == 4
    assert isinstance(advice["tid"], int)


def test_missing_fields_rejected(controller):
    with pytest.raises(PolicyRequestError, match="workflow"):
        controller.submit_transfers({"job": "j", "transfers": []})
    with pytest.raises(PolicyRequestError, match="transfers"):
        controller.submit_transfers({"workflow": "w", "job": "j"})
    with pytest.raises(PolicyRequestError, match="src_url"):
        controller.submit_transfers(
            transfer_payload(transfers=[{"lfn": "f", "dst_url": "gsiftp://d/f"}])
        )


def test_bad_types_rejected(controller):
    with pytest.raises(PolicyRequestError):
        controller.submit_transfers(transfer_payload(transfers=["nope"]))
    with pytest.raises(PolicyRequestError, match="nbytes"):
        bad = transfer_payload()
        bad["transfers"][0]["nbytes"] = -5
        controller.submit_transfers(bad)
    with pytest.raises(PolicyRequestError, match="streams"):
        bad = transfer_payload()
        bad["transfers"][0]["streams"] = 0
        controller.submit_transfers(bad)
    with pytest.raises(PolicyRequestError):
        controller.submit_transfers("not a dict")


def test_complete_transfers_validation(controller):
    doc = controller.submit_transfers(transfer_payload())
    tid = doc["advice"][0]["tid"]
    assert controller.complete_transfers({"done": [tid]})["acknowledged"] == 1
    with pytest.raises(PolicyRequestError):
        controller.complete_transfers({"done": ["x"]})


def test_transfer_and_staging_state(controller):
    doc = controller.submit_transfers(transfer_payload())
    tid = doc["advice"][0]["tid"]
    assert controller.transfer_state(tid)["state"] == "in_progress"
    with pytest.raises(PolicyRequestError):
        controller.transfer_state("nope")
    state = controller.staging_state({"lfn": "f", "url": "gsiftp://dst/s/f"})
    assert state["state"] == "staging"


def test_cleanup_endpoints(controller):
    doc = controller.submit_transfers(transfer_payload())
    controller.complete_transfers({"done": [doc["advice"][0]["tid"]]})
    cleanup = controller.submit_cleanups(
        {"workflow": "wf", "job": "c", "files": [{"lfn": "f", "url": "gsiftp://dst/s/f"}]}
    )
    assert cleanup["advice"][0]["action"] == "delete"
    ack = controller.complete_cleanups({"ids": [cleanup["advice"][0]["cid"]]})
    assert ack["acknowledged"] == 1
    with pytest.raises(PolicyRequestError):
        controller.submit_cleanups({"workflow": "wf", "job": "c", "files": ["x"]})
    with pytest.raises(PolicyRequestError):
        controller.complete_cleanups({"ids": "nope"})


def test_priorities_endpoints(controller):
    doc = controller.register_priorities({"workflow": "wf", "priorities": {"j": 5}})
    assert doc["registered"] == 1
    with pytest.raises(PolicyRequestError):
        controller.register_priorities({"workflow": "wf", "priorities": {"j": "high"}})
    assert controller.unregister_workflow({"workflow": "wf"})["unregistered"]


def test_status(controller):
    status = controller.status()
    assert status["policy"] == "greedy"
    assert "stats" not in status
    assert "repro_policy_transfers_total" in status["metrics"]
