#!/usr/bin/env python
"""Quickstart: the Policy Service advising data staging.

Shows the core request/advice loop from the paper:

1. a workflow submits a batch of transfer requests;
2. the service de-duplicates, groups by host pair, and allocates parallel
   streams with the greedy algorithm (Table II);
3. completions free streams;
4. a second workflow sharing the same file is told to skip it;
5. cleanup of the shared file is protected until every user releases it.

Run:  python examples/quickstart.py
"""

from repro import PolicyConfig, PolicyService


def main() -> None:
    service = PolicyService(
        PolicyConfig(policy="greedy", default_streams=8, max_streams=50)
    )

    def request(lfn, nbytes):
        return {
            "lfn": lfn,
            "src_url": f"gsiftp://fg-vm/data/{lfn}",
            "dst_url": f"gsiftp://obelix/scratch/{lfn}",
            "nbytes": nbytes,
        }

    print("== 1. A staging job submits seven transfers (8 streams each wanted)")
    advice = service.submit_transfers(
        "montage-run-1", "stage_in_mProjectPP_0",
        [request(f"raw_{i}.fits", 2_000_000) for i in range(7)],
    )
    for item in advice:
        print(f"   {item.lfn}: {item.action:8s} streams={item.streams} "
              f"group={item.group_id} {item.reason}")
    print("   (greedy: 6 x 8 streams = 48, the 7th gets the 2 left under 50)")

    print("\n== 2. Completions free the allocated streams")
    service.complete_transfers(done=[a.tid for a in advice])
    pair = service.snapshot()["host_pairs"]["fg-vm->obelix"]
    print(f"   fg-vm->obelix allocation after completion: {pair['allocated']}")

    print("\n== 3. A second workflow asks for an already-staged file")
    again = service.submit_transfers(
        "montage-run-2", "stage_in_mProjectPP_0", [request("raw_0.fits", 2_000_000)]
    )
    print(f"   raw_0.fits: {again[0].action} — {again[0].reason}")

    print("\n== 4. Cleanup is protected while another workflow uses the file")
    cleanup = service.submit_cleanups(
        "montage-run-1", "cleanup_raw_0",
        [("raw_0.fits", "gsiftp://obelix/scratch/raw_0.fits")],
    )
    print(f"   workflow 1 cleanup: {cleanup[0].action} — {cleanup[0].reason}")
    cleanup2 = service.submit_cleanups(
        "montage-run-2", "cleanup_raw_0",
        [("raw_0.fits", "gsiftp://obelix/scratch/raw_0.fits")],
    )
    print(f"   workflow 2 cleanup: {cleanup2[0].action} (last user released it)")

    print("\n== 5. Service status")
    status = service.snapshot()
    print(f"   policy={status['policy']} memory={status['memory']}")
    transfers = service.metrics.get("repro_policy_transfers_total")
    firings = service.metrics.get("repro_policy_rule_firings_total")
    print(f"   stats: approved={transfers.value(event='approved'):.0f} "
          f"skipped={transfers.value(event='skipped'):.0f} "
          f"rule firings={firings.value():.0f}")


if __name__ == "__main__":
    main()
