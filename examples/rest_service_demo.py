#!/usr/bin/env python
"""The Policy Service behind its RESTful web interface (paper Fig. 1).

Starts the HTTP/JSON frontend on localhost (standing in for the paper's
Apache Tomcat deployment), then drives the full protocol over real HTTP
with :class:`HTTPPolicyClient`: transfer advice, completion reports,
staging-state queries, cleanup advice, and the status endpoint.

Run:  python examples/rest_service_demo.py
"""

from repro import HTTPPolicyClient, PolicyConfig, PolicyRestServer, PolicyService


def main() -> None:
    service = PolicyService(
        PolicyConfig(policy="greedy", default_streams=8, max_streams=50)
    )
    with PolicyRestServer(service) as server, HTTPPolicyClient(server.url) as client:
        print(f"Policy Service listening on {server.url}\n")

        print("== POST /policy/transfers")
        advice = client.submit_transfers(
            "wf-rest-demo",
            "stage_in_0",
            [
                {
                    "lfn": "survey.dat",
                    "src_url": "gsiftp://fg-vm/data/survey.dat",
                    "dst_url": "gsiftp://obelix/scratch/survey.dat",
                    "nbytes": 500_000_000,
                }
            ],
        )
        item = advice[0]
        print(f"   advice: action={item.action} streams={item.streams} "
              f"group={item.group_id} tid={item.tid}")

        print("== GET /policy/transfers/<tid>")
        print(f"   state: {client.transfer_state(item.tid)}")

        print("== POST /policy/transfers/complete")
        print(f"   {client.complete_transfers(done=[item.tid])}")
        print(f"   staging state now: "
              f"{client.staging_state('survey.dat', item.dst_url)}")

        print("== duplicate request from another workflow")
        again = client.submit_transfers(
            "wf-other", "stage_in_0",
            [
                {
                    "lfn": "survey.dat",
                    "src_url": "gsiftp://fg-vm/data/survey.dat",
                    "dst_url": "gsiftp://obelix/scratch/survey.dat",
                    "nbytes": 500_000_000,
                }
            ],
        )
        print(f"   advice: action={again[0].action} ({again[0].reason})")

        print("== POST /policy/cleanups (file still shared -> protected)")
        cleanups = client.submit_cleanups(
            "wf-rest-demo", "cleanup_0", [("survey.dat", item.dst_url)]
        )
        print(f"   advice: action={cleanups[0].action} ({cleanups[0].reason})")

        print("== GET /policy/status")
        status = client.status()
        print(f"   policy={status['policy']} memory={status['memory']}")
        print(f"   host pairs: {status['host_pairs']}")
    print("\nserver stopped.")


if __name__ == "__main__":
    main()
