"""A15 — failure resilience: policy memory avoids restaging on retries.

Pegasus retries a failed staging job wholesale (the paper's runs use five
retries).  Without the Policy Service the retry re-transfers every file of
the job; with it, the transfers that had already completed are recognized
("file already staged") and skipped, so only the genuinely missing bytes
cross the WAN again.

The effect is amplified by clustering: a clustered staging job carries
many transfers, so a single mid-list failure invalidates a lot of
completed work.  We run with clustering factor 5 (6 images + 6 extras per
clustered job) and sweep the injected per-transfer failure rate.
"""

from dataclasses import replace

import numpy as np

from repro.experiments import ExperimentConfig, TestbedParams
from repro.experiments.runner import run_replicates
from repro.experiments import Series, format_series_table

FAILURE_RATES = (0.0, 0.05, 0.1)
# Total useful bytes: 30 staging jobs x (2 MB image + 100 MB extra) + header.
USEFUL_BYTES = 30 * 102e6 + 1e3


def run_mode(policy, rate, replicates):
    cfg = ExperimentConfig(
        extra_file_mb=100,
        default_streams=4,
        policy=policy,
        threshold=50,
        n_images=30,
        cluster_factor=5,  # many transfers per staging job: waste amplifier
        retries=30,  # generous so every run finishes even under failures
        seed=61,
        testbed=replace(TestbedParams(), failure_rate=rate),
    )
    return run_replicates(cfg, replicates)


def test_policy_reduces_restaging_waste(benchmark, archive, replicates):
    def sweep():
        makespans = {"greedy": Series(label="greedy@50 makespan"),
                     "none": Series(label="no-policy makespan")}
        waste = {"greedy": Series(label="greedy@50 wasted GB"),
                 "none": Series(label="no-policy wasted GB")}
        for rate in FAILURE_RATES:
            for key, policy in (("greedy", "greedy"), ("none", None)):
                metrics = run_mode(policy, rate, replicates)
                makespans[key].add(rate, [m.makespan for m in metrics])
                waste[key].add(
                    rate,
                    [max(0.0, m.bytes_staged - USEFUL_BYTES) / 1e9 for m in metrics],
                )
        return makespans, waste

    makespans, waste = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report = format_series_table(
        "A15 — transfer failure rate vs makespan and wasted (restaged) GB, "
        "30 x 100 MB extras",
        "failure rate",
        [makespans["greedy"], makespans["none"], waste["greedy"], waste["none"]],
    )
    archive(
        "ablation_failures",
        {
            "makespan_greedy": makespans["greedy"].to_dict(),
            "makespan_none": makespans["none"].to_dict(),
            "waste_greedy": waste["greedy"].to_dict(),
            "waste_none": waste["none"].to_dict(),
        },
        report,
    )

    # Without failures neither mode wastes bytes.
    assert waste["greedy"].at(0.0)[0] == 0.0
    assert waste["none"].at(0.0)[0] == 0.0
    # Under failures, the policy's staged-file memory wastes clearly fewer
    # bytes than wholesale job retries.
    for rate in FAILURE_RATES[1:]:
        assert waste["greedy"].at(rate)[0] < waste["none"].at(rate)[0]
    # At the highest rate the savings are substantial (>= 4x less waste)
    # and show up in wall time as well.
    assert waste["greedy"].at(0.1)[0] < waste["none"].at(0.1)[0] * 0.25
    assert makespans["greedy"].at(0.1)[0] < makespans["none"].at(0.1)[0]
