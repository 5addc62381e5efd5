#!/usr/bin/env python
"""Learning the best stream threshold (paper future work, implemented).

The paper closes by proposing machine-learning the most beneficial
transfer settings.  Here an epsilon-greedy bandit picks stream thresholds
for successive (simulated) Montage campaigns and converges toward the
environment's sweet spot — just under the WAN's congestion knee.

Run:  python examples/threshold_tuning.py
"""

from repro import ExperimentConfig, run_cell
from repro.des.rng import Stream
from repro.policy.tuning import ThresholdTuner


def main() -> None:
    candidates = (30, 50, 80, 130, 200)
    tuner = ThresholdTuner(candidates, epsilon=0.2, rng=Stream(3))
    print(f"candidate thresholds: {candidates}")
    print("running 18 tuning iterations (one simulated campaign each)...\n")

    for step in range(18):
        threshold = tuner.suggest()
        metrics = run_cell(
            ExperimentConfig(
                extra_file_mb=100,
                default_streams=8,
                policy="greedy",
                threshold=threshold,
                n_images=45,
                seed=step,
            )
        )
        tuner.observe(threshold, metrics.makespan)
        print(f"  step {step:2d}: threshold {threshold:>3d} "
              f"-> {metrics.makespan:7.1f} s")

    print("\nmean execution time per threshold:")
    for threshold in candidates:
        mean = tuner.mean_time(threshold)
        samples = tuner.observations()[threshold]
        bar = "#" * int((mean or 0) / 10)
        print(f"  {threshold:>4d}: {mean:7.1f} s  (n={samples})  {bar}")
    print(f"\ntuner's choice: {tuner.best()} streams "
          f"(the simulated WAN's congestion knee sits at 70 total streams)")


if __name__ == "__main__":
    main()
