#!/usr/bin/env python3
"""A throughput-oriented ML training pipeline under far memory.

The paper's introduction contrasts latency-sensitive frontends with
"throughput-oriented (e.g., machine learning training pipelines)" jobs.
Training is the adversarial case for age-based cold detection: each epoch
sequentially sweeps the whole dataset, so between sweeps *everything* looks
cold — then the next epoch touches all of it at once.  This example shows
the §4.3 controller's two defences working together:

* the per-minute best threshold collapses to "compress nothing useful"
  when a sweep storms through pages of every age;
* the K-th percentile of history plus spike escalation keeps the threshold
  high enough that the hot training set is not repeatedly compressed, while
  the genuinely frozen data (old checkpoints, stale shards) still moves to
  far memory.

Run:
    python examples/ml_training_pipeline.py
"""

from __future__ import annotations

import numpy as np

from repro.agent import NodeAgent
from repro.analysis import render_table
from repro.common.rng import SeedSequenceFactory
from repro.common.units import HOUR, MIB, PAGE_SIZE
from repro.core import ThresholdPolicyConfig
from repro.kernel import ContentProfile, Machine, MachineConfig
from repro.workloads import ScanPattern

SIM_HOURS = 10
DRAM = 512 * MIB


def main() -> None:
    seeds = SeedSequenceFactory(33)
    machine = Machine("trainer", MachineConfig(dram_bytes=DRAM), seeds=seeds)
    agent = NodeAgent(
        machine,
        ThresholdPolicyConfig(percentile_k=98, warmup_seconds=600),
    )
    rng = np.random.default_rng(33)

    # The training set: swept once per epoch (90 min epochs, 30 min sweep).
    dataset_pages = int(0.5 * DRAM / PAGE_SIZE)
    machine.add_job("dataset", dataset_pages,
                    ContentProfile(median_ratio=4.0,
                                   incompressible_fraction=0.05))
    dataset_map = machine.allocate("dataset", dataset_pages)
    sweep = ScanPattern(dataset_pages, period_seconds=90 * 60,
                        sweep_seconds=30 * 60)

    # Stale state: checkpoints and old shards, touched almost never.
    stale_pages = int(0.25 * DRAM / PAGE_SIZE)
    machine.add_job("checkpoints", stale_pages,
                    ContentProfile(median_ratio=3.0,
                                   incompressible_fraction=0.2))
    machine.allocate("checkpoints", stale_pages)

    print(f"Training for {SIM_HOURS} simulated hours "
          f"({SIM_HOURS * 60 // 90} epochs)...\n")
    epoch_promotions = []
    last_promoted = 0
    for t in range(0, SIM_HOURS * HOUR, 60):
        reads, writes = sweep.step(t, 60, rng)
        if reads.size:
            machine.touch("dataset", dataset_map[reads])
        machine.tick(t)
        agent.maybe_control(t)
        if t % (90 * 60) == 0 and t > 0:
            stats = machine.zswap.stats_for("dataset")
            epoch_promotions.append(stats.pages_decompressed - last_promoted)
            last_promoted = stats.pages_decompressed

    dataset = machine.memcgs["dataset"]
    checkpoints = machine.memcgs["checkpoints"]
    far_dataset, far_checkpoints = machine.pool.tier_pages(
        [dataset.row, checkpoints.row])[:, 1].tolist()
    dataset_stats = machine.zswap.stats_for("dataset")

    print(render_table(
        ["job", "pages", "in far memory", "compressions", "promotions"],
        [
            ("dataset (swept hourly)", dataset_pages,
             f"{far_dataset} ({far_dataset / dataset_pages:.0%})",
             dataset_stats.pages_compressed,
             dataset_stats.pages_decompressed),
            ("checkpoints (frozen)", stale_pages,
             f"{far_checkpoints} ({far_checkpoints / stale_pages:.0%})",
             machine.zswap.stats_for("checkpoints").pages_compressed,
             machine.zswap.stats_for("checkpoints").pages_decompressed),
        ],
        title="Far-memory placement after training",
    ))

    threshold = dataset.cold_age_threshold
    print(f"\n  dataset cold-age threshold settled at: "
          f"{'disabled' if not np.isfinite(threshold) else f'{threshold:.0f}s'}")
    print(f"  checkpoints threshold: "
          f"{checkpoints.cold_age_threshold:.0f}s")
    if epoch_promotions:
        series = ", ".join(f"{p:,}" for p in epoch_promotions)
        print(f"  promotions per epoch (dataset): {series}")
        print("  (the controller learns the sweep after the first epochs "
              "and stops thrashing)")
    print(
        "\nThe controller learned the sweep: the frozen checkpoint job is"
        "\ncompressed aggressively while the periodically-swept dataset is"
        "\nleft (mostly) uncompressed instead of thrashing through zswap."
    )


if __name__ == "__main__":
    main()
