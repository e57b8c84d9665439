#!/usr/bin/env python3
"""End-to-end autotuning: traces -> fast model -> GP-Bandit -> rollout.

Reproduces the paper's §5.3 pipeline in miniature:

1. run the fleet under hand-tuned parameters, exporting telemetry;
2. build the fast far memory model from the recorded traces;
3. explore (K, S) with GP-Bandit, maximizing cold memory captured subject
   to the p98 promotion-rate constraint;
4. deploy the winner through a staged rollout with SLO monitoring;
5. compare coverage before and after (the paper saw 15% -> 20%).

Run:
    python examples/autotune_fleet.py
"""

from __future__ import annotations

from repro.analysis import render_table
from repro.autotuner import (
    AutotuningPipeline,
    DeploymentStage,
    StagedDeployment,
)
from repro.cluster import quickfleet
from repro.common.units import HOUR
from repro.core import ThresholdPolicyConfig
from repro.model import FarMemoryModel

# Manual tuning in production is risk-averse: a long warm-up and a very
# high percentile.  The autotuner's job is to find the real frontier.
HAND_TUNED = ThresholdPolicyConfig(percentile_k=99.0, warmup_seconds=7200)


def main() -> None:
    print("Phase 1: fleet under hand-tuned parameters (K=99, S=7200)...")
    fleet = quickfleet(
        clusters=3,
        machines_per_cluster=2,
        jobs_per_machine=6,
        seed=21,
        policy_config=HAND_TUNED,
        churn_duration_range=(2 * HOUR, 12 * HOUR),
    )
    fleet.run(6 * HOUR)
    before = fleet.coverage_report()
    print(f"  coverage: {before['coverage']:.1%}, "
          f"traces recorded: {len(fleet.trace_db)}")

    print("\nPhase 2: GP-Bandit over the fast far memory model...")
    model = FarMemoryModel(fleet.trace_db.traces())
    pipeline = AutotuningPipeline(model, batch_size=4, seed=0)
    result = pipeline.run(iterations=6)

    rows = [
        (
            f"{t.config.percentile_k:.1f}",
            t.config.warmup_seconds,
            f"{t.objective:,.0f}",
            f"{t.report.promotion_rate_p98:.3f}",
            "yes" if t.feasible else "NO",
        )
        for t in result.trials
    ]
    print(
        render_table(
            ["K", "S (s)", "cold pages captured", "p98 %/min", "feasible"],
            rows,
            title=f"Trials ({len(result.trials)} configurations)",
        )
    )
    best = result.best_config
    print(f"\n  winner: K={best.percentile_k:.1f}, S={best.warmup_seconds}s")

    print("\nPhase 3: staged rollout (qualification -> production)...")
    deployment = StagedDeployment(
        fleet,
        stages=[
            DeploymentStage("qualification", 0.34, HOUR),
            DeploymentStage("production", 1.0, HOUR),
        ],
        slo_limit=5.0,  # monitoring guardrail on per-minute sample p98
    )
    reached_production = deployment.deploy(best)
    for outcome in deployment.outcomes:
        print(f"  stage {outcome.stage.name}: p98 "
              f"{outcome.p98_promotion_rate:.3f} %/min -> "
              f"{'pass' if outcome.passed else 'ROLLED BACK'}")

    print("\nPhase 4: soak under the deployed configuration...")
    fleet.run(4 * HOUR)
    after = fleet.coverage_report()
    improvement = (
        (after["coverage"] - before["coverage"]) / before["coverage"]
        if before["coverage"]
        else 0.0
    )
    print(
        render_table(
            ["", "coverage", "p98 %/min (samples)"],
            [
                ("hand-tuned", f"{before['coverage']:.1%}",
                 f"{before['promotion_rate_p98_pct_per_min']:.3f}"),
                ("autotuned", f"{after['coverage']:.1%}",
                 f"{after['promotion_rate_p98_pct_per_min']:.3f}"),
            ],
            title="Before vs after (paper: 15% -> 20%, a +30% gain)",
        )
    )
    print(f"\n  coverage improvement: {improvement:+.0%} "
          f"(production rollout {'completed' if reached_production else 'rolled back'})")


if __name__ == "__main__":
    main()
