"""Parameter redeployment must preserve per-job controller state."""

import numpy as np

from repro.core.histograms import AgeHistogram
from repro.core.threshold_policy import (
    ColdAgeThresholdPolicy,
    ThresholdPolicyConfig,
)


class TestInheritState:
    def test_pool_and_clock_carry_over(self, bins):
        old = ColdAgeThresholdPolicy(
            ThresholdPolicyConfig(percentile_k=98, warmup_seconds=300), bins
        )
        for _ in range(10):
            old.observe(AgeHistogram(bins), 1000)
        assert old.warmed_up

        new = ColdAgeThresholdPolicy(
            ThresholdPolicyConfig(percentile_k=80, warmup_seconds=300), bins
        )
        new.inherit_state(old)
        # No fresh warm-up: the job has been running for 10 minutes.
        assert new.warmed_up
        assert len(new.history) == 10
        # New K applies to the inherited pool immediately.
        assert new.threshold() == bins.min_threshold

    def test_shorter_history_keeps_most_recent(self, bins):
        old = ColdAgeThresholdPolicy(
            ThresholdPolicyConfig(warmup_seconds=0, history_length=100), bins
        )
        quiet = AgeHistogram(bins)
        burst = AgeHistogram(bins)
        burst.add_ages(np.full(500, 1000.0))
        for _ in range(20):
            old.observe(quiet, 1000)
        old.observe(burst, 1000)

        new = ColdAgeThresholdPolicy(
            ThresholdPolicyConfig(warmup_seconds=0, history_length=5), bins
        )
        new.inherit_state(old)
        assert len(new.history) == 5
        # The most recent (burst) entry survived the truncation.
        assert new.history[-1] == old.history[-1]


class TestAgentRedeployment:
    def test_redeploy_does_not_restart_warmup(self):
        from repro.agent.node_agent import NodeAgent
        from repro.common.rng import SeedSequenceFactory
        from repro.kernel.compression import ContentProfile
        from repro.kernel.machine import Machine, MachineConfig

        machine = Machine(
            "m", MachineConfig(dram_bytes=1 << 30),
            seeds=SeedSequenceFactory(6),
        )
        agent = NodeAgent(
            machine,
            ThresholdPolicyConfig(percentile_k=98, warmup_seconds=300),
        )
        machine.add_job(
            "j", 1000,
            ContentProfile(incompressible_fraction=0.0, min_ratio=1.5),
        )
        machine.allocate("j", 1000)
        for t in range(0, 900, 60):
            machine.tick(t)
            agent.maybe_control(t)
        memcg = machine.memcgs["j"]
        assert memcg.zswap_enabled

        agent.set_policy_config(
            ThresholdPolicyConfig(percentile_k=90, warmup_seconds=300)
        )
        machine.tick(900)
        agent.maybe_control(900)
        # The job stayed warmed-up across the redeployment.
        assert memcg.zswap_enabled
        assert np.isfinite(memcg.cold_age_threshold)
