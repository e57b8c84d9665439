"""Node agent control loop: warm-up, thresholds, soft limits, SLI."""

import numpy as np

from repro.agent.node_agent import NodeAgent
from repro.common.rng import SeedSequenceFactory
from repro.core.slo import PromotionRateSlo
from repro.core.threshold_policy import DISABLED, ThresholdPolicyConfig
from repro.kernel.compression import ContentProfile
from repro.kernel.machine import FarMemoryMode, Machine, MachineConfig


COMPRESSIBLE = ContentProfile(incompressible_fraction=0.0, min_ratio=1.5)


def make_setup(warmup=120, k=90.0, mode=FarMemoryMode.PROACTIVE):
    machine = Machine(
        "m0",
        MachineConfig(dram_bytes=1 << 30, mode=mode),
        seeds=SeedSequenceFactory(9),
    )
    agent = NodeAgent(
        machine,
        ThresholdPolicyConfig(percentile_k=k, warmup_seconds=warmup),
        PromotionRateSlo(),
    )
    return machine, agent


def drive(machine, agent, seconds, touch=None):
    """Run machine+agent for `seconds`, optionally touching pages per tick."""
    start = machine.now
    for t in range(start, start + seconds, 60):
        if touch is not None:
            touch(t)
        machine.tick(t)
        agent.maybe_control(t)


class TestWarmup:
    def test_zswap_disabled_during_warmup(self):
        machine, agent = make_setup(warmup=600)
        memcg = machine.add_job("j", 1000, COMPRESSIBLE)
        machine.allocate("j", 1000)
        drive(machine, agent, 300)
        assert not memcg.zswap_enabled
        assert machine.far_pages == 0

    def test_zswap_enables_after_warmup(self):
        machine, agent = make_setup(warmup=120)
        memcg = machine.add_job("j", 1000, COMPRESSIBLE)
        machine.allocate("j", 1000)
        drive(machine, agent, 900)
        assert memcg.zswap_enabled
        assert np.isfinite(memcg.cold_age_threshold)
        assert machine.far_pages > 0


class TestThresholdControl:
    def test_idle_job_gets_min_threshold(self):
        machine, agent = make_setup(warmup=60)
        memcg = machine.add_job("j", 1000, COMPRESSIBLE)
        machine.allocate("j", 1000)
        drive(machine, agent, 1200)
        assert memcg.cold_age_threshold == machine.bins.min_threshold

    def test_soft_limit_tracks_working_set(self):
        machine, agent = make_setup(warmup=60)
        memcg = machine.add_job("j", 1000, COMPRESSIBLE)
        idx = machine.allocate("j", 1000)

        def touch(t):
            machine.touch("j", idx[:200])  # 200 hot pages

        drive(machine, agent, 1800, touch)
        # Working set should be about the hot set size.
        assert 150 <= memcg.soft_limit_pages <= 400

    def test_active_job_backs_off(self):
        """A job re-touching cold memory pushes its threshold up."""
        machine, agent = make_setup(warmup=60, k=90.0)
        memcg = machine.add_job("j", 2000, COMPRESSIBLE)
        idx = machine.allocate("j", 2000)
        rng = np.random.default_rng(3)

        def touch(t):
            # Touch a random 10% slice: everything cycles cold->hot.
            machine.touch("j", rng.choice(2000, size=200, replace=False))

        drive(machine, agent, 3600, touch)
        assert memcg.cold_age_threshold > machine.bins.min_threshold


class TestSli:
    def test_sli_samples_accumulate_and_drain(self):
        machine, agent = make_setup(warmup=60)
        machine.add_job("j", 500, COMPRESSIBLE)
        machine.allocate("j", 500)
        drive(machine, agent, 600)
        samples = agent.drain_sli_samples()
        assert len(samples) >= 9
        assert agent.drain_sli_samples() == []
        assert all(s.job_id == "j" for s in samples)

    def test_promotions_counted_in_sli(self):
        machine, agent = make_setup(warmup=60)
        memcg = machine.add_job("j", 1000, COMPRESSIBLE)
        idx = machine.allocate("j", 1000)
        drive(machine, agent, 1200)
        assert machine.far_pages > 0
        machine.touch("j", idx)  # promote everything back
        drive(machine, agent, 120)
        samples = agent.drain_sli_samples()
        assert sum(s.promotions for s in samples) > 0


class TestLifecycleAndModes:
    def test_agent_ignores_reactive_machines(self):
        machine, agent = make_setup(mode=FarMemoryMode.REACTIVE)
        memcg = machine.add_job("j", 500, COMPRESSIBLE)
        machine.allocate("j", 500)
        drive(machine, agent, 600)
        assert agent.drain_sli_samples() == []
        assert memcg.cold_age_threshold == DISABLED

    def test_departed_jobs_dropped_from_state(self):
        machine, agent = make_setup(warmup=60)
        machine.add_job("j", 500, COMPRESSIBLE)
        machine.allocate("j", 500)
        drive(machine, agent, 300)
        machine.remove_job("j")
        drive(machine, agent, 300)
        assert "j" not in agent._jobs

    def test_deploying_new_config_applies_to_new_rounds(self):
        machine, agent = make_setup(warmup=60)
        machine.add_job("j", 500, COMPRESSIBLE)
        machine.allocate("j", 500)
        drive(machine, agent, 300)
        agent.set_policy_config(
            ThresholdPolicyConfig(percentile_k=50.0, warmup_seconds=0)
        )
        assert agent.policy_config.percentile_k == 50.0
        drive(machine, agent, 300)
        assert machine.far_pages > 0


class TestCompaction:
    def test_fragmented_arena_gets_compacted(self):
        machine, agent = make_setup(warmup=60)
        memcg = machine.add_job("j", 2000, COMPRESSIBLE)
        idx = machine.allocate("j", 2000)
        drive(machine, agent, 900)
        assert machine.far_pages > 0
        # Promote most pages back: leaves holes in the arena.
        machine.touch("j", idx)
        before = machine.arena.compactions
        drive(machine, agent, 120)
        assert machine.arena.compactions > before


class TestHistogramRewarm:
    def make_observed(self):
        from repro.common.events import EventLog
        from repro.obs import MetricRegistry

        machine = Machine(
            "m0",
            MachineConfig(dram_bytes=1 << 30),
            seeds=SeedSequenceFactory(9),
        )
        events = EventLog()
        registry = MetricRegistry()
        agent = NodeAgent(
            machine,
            ThresholdPolicyConfig(percentile_k=90.0, warmup_seconds=120),
            PromotionRateSlo(),
            events=events,
            registry=registry,
        )
        return machine, agent, events, registry

    def test_corrupt_histograms_send_job_back_through_warmup(self):
        machine, agent, events, registry = self.make_observed()
        memcg = machine.add_job("j", 1000, COMPRESSIBLE)
        machine.allocate("j", 1000)
        drive(machine, agent, 900)
        assert memcg.zswap_enabled

        memcg.histograms_corrupt = True
        t = machine.now + 60
        machine.tick(t)
        agent.maybe_control(t)
        # The flag is consumed and the job degrades to DISABLED.
        assert not memcg.histograms_corrupt
        assert not memcg.zswap_enabled
        assert memcg.cold_age_threshold == DISABLED
        assert agent.rewarms == 1
        assert registry.value("repro_agent_histogram_rewarms_total") == 1
        assert registry.value("repro_degraded_mode") == 1
        rewarm_events = events.of_kind("agent.histogram_rewarm")
        assert len(rewarm_events) == 1
        assert rewarm_events[0].payload["job"] == "j"

        # After a fresh S-second warm-up the job recovers fully.
        drive(machine, agent, 900)
        assert memcg.zswap_enabled
        assert registry.value("repro_degraded_mode") == 0

    def test_departed_job_clears_degraded_gauge(self):
        machine, agent, events, registry = self.make_observed()
        memcg = machine.add_job("j", 500, COMPRESSIBLE)
        machine.allocate("j", 500)
        drive(machine, agent, 300)
        memcg.histograms_corrupt = True
        t = machine.now + 60
        machine.tick(t)
        agent.maybe_control(t)
        assert registry.value("repro_degraded_mode") == 1
        machine.remove_job("j")
        t += 60
        machine.tick(t)
        agent.maybe_control(t)
        assert registry.value("repro_degraded_mode") == 0


def test_sli_histograms_carry_machine_label():
    from repro.obs import MetricRegistry

    registry = MetricRegistry()
    machine = Machine(
        "m0",
        MachineConfig(dram_bytes=1 << 30),
        seeds=SeedSequenceFactory(9),
    )
    agent = NodeAgent(
        machine,
        ThresholdPolicyConfig(percentile_k=90.0, warmup_seconds=60),
        PromotionRateSlo(),
        registry=registry,
    )
    machine.add_job("j", 1000, COMPRESSIBLE)
    machine.allocate("j", 1000)
    drive(machine, agent, 600)
    text = registry.expose_text()
    for name in ("repro_threshold_seconds", "repro_promotion_rate_pct_per_min"):
        samples = [
            line for line in text.splitlines()
            if line.startswith(name) and not line.startswith("#")
        ]
        assert samples, f"no exposition samples for {name}"
        assert all('machine="m0"' in line for line in samples), name
