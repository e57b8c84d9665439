"""Cluster composition: job lifecycle, the tick loop, pressure eviction."""

import numpy as np

from repro.common.rng import SeedSequenceFactory
from repro.common.units import MIB
from repro.cluster.cluster import Cluster
from repro.core.threshold_policy import ThresholdPolicyConfig
from repro.kernel.compression import ContentProfile
from repro.kernel.machine import FarMemoryMode, MachineConfig
from repro.workloads.access_patterns import HeterogeneousPoissonPattern
from repro.workloads.job_generator import JobSpec


def quiet_pattern_factory(pages):
    """A pattern that touches a 10-page hot set every tick."""

    def factory(rng):
        rates = np.zeros(pages)
        rates[:10] = 1.0
        return HeterogeneousPoissonPattern(rates)

    return factory


def make_spec(job_id, pages=500, priority=1, duration=None):
    return JobSpec(
        job_id=job_id,
        pages=pages,
        cpu_cores=1.0,
        priority=priority,
        content_profile=ContentProfile(incompressible_fraction=0.0, min_ratio=1.5),
        pattern_factory=quiet_pattern_factory(pages),
        duration_seconds=duration,
    )


def make_cluster(n_machines=1, dram=64 * MIB, mode=FarMemoryMode.PROACTIVE,
                 warmup=60):
    return Cluster(
        name="c0",
        n_machines=n_machines,
        machine_config=MachineConfig(dram_bytes=dram, mode=mode),
        seeds=SeedSequenceFactory(17),
        policy_config=ThresholdPolicyConfig(percentile_k=90, warmup_seconds=warmup),
    )


class TestLifecycle:
    def test_submit_places_and_allocates(self):
        cluster = make_cluster()
        job = cluster.submit(make_spec("j"))
        machine = cluster.machines[0]
        assert "j" in machine.memcgs
        assert machine.resident_pages == 500

    def test_finish_releases_everything(self):
        cluster = make_cluster()
        cluster.submit(make_spec("j"))
        cluster.finish("j")
        assert cluster.running == {}
        assert cluster.machines[0].used_bytes == 0
        assert cluster.scheduler.placements == {}

    def test_expired_jobs_auto_finish(self):
        cluster = make_cluster()
        cluster.submit(make_spec("short", duration=120))
        cluster.submit(make_spec("long"))
        cluster.run(300)
        assert "short" not in cluster.running
        assert "long" in cluster.running

    def test_submit_all_skips_oversized(self):
        cluster = make_cluster(dram=4 * MIB)  # 1024 pages
        placed = cluster.submit_all([make_spec("fits", 500),
                                     make_spec("too-big", 5000)])
        assert [j.job_id for j in placed] == ["fits"]
        assert len(cluster.events.of_kind("cluster.admission_reject")) == 1


class TestTickLoop:
    def test_far_memory_accumulates(self):
        cluster = make_cluster()
        cluster.submit(make_spec("j"))
        cluster.run(1800)
        machine = cluster.machines[0]
        assert machine.far_pages > 0
        assert len(cluster.coverage_samples) > 0

    def test_telemetry_flows_to_db(self):
        cluster = make_cluster()
        cluster.submit(make_spec("j"))
        cluster.run(900)
        assert "j" in cluster.trace_db.job_ids

    def test_clock_advances(self):
        cluster = make_cluster()
        cluster.run(300)
        assert cluster.clock.now == 300


class TestPressureEviction:
    def test_overcommitted_machine_evicts_best_effort(self):
        # Overcommit heavily; decompression growth will exceed DRAM.
        cluster = Cluster(
            name="c0",
            n_machines=1,
            machine_config=MachineConfig(dram_bytes=4 * MIB),
            seeds=SeedSequenceFactory(17),
            policy_config=ThresholdPolicyConfig(percentile_k=90,
                                                warmup_seconds=60),
            overcommit=1.0,
        )
        cluster.submit(make_spec("a", 900, priority=0))
        cluster.submit(make_spec("b", 900, priority=2))
        # Even without compression this machine is over capacity: the
        # pressure loop must evict the best-effort job.
        cluster.run(300)
        assert "a" not in cluster.running
        assert "b" in cluster.running
        assert cluster.scheduler.evictions_total >= 1


class TestMetrics:
    def test_machine_cold_fractions(self):
        cluster = make_cluster()
        cluster.submit(make_spec("j"))
        cluster.run(600)
        fractions = cluster.machine_cold_fractions(120)
        assert len(fractions) == 1
        assert 0.0 <= fractions[0] <= 1.0

    def test_machine_coverages(self):
        cluster = make_cluster()
        cluster.submit(make_spec("j"))
        cluster.run(1800)
        coverages = cluster.machine_coverages()
        assert len(coverages) == 1
        assert coverages[0] > 0

    def test_deploy_policy_reaches_agents(self):
        cluster = make_cluster(n_machines=2)
        new = ThresholdPolicyConfig(percentile_k=75, warmup_seconds=30)
        cluster.deploy_policy(new)
        assert all(
            agent.policy_config.percentile_k == 75
            for agent in cluster.agents.values()
        )

    def test_drain_sli_samples(self):
        cluster = make_cluster()
        cluster.submit(make_spec("j"))
        cluster.run(600)
        samples = cluster.drain_sli_samples()
        assert samples
        assert cluster.drain_sli_samples() == []
