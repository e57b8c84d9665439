"""Coverage for less-travelled paths across modules."""

import numpy as np
import pytest

from repro.cluster import quickfleet
from repro.common.rng import SeedSequenceFactory
from repro.common.units import MIB
from repro.kernel import ContentProfile, Machine, MachineConfig
from repro.workloads.job_generator import FleetMixGenerator


COMPRESSIBLE = ContentProfile(incompressible_fraction=0.0, min_ratio=1.5)


class TestMachineRelease:
    def test_release_far_pages_drains_arena(self):
        machine = Machine(
            "m", MachineConfig(dram_bytes=64 * MIB),
            seeds=SeedSequenceFactory(8),
        )
        memcg = machine.add_job("j", 500, COMPRESSIBLE)
        idx = machine.allocate("j", 500)
        for t in range(0, 481, 60):
            machine.tick(t)
        memcg.cold_age_threshold = 120.0
        machine.run_reclaim()
        assert machine.arena.live_objects == 500
        machine.release("j", idx[:200])
        assert machine.arena.live_objects == 300
        assert memcg.resident_pages == 300


class TestWscRunModes:
    def test_empty_fleet_percentile(self):
        fleet = quickfleet(clusters=1, machines_per_cluster=1,
                           jobs_per_machine=1, seed=6)
        assert fleet.promotion_rate_percentile(98) == 0.0


class TestGeneratorStyles:
    def test_all_pattern_styles_produce_valid_steps(self, rng):
        """Across a larger draw, zipf/phased/poisson factories all appear
        and every pattern emits in-range indices."""
        generator = FleetMixGenerator(seeds=SeedSequenceFactory(77))
        styles_seen = set()
        for spec in generator.generate(40):
            pattern = spec.pattern_factory(rng)
            styles_seen.add(type(pattern).__name__)
            inner = getattr(pattern, "inner", pattern)
            styles_seen.add(type(inner).__name__)
            for t in (0, 3600):
                reads, writes = pattern.step(t, 60, rng)
                if reads.size:
                    assert 0 <= reads.min() and reads.max() < spec.pages
        assert "HeterogeneousPoissonPattern" in styles_seen
        assert len(styles_seen) >= 3


class TestEventsFlow:
    def test_cluster_records_lifecycle_events(self):
        fleet = quickfleet(clusters=1, machines_per_cluster=1,
                           jobs_per_machine=2, seed=6)
        cluster = fleet.clusters[0]
        assert len(cluster.events.of_kind("scheduler.place")) == 2
        job_id = next(iter(cluster.running))
        cluster.finish(job_id)
        assert len(cluster.events.of_kind("scheduler.remove")) == 1
