"""Fleet churn: finite job lifetimes with population replenishment."""

from repro.cluster import quickfleet
from repro.common.units import HOUR
from repro.workloads.job_generator import FleetMixGenerator


class TestGeneratorDurations:
    def test_durations_drawn_in_range(self, seeds):
        generator = FleetMixGenerator(
            seeds=seeds, duration_range=(3600, 7200)
        )
        durations = [s.duration_seconds for s in generator.generate(50)]
        assert all(3600 <= d <= 7200 for d in durations)

    def test_no_range_means_forever(self, seeds):
        generator = FleetMixGenerator(seeds=seeds)
        assert all(
            s.duration_seconds is None for s in generator.generate(10)
        )


class TestClusterChurn:
    def test_population_maintained(self):
        fleet = quickfleet(
            clusters=1,
            machines_per_cluster=2,
            jobs_per_machine=3,
            seed=19,
            churn_duration_range=(1800, 3600),
        )
        cluster = fleet.clusters[0]
        assert len(cluster.running) == 6
        fleet.run(3 * HOUR)  # several job generations pass
        assert len(cluster.running) == 6

    def test_jobs_actually_turn_over(self):
        fleet = quickfleet(
            clusters=1,
            machines_per_cluster=2,
            jobs_per_machine=3,
            seed=19,
            churn_duration_range=(1800, 3600),
        )
        cluster = fleet.clusters[0]
        initial = set(cluster.running)
        fleet.run(2 * HOUR)
        current = set(cluster.running)
        assert initial != current
        assert len(cluster.events.of_kind("scheduler.remove")) > 0

    def test_memory_accounting_survives_churn(self):
        fleet = quickfleet(
            clusters=1,
            machines_per_cluster=2,
            jobs_per_machine=3,
            seed=23,
            churn_duration_range=(1800, 3600),
        )
        fleet.run(3 * HOUR)
        for machine in fleet.machines:
            assert machine.free_bytes >= 0
            assert machine.far_pages == machine.arena.live_objects

    def test_new_jobs_respect_warmup(self):
        """Replacement jobs must not be compressed during their first S
        seconds — that is the whole point of the S parameter."""
        from repro.core import ThresholdPolicyConfig

        fleet = quickfleet(
            clusters=1,
            machines_per_cluster=1,
            jobs_per_machine=2,
            seed=29,
            churn_duration_range=(1800, 2400),
            policy_config=ThresholdPolicyConfig(percentile_k=98,
                                                warmup_seconds=1200),
        )
        cluster = fleet.clusters[0]
        fleet.run(int(2.5 * HOUR))
        for job_id, job in cluster.running.items():
            age = fleet.now - job.start_time
            memcg = job.machine.memcgs[job_id]
            if age < 1200:
                assert job.machine.pool.tier_pages([memcg.row])[0, 1] == 0
