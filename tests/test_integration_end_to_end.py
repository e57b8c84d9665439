"""End-to-end integration: the full Fig. 4 loop, invariants under churn."""

import pytest

from repro.cluster import quickfleet
from repro.common.units import PAGE_SIZE
from repro.core.threshold_policy import ThresholdPolicyConfig
from repro.kernel.machine import FarMemoryMode
from repro.model.replay import FarMemoryModel
from repro.autotuner.pipeline import AutotuningPipeline


class TestFullLoop:
    def test_far_memory_materializes_and_slo_holds_roughly(self, warm_fleet):
        report = warm_fleet.coverage_report()
        assert report["coverage"] > 0.02
        assert report["saved_gib"] > 0
        # Promotion-rate SLI is finite and in a sane band.
        assert report["promotion_rate_p98_pct_per_min"] < 50.0

    def test_traces_feed_the_model_which_feeds_the_tuner(self, warm_fleet):
        model = FarMemoryModel(warm_fleet.trace_db.traces())
        pipeline = AutotuningPipeline(model, batch_size=2, seed=1)
        result = pipeline.run(iterations=2)
        assert len(result.trials) == 4

    def test_machine_accounting_invariants(self, warm_fleet):
        """Conservation: used = near + arena; far pages are backed 1:1 by
        arena objects; saved bytes are consistent."""
        for machine in warm_fleet.machines:
            assert machine.used_bytes == (
                machine.near_bytes + machine.arena.footprint_bytes
            )
            assert machine.far_pages == machine.arena.live_objects
            assert machine.free_bytes >= 0
            assert (
                machine.saved_bytes()
                == machine.far_pages * PAGE_SIZE
                - machine.arena.footprint_bytes
            )

    def test_page_state_invariants(self, warm_fleet):
        """Per-memcg: far pages are resident, never unevictable, never
        marked incompressible."""
        for machine in warm_fleet.machines:
            for memcg in machine.memcgs.values():
                pages = machine.pool.row_pages(memcg.row)
                far = pages.state == 1
                assert pages.resident[far].all()
                assert not pages.unevictable[far].any()
                assert not pages.incompressible[far].any()
                assert (
                    pages.payload_bytes[far] <= machine.zswap.max_payload_bytes
                ).all()

    def test_histogram_totals_track_residency(self, warm_fleet):
        for machine in warm_fleet.machines:
            for memcg in machine.memcgs.values():
                assert memcg.cold_age_histogram.total == (
                    machine.pool.tier_pages([memcg.row]).sum())


class TestChurn:
    def test_job_churn_keeps_fleet_consistent(self):
        """Jobs with finite lifetimes come and go; accounting must hold."""
        from repro.cluster.wsc import quickfleet as make

        fleet = make(machines_per_cluster=2, jobs_per_machine=3, seed=31)
        # Give every running job a short lifetime, then run past it.
        for cluster in fleet.clusters:
            for job in cluster.running.values():
                job.spec.duration_seconds = 1800
        fleet.run(3 * 3600)
        for cluster in fleet.clusters:
            assert cluster.running == {}
            for machine in cluster.machines:
                assert machine.used_bytes == machine.arena.footprint_bytes
                assert machine.arena.live_objects == 0

    def test_ab_comparison_zswap_off_vs_on(self):
        """The control-group fleet must have zero far memory; the
        experiment fleet must save real bytes with the same workload."""
        on = quickfleet(machines_per_cluster=2, jobs_per_machine=3, seed=9)
        off = quickfleet(machines_per_cluster=2, jobs_per_machine=3, seed=9,
                         mode=FarMemoryMode.OFF)
        on.run(2 * 3600)
        off.run(2 * 3600)
        assert on.coverage() > 0
        assert off.coverage() == 0
        # Same workload: cold fractions should be in the same ballpark.
        assert on.cold_fraction(120) == pytest.approx(
            off.cold_fraction(120), abs=0.15
        )


class TestPolicyDeploymentEffect:
    def test_aggressive_policy_captures_more(self):
        conservative = quickfleet(
            machines_per_cluster=2, jobs_per_machine=3, seed=13,
            policy_config=ThresholdPolicyConfig(percentile_k=99.9,
                                                warmup_seconds=5400),
        )
        aggressive = quickfleet(
            machines_per_cluster=2, jobs_per_machine=3, seed=13,
            policy_config=ThresholdPolicyConfig(percentile_k=80.0,
                                                warmup_seconds=120),
        )
        conservative.run(2 * 3600)
        aggressive.run(2 * 3600)
        assert aggressive.coverage() > conservative.coverage()
