"""WSC fleet aggregation and the quickfleet helper."""

import pytest

from repro.cluster import quickfleet
from repro.cluster.wsc import WSC
from repro.core.threshold_policy import ThresholdPolicyConfig
from repro.kernel.machine import FarMemoryMode


class TestQuickfleet:
    def test_builds_requested_shape(self):
        fleet = quickfleet(clusters=2, machines_per_cluster=3,
                           jobs_per_machine=2, seed=1)
        assert len(fleet.clusters) == 2
        assert len(fleet.machines) == 6
        total_jobs = sum(len(c.running) for c in fleet.clusters)
        assert total_jobs == 12

    def test_deterministic_under_seed(self):
        a = quickfleet(machines_per_cluster=2, jobs_per_machine=2, seed=5)
        b = quickfleet(machines_per_cluster=2, jobs_per_machine=2, seed=5)
        a.run(1200)
        b.run(1200)
        assert a.coverage() == b.coverage()
        assert a.cold_fraction(120) == b.cold_fraction(120)

    def test_different_seeds_differ(self):
        a = quickfleet(machines_per_cluster=2, jobs_per_machine=3, seed=1)
        b = quickfleet(machines_per_cluster=2, jobs_per_machine=3, seed=2)
        a.run(1200)
        b.run(1200)
        assert a.cold_fraction(120) != b.cold_fraction(120)

    def test_warmup_hours(self):
        fleet = quickfleet(machines_per_cluster=1, jobs_per_machine=2,
                           seed=3, warmup_hours=0.5)
        assert fleet.now == 1800


class TestFleetMetrics(object):
    def test_coverage_in_unit_range(self, warm_fleet):
        assert 0.0 <= warm_fleet.coverage() <= 1.0

    def test_cold_fraction_decreases_with_threshold(self, warm_fleet):
        assert warm_fleet.cold_fraction(120) >= warm_fleet.cold_fraction(960)

    def test_promotion_percentile_monotone(self, warm_fleet):
        assert warm_fleet.promotion_rate_percentile(
            98
        ) >= warm_fleet.promotion_rate_percentile(50)

    def test_coverage_report_keys(self, warm_fleet):
        report = warm_fleet.coverage_report()
        assert set(report) == {
            "coverage",
            "cold_fraction_at_min_threshold",
            "promotion_rate_p98_pct_per_min",
            "far_memory_gib",
            "saved_gib",
        }
        assert report["far_memory_gib"] >= 0

    def test_sli_history_populated(self, warm_fleet):
        assert len(warm_fleet.sli_history) > 0

    def test_far_memory_exists_after_warmup(self, warm_fleet):
        assert warm_fleet.coverage() > 0


class TestDeployment:
    def test_deploy_policy_fans_out(self):
        fleet = quickfleet(clusters=2, machines_per_cluster=1,
                           jobs_per_machine=1, seed=4)
        config = ThresholdPolicyConfig(percentile_k=60, warmup_seconds=30)
        fleet.deploy_policy(config)
        for cluster in fleet.clusters:
            assert cluster.policy_config.percentile_k == 60

    def test_off_mode_fleet_has_no_far_memory(self):
        fleet = quickfleet(machines_per_cluster=1, jobs_per_machine=2,
                           seed=5, mode=FarMemoryMode.OFF)
        fleet.run(1800)
        assert fleet.coverage() == 0.0

    def test_empty_fleet_rejected(self):
        from repro.tracestore import ColumnarTraceDatabase

        with pytest.raises(ValueError):
            WSC([], ColumnarTraceDatabase())
