"""Calibration: the synthetic fleet stays inside the paper's bands.

DESIGN.md §5 pins the targets; these tests keep future changes honest —
if a workload or kernel tweak silently drifts the fleet out of the
paper-shaped operating region, they fail before the benchmark harness
does.
"""

import numpy as np

from repro.analysis import (
    cold_memory_vs_threshold,
    compression_ratios_per_job,
    decompression_latency_samples,
    per_job_cold_fractions,
)


class TestColdMemoryCalibration:
    def test_fleet_cold_fraction_band(self, warm_fleet):
        """Paper: 32% of memory idle >= 120 s, fleet-wide."""
        fraction = warm_fleet.cold_fraction(120)
        assert 0.20 <= fraction <= 0.55

    def test_threshold_sweep_monotone_and_spanning(self, warm_fleet):
        points = cold_memory_vs_threshold(warm_fleet.trace_db.traces())
        fractions = [p.cold_fraction for p in points]
        assert all(a >= b for a, b in zip(fractions, fractions[1:]))
        # The sweep spans from substantial to ~zero.
        assert fractions[0] > 0.2
        assert fractions[-1] < 0.05

    def test_per_job_heterogeneity(self, warm_fleet):
        fractions = per_job_cold_fractions(warm_fleet.trace_db.traces())
        p10, p90 = np.percentile(fractions, [10, 90])
        assert p90 - p10 > 0.2


class TestCompressionCalibration:
    def test_ratio_band(self, warm_fleet):
        """Paper: 3x median ratio, 2-6x spread."""
        ratios = compression_ratios_per_job(warm_fleet)
        assert 2.2 <= float(np.median(ratios)) <= 3.8

    def test_latency_band(self, warm_fleet):
        """Paper: 6.4 us p50, 9.1 us p98."""
        samples = decompression_latency_samples(warm_fleet)
        p50 = float(np.percentile(samples, 50))
        assert 4e-6 <= p50 <= 9e-6

    def test_incompressible_band(self, warm_fleet):
        """Paper: 31% of cold memory incompressible."""
        rejected = stored = 0
        for machine in warm_fleet.machines:
            for stats in machine.zswap.job_stats.values():
                rejected += stats.pages_rejected
                stored += stats.pages_compressed
        if rejected + stored:
            share = rejected / (rejected + stored)
            assert 0.10 <= share <= 0.50


class TestSloCalibration:
    def test_promotion_budget_is_pages_not_fractions(self, warm_fleet):
        """Sanity: jobs are big enough that the 0.2%/min budget is at
        least one page for the median job (quantization guard)."""
        from repro.core.slo import PromotionRateSlo, working_set_pages

        slo = PromotionRateSlo()
        budgets = []
        for machine in warm_fleet.machines:
            for memcg in machine.memcgs.values():
                wss = working_set_pages(memcg.cold_age_histogram)
                budgets.append(slo.allowed_promotions_per_min(wss))
        assert np.median(budgets) > 0.1
