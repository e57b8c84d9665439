"""Fleet analysis pipelines against a warmed-up fleet."""

import numpy as np

from repro.analysis.fleet_analysis import (
    cold_memory_vs_threshold,
    compression_ratios_per_job,
    cpu_overhead_per_job,
    cpu_overhead_per_machine,
    decompression_latency_samples,
    per_job_cold_fractions,
    per_machine_cold_fractions_by_cluster,
    per_machine_coverage_by_cluster,
)


class TestThresholdSweep:
    def test_cold_fraction_decreases_with_threshold(self, warm_fleet):
        points = cold_memory_vs_threshold(warm_fleet.trace_db.traces())
        fractions = [p.cold_fraction for p in points]
        assert all(a >= b for a, b in zip(fractions, fractions[1:]))

    def test_most_aggressive_threshold_finds_most_cold(self, warm_fleet):
        points = cold_memory_vs_threshold(warm_fleet.trace_db.traces())
        assert points[0].threshold_seconds == 120
        assert points[0].cold_fraction > 0.1

    def test_promotion_rate_positive_at_low_thresholds(self, warm_fleet):
        points = cold_memory_vs_threshold(warm_fleet.trace_db.traces())
        assert points[0].promotion_rate_pct_of_cold_per_min >= 0

    def test_empty_traces(self):
        assert cold_memory_vs_threshold([]) == []


class TestPerJob:
    def test_fractions_in_unit_range(self, warm_fleet):
        fractions = per_job_cold_fractions(warm_fleet.trace_db.traces())
        assert fractions
        assert all(0.0 <= f <= 1.0 for f in fractions)

    def test_jobs_are_heterogeneous(self, warm_fleet):
        fractions = per_job_cold_fractions(warm_fleet.trace_db.traces())
        assert np.std(fractions) > 0.05

    def test_custom_threshold_reduces_fractions(self, warm_fleet):
        traces = warm_fleet.trace_db.traces()
        at_min = np.mean(per_job_cold_fractions(traces))
        at_high = np.mean(per_job_cold_fractions(traces, 3840))
        assert at_high <= at_min


class TestPerMachine:
    def test_cold_fractions_grouped_by_cluster(self, warm_fleet):
        groups = per_machine_cold_fractions_by_cluster(warm_fleet, 120)
        assert len(groups) == len(warm_fleet.clusters)
        for fractions in groups.values():
            assert all(0.0 <= f <= 1.0 for f in fractions)

    def test_coverage_grouped_by_cluster(self, warm_fleet):
        groups = per_machine_coverage_by_cluster(warm_fleet)
        for coverages in groups.values():
            assert all(0.0 <= c <= 1.0 for c in coverages)


class TestCpuOverhead:
    def test_per_job_overheads_small_and_nonnegative(self, warm_fleet):
        compress, decompress = cpu_overhead_per_job(warm_fleet, 4 * 3600)
        assert compress and decompress
        assert all(c >= 0 for c in compress)
        # Even untuned, zswap overhead stays far below 1% of job CPU.
        assert np.percentile(compress, 98) < 1.0

    def test_per_machine_lower_than_per_job_p98(self, warm_fleet):
        job_c, job_d = cpu_overhead_per_job(warm_fleet, 4 * 3600)
        mach_c, mach_d = cpu_overhead_per_machine(warm_fleet, 4 * 3600)
        assert np.median(mach_c) <= np.percentile(job_c, 98) + 1e-9


class TestCompressionStats:
    def test_ratios_within_model_range(self, warm_fleet):
        ratios = compression_ratios_per_job(warm_fleet)
        assert ratios
        assert all(1.0 <= r <= 8.5 for r in ratios)

    def test_latency_samples_in_microsecond_range(self, warm_fleet):
        samples = decompression_latency_samples(warm_fleet)
        assert samples
        assert 1e-6 < np.median(samples) < 20e-6
