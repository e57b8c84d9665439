"""Fleet-level analyses behind each evaluation figure.

Every function here computes one figure's data series from either the live
fleet (:class:`~repro.cluster.wsc.WSC`) or recorded traces, so benchmarks
and examples share a single implementation of each figure's arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.units import MINUTE
from repro.cluster.wsc import WSC
from repro.core.histograms import AgeHistogram
from repro.model.trace import TRACE_PERIOD_SECONDS, JobTrace

__all__ = [
    "ThresholdSweepPoint",
    "cold_memory_vs_threshold",
    "per_job_cold_fractions",
    "per_machine_cold_fractions_by_cluster",
    "per_machine_coverage_by_cluster",
    "cpu_overhead_per_job",
    "cpu_overhead_per_machine",
    "compression_ratios_per_job",
    "decompression_latency_samples",
]


@dataclass(frozen=True)
class ThresholdSweepPoint:
    """One point of the Fig. 1 sweep.

    Attributes:
        threshold_seconds: the cold-age threshold T.
        cold_fraction: fleet share of memory idle >= T.
        promotion_rate_pct_of_cold_per_min: fleet accesses to that cold
            memory, as % of the cold size per minute.
    """

    threshold_seconds: int
    cold_fraction: float
    promotion_rate_pct_of_cold_per_min: float


def cold_memory_vs_threshold(
    traces: Sequence[JobTrace],
) -> List[ThresholdSweepPoint]:
    """Fig. 1: cold memory % and promotion rate under each threshold T.

    Aggregates every trace entry in the fleet: for each candidate T, the
    cold fraction is total pages idle >= T over total resident pages, and
    the promotion rate is accesses-to-pages-older-than-T per minute,
    expressed as a percentage of the cold size (the paper's "applications
    access 15 % of their total cold memory every minute" at T = 120 s).
    """
    entries = [entry for trace in traces for entry in trace.entries]
    if not entries:
        return []
    bins = entries[0].bins
    cold = AgeHistogram.merge([e.cold_age_histogram for e in entries])
    promo = AgeHistogram.merge([e.promotion_histogram for e in entries])
    total_resident = sum(e.resident_pages for e in entries)
    intervals = len(entries)

    points = []
    cold_suffix = cold.suffix_sums()
    promo_suffix = promo.suffix_sums()
    for threshold, cold_pages, promos in zip(
        bins.thresholds, cold_suffix, promo_suffix
    ):
        promos_per_min = promos * (MINUTE / TRACE_PERIOD_SECONDS) / intervals
        cold_per_entry = cold_pages / intervals
        points.append(
            ThresholdSweepPoint(
                threshold_seconds=int(threshold),
                cold_fraction=(
                    cold_pages / total_resident if total_resident else 0.0
                ),
                promotion_rate_pct_of_cold_per_min=(
                    100.0 * promos_per_min / cold_per_entry
                    if cold_per_entry
                    else 0.0
                ),
            )
        )
    return points


def per_job_cold_fractions(
    traces: Sequence[JobTrace], threshold_seconds: Optional[int] = None
) -> List[float]:
    """Fig. 3: each job's average cold share of its resident memory."""
    fractions = []
    for trace in traces:
        cold = 0
        resident = 0
        for entry in trace.entries:
            t = (
                threshold_seconds
                if threshold_seconds is not None
                else entry.bins.min_threshold
            )
            cold += entry.cold_age_histogram.colder_than(t)
            resident += entry.resident_pages
        if resident:
            fractions.append(cold / resident)
    return fractions


def per_machine_cold_fractions_by_cluster(
    fleet: WSC, threshold_seconds: float
) -> Dict[str, List[float]]:
    """Fig. 2: per-machine cold fractions, grouped by cluster."""
    return {
        cluster.name: cluster.machine_cold_fractions(threshold_seconds)
        for cluster in fleet.clusters
    }


def per_machine_coverage_by_cluster(fleet: WSC) -> Dict[str, List[float]]:
    """Fig. 6: per-machine coverage, grouped by cluster."""
    return {
        cluster.name: cluster.machine_coverages() for cluster in fleet.clusters
    }


def cpu_overhead_per_job(
    fleet: WSC, elapsed_seconds: float
) -> Tuple[List[float], List[float]]:
    """Fig. 8 (left): per-job (compression %, decompression %) of job CPU.

    Overhead is zswap CPU seconds over the job's total CPU seconds
    (``cpu_cores * elapsed``), in percent.
    """
    compress_pcts = []
    decompress_pcts = []
    for cluster in fleet.clusters:
        for machine in cluster.machines:
            for job_id in machine.memcgs:
                stats = machine.zswap.stats_for(job_id)
                cores = cluster._cpu_of(job_id)
                cpu_seconds = cores * elapsed_seconds
                if cpu_seconds <= 0:
                    continue
                compress_pcts.append(100.0 * stats.compress_seconds / cpu_seconds)
                decompress_pcts.append(
                    100.0 * stats.decompress_seconds / cpu_seconds
                )
    return compress_pcts, decompress_pcts


def cpu_overhead_per_machine(
    fleet: WSC, elapsed_seconds: float, cores_per_machine: int = 36
) -> Tuple[List[float], List[float]]:
    """Fig. 8 (right): per-machine zswap overhead as % of machine CPU."""
    compress_pcts = []
    decompress_pcts = []
    machine_cpu_seconds = cores_per_machine * elapsed_seconds
    for machine in fleet.machines:
        compress = sum(
            s.compress_seconds for s in machine.zswap.job_stats.values()
        )
        decompress = sum(
            s.decompress_seconds for s in machine.zswap.job_stats.values()
        )
        compress_pcts.append(100.0 * compress / machine_cpu_seconds)
        decompress_pcts.append(100.0 * decompress / machine_cpu_seconds)
    return compress_pcts, decompress_pcts


def compression_ratios_per_job(fleet: WSC) -> List[float]:
    """Fig. 9a: each job's average compression ratio (stored pages only)."""
    ratios = []
    for machine in fleet.machines:
        for stats in machine.zswap.job_stats.values():
            if stats.pages_compressed > 0:
                ratios.append(stats.mean_compression_ratio)
    return ratios


def decompression_latency_samples(fleet: WSC) -> List[float]:
    """Fig. 9b: pooled per-page decompression latencies (seconds)."""
    samples: List[float] = []
    for machine in fleet.machines:
        for stats in machine.zswap.job_stats.values():
            samples.extend(stats.decompress_latencies)
    return samples
