"""zswap: the compressed far-memory tier (paper §3, §5.1).

This is the simulator's equivalent of the augmented zswap the paper ships:
it compresses pages into the machine-global zsmalloc arena, rejects pages
whose payload exceeds the 2990-byte cutoff (marking them incompressible),
and decompresses pages on fault, keeping them decompressed thereafter.

All CPU time spent compressing, decompressing, and *failing* to compress
(the wasted cycles on incompressible data the paper calls out in §3.2) is
accounted per job, which is what Fig. 8 plots.

Promotions arrive as a round over every machine of a page pool
(:func:`decompress_rounds`, after the pool's own promotion pass): one
latency-model call, then one arena release and one span per machine.
:meth:`Zswap.decompress` is a round of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.units import PAGE_SIZE, ZSMALLOC_MAX_PAYLOAD
from repro.kernel.compression import (
    DEFAULT_LATENCY_MODEL,
    CompressionLatencyModel,
)
from repro.kernel.memcg import MemCg, Promotion
from repro.kernel.zsmalloc import ZsmallocArena
from repro.obs import (
    MetricName,
    MetricRegistry,
    Tracer,
    get_registry,
    get_tracer,
)

__all__ = ["Zswap", "ZswapJobStats", "decompress_rounds"]


@dataclass
class ZswapJobStats:
    """Per-job zswap accounting (drives Fig. 8 and Fig. 9).

    Attributes:
        pages_compressed: successfully stored pages.
        pages_rejected: compression attempts that exceeded the cutoff.
        pages_decompressed: faults served from far memory.
        compress_seconds: CPU time compressing (including rejected tries).
        decompress_seconds: CPU time decompressing.
        payload_bytes_stored: sum of stored payload sizes (for ratios).
        decompress_latencies: per-page decompression latencies (seconds);
            a uniform reservoir sample (Algorithm R) of every latency the
            job ever saw, to bound memory without biasing percentiles
            toward warm-up behavior.
        latency_samples_seen: how many latencies were offered to the
            reservoir (the population size behind the sample).
    """

    pages_compressed: int = 0
    pages_rejected: int = 0
    pages_decompressed: int = 0
    compress_seconds: float = 0.0
    decompress_seconds: float = 0.0
    payload_bytes_stored: int = 0
    decompress_latencies: List[float] = field(default_factory=list)
    latency_samples_seen: int = 0

    #: Cap on retained latency samples per job.
    LATENCY_SAMPLE_CAP = 4096

    @property
    def mean_compression_ratio(self) -> float:
        """Uncompressed/compressed ratio over successfully stored pages."""
        if self.pages_compressed == 0:
            return 0.0
        return self.pages_compressed * PAGE_SIZE / self.payload_bytes_stored


class Zswap:
    """Machine-wide zswap instance over one zsmalloc arena.

    Args:
        arena: the machine's global compressed-data arena.
        latency_model: (de)compression cost model.
        max_payload_bytes: reject payloads above this (2990 B in the paper).
        max_pool_bytes: optional cap on the arena footprint (upstream
            zswap's ``max_pool_percent``); once reached, further stores are
            refused until promotions or job exits drain the pool.
        machine_id: label value for exported metrics ("" standalone).
        rng: seeded generator for the latency-sample reservoir (the
            owning machine passes a dedicated stream; standalone zswaps
            fall back to a fixed seed so replays stay deterministic).
        registry: metrics registry (defaults to the process-global one).
        tracer: span tracer (defaults to the process-global one).
    """

    def __init__(
        self,
        arena: ZsmallocArena,
        latency_model: CompressionLatencyModel = DEFAULT_LATENCY_MODEL,
        max_payload_bytes: int = ZSMALLOC_MAX_PAYLOAD,
        max_pool_bytes: int = 0,
        machine_id: str = "",
        rng: Optional[np.random.Generator] = None,
        registry: Optional[MetricRegistry] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.arena = arena
        self.latency_model = latency_model
        self.max_payload_bytes = int(max_payload_bytes)
        self.max_pool_bytes = int(max_pool_bytes)
        self.machine_id = machine_id
        self._rng = (
            rng if rng is not None else np.random.default_rng(0xC01DA6E)
        )
        self.pool_limit_rejections = 0
        self.job_stats: Dict[str, ZswapJobStats] = {}

        registry = registry if registry is not None else get_registry()
        self._tracer = tracer if tracer is not None else get_tracer()
        self._bind_metrics(registry)

    def _bind_metrics(self, registry: MetricRegistry) -> None:
        label = dict(machine=self.machine_id)
        self._m_compressed = registry.counter(
            MetricName.PAGES_COMPRESSED_TOTAL,
            "Pages successfully stored into the zswap arena.", ("machine",)
        ).labels(**label)
        self._m_rejected = registry.counter(
            MetricName.PAGES_REJECTED_TOTAL,
            "Compression attempts over the incompressibility cutoff.",
            ("machine",)
        ).labels(**label)
        self._m_stored_bytes = registry.counter(
            MetricName.ZSWAP_STORED_BYTES_TOTAL,
            "Compressed payload bytes written to the arena.", ("machine",)
        ).labels(**label)
        self._m_pool_rejections = registry.counter(
            MetricName.ZSWAP_POOL_LIMIT_REJECTIONS_TOTAL,
            "Store attempts refused by the pool-size cap.", ("machine",)
        ).labels(**label)
        self._m_compress_cpu = registry.counter(
            MetricName.COMPRESS_CPU_SECONDS_TOTAL,
            "Modelled CPU seconds compressing (rejected tries included).",
            ("machine",)
        ).labels(**label)
        self._m_decompress_cpu = registry.counter(
            MetricName.DECOMPRESS_CPU_SECONDS_TOTAL,
            "Modelled CPU seconds decompressing on promotion faults.",
            ("machine",)
        ).labels(**label)

    def rebind_observability(self, registry: MetricRegistry,
                             tracer: Tracer) -> None:
        """Re-point metric handles and tracer after a cross-process move."""
        self._tracer = tracer
        self._bind_metrics(registry)

    def pool_full(self) -> bool:
        """True when the pool cap is set and the arena has reached it."""
        return (
            self.max_pool_bytes > 0
            and self.arena.footprint_bytes >= self.max_pool_bytes
        )

    def stats_for(self, job_id: str) -> ZswapJobStats:
        """The (created-on-demand) stats record for a job."""
        stats = self.job_stats.get(job_id)
        if stats is None:
            stats = ZswapJobStats()
            self.job_stats[job_id] = stats
        return stats

    # ------------------------------------------------------------------
    # Store path (kreclaimd -> zswap)
    # ------------------------------------------------------------------

    def compress(self, memcg: MemCg, indices: np.ndarray) -> int:
        """Try to move the given NEAR pages to far memory.

        Pages whose payload exceeds the cutoff are marked incompressible
        and stay NEAR (their compression cycles are still charged — that is
        the opportunity cost §3.2 describes).  Returns the number of pages
        actually stored.
        """
        indices = np.asarray(indices)
        if indices.size == 0:
            return 0
        if self.pool_full():
            # Pool cap reached: no cycles are burnt compressing pages that
            # cannot be stored (unlike the payload cutoff, this is known
            # before compressing).
            self.pool_limit_rejections += int(indices.size)
            self._m_pool_rejections.inc(int(indices.size))
            return 0

        with self._tracer.span("zswap.compress"):
            payloads = memcg.payload_bytes[indices]
            ok = payloads <= self.max_payload_bytes
            rejected = indices[~ok]
            accepted = indices[ok]

            if self.max_pool_bytes > 0 and accepted.size:
                # Clamp the batch to the remaining pool room; pages past the
                # cut are deferred (not compressed, no cycles, no state).
                room = self.max_pool_bytes - self.arena.footprint_bytes
                cumulative = np.cumsum(memcg.payload_bytes[accepted])
                keep = cumulative <= room
                deferred = int((~keep).sum())
                self.pool_limit_rejections += deferred
                self._m_pool_rejections.inc(deferred)
                accepted = accepted[keep]

            stats = self.stats_for(memcg.job_id)
            compress_seconds = self.latency_model.compress_seconds(
                int(accepted.size + rejected.size)
            )
            stats.compress_seconds += compress_seconds
            self._m_compress_cpu.inc(compress_seconds)

            if rejected.size:
                memcg.mark_incompressible(rejected)
                stats.pages_rejected += int(rejected.size)
                memcg.rejected_pages_total += int(rejected.size)
                self._m_rejected.inc(int(rejected.size))

            if accepted.size:
                accepted_payloads = memcg.payload_bytes[accepted]
                self.arena.store(accepted_payloads)
                memcg.mark_far(accepted)
                # Swapping out part of a huge mapping splits it (Linux
                # splits THPs before zswap sees them).
                touched_groups = np.unique(
                    memcg.huge_group[accepted][memcg.huge_group[accepted] >= 0]
                )
                for group in touched_groups:
                    memcg.split_huge(int(group))
                stats.pages_compressed += int(accepted.size)
                stats.payload_bytes_stored += int(accepted_payloads.sum())
                memcg.compressed_pages_total += int(accepted.size)
                self._m_compressed.inc(int(accepted.size))
                self._m_stored_bytes.inc(int(accepted_payloads.sum()))
        return int(accepted.size)

    # ------------------------------------------------------------------
    # Load path (page fault -> zswap)
    # ------------------------------------------------------------------

    def decompress(self, memcg: MemCg, indices: np.ndarray) -> float:
        """Fault one memcg's far pages back to near memory (promotion).

        Pages are removed from the arena, flipped to NEAR, and kept
        decompressed (the paper avoids repeated decompression by leaving
        promoted pages uncompressed until they turn cold again).  A
        :func:`decompress_rounds` round of one, after the memcg's own
        ``mark_near`` and ``record_promotions``; returns the total
        decompression latency incurred.
        """
        indices = np.asarray(indices)
        if indices.size == 0:
            return 0.0
        payloads = memcg.payload_bytes[indices]
        memcg.mark_near(indices)
        memcg.record_promotions(indices)
        return decompress_rounds(
            [(self, [(memcg, int(indices.size))])], payloads
        )

    def _sample_latencies(
        self, stats: ZswapJobStats, latencies: np.ndarray
    ) -> None:
        """Fold a latency batch into the job's reservoir (Algorithm R).

        Until the cap is reached every latency is kept; after that, the
        i-th latency ever seen replaces a uniformly-chosen reservoir slot
        with probability ``cap / (i + 1)``, so the retained sample stays
        uniform over the job's whole history instead of freezing on the
        first ``cap`` (warm-up) promotions.
        """
        cap = ZswapJobStats.LATENCY_SAMPLE_CAP
        reservoir = stats.decompress_latencies
        seen = stats.latency_samples_seen
        values = latencies.tolist()
        fill = min(len(values), cap - len(reservoir))
        if fill > 0:
            reservoir.extend(values[:fill])
        tail = values[fill:]
        if tail:
            # Candidate slots for the whole tail in one draw: sample i
            # (0-based index over the job's lifetime) lands in slot j
            # drawn uniformly from [0, i]; it is kept only when j < cap.
            indices = np.arange(seen + fill, seen + len(values))
            slots = self._rng.integers(0, indices + 1)
            for value, slot in zip(tail, slots.tolist()):
                if slot < cap:
                    reservoir[slot] = value
        stats.latency_samples_seen = seen + len(values)

    # ------------------------------------------------------------------
    # Teardown path (job exit)
    # ------------------------------------------------------------------

    def evict_job(self, memcg: MemCg, far_indices: np.ndarray) -> None:
        """Drop a dying job's far pages from the arena without promoting."""
        far_indices = np.asarray(far_indices)
        if far_indices.size == 0:
            return
        self.arena.release(memcg.payload_bytes[far_indices])


def decompress_rounds(
    rounds: Sequence[Tuple[Zswap, Sequence[Promotion]]],
    payloads: np.ndarray,
) -> float:
    """zswap's half of one promotion pass over many machines.

    The page pool has already flipped the faulted pages NEAR and
    accounted them; this frees their arena objects and charges their
    decompression.  One latency-model call covers every machine (the
    machines of one pool share one config).  Each machine then makes one
    arena release and, per ``(memcg, pages)`` pair in order, advances the
    job's stats, its decompress-CPU counter and its latency reservoir,
    all inside one ``zswap.decompress`` span: the same slices, sums and
    draws as one :meth:`Zswap.decompress` call per pair.

    Args:
        rounds: ``(zswap, pairs)`` per machine, in fault order.
        payloads: the faulted pages' payload sizes, in the same order.

    Returns:
        The total decompression latency.
    """
    latencies = rounds[0][0].latency_model.decompress_seconds(payloads)
    grand_total = 0.0
    end = 0
    for zswap, pairs in rounds:
        with zswap._tracer.span("zswap.decompress"):
            start = end
            end += sum(count for _memcg, count in pairs)
            zswap.arena.release(payloads[start:end])
            for memcg, count in pairs:
                job_latencies = latencies[start : start + count]
                start += count
                stats = zswap.stats_for(memcg.job_id)
                stats.pages_decompressed += count
                total = float(job_latencies.sum())
                stats.decompress_seconds += total
                zswap._m_decompress_cpu.inc(total)
                zswap._sample_latencies(stats, job_latencies)
                grand_total += total
    return grand_total
