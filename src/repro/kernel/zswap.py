"""zswap: the compressed far-memory tier (paper §3, §5.1).

This is the simulator's equivalent of the augmented zswap the paper ships:
it compresses pages into the machine-global zsmalloc arena, rejects pages
whose payload exceeds the 2990-byte cutoff (marking them incompressible),
and decompresses pages on fault, keeping them decompressed thereafter.

All CPU time spent compressing, decompressing, and *failing* to compress
(the wasted cycles on incompressible data the paper calls out in §3.2) is
accounted per job, which is what Fig. 8 plots.

Stores and promotions arrive as rounds over machines of one page pool.
A store round (:func:`compress_rounds`, after kreclaimd's walk or a
direct reclaim's) makes one payload gather and one tier flip for the
pool, and one arena store and one span per machine.  A promotion round
(:func:`decompress_rounds`, after the pool's own promotion pass) makes
one latency-model call and one size-class grouping, then one arena
release and one span per machine.  A reference memcg can stand in
for the pool as a store round's page space
(:func:`repro.kernel.oracle.run_kreclaimd`).
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
from repro.kernel.zsmalloc import ZsmallocArena, size_classes
from repro.obs import (
    MetricName,
    MetricRegistry,
    Tracer,
    get_registry,
    get_tracer,
)

__all__ = ["Zswap", "ZswapJobStats", "compress_rounds", "decompress_rounds"]

#: One memcg's share of a store pass: ``(memcg, lo, hi)``, its attempted
#: pages being ``slots[lo:hi]`` of the pass (see :func:`compress_rounds`).
StoreRun = Tuple[MemCg, int, int]


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

    def _store_capped(self, runs: Sequence[StoreRun], payloads: np.ndarray,
                      stored: np.ndarray, rejected: np.ndarray) -> int:
        """This machine's share of a capped :func:`compress_rounds`;
        returns the pages stored.

        Each memcg's store moves the footprint the next one is clamped
        against, so the runs go one by one, each with its own
        ``arena.store``.  The pool cap clears pages from ``stored`` and
        ``rejected`` (a memcg it turns away is not tried at all); an
        uncapped machine stores every page under its cutoff.
        """
        counts = []
        for memcg, lo, hi in runs:
            n = hi - lo
            if self.pool_full():
                # Pool cap reached: no cycles are burnt compressing pages
                # that cannot be stored (unlike the payload cutoff, this
                # is known before compressing).
                self.pool_limit_rejections += n
                self._m_pool_rejections.inc(n)
                stored[lo:hi] = False
                rejected[lo:hi] = False
                continue
            accepted = lo + np.flatnonzero(stored[lo:hi])
            n_rejected = n - int(accepted.size)
            if accepted.size and self.max_pool_bytes > 0:
                # Clamp the batch to the remaining pool room; pages past
                # the cut are deferred (not compressed, no cycles, no
                # state).
                room = self.max_pool_bytes - self.arena.footprint_bytes
                keep = np.cumsum(payloads[accepted]) <= room
                deferred = int(accepted.size - np.count_nonzero(keep))
                self.pool_limit_rejections += deferred
                self._m_pool_rejections.inc(deferred)
                stored[accepted[~keep]] = False
                accepted = accepted[keep]
            kept = payloads[accepted]
            if kept.size:
                self.arena.store(kept)
            counts.append((memcg, int(kept.size), n_rejected, int(kept.sum())))
        return self._account(counts)

    def _account(self, counts: Sequence[Tuple[MemCg, int, int, int]]) -> int:
        """Book a store pass's ``(memcg, stored, rejected, payload bytes)``
        per memcg, in walk order; returns the pages stored."""
        moved = rejected_total = stored_bytes = 0
        for memcg, n_stored, n_rejected, nbytes in counts:
            stats = self.stats_for(memcg.job_id)
            compress_seconds = self.latency_model.compress_seconds(
                n_stored + n_rejected
            )
            stats.compress_seconds += compress_seconds
            self._m_compress_cpu.inc(compress_seconds)
            stats.pages_rejected += n_rejected
            memcg.rejected_pages_total += n_rejected
            stats.pages_compressed += n_stored
            stats.payload_bytes_stored += nbytes
            memcg.compressed_pages_total += n_stored
            moved += n_stored
            rejected_total += n_rejected
            stored_bytes += nbytes
        # Whole-page counters take one sum per machine: integer adds
        # are exact in any order, unlike the CPU-seconds floats above.
        self._m_rejected.inc(rejected_total)
        self._m_compressed.inc(moved)
        self._m_stored_bytes.inc(stored_bytes)
        return moved

    # ------------------------------------------------------------------
    # Load path (page fault -> zswap)
    # ------------------------------------------------------------------

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

    def evict_job(self, payloads: np.ndarray) -> None:
        """Drop freed far pages, given their payload sizes, from the arena
        without promoting them."""
        if payloads.size:
            self.arena.release(payloads)


def compress_rounds(
    pages, slots: np.ndarray,
    rounds: Sequence[Tuple[Zswap, Sequence[StoreRun]]],
) -> List[int]:
    """zswap's half of one reclaim pass over many machines.

    kreclaimd (or direct reclaim) has listed the attempted pages (walk
    order, budgets spent); this stores them.  One payload gather and one
    cutoff mask cover every machine, each page compared against its own
    machine's ``max_payload_bytes``; a page over it stays NEAR, marked
    incompressible, and its compression cycles are still charged (the
    opportunity cost §3.2 describes).  Uncapped, the pool's footprint decides
    nothing: one reduction per run gives every memcg's counts, one
    size-class grouping covers every machine, and each machine makes one
    ``arena.store`` (storing A then B leaves the arena as storing A ∪ B
    does).  When any machine is capped, each machine stores memcg by
    memcg (:meth:`Zswap._store_capped`).  Either way each machine books
    its jobs' stats in walk order inside one ``zswap.compress`` span.
    Last, one ``mark_incompressible`` flags every rejected page, one
    ``mark_far`` moves every stored one, and one ``split_huge_at`` splits
    the huge mappings they hit: the same state as one store per memcg.

    Args:
        pages: the page space ``slots`` index -- a page pool, or one
            reference memcg (:func:`repro.kernel.oracle.compress`).
        slots: the attempted pages, memcg by memcg in walk order.
        rounds: ``(zswap, runs)`` per machine, in walk order; each run
            ``(memcg, lo, hi)`` is one memcg's non-empty share
            ``slots[lo:hi]``, and the runs tile ``slots``.

    Returns:
        The pages each machine stored.
    """
    payloads = pages.payloads(slots)
    machine_sizes = [runs[-1][2] - runs[0][1] for _zswap, runs in rounds]
    # Each machine keeps its own cutoff: the fault injector lowers it
    # on the machines a compression fault targets, and only there.
    stored = payloads <= np.repeat(
        [zswap.max_payload_bytes for zswap, _runs in rounds], machine_sizes
    )
    rejected = ~stored
    moved = []
    if any(zswap.max_pool_bytes > 0 for zswap, _runs in rounds):
        for zswap, runs in rounds:
            with zswap._tracer.span("zswap.compress"):
                moved.append(
                    zswap._store_capped(runs, payloads, stored, rejected)
                )
    else:
        starts = [lo for _zswap, runs in rounds for _memcg, lo, _hi in runs]
        n_ok = np.add.reduceat(stored, starts, dtype=np.int64).tolist()
        ok_bytes = np.add.reduceat(
            payloads * stored, starts, dtype=np.int64
        ).tolist()
        groups = size_classes(
            payloads[stored],
            np.repeat(np.arange(len(rounds)), machine_sizes)[stored],
            len(rounds), rounds[0][0].arena.step,
        )
        index = 0
        for (zswap, runs), machine_groups in zip(rounds, groups):
            with zswap._tracer.span("zswap.compress"):
                zswap.arena.store_grouped(machine_groups)
                counts = []
                for memcg, lo, hi in runs:
                    n = n_ok[index]
                    counts.append((memcg, n, hi - lo - n, ok_bytes[index]))
                    index += 1
                moved.append(zswap._account(counts))
    if rejected.any():
        pages.mark_incompressible(slots[rejected])
    if stored.any():
        accepted = slots[stored]
        pages.mark_far(accepted)
        # Swapping out part of a huge mapping splits it (Linux splits
        # THPs before zswap sees them).
        pages.split_huge_at(accepted)
    return moved


def decompress_rounds(
    rounds: Sequence[Tuple[Zswap, Sequence[Promotion]]],
    payloads: np.ndarray,
) -> float:
    """zswap's half of one promotion pass over many machines.

    The page pool has already flipped the faulted pages NEAR and
    accounted them; this frees their arena objects and charges their
    decompression.  One latency-model call and one size-class grouping
    cover every machine (the machines of one pool share one config).
    Each machine then makes one arena release and, per ``(memcg, pages)``
    pair in order, advances the
    job's stats, its decompress-CPU counter and its latency reservoir,
    all inside one ``zswap.decompress`` span: the same slices, sums and
    draws as one decompression per pair.

    Args:
        rounds: ``(zswap, pairs)`` per machine, in fault order.
        payloads: the faulted pages' payload sizes, in the same order.

    Returns:
        The total decompression latency.
    """
    latencies = rounds[0][0].latency_model.decompress_seconds(payloads)
    sizes = [sum(count for _memcg, count in pairs) for _zswap, pairs in rounds]
    groups = size_classes(
        payloads, np.repeat(np.arange(len(rounds)), sizes), len(rounds),
        rounds[0][0].arena.step,
    )
    grand_total = 0.0
    start = 0
    for (zswap, pairs), machine_groups in zip(rounds, groups):
        with zswap._tracer.span("zswap.decompress"):
            zswap.arena.release_grouped(machine_groups)
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
