"""Reactive direct reclaim — the Linux-default baseline (paper §3.2).

Stock zswap only engages on *direct reclaim*: when an allocation finds the
machine out of memory, the faulting process synchronously compresses pages
until the allocation fits.  The paper rejects this mode for WSCs because
(1) decompression overhead is unbounded, (2) last-minute compression bursts
hurt tail latency, and (3) no savings materialize until machines saturate.

We implement it faithfully so the proactive-vs-reactive ablation bench can
reproduce that finding.  Direct reclaim respects each memcg's *soft limit*
(the node agent pins it at the job's working-set size) — the kernel never
reclaims a job below its soft limit.
"""

from __future__ import annotations

from typing import Callable, Sequence, Tuple

import numpy as np

from repro.common.units import PAGE_SIZE
from repro.kernel.memcg import MemCg
from repro.kernel.zswap import Zswap, compress_rounds

__all__ = ["DirectReclaim"]


class DirectReclaim:
    """Synchronous, allocation-path reclaim.

    Args:
        zswap: the machine's zswap instance.
    """

    def __init__(self, zswap: Zswap):
        self.zswap = zswap
        #: Allocation stalls that ran direct reclaim (see :meth:`stall`).
        self.invocations = 0
        self.pages_reclaimed = 0
        #: Wall-clock seconds allocation paths spent stalled compressing —
        #: the tail-latency poison the paper measured.  Keyed per invocation.
        self.stall_seconds_total = 0.0

    def stall(
        self, pool, memcgs: Sequence[MemCg], shortfall: Callable[[], int]
    ) -> Tuple[int, float]:
        """One allocation stall: reclaim passes until ``shortfall()`` (the
        bytes the allocation still lacks, read from the machine) is met
        or a pass stores nothing.

        Like the kernel's allocation slow path, the stall retries while
        reclaim makes progress: a pass's freed-bytes estimate leaves out
        the arena's zspage overhead, so one pass can fall short.

        Returns:
            ``(bytes_freed_estimate, stall_seconds)`` over every pass.
        """
        self.invocations += 1
        freed = 0
        stall = 0.0
        needed = shortfall()
        while needed > 0:
            stored_before = self.pages_reclaimed
            pass_freed, pass_stall = self.reclaim(pool, memcgs, needed)
            freed += pass_freed
            stall += pass_stall
            if self.pages_reclaimed == stored_before:
                break
            needed = shortfall()
        return freed, stall

    def reclaim(
        self, pool, memcgs: Sequence[MemCg], needed_bytes: int
    ) -> Tuple[int, float]:
        """Compress pages until ~``needed_bytes`` of DRAM can be released.

        Walks memcgs' LRU tails oldest-first, skipping pages protected by
        soft limits.  Unlike kreclaimd there is no cold-age threshold: under
        memory pressure the kernel takes whatever is least recently used.
        Each pass over ``memcgs`` (the machine's, in visiting order) reads
        their ``pool`` once: near pages, and every candidate in order
        (``pool.direct_reclaim_walk``).  A memcg's store changes only its
        own pages, so the pass's order holds for each.

        Returns:
            ``(bytes_freed_estimate, stall_seconds)`` — freed bytes are
            estimated as (page size - payload) per stored page.
        """
        rows = [memcg.row for memcg in memcgs]
        freed = 0
        stall = 0.0
        progress = True
        while freed < needed_bytes and progress:
            progress = False
            near = pool.tier_pages(rows)[:, 0].tolist()
            slots, ranks = pool.direct_reclaim_walk(rows)
            bounds = np.searchsorted(ranks, np.arange(len(rows) + 1)).tolist()
            for rank, memcg in enumerate(memcgs):
                if freed >= needed_bytes:
                    break
                protected = max(0, memcg.soft_limit_pages)
                reclaimable = near[rank] - protected
                candidates = slots[bounds[rank] : bounds[rank + 1]]
                if reclaimable <= 0 or candidates.size == 0:
                    continue
                # Take roughly what is still needed assuming ~3x compression,
                # then count what the stored pages actually free; the outer
                # loop retries if compression under-delivered.
                still_needed_pages = int(
                    np.ceil((needed_bytes - freed) / (PAGE_SIZE * 2 / 3))
                )
                candidates = candidates[: min(reclaimable,
                                              max(1, still_needed_pages))]
                stats = self.zswap.stats_for(memcg.job_id)
                before_seconds = stats.compress_seconds
                before_payload = stats.payload_bytes_stored
                stored = compress_rounds(pool, candidates, [
                    (self.zswap, [(memcg, 0, int(candidates.size))])
                ])[0]
                stall += stats.compress_seconds - before_seconds
                # Each stored page frees its page less its payload.  The
                # arena's footprint also grows by whole zspages, which
                # would count a fresh arena's first stores as negative
                # progress.
                freed += stored * PAGE_SIZE - (
                    stats.payload_bytes_stored - before_payload
                )
                self.pages_reclaimed += stored
                if stored > 0:
                    progress = True
        self.stall_seconds_total += stall
        return freed, stall
