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

from typing import Iterable, Tuple

import numpy as np

from repro.common.units import PAGE_SIZE
from repro.kernel.memcg import MemCg, PageState
from repro.kernel.zswap import Zswap

__all__ = ["DirectReclaim"]


class DirectReclaim:
    """Synchronous, allocation-path reclaim.

    Args:
        zswap: the machine's zswap instance.
    """

    def __init__(self, zswap: Zswap):
        self.zswap = zswap
        self.invocations = 0
        self.pages_reclaimed = 0
        #: Wall-clock seconds allocation paths spent stalled compressing —
        #: the tail-latency poison the paper measured.  Keyed per invocation.
        self.stall_seconds_total = 0.0

    def reclaim(
        self, memcgs: Iterable[MemCg], needed_bytes: int
    ) -> Tuple[int, float]:
        """Compress pages until ~``needed_bytes`` of DRAM can be released.

        Walks memcgs' LRU tails oldest-first, skipping pages protected by
        soft limits.  Unlike kreclaimd there is no cold-age threshold: under
        memory pressure the kernel takes whatever is least recently used.

        Returns:
            ``(bytes_freed_estimate, stall_seconds)`` — freed bytes are
            estimated as (page size - payload) per stored page.
        """
        self.invocations += 1
        freed = 0
        stall = 0.0
        progress = True
        while freed < needed_bytes and progress:
            progress = False
            for memcg in memcgs:
                if freed >= needed_bytes:
                    break
                protected = max(0, memcg.soft_limit_pages)
                reclaimable = memcg.near_pages - protected
                if reclaimable <= 0:
                    continue
                mask = (
                    memcg.resident
                    & (memcg.state == PageState.NEAR)
                    & ~memcg.unevictable
                    & ~memcg.incompressible
                )
                candidates = np.flatnonzero(mask)
                if candidates.size == 0:
                    continue
                # Sorted as int32, the reference memcg's width: the
                # default sort orders ties differently for other dtypes.
                order = np.argsort(
                    memcg.age_scans[candidates].astype(np.int32)
                )[::-1]
                candidates = candidates[order][:reclaimable]
                # Take roughly what is still needed assuming ~3x compression,
                # then measure the true footprint delta; the outer loop
                # retries if compression under-delivered.
                still_needed_pages = int(
                    np.ceil((needed_bytes - freed) / (PAGE_SIZE * 2 / 3))
                )
                candidates = candidates[: max(1, still_needed_pages)]
                footprint_before = self.zswap.arena.footprint_bytes
                before_seconds = self.zswap.stats_for(
                    memcg.job_id
                ).compress_seconds
                stored = self.zswap.compress(memcg, candidates)
                stall += (
                    self.zswap.stats_for(memcg.job_id).compress_seconds
                    - before_seconds
                )
                footprint_added = (
                    self.zswap.arena.footprint_bytes - footprint_before
                )
                freed += stored * PAGE_SIZE - footprint_added
                self.pages_reclaimed += stored
                if stored > 0:
                    progress = True
        self.stall_seconds_total += stall
        return freed, stall
