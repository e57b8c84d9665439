"""The reference page pool: the scalar kernel behind the pool interface.

:class:`ScalarPagePool` answers the calls of
:class:`~repro.kernel.columnar.MachinePagePool` with the per-memcg
methods of :class:`~repro.kernel.memcg.MemCg`: each memcg keeps its own
arrays, scans with ``scan_update`` (the incremental cold-histogram fold),
lists candidates with ``reclaim_candidates``, and is touched and promoted
with ``touch``, ``mark_near`` and ``record_promotions``.  Pool slots are
laid out as the columnar pool lays them out (segments in add order,
compacted on removal), so a touch round addresses both pools alike.  It
is the oracle the columnar pool is held to,
bit for bit, selected with ``MachineConfig(kernel="scalar")`` by the
equivalence suites and ``repro ci``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.histograms import AgeBins
from repro.core.slo import working_set_pages
from repro.kernel.memcg import MemCg, Promotion

__all__ = ["ScalarPagePool"]


class ScalarPagePool:
    """Pool rows over self-contained memcgs, handed out as the columnar
    pool hands them out (lowest free row first), so per-row arrays of
    the two pools line up."""

    memcg_class = MemCg

    def __init__(self, bins: AgeBins, scan_period: int):
        self.bins = bins
        self.scan_period = int(scan_period)
        self.row_memcg: List[Optional[MemCg]] = []
        self._free_rows: List[int] = []
        #: Per-row resident-page counts from the most recent scan.
        self.last_scan_row_pages = np.zeros(0, dtype=np.int64)
        #: The columnar pool's slot space: segment bases by row, the
        #: owning row of every slot, and the slots in use.
        self.row_base: List[int] = []
        self.owner_row = np.zeros(0, dtype=np.int32)
        self.used = 0
        self.layout_version = 0

    def add(self, memcg: MemCg) -> None:
        if self._free_rows:
            self._free_rows.sort()
            row = self._free_rows.pop(0)
        else:
            row = len(self.row_memcg)
            self.row_memcg.append(None)
            self.row_base.append(0)
        memcg._pool_row = row
        self.row_memcg[row] = memcg
        self.row_base[row] = self.used
        self.owner_row = np.concatenate([
            self.owner_row, np.full(memcg.capacity_pages, row, np.int32)
        ])
        self.used += memcg.capacity_pages
        self.layout_version += 1

    def remove(self, memcg: MemCg) -> None:
        row = memcg._pool_row
        base, size = self.row_base[row], memcg.capacity_pages
        self.owner_row = np.delete(self.owner_row, slice(base, base + size))
        self.used -= size
        for other in range(len(self.row_base)):
            if self.row_base[other] > base:
                self.row_base[other] -= size
        self.layout_version += 1
        self.row_memcg[row] = None
        self._free_rows.append(row)
        memcg._pool_row = -1

    def _runs(self, slots: np.ndarray) -> Iterator[Tuple[MemCg, int, int, int]]:
        """``(memcg, base, lo, hi)`` per run of ``slots`` one memcg owns."""
        owners = self.owner_row[slots]
        if owners.size == 0:
            return
        starts = np.flatnonzero(np.r_[True, owners[1:] != owners[:-1]])
        ends = np.append(starts[1:], owners.size)
        for lo, hi in zip(starts.tolist(), ends.tolist()):
            row = int(owners[lo])
            yield self.row_memcg[row], self.row_base[row], lo, hi

    def touch(self, slots: np.ndarray, write: bool) -> np.ndarray:
        far = [np.zeros(0, dtype=np.int64)]
        for memcg, base, lo, hi in self._runs(slots):
            hit = memcg.touch(slots[lo:hi] - base, write=write)
            memcg.mark_near(hit)
            far.append(hit + base)
        return np.concatenate(far)

    def payloads(self, slots: np.ndarray) -> np.ndarray:
        return np.concatenate([np.zeros(0, dtype=np.int32)] + [
            memcg.payload_bytes[slots[lo:hi] - base]
            for memcg, base, lo, hi in self._runs(slots)
        ])

    def promote(self, slots: np.ndarray,
                promotions: Sequence[Promotion]) -> None:
        end = 0
        for memcg, count in promotions:
            start, end = end, end + count
            local = slots[start:end] - self.row_base[memcg._pool_row]
            memcg.mark_near(local)
            memcg.record_promotions(local)

    @property
    def memcg_count(self) -> int:
        return len(self.row_memcg) - len(self._free_rows)

    def tier_pages(self) -> np.ndarray:
        tiers = np.zeros((len(self.row_memcg), 2), dtype=np.int64)
        for row, memcg in enumerate(self.row_memcg):
            if memcg is not None:
                tiers[row] = (memcg.near_pages, memcg.far_pages)
        return tiers

    def cold_pages(self, threshold_seconds: float) -> int:
        return sum(m.cold_pages(threshold_seconds)
                   for m in self.row_memcg if m is not None)

    def histogram_columns(
        self, rows: np.ndarray, min_cold_age_seconds: int
    ) -> Dict[str, np.ndarray]:
        memcgs = [self.row_memcg[row] for row in np.asarray(rows).tolist()]
        shape = (len(memcgs), len(self.bins))
        cold = [m.cold_age_histogram for m in memcgs]
        promo = [m.promotion_histogram for m in memcgs]
        return {
            "promotion_counts": np.array(
                [h.counts for h in promo], np.int64).reshape(shape),
            "promotion_young": np.array(
                [h.young_count for h in promo], np.int64),
            "cold_counts": np.array(
                [h.counts for h in cold], np.int64).reshape(shape),
            "cold_young": np.array([h.young_count for h in cold], np.int64),
            "working_set_pages": np.array(
                [working_set_pages(h, min_cold_age_seconds) for h in cold],
                np.int64),
        }

    def export_columns(
        self, rows: np.ndarray, min_cold_age_seconds: int
    ) -> Dict[str, np.ndarray]:
        columns = self.histogram_columns(rows, min_cold_age_seconds)
        columns["resident_pages"] = np.array(
            [self.row_memcg[row].resident_pages
             for row in np.asarray(rows).tolist()], np.int64)
        return columns

    def scan_all(self, memcgs: Iterable[MemCg]) -> int:
        pages = np.zeros(len(self.row_memcg), dtype=np.int64)
        for memcg in memcgs:
            memcg.scan_update()
            pages[memcg._pool_row] = memcg.resident_pages
        self.last_scan_row_pages = pages
        return int(pages.sum())

    def reclaim_pairs(
        self, memcgs: Iterable[MemCg]
    ) -> List[Tuple[MemCg, np.ndarray]]:
        pairs = []
        for memcg in memcgs:
            if memcg.zswap_enabled:
                candidates = memcg.reclaim_candidates(memcg.cold_age_threshold)
                if candidates.size:
                    pairs.append((memcg, candidates))
        return pairs

    def reclaim_walk(
        self, memcgs: Sequence[MemCg]
    ) -> Tuple[np.ndarray, np.ndarray]:
        slots = [np.zeros(0, dtype=np.int64)]
        ranks = [np.zeros(0, dtype=np.int64)]
        for rank, memcg in enumerate(memcgs):
            if not memcg.zswap_enabled:
                continue
            candidates = memcg.reclaim_candidates(memcg.cold_age_threshold)
            slots.append(memcg.reclaim_order(candidates)
                         + self.row_base[memcg._pool_row])
            ranks.append(np.full(candidates.size, rank, dtype=np.int64))
        return np.concatenate(slots), np.concatenate(ranks)

    def mark_incompressible(self, slots: np.ndarray) -> None:
        for memcg, base, lo, hi in self._runs(slots):
            memcg.mark_incompressible(slots[lo:hi] - base)

    def mark_far(self, slots: np.ndarray) -> None:
        for memcg, base, lo, hi in self._runs(slots):
            memcg.mark_far(slots[lo:hi] - base)

    def split_huge_at(self, slots: np.ndarray) -> None:
        for memcg, base, lo, hi in self._runs(slots):
            memcg.split_huge_at(slots[lo:hi] - base)
