"""The reference kernel: the scalar memcg walk behind the pool interface.

The runtime kernel is the columnar pool
(:class:`~repro.kernel.columnar.MachinePagePool`), which runs kstaled and
kreclaimd as whole-pool passes.  This module keeps the per-memcg walk it
replaces, as functions over any memcg's page arrays (a
:class:`~repro.kernel.memcg.MemCg`'s own, or a columnar memcg's pool
views):

* :func:`scan_memcg` is one kstaled pass: ages, the two-list LRU, dirty
  payload redraws, and a recount of the cold-age snapshot;
* :func:`reclaim_candidates` and :func:`reclaim_order` are kreclaimd's
  candidacy and LRU walk order;
* :func:`run_kreclaimd` is one kreclaimd pass, memcg by memcg.

:class:`ScalarPagePool` answers the pool interface with them.  Pool
slots are laid out as the columnar pool lays them out (segments in add
order, compacted on removal), so a touch round addresses both pools
alike.  It is the oracle the columnar pool is held to, bit for bit,
selected with ``MachineConfig(kernel="scalar")`` by the equivalence
suites.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.units import MAX_PAGE_AGE_SCANS
from repro.core.histograms import AgeBins
from repro.core.slo import working_set_pages
from repro.kernel.kreclaimd import Kreclaimd
from repro.kernel.memcg import _NEAR, MemCg, Promotion

__all__ = [
    "ScalarPagePool",
    "reclaim_candidates",
    "reclaim_order",
    "run_kreclaimd",
    "scan_memcg",
]


def _propagate_huge_bits(memcg: MemCg) -> None:
    """Share accessed/dirty bits within each of a memcg's huge mappings.

    The MMU sets one bit on the PMD; any touched page makes the whole
    mapping look accessed (and dirtied, for writes) to the scan.
    """
    hp = np.flatnonzero(memcg.resident & (memcg.huge_group >= 0))
    if hp.size == 0:
        return
    groups = memcg.huge_group[hp]
    for bits in (memcg.accessed, memcg.dirtied):
        aggregate = np.zeros(memcg.capacity_pages, dtype=bool)
        np.logical_or.at(aggregate, groups, bits[hp])
        bits[hp] = aggregate[groups]


def scan_memcg(memcg: MemCg) -> None:
    """One kstaled pass over one memcg (paper §5.1).

    For each resident page: if the accessed bit is set, record the
    page's previous age in the promotion histogram and reset the age;
    otherwise increment the age (saturating at 255 scans).  Dirtied NEAR
    pages shed their incompressible mark and get fresh payload content
    from the memcg's own stream.  Finally the cold-age snapshot is
    recounted from the live ages, in place (a columnar memcg's snapshot
    is a row of its pool's matrix).
    """
    _propagate_huge_bits(memcg)
    res = memcg.resident
    acc = res & memcg.accessed
    idle = res & ~memcg.accessed

    # Widened, and incremented only below the cap: a columnar memcg's
    # uint8 ages would wrap in ``age * period`` and at ``255 + 1``.
    memcg.promotion_histogram.add_ages(np.multiply(
        memcg.age_scans[acc], memcg.scan_period, dtype=np.int64
    ))
    memcg.age_scans[acc] = 0
    ages = memcg.age_scans[idle]
    memcg.age_scans[idle] = ages + (ages < MAX_PAGE_AGE_SCANS)
    # Two-list LRU maintenance: accessed pages (re-)activate; active
    # pages that missed a whole scan drop to the inactive list.
    memcg.lru_active[acc] = True
    memcg.lru_active[idle] = False
    memcg.accessed[res] = False

    # Only NEAR pages can have live PTE dirty bits: swap-out removed the
    # mapping of FAR pages (and compression consumed their dirty state).
    dirty = res & memcg.dirtied & (memcg.state == _NEAR)
    n_dirty = int(np.count_nonzero(dirty))
    if n_dirty:
        memcg.incompressible[dirty] = False
        memcg.payload_bytes[dirty] = (
            memcg.content_profile.sample_payload_bytes(n_dirty, memcg._rng)
        )
    memcg.dirtied[res] = False

    truth = memcg._rebuild_cold_histogram()
    memcg.cold_age_histogram.counts[:] = truth.counts
    memcg.cold_age_histogram.young_count = truth.young_count


def reclaim_candidates(memcg: MemCg, threshold_seconds: float) -> np.ndarray:
    """A memcg's slots eligible for compression under a threshold.

    Eligible = resident, NEAR, evictable, not marked incompressible, and
    idle for at least the threshold: kreclaimd's LRU walk skips
    unevictable/mlocked pages and pages whose previous compression
    attempt was rejected.  A non-finite threshold lists nothing.
    """
    if not np.isfinite(threshold_seconds):
        return np.zeros(0, dtype=np.int64)
    threshold_scans = int(np.ceil(threshold_seconds / memcg.scan_period))
    return np.flatnonzero(
        memcg.resident
        & (memcg.state == _NEAR)
        & ~memcg.unevictable
        & ~memcg.incompressible
        & (memcg.age_scans >= threshold_scans)
    )


def reclaim_order(memcg: MemCg, candidates: np.ndarray) -> np.ndarray:
    """Order a memcg's candidates the way kreclaimd walks its LRU.

    Inactive-list pages come before (stale) active-list ones; within a
    list, oldest first, ties by ascending slot.  ``np.lexsort`` sorts by
    the last key first; the cap minus the age orders as the negated age
    does, without wrapping a uint8 column.
    """
    candidates = np.asarray(candidates)
    if candidates.size == 0:
        return candidates
    order = np.lexsort((
        MAX_PAGE_AGE_SCANS - memcg.age_scans[candidates],
        memcg.lru_active[candidates],
    ))
    return candidates[order]


def run_kreclaimd(daemon: Kreclaimd,
                  pairs: Sequence[Tuple[MemCg, np.ndarray]]) -> int:
    """One kreclaimd pass, memcg by memcg; returns pages moved to far
    memory.

    ``pairs`` are the pass's ``(memcg, candidates)`` in walk order
    (:func:`reclaim_candidates` of each memcg with zswap enabled).  Per
    memcg: order the candidates as the LRU walk visits them and compress
    within the remaining budget.  Attempted pages consume budget whether
    or not they stored: cycles were spent either way.  This is the walk
    a machine's reclaim round
    (:func:`~repro.kernel.machine.reclaim_machines`) replays for a whole
    page pool at once.
    """
    budget = daemon.pages_per_run
    moved = 0
    for memcg, candidates in pairs:
        candidates = reclaim_order(memcg, candidates)
        if budget is not None:
            if budget <= 0:
                break
            candidates = candidates[:budget]
            budget -= int(candidates.size)
        moved += daemon.zswap.compress(memcg, candidates)
    daemon.record(moved)
    return moved


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

    def _memcgs_of(self, rows: Optional[Sequence[int]]) -> List[Optional[MemCg]]:
        return self.row_memcg if rows is None else [
            self.row_memcg[row] for row in rows
        ]

    def tier_pages(self, rows: Optional[Sequence[int]] = None) -> np.ndarray:
        return np.array([
            (m.near_pages, m.far_pages) if m is not None else (0, 0)
            for m in self._memcgs_of(rows)
        ], dtype=np.int64).reshape(-1, 2)

    def cold_pages(self, threshold_seconds: float,
                   rows: Optional[Sequence[int]] = None) -> np.ndarray:
        return np.array([
            m.cold_pages(threshold_seconds) if m is not None else 0
            for m in self._memcgs_of(rows)
        ], dtype=np.int64)

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
            scan_memcg(memcg)
            pages[memcg._pool_row] = memcg.resident_pages
        self.last_scan_row_pages = pages
        return int(pages.sum())

    def reclaim_walk(
        self, memcgs: Sequence[MemCg]
    ) -> Tuple[np.ndarray, np.ndarray]:
        slots = [np.zeros(0, dtype=np.int64)]
        ranks = [np.zeros(0, dtype=np.int64)]
        for rank, memcg in enumerate(memcgs):
            if not memcg.zswap_enabled:
                continue
            candidates = reclaim_candidates(memcg, memcg.cold_age_threshold)
            slots.append(reclaim_order(memcg, candidates)
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
