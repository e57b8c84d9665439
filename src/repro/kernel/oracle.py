"""The reference kernel: self-contained memcgs behind the pool interface.

The runtime pool (:class:`~repro.kernel.columnar.MachinePagePool`)
owns every page, and a runtime :class:`~repro.kernel.memcg.MemCg` is a
handle on one of its rows.  This module keeps the kernel it replaced,
as a second implementation the runtime pool is held to, bit for bit:

* :class:`ReferenceMemCg` is a memcg with wide page arrays of its own
  and the page operations over them;
* :func:`scan_memcg` is one kstaled pass: ages, the two-list LRU, dirty
  payload redraws, and a recount of the cold-age snapshot;
* :func:`reclaim_candidates` and :func:`reclaim_order` are kreclaimd's
  candidacy and LRU walk order, and :func:`run_kreclaimd` is one
  kreclaimd pass, memcg by memcg, each memcg the page space of its own
  zswap store.

:class:`ScalarPagePool` answers the pool interface with them.  Pool
slots are laid out as the columnar pool lays them out (segments in add
order, compacted on removal), so a touch round addresses both pools
alike.  The equivalence suites select it with
``MachineConfig(kernel="scalar")``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import SimulationError
from repro.common.units import KSTALED_SCAN_PERIOD, MAX_PAGE_AGE_SCANS
from repro.common.validation import check_positive, require
from repro.core.histograms import AgeBins, AgeHistogram
from repro.core.slo import working_set_pages
from repro.kernel.compression import ContentProfile
from repro.kernel.kreclaimd import Kreclaimd
from repro.kernel.memcg import (
    _FAR,
    _NEAR,
    MemCg,
    PageColumns,
    PageState,
    Promotion,
    touch_pages,
)
from repro.kernel.zswap import compress_rounds

__all__ = [
    "ReferenceMemCg",
    "ScalarPagePool",
    "reclaim_candidates",
    "reclaim_order",
    "run_kreclaimd",
    "scan_memcg",
]


class ReferenceMemCg(MemCg):
    """A memcg that owns its pages: one numpy array per
    :class:`~repro.kernel.memcg.PageColumns` column, wide (int32 ages
    and payloads, int64 huge groups), so the equivalence suites hold the
    runtime pool's narrow columns to a second, wide implementation.
    Built as :class:`~repro.kernel.memcg.MemCg` is, plus the kstaled
    ``scan_period`` in seconds.
    """

    def __init__(
        self,
        job_id: str,
        capacity_pages: int,
        content_profile: ContentProfile,
        bins: AgeBins,
        rng: np.random.Generator,
        scan_period: int = KSTALED_SCAN_PERIOD,
    ):
        super().__init__(job_id, capacity_pages, content_profile, bins, rng)
        check_positive(scan_period, "scan_period")
        self.scan_period = int(scan_period)
        n = self.capacity_pages
        self.resident = np.zeros(n, dtype=bool)
        self.age_scans = np.zeros(n, dtype=np.int32)
        self.accessed = np.zeros(n, dtype=bool)
        self.state = np.zeros(n, dtype=np.uint8)
        self.incompressible = np.zeros(n, dtype=bool)
        self.dirtied = np.zeros(n, dtype=bool)
        self.unevictable = np.zeros(n, dtype=bool)
        self.payload_bytes = np.zeros(n, dtype=np.int32)
        self.lru_active = np.zeros(n, dtype=bool)
        self.huge_group = np.full(n, -1, dtype=np.int64)
        self._own_histograms = (AgeHistogram(bins), AgeHistogram(bins))

    # Counts and page operations over the memcg's own arrays; the pool
    # methods of the same names document each one.

    @property
    def resident_pages(self) -> int:
        """Total resident pages (near + far)."""
        return int(np.count_nonzero(self.resident))

    @property
    def near_pages(self) -> int:
        """Pages held uncompressed in DRAM."""
        return int(np.count_nonzero(self.resident & (self.state == _NEAR)))

    @property
    def far_pages(self) -> int:
        """Pages held compressed in the zswap arena."""
        return int(np.count_nonzero(self.resident & (self.state == _FAR)))

    def far_mask(self) -> np.ndarray:
        """Boolean mask over slots currently in far memory."""
        return self.resident & (self.state == _FAR)

    def cold_pages(self, threshold_seconds: float) -> int:
        """Resident pages (near or far) idle at least ``threshold_seconds``,
        from live page ages."""
        threshold_scans = int(np.ceil(threshold_seconds / self.scan_period))
        return int(
            np.count_nonzero(self.resident & (self.age_scans >= threshold_scans))
        )

    def allocate(self, n_pages: int) -> np.ndarray:
        """Allocate ``n_pages`` new resident pages; returns their indices."""
        if n_pages == 0:
            return np.zeros(0, dtype=np.int64)
        free = np.flatnonzero(~self.resident)
        if free.size < n_pages:
            raise SimulationError(
                f"memcg {self.job_id}: requested {n_pages} pages but only "
                f"{free.size} slots free of {self.capacity_pages}"
            )
        idx = free[:n_pages]
        self.resident[idx] = True
        self.age_scans[idx] = 0
        self.accessed[idx] = True
        self.lru_active[idx] = True
        self.state[idx] = PageState.NEAR
        self.incompressible[idx] = False
        self.dirtied[idx] = True
        self.unevictable[idx] = False
        self.payload_bytes[idx] = self.content_profile.sample_payload_bytes(
            n_pages, self._rng
        )
        return idx

    def release(self, indices: np.ndarray) -> np.ndarray:
        """Free pages, splitting the huge mappings they hit; returns the
        subset that was in far memory."""
        indices = np.asarray(indices)
        if indices.size == 0:
            return indices
        require(bool(self.resident[indices].all()), "releasing non-resident pages")
        far = indices[self.state[indices] == _FAR]
        self.split_huge_at(indices)
        self.resident[indices] = False
        self.accessed[indices] = False
        self.state[indices] = PageState.NEAR
        return far

    def touch(self, indices: np.ndarray, write: bool = False) -> np.ndarray:
        """The MMU: mark pages accessed (and dirtied for a write); returns
        the touched far pages, each once, in first-occurrence order."""
        indices = np.asarray(indices)
        if indices.size == 0:
            return indices
        return touch_pages(self, indices, write)

    def record_promotions(self, indices: np.ndarray) -> None:
        """Account faulted pages: age-at-access into the promotion
        histogram, reset ages, bump the SLI counter."""
        indices = np.asarray(indices)
        if indices.size == 0:
            return
        ages_seconds = np.multiply(
            self.age_scans[indices], self.scan_period, dtype=np.int64
        )
        self.promotion_histogram.add_ages(ages_seconds)
        self.age_scans[indices] = 0
        self.promoted_pages_total += int(indices.size)
        if self.promoted_counter is not None:
            self.promoted_counter.inc(int(indices.size))

    def map_huge(self, start: int, pages_per_huge: int = 512) -> None:
        """Back ``[start, start + pages_per_huge)`` with one huge mapping."""
        check_positive(pages_per_huge, "pages_per_huge")
        stop = start + pages_per_huge
        require(
            0 <= start and stop <= self.capacity_pages,
            f"huge range [{start}, {stop}) outside the memcg",
        )
        window = slice(start, stop)
        if not (
            self.resident[window].all()
            and (self.state[window] == PageState.NEAR).all()
        ):
            raise SimulationError(
                f"huge range [{start}, {stop}) must be fully resident NEAR"
            )
        if (self.huge_group[window] >= 0).any():
            raise SimulationError(
                f"huge range [{start}, {stop}) overlaps an existing mapping"
            )
        self.huge_group[window] = start

    def split_huge_at(self, indices: np.ndarray) -> None:
        """Split every huge mapping holding one of ``indices``."""
        groups = self.huge_group[indices]
        for group in np.unique(groups[groups >= 0]).tolist():
            self.huge_group[self.huge_group == group] = -1

    def mlock(self, indices: np.ndarray) -> None:
        """Pin pages: they leave the LRU and are never compressed."""
        self.unevictable[np.asarray(indices)] = True

    def munlock(self, indices: np.ndarray) -> None:
        """Unpin previously mlocked pages."""
        self.unevictable[np.asarray(indices)] = False

    def mark_far(self, indices: np.ndarray) -> None:
        """Move pages to the FAR tier; the store consumed their dirty bit."""
        self.state[indices] = PageState.FAR
        self.dirtied[indices] = False

    def mark_near(self, indices: np.ndarray) -> None:
        """Move pages back to the NEAR tier (zswap decompressed them)."""
        self.state[indices] = PageState.NEAR

    def payloads(self, indices: np.ndarray) -> np.ndarray:
        """The payload sizes of pages (the memcg as a store's page space)."""
        return self.payload_bytes[indices]

    def mark_incompressible(self, indices: np.ndarray) -> None:
        """Flag pages whose compression attempt was rejected."""
        self.incompressible[indices] = True

    def _rebuild_cold_histogram(self) -> AgeHistogram:
        """The cold-age snapshot recounted from live page ages
        (side-effect free; :func:`scan_memcg` copies it in)."""
        hist = AgeHistogram(self.bins)
        hist.add_ages(np.multiply(
            self.age_scans[self.resident], self.scan_period, dtype=np.int64
        ))
        return hist


def _propagate_huge_bits(memcg: ReferenceMemCg) -> None:
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


def scan_memcg(memcg: ReferenceMemCg) -> None:
    """One kstaled pass over one memcg (paper §5.1).

    For each resident page: if the accessed bit is set, record the
    page's previous age in the promotion histogram and reset the age;
    otherwise increment the age (saturating at 255 scans).  Dirtied NEAR
    pages shed their incompressible mark and get fresh payload content
    from the memcg's own stream.  Finally the cold-age snapshot is
    recounted from the live ages.
    """
    _propagate_huge_bits(memcg)
    res = memcg.resident
    acc = res & memcg.accessed
    idle = res & ~memcg.accessed

    # Widened, and incremented only below the cap, as the pool's uint8
    # ages must be (they would wrap in ``age * period`` and at 255 + 1).
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


def reclaim_candidates(memcg: ReferenceMemCg,
                       threshold_seconds: float) -> np.ndarray:
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


def reclaim_order(memcg: ReferenceMemCg,
                  candidates: np.ndarray) -> np.ndarray:
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
                  pairs: Sequence[Tuple[ReferenceMemCg, np.ndarray]]) -> int:
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
        if candidates.size:
            moved += compress_rounds(memcg, candidates, [
                (daemon.zswap, [(memcg, 0, int(candidates.size))])
            ])[0]
    daemon.record(moved)
    return moved


class ScalarPagePool:
    """Pool rows over self-contained memcgs, handed out as the columnar
    pool hands them out (lowest free row first), so per-row arrays of
    the two pools line up."""

    def __init__(self, bins: AgeBins, scan_period: int):
        self.bins = bins
        self.scan_period = int(scan_period)
        self.row_memcg: List[Optional[ReferenceMemCg]] = []
        self._free_rows: List[int] = []
        #: Per-row resident-page counts from the most recent scan.
        self.last_scan_row_pages = np.zeros(0, dtype=np.int64)
        #: The columnar pool's slot space: segment bases by row, the
        #: owning row of every slot, and the slots in use.
        self.row_base: List[int] = []
        self.owner_row = np.zeros(0, dtype=np.int32)
        self.used = 0
        self.layout_version = 0

    def add(self, job_id: str, capacity_pages: int,
            content_profile: ContentProfile,
            rng: np.random.Generator) -> ReferenceMemCg:
        memcg = ReferenceMemCg(job_id, capacity_pages, content_profile,
                               self.bins, rng, self.scan_period)
        if self._free_rows:
            self._free_rows.sort()
            row = self._free_rows.pop(0)
        else:
            row = len(self.row_memcg)
            self.row_memcg.append(None)
            self.row_base.append(0)
        memcg.row = row
        self.row_memcg[row] = memcg
        self.row_base[row] = self.used
        self.owner_row = np.concatenate([
            self.owner_row, np.full(memcg.capacity_pages, row, np.int32)
        ])
        self.used += memcg.capacity_pages
        self.layout_version += 1
        return memcg

    def remove(self, memcg: ReferenceMemCg) -> None:
        row = memcg.row
        base, size = self.row_base[row], memcg.capacity_pages
        self.owner_row = np.delete(self.owner_row, slice(base, base + size))
        self.used -= size
        for other in range(len(self.row_base)):
            if self.row_base[other] > base:
                self.row_base[other] -= size
        self.layout_version += 1
        self.row_memcg[row] = None
        self._free_rows.append(row)
        memcg._detach()

    def _runs(self, slots: np.ndarray
              ) -> Iterator[Tuple[ReferenceMemCg, int, int, int]]:
        """``(memcg, base, lo, hi)`` per run of ``slots`` one memcg owns."""
        owners = self.owner_row[slots]
        if owners.size == 0:
            return
        starts = np.flatnonzero(np.r_[True, owners[1:] != owners[:-1]])
        ends = np.append(starts[1:], owners.size)
        for lo, hi in zip(starts.tolist(), ends.tolist()):
            row = int(owners[lo])
            yield self.row_memcg[row], self.row_base[row], lo, hi

    # Row-addressed page operations: the memcg's own, on its pages.

    def allocate(self, row: int, n_pages: int) -> np.ndarray:
        return self.row_memcg[row].allocate(n_pages)

    def release(self, row: int, indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.int64)
        return self.row_memcg[row].release(indices) + self.row_base[row]

    def map_huge(self, row: int, start: int,
                 pages_per_huge: int = 512) -> None:
        self.row_memcg[row].map_huge(start, pages_per_huge)

    def mlock(self, row: int, indices: np.ndarray) -> None:
        self.row_memcg[row].mlock(indices)

    def munlock(self, row: int, indices: np.ndarray) -> None:
        self.row_memcg[row].munlock(indices)

    def far_slots(self, rows: Sequence[int]) -> np.ndarray:
        return np.concatenate([np.zeros(0, dtype=np.int64)] + [
            np.flatnonzero(self.row_memcg[row].far_mask()) + self.row_base[row]
            for row in rows
        ])

    def row_pages(self, row: int) -> PageColumns:
        memcg = self.row_memcg[row]
        return PageColumns(*[
            getattr(memcg, name).copy() for name in PageColumns._fields
        ])

    def direct_reclaim_walk(self, rows: Sequence[int]
                      ) -> Tuple[np.ndarray, np.ndarray]:
        slots = [np.zeros(0, dtype=np.int64)]
        ranks = [np.zeros(0, dtype=np.int64)]
        for rank, row in enumerate(rows):
            memcg = self.row_memcg[row]
            candidates = reclaim_candidates(memcg, 0.0)  # no threshold
            order = np.argsort(
                MAX_PAGE_AGE_SCANS - memcg.age_scans[candidates],
                kind="stable",
            )
            slots.append(candidates[order] + self.row_base[row])
            ranks.append(np.full(candidates.size, rank, dtype=np.int64))
        return np.concatenate(slots), np.concatenate(ranks)

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
            local = slots[start:end] - self.row_base[memcg.row]
            memcg.mark_near(local)
            memcg.record_promotions(local)

    @property
    def memcg_count(self) -> int:
        return len(self.row_memcg) - len(self._free_rows)

    def _memcgs_of(self, rows: Optional[Sequence[int]]
                   ) -> List[Optional[ReferenceMemCg]]:
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

    def scan_all(self, memcgs: Iterable[ReferenceMemCg]) -> int:
        pages = np.zeros(len(self.row_memcg), dtype=np.int64)
        for memcg in memcgs:
            scan_memcg(memcg)
            pages[memcg.row] = memcg.resident_pages
        self.last_scan_row_pages = pages
        return int(pages.sum())

    def reclaim_walk(
        self, memcgs: Sequence[ReferenceMemCg]
    ) -> Tuple[np.ndarray, np.ndarray]:
        slots = [np.zeros(0, dtype=np.int64)]
        ranks = [np.zeros(0, dtype=np.int64)]
        for rank, memcg in enumerate(memcgs):
            if not memcg.zswap_enabled:
                continue
            candidates = reclaim_candidates(memcg, memcg.cold_age_threshold)
            slots.append(reclaim_order(memcg, candidates)
                         + self.row_base[memcg.row])
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
