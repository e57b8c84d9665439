"""Memory cgroups: vectorized per-job page state (paper §5.1).

Jobs are isolated in memcgs.  Each memcg owns a flat array of page slots;
per-page metadata lives in parallel numpy arrays (the simulator's
``struct page``):

* ``age_scans`` — the 8-bit page age in kstaled scans, saturating at 255;
* ``accessed`` — the PTE accessed bit, set by :meth:`MemCg.touch` (the MMU)
  and cleared by the kstaled scan;
* ``state`` — NEAR (resident in DRAM) or FAR (compressed in zswap);
* ``incompressible`` — set when zswap's payload cutoff rejected the page;
  cleared when the scan finds the page dirtied (paper: "cleared when
  kstaled detects any of the PTEs associated with the page have become
  dirty");
* ``unevictable`` — mlocked or otherwise off the LRU; never compressed;
* ``payload_bytes`` — intrinsic lzo payload size, fixed at allocation
  (rewritten on dirtying writes, since the content changed).

The memcg also carries the two per-job kernel histograms (cold-age snapshot
and cumulative promotion histogram) plus the knobs the node agent sets:
the cold-age threshold and the soft limit protecting the working set.
"""

from __future__ import annotations

import enum
from typing import Tuple

import numpy as np

from repro.checks.invariants import check_memcg_histogram, invariants_enabled
from repro.common.errors import SimulationError
from repro.common.units import (
    KSTALED_SCAN_PERIOD,
    MAX_PAGE_AGE_SCANS,
    PAGE_SIZE,
)
from repro.common.validation import check_positive, require
from repro.core.histograms import AgeBins, AgeHistogram
from repro.core.threshold_policy import DISABLED
from repro.kernel.compression import ContentProfile

__all__ = ["PageState", "MemCg"]

#: Sentinel in the per-slot histogram-bin cache: slot contributes nothing
#: to the cold-age snapshot (not resident at the last scan).
_HIST_NO_PAGE = -2
#: Sentinel for the young bucket (age below the first candidate threshold);
#: matches the -1 that :meth:`AgeBins.bin_of_age` returns.
_HIST_YOUNG = -1


class PageState(enum.IntEnum):
    """Tier a page currently occupies."""

    NEAR = 0  #: uncompressed in DRAM
    FAR = 1  #: compressed in the zswap arena


# Plain-int copies for the accounting hot paths: ``PageState.NEAR`` goes
# through ``EnumType.__getattr__`` on every lookup, which is measurable
# when every machine reads tier counts every tick.  Values are identical
# (IntEnum), so numpy comparisons are unchanged.
_NEAR = int(PageState.NEAR)
_FAR = int(PageState.FAR)

#: One (job, touch) pair's promotions: ``(memcg, pages faulted)``.
Promotion = Tuple["MemCg", int]


def touch_pages(pages, indices: np.ndarray, write: bool) -> np.ndarray:
    """The MMU over one set of page columns (a memcg's, or a pool's).

    Marks the resident ``indices`` accessed (and dirtied for a write) and
    returns the touched far pages, each once, in first-occurrence order.
    ``pages`` needs ``resident``, ``accessed``, ``dirtied`` and ``state``.
    """
    live = indices[pages.resident[indices]]
    pages.accessed[live] = True
    if write:
        pages.dirtied[live] = True
    far = live[pages.state[live] == _FAR]
    if far.size > 1 and not (far[1:] > far[:-1]).all():
        # A slot repeated in one touch faults once, where it first occurs.
        far = far[np.sort(np.unique(far, return_index=True)[1])]
    return far


class MemCg:
    """One job's memory cgroup.

    Args:
        job_id: identifier of the owning job.
        capacity_pages: maximum resident pages (the memcg limit).
        content_profile: compressibility distribution of this job's data.
        bins: candidate cold-age threshold grid shared fleet-wide.
        rng: random stream for payload sampling.
        scan_period: kstaled scan period in seconds.
    """

    #: Row in the owning page pool's per-memcg arrays; assigned by the
    #: pool (-1 while the memcg belongs to none).
    _pool_row: int = -1

    def __init__(
        self,
        job_id: str,
        capacity_pages: int,
        content_profile: ContentProfile,
        bins: AgeBins,
        rng: np.random.Generator,
        scan_period: int = KSTALED_SCAN_PERIOD,
    ):
        check_positive(capacity_pages, "capacity_pages")
        check_positive(scan_period, "scan_period")
        self.job_id = job_id
        self.capacity_pages = int(capacity_pages)
        self.content_profile = content_profile
        self.bins = bins
        self.scan_period = int(scan_period)
        self._rng = rng

        n = self.capacity_pages
        self.resident = np.zeros(n, dtype=bool)
        self.age_scans = np.zeros(n, dtype=np.int32)
        self.accessed = np.zeros(n, dtype=bool)
        self.state = np.zeros(n, dtype=np.uint8)
        self.incompressible = np.zeros(n, dtype=bool)
        self.dirtied = np.zeros(n, dtype=bool)
        self.unevictable = np.zeros(n, dtype=bool)
        self.payload_bytes = np.zeros(n, dtype=np.int32)
        #: Linux-style two-list LRU state: True = active list.  The scan
        #: demotes idle active pages and re-activates accessed inactive
        #: ones; reclaim prefers the inactive list.
        self.lru_active = np.zeros(n, dtype=bool)
        #: Huge-page (THP) grouping: -1 = base page; otherwise the group
        #: id (start slot of the 2 MiB mapping).  A huge mapping has ONE
        #: accessed/dirty bit for all 512 pages — the resolution loss the
        #: paper contrasts with Thermostat's huge-page-only design.
        self.huge_group = np.full(n, -1, dtype=np.int64)

        #: Kernel-exported histograms (§5.1): the cold-age histogram is a
        #: snapshot updated each scan; the promotion histogram accumulates
        #: from job start and is diffed by the node agent.
        self.cold_age_histogram = AgeHistogram(bins)
        self.promotion_histogram = AgeHistogram(bins)
        #: Per-slot bin each page contributed to the cold-age snapshot at
        #: the last scan (``_HIST_NO_PAGE`` = nothing, ``_HIST_YOUNG`` =
        #: the young bucket).  Lets the scan update only the bins of pages
        #: whose bucket changed instead of rebuilding the histogram.
        self._hist_bin = np.full(n, _HIST_NO_PAGE, dtype=np.int16)
        #: Age (in scans) -> histogram bin lookup table; ages saturate at
        #: ``MAX_PAGE_AGE_SCANS`` so the table covers every reachable age.
        self._bin_lut = bins.bin_of_age(
            np.arange(MAX_PAGE_AGE_SCANS + 1, dtype=np.int64) * self.scan_period
        ).astype(np.int16)

        #: Cached static reclaim-eligibility mask (resident & NEAR &
        #: evictable & compressible); every mutator of those arrays calls
        #: :meth:`invalidate_reclaim_cache`.  Code that writes the state
        #: arrays directly (tests, experiments) must do the same.
        self._reclaim_mask = np.zeros(n, dtype=bool)
        self._reclaim_mask_valid = False

        #: Node-agent-controlled knobs.
        self.cold_age_threshold: float = DISABLED
        self.soft_limit_pages: int = 0
        self.zswap_enabled: bool = True

        #: Fault flag: set (by fault injection, or a kernel detecting its
        #: own accounting damage) when the promotion/cold-age histograms
        #: can no longer be trusted.  The node agent consumes the flag on
        #: its next control round by disabling zswap and restarting the
        #: job's warm-up; the histogram *data* is left intact.
        self.histograms_corrupt: bool = False

        #: SLI counters (monotonic; readers keep their own last-seen copy).
        self.promoted_pages_total = 0
        self.compressed_pages_total = 0
        self.rejected_pages_total = 0
        self.start_time: int = 0

        #: Optional bound metric series (e.g. a machine-labelled
        #: ``repro_pages_promoted_total`` counter); the owning machine
        #: injects it at :meth:`Machine.add_job` time so memcgs stay
        #: constructible without any observability context.
        self.promoted_counter = None

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------

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

    @property
    def near_bytes(self) -> int:
        """DRAM consumed by uncompressed pages."""
        return self.near_pages * PAGE_SIZE

    def far_mask(self) -> np.ndarray:
        """Boolean mask over slots currently in far memory."""
        return self.resident & (self.state == _FAR)

    def cold_pages(self, threshold_seconds: float) -> int:
        """Resident pages idle for at least ``threshold_seconds``.

        Counts from live page ages (not the histogram snapshot), so it is
        exact at any instant; includes pages already in far memory, matching
        the paper's coverage denominator.
        """
        threshold_scans = int(np.ceil(threshold_seconds / self.scan_period))
        return int(
            np.count_nonzero(self.resident & (self.age_scans >= threshold_scans))
        )

    # ------------------------------------------------------------------
    # Page lifecycle
    # ------------------------------------------------------------------

    def allocate(self, n_pages: int) -> np.ndarray:
        """Allocate ``n_pages`` new resident pages; returns their indices.

        New pages start NEAR, age 0, accessed (the allocating store touched
        them), with freshly sampled payload sizes.

        Raises:
            SimulationError: if the memcg lacks free slots (the caller — the
                machine — is responsible for enforcing memory limits before
                allocating).
        """
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
        self.invalidate_reclaim_cache()
        return idx

    def release(self, indices: np.ndarray) -> np.ndarray:
        """Free pages; returns the subset that was in far memory.

        The caller must release the returned far pages from the zswap arena
        (the memcg does not own the arena).
        """
        indices = np.asarray(indices)
        if indices.size == 0:
            return indices
        require(bool(self.resident[indices].all()), "releasing non-resident pages")
        far = indices[self.state[indices] == _FAR]
        self.resident[indices] = False
        self.accessed[indices] = False
        self.state[indices] = PageState.NEAR
        self.invalidate_reclaim_cache()
        return far

    def touch(self, indices: np.ndarray, write: bool = False) -> np.ndarray:
        """Simulate the MMU: mark pages accessed; report far-page faults.

        Args:
            indices: page slots being read or written.
            write: if True, pages are also dirtied (clears incompressible
                state at the next scan and resamples payload content).

        Returns:
            Indices of touched pages that were in far memory, each once,
            in first-occurrence order — the caller must route them
            through zswap decompression (promotion).
        """
        indices = np.asarray(indices)
        if indices.size == 0:
            return indices
        return touch_pages(self, indices, write)

    def record_promotions(self, indices: np.ndarray) -> None:
        """Account faults on far pages: age-at-access into the promotion
        histogram, reset ages, bump the SLI counter.

        Called by zswap *after* it decompressed the pages and flipped their
        state back to NEAR.
        """
        indices = np.asarray(indices)
        if indices.size == 0:
            return
        ages_seconds = self.age_scans[indices] * self.scan_period
        self.promotion_histogram.add_ages(ages_seconds)
        self.age_scans[indices] = 0
        self.promoted_pages_total += int(indices.size)
        if self.promoted_counter is not None:
            self.promoted_counter.inc(int(indices.size))

    def map_huge(self, start: int, pages_per_huge: int = 512) -> None:
        """Back a 2 MiB-aligned range with one huge mapping.

        All pages in ``[start, start + pages_per_huge)`` must be resident
        NEAR pages; afterwards they share a single PTE accessed/dirty bit
        at scan time.

        Raises:
            SimulationError: if the range is not fully resident/NEAR or
                overlaps an existing huge mapping.
        """
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

    def split_huge(self, group: int) -> None:
        """Split a huge mapping back to base pages (THP split)."""
        self.huge_group[self.huge_group == group] = -1

    def split_huge_at(self, indices: np.ndarray) -> None:
        """Split every huge mapping holding one of ``indices``."""
        groups = self.huge_group[indices]
        for group in np.unique(groups[groups >= 0]).tolist():
            self.split_huge(group)

    def _propagate_huge_bits(self) -> None:
        """Share accessed/dirty bits within each huge mapping.

        The MMU sets one bit on the PMD; any touched page makes the whole
        mapping look accessed (and dirtied, for writes) to the scan.
        """
        hp = np.flatnonzero(self.resident & (self.huge_group >= 0))
        if hp.size == 0:
            return
        groups = self.huge_group[hp]
        for bits in (self.accessed, self.dirtied):
            aggregate = np.zeros(self.capacity_pages, dtype=bool)
            np.logical_or.at(aggregate, groups, bits[hp])
            bits[hp] = aggregate[groups]

    def mlock(self, indices: np.ndarray) -> None:
        """Pin pages: they leave the LRU and are never compressed."""
        self.unevictable[np.asarray(indices)] = True
        self.invalidate_reclaim_cache()

    def munlock(self, indices: np.ndarray) -> None:
        """Unpin previously mlocked pages."""
        self.unevictable[np.asarray(indices)] = False
        self.invalidate_reclaim_cache()

    # ------------------------------------------------------------------
    # Tier transitions (zswap hooks)
    # ------------------------------------------------------------------

    def mark_far(self, indices: np.ndarray) -> None:
        """Move pages to the FAR tier (zswap stored them).

        Swap-out unmaps the page; any pending PTE dirty state was captured
        in the payload that was just stored, so the dirty bit clears.
        """
        self.state[indices] = PageState.FAR
        self.dirtied[indices] = False
        self.invalidate_reclaim_cache()

    def mark_near(self, indices: np.ndarray) -> None:
        """Move pages back to the NEAR tier (zswap decompressed them)."""
        self.state[indices] = PageState.NEAR
        self.invalidate_reclaim_cache()

    def payloads(self, indices: np.ndarray) -> np.ndarray:
        """The payload sizes of pages (a memcg is the page space of a
        one-memcg zswap store, as a pool is of a reclaim round)."""
        return self.payload_bytes[indices]

    def mark_incompressible(self, indices: np.ndarray) -> None:
        """Flag pages whose compression attempt was rejected."""
        self.incompressible[indices] = True
        self.invalidate_reclaim_cache()

    # ------------------------------------------------------------------
    # Reclaim candidacy
    # ------------------------------------------------------------------

    def invalidate_reclaim_cache(self) -> None:
        """Mark the cached reclaim-eligibility mask stale.

        Every method that touches ``resident``/``state``/``unevictable``/
        ``incompressible`` calls this; code writing those arrays directly
        must call it too, or :meth:`reclaim_candidates` may serve stale
        results.
        """
        self._reclaim_mask_valid = False

    def reclaim_candidates(self, threshold_seconds: float) -> np.ndarray:
        """Slots eligible for compression under the given threshold.

        Eligible = resident, NEAR, evictable, not marked incompressible,
        and idle for at least the threshold.  Mirrors kreclaimd's LRU walk:
        unevictable/mlocked pages are skipped, as are pages whose previous
        compression attempt was rejected.

        The threshold-independent part of the mask only changes when pages
        allocate, free, change tier, or get (un)pinned, so it is cached
        under a dirty flag and combined with the age test per call.
        """
        if not np.isfinite(threshold_seconds):
            return np.zeros(0, dtype=np.int64)
        threshold_scans = int(np.ceil(threshold_seconds / self.scan_period))
        if not self._reclaim_mask_valid:
            np.logical_and(self.resident, self.state == _NEAR,
                           out=self._reclaim_mask)
            self._reclaim_mask &= ~self.unevictable
            self._reclaim_mask &= ~self.incompressible
            self._reclaim_mask_valid = True
        return np.flatnonzero(
            self._reclaim_mask & (self.age_scans >= threshold_scans)
        )

    def reclaim_order(self, candidates: np.ndarray) -> np.ndarray:
        """Order candidates the way kreclaimd walks the LRU.

        Inactive-list pages come before (stale) active-list ones; within a
        list, oldest first.  ``np.lexsort`` sorts by the last key first.
        """
        candidates = np.asarray(candidates)
        if candidates.size == 0:
            return candidates
        order = np.lexsort(
            (-self.age_scans[candidates], self.lru_active[candidates])
        )
        return candidates[order]

    # ------------------------------------------------------------------
    # kstaled hooks
    # ------------------------------------------------------------------

    def scan_update(self) -> None:
        """One kstaled pass over this memcg (paper §5.1).

        For each resident page: if the accessed bit is set, record the
        page's previous age in the promotion histogram and reset the age;
        otherwise increment the age (saturating at 255 scans).  Dirtied
        pages shed their incompressible mark and get fresh payload content.
        Finally rebuild the cold-age histogram snapshot.
        """
        self._propagate_huge_bits()
        res = self.resident
        acc = res & self.accessed
        idle = res & ~self.accessed

        prev_age_seconds = self.age_scans[acc] * self.scan_period
        self.promotion_histogram.add_ages(prev_age_seconds)

        self.age_scans[acc] = 0
        self.age_scans[idle] = np.minimum(
            self.age_scans[idle] + 1, MAX_PAGE_AGE_SCANS
        )
        # Two-list LRU maintenance: accessed pages (re-)activate; active
        # pages that missed a whole scan drop to the inactive list.
        self.lru_active[acc] = True
        self.lru_active[idle] = False
        self.accessed[res] = False

        # Only NEAR pages can have live PTE dirty bits: swap-out removed the
        # mapping of FAR pages (and compression consumed their dirty state).
        dirty = res & self.dirtied & (self.state == _NEAR)
        n_dirty = int(np.count_nonzero(dirty))
        if n_dirty:
            self.incompressible[dirty] = False
            self.payload_bytes[dirty] = self.content_profile.sample_payload_bytes(
                n_dirty, self._rng
            )
            self.invalidate_reclaim_cache()
        self.dirtied[res] = False

        self._update_cold_histogram()
        if invariants_enabled():
            check_memcg_histogram(self)

    def _update_cold_histogram(self) -> None:
        """Fold age changes into the cold-age snapshot incrementally.

        Each slot's contribution at the previous scan is cached in
        ``_hist_bin``; only slots whose bin changed are subtracted and
        re-added.  A memcg where nothing moved (no touches, every page at
        the saturated age, no churn) exits without touching the histogram
        at all — the idle-job fast path.  The result is always identical
        to :meth:`_rebuild_cold_histogram`.  This fold is the scalar
        oracle; the columnar kernel recounts instead.
        """
        new_bins = np.full(self.capacity_pages, _HIST_NO_PAGE, dtype=np.int16)
        res = self.resident
        ages = np.minimum(self.age_scans[res], MAX_PAGE_AGE_SCANS)
        new_bins[res] = self._bin_lut[ages]
        changed = new_bins != self._hist_bin
        if not changed.any():
            return
        old = self._hist_bin[changed]
        new = new_bins[changed]
        hist = self.cold_age_histogram
        old_binned = old[old >= 0]
        if old_binned.size:
            hist.counts -= np.bincount(old_binned, minlength=len(self.bins))
        hist.young_count -= int((old == _HIST_YOUNG).sum())
        new_binned = new[new >= 0]
        if new_binned.size:
            hist.counts += np.bincount(new_binned, minlength=len(self.bins))
        hist.young_count += int((new == _HIST_YOUNG).sum())
        self._hist_bin = new_bins

    def _rebuild_cold_histogram(self) -> AgeHistogram:
        """The cold-age snapshot recounted from live page ages.

        Side-effect free: the ground truth that the scan's incremental
        fold (and the columnar kernel's pooled recount) must reproduce.
        """
        hist = AgeHistogram(self.bins)
        ages = np.minimum(self.age_scans[self.resident], MAX_PAGE_AGE_SCANS)
        binned = self._bin_lut[ages]
        hist.young_count = int(np.count_nonzero(binned == _HIST_YOUNG))
        valid = binned[binned >= 0]
        if valid.size:
            hist.counts += np.bincount(valid, minlength=len(self.bins))
        return hist
