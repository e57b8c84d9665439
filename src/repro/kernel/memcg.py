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

#: Bin of the young bucket (age below the first candidate threshold); the
#: -1 that :meth:`AgeBins.bin_of_age` returns.
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

        self._init_page_state()
        #: Age (in scans) -> histogram bin lookup table; ages saturate at
        #: ``MAX_PAGE_AGE_SCANS`` so the table covers every reachable age.
        self._bin_lut = bins.bin_of_age(
            np.arange(MAX_PAGE_AGE_SCANS + 1, dtype=np.int64) * self.scan_period
        ).astype(np.int16)

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

    def _init_page_state(self) -> None:
        """Allocate the per-page arrays and the two kernel histograms.

        These reference arrays are wide (int32 ages and payloads, int64
        huge groups), so the equivalence suites hold the runtime pool's
        narrower columns (:data:`repro.kernel.columnar.COLUMN_CONTRACTS`)
        to a second, wide implementation.  A runtime memcg allocates
        none: its pool binds views in their place.
        """
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
        self.cold_age_histogram = AgeHistogram(self.bins)
        self.promotion_histogram = AgeHistogram(self.bins)

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
        return idx

    def release(self, indices: np.ndarray) -> np.ndarray:
        """Free pages; returns the subset that was in far memory.

        A huge mapping holding a freed page splits, as Linux splits a THP
        on a partial unmap: its other pages stay mapped as base pages, and
        a later allocation of the freed slots joins no mapping.  The
        caller must release the returned far pages from the zswap arena
        (the memcg does not own the arena).
        """
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
        # Widen first: a uint8 pool view would wrap (200 * 60 -> 224).
        ages_seconds = np.multiply(
            self.age_scans[indices], self.scan_period, dtype=np.int64
        )
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

    def mlock(self, indices: np.ndarray) -> None:
        """Pin pages: they leave the LRU and are never compressed."""
        self.unevictable[np.asarray(indices)] = True

    def munlock(self, indices: np.ndarray) -> None:
        """Unpin previously mlocked pages."""
        self.unevictable[np.asarray(indices)] = False

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

    def mark_near(self, indices: np.ndarray) -> None:
        """Move pages back to the NEAR tier (zswap decompressed them)."""
        self.state[indices] = PageState.NEAR

    def payloads(self, indices: np.ndarray) -> np.ndarray:
        """The payload sizes of pages (a memcg is the page space of a
        one-memcg zswap store, as a pool is of a reclaim round)."""
        return self.payload_bytes[indices]

    def mark_incompressible(self, indices: np.ndarray) -> None:
        """Flag pages whose compression attempt was rejected."""
        self.incompressible[indices] = True

    def _rebuild_cold_histogram(self) -> AgeHistogram:
        """The cold-age snapshot recounted from live page ages.

        Side-effect free: the reference scan's snapshot
        (:func:`repro.kernel.oracle.scan_memcg`) and the ground truth the
        pooled scan's recount is checked against
        (:func:`repro.checks.invariants.check_memcg_histogram`).
        """
        hist = AgeHistogram(self.bins)
        ages = np.minimum(self.age_scans[self.resident], MAX_PAGE_AGE_SCANS)
        binned = self._bin_lut[ages]
        hist.young_count = int(np.count_nonzero(binned == _HIST_YOUNG))
        valid = binned[binned >= 0]
        if valid.size:
            hist.counts += np.bincount(valid, minlength=len(self.bins))
        return hist
