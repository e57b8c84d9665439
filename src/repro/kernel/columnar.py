"""The columnar fleet kernel: pooled page state.

Every machine keeps its page state in a :class:`MachinePagePool`: a
standalone machine owns one, and every machine of a cluster shares the
cluster's.  Pooling removes the per-memcg Python dispatch a scan, a
reclaim pass or an accounting sum would otherwise pay for every job on
every machine:

* **per-page columns** (``resident``, ``age_scans``, ``accessed``, tier
  ``state``, ``incompressible``, ``dirtied``, ``unevictable``,
  ``payload_bytes``, ``lru_active``, THP ``huge_group`` and the
  ``owner_row`` back-pointer) live in dense pool-wide arrays, one
  contiguous *segment* per memcg;
* **per-memcg histograms** (cold-age snapshot and cumulative promotion
  counts) live as rows of two ``(memcgs, bins)`` matrices plus young-count
  vectors.  A scan adds promotions with one ``bincount`` and *recounts*
  every cold-age snapshot with another, as the paper's kstaled does;
  per-row page counts and reclaim thresholds are segment-wise passes
  over one cached segment table (:meth:`MachinePagePool.segments`).

:class:`MachinePagePool` owns and mutates every page.  A memcg
(:class:`~repro.kernel.memcg.MemCg`) is a handle on one of its rows that
:meth:`MachinePagePool.add` builds; page operations take a row or pool
slots, and the handle's histograms read the pool's rows when accessed,
so nothing outside the pool aliases its storage.  The pooled passes
replay the exact per-slot arithmetic of the reference kernel
(:mod:`repro.kernel.oracle`) as whole-pool array ops;
:class:`~repro.kernel.oracle.ScalarPagePool` answers the same interface
over self-contained memcgs and is the bit-equivalence oracle
(``MachineConfig(kernel="scalar")``).  Everything above the pool
(machine, cluster, node agent, telemetry, faults, the parallel engine)
calls only that interface.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.checks.contracts import verify_column_contracts
from repro.checks.invariants import check_memcg_histogram, invariants_enabled
from repro.common.errors import SimulationError
from repro.common.units import MAX_PAGE_AGE_SCANS
from repro.common.validation import check_positive, require
from repro.core.histograms import AgeBins, AgeHistogram
from repro.kernel.compression import ContentProfile, sample_payloads
from repro.kernel.memcg import (
    _FAR,
    _NEAR,
    MemCg,
    PageColumns,
    PageState,
    Promotion,
    touch_pages,
)

__all__ = ["MachinePagePool"]

#: Pool columns: (pool attribute, dtype, fill value for free slots).  The
#: fill values equal a fresh reference memcg's arrays, so a new
#: segment needs no initialization beyond ``owner_row``.  Each column is
#: only as wide as its values: ages saturate at ``MAX_PAGE_AGE_SCANS``
#: (the paper's 8-bit age), payloads never exceed ``PAGE_SIZE`` and
#: huge-group ids are memcg-local slots -- 18 bytes per slot in all.
#: Narrow unsigned columns wrap silently, so every reader widens before
#: it multiplies or negates.
_PAGE_FIELDS: Tuple[Tuple[str, type, object], ...] = (
    ("resident", np.bool_, False),
    ("age_scans", np.uint8, 0),
    ("accessed", np.bool_, False),
    ("state", np.uint8, int(PageState.NEAR)),
    ("incompressible", np.bool_, False),
    ("dirtied", np.bool_, False),
    ("unevictable", np.bool_, False),
    ("payload_bytes", np.uint16, 0),
    ("lru_active", np.bool_, False),
    ("huge_group", np.int32, -1),
    ("owner_row", np.int32, -1),
)

#: Histogram bin of a slot holding no page in the scan's recount, below
#: the young bucket's -1.
_HIST_NO_PAGE = -2

#: Per-row reclaim-threshold sentinel no page age can meet (ages saturate
#: at MAX_PAGE_AGE_SCANS); also clamps huge finite thresholds.
_NEVER_SCANS = 1 << 62

#: The pool's array layout promise, one entry per pooled column.  The
#: static pass (``repro lint --flow``, rules CON001/CON002) checks every
#: visible assignment against this table; the runtime half
#: (:func:`repro.checks.contracts.verify_column_contracts`) re-verifies
#: the live arrays in :meth:`MachinePagePool.scan_all` under
#: ``REPRO_CHECKS=1`` — covering the ``setattr`` loops the static pass
#: cannot see.  Must stay a pure literal (both halves parse it).
COLUMN_CONTRACTS = {
    # Per-page columns (mirror _PAGE_FIELDS; dense [0, cap) arrays).
    "MachinePagePool.resident": {"dtype": "bool", "ndim": 1},
    "MachinePagePool.age_scans": {"dtype": "uint8", "ndim": 1},
    "MachinePagePool.accessed": {"dtype": "bool", "ndim": 1},
    "MachinePagePool.state": {"dtype": "uint8", "ndim": 1},
    "MachinePagePool.incompressible": {"dtype": "bool", "ndim": 1},
    "MachinePagePool.dirtied": {"dtype": "bool", "ndim": 1},
    "MachinePagePool.unevictable": {"dtype": "bool", "ndim": 1},
    "MachinePagePool.payload_bytes": {"dtype": "uint16", "ndim": 1},
    "MachinePagePool.lru_active": {"dtype": "bool", "ndim": 1},
    "MachinePagePool.huge_group": {"dtype": "int32", "ndim": 1},
    "MachinePagePool.owner_row": {"dtype": "int32", "ndim": 1},
    # Per-memcg rows (histogram matrices + bookkeeping vectors).
    "MachinePagePool.row_base": {"dtype": "int64", "ndim": 1},
    "MachinePagePool.row_size": {"dtype": "int64", "ndim": 1},
    "MachinePagePool.cold_counts": {"dtype": "int64", "ndim": 2},
    "MachinePagePool.cold_young": {"dtype": "int64", "ndim": 1},
    "MachinePagePool.promo_counts": {"dtype": "int64", "ndim": 2},
    "MachinePagePool.promo_young": {"dtype": "int64", "ndim": 1},
    "MachinePagePool.row_reclaim_thr": {"dtype": "int64", "ndim": 1},
    "MachinePagePool.last_scan_row_pages": {"dtype": "int64", "ndim": 1},
}


class MachinePagePool:
    """Columnar storage for the page state of every memcg of one
    standalone machine, or of every machine of one cluster.

    Segments are contiguous and compacted on removal (higher segments
    slide down), so the pooled passes always sweep one dense ``[0, used)``
    prefix.  All stored per-slot data is position-independent —
    ``huge_group`` holds memcg-local ids, ``owner_row`` holds stable row
    ids — which is what makes the slide a plain memmove.

    Args:
        bins: the fleet-wide candidate-threshold grid.
        scan_period: the machine's kstaled period (uniform across memcgs).
    """

    def __init__(self, bins: AgeBins, scan_period: int):
        self.bins = bins
        self.scan_period = int(scan_period)
        self.used = 0
        self._cap = 0
        for name, dtype, fill in _PAGE_FIELDS:
            setattr(self, name, np.full(0, fill, dtype=dtype))

        nbins = len(bins)
        self._nbins = nbins
        self._row_cap = 0
        self._n_rows = 0
        self.row_base = np.zeros(0, dtype=np.int64)
        self.row_size = np.zeros(0, dtype=np.int64)
        self.cold_counts = np.zeros((0, nbins), dtype=np.int64)
        self.cold_young = np.zeros(0, dtype=np.int64)
        self.promo_counts = np.zeros((0, nbins), dtype=np.int64)
        self.promo_young = np.zeros(0, dtype=np.int64)
        #: Per-row reclaim threshold in scans, pre-encoded: ``_NEVER_SCANS``
        #: while zswap is disabled or the threshold is non-finite.  Kept in
        #: sync by the :class:`~repro.kernel.memcg.MemCg` knob setters.
        self.row_reclaim_thr = np.full(0, _NEVER_SCANS, dtype=np.int64)
        self.row_memcg: List[Optional[MemCg]] = []
        self._free_rows: List[int] = []
        #: Per-row resident-page counts from the most recent
        #: :meth:`scan_all` — the scan round sums these per machine to book
        #: each machine's kstaled its own pages.
        self.last_scan_row_pages = np.zeros(0, dtype=np.int64)
        #: :meth:`segments` cache; None after a layout change.
        self._segment_table: Optional[Tuple[np.ndarray, ...]] = None
        #: Bumped by every layout change (:meth:`add`, :meth:`remove`), so
        #: callers can cache what depends on segment bases.
        self.layout_version = 0

        #: Age (in scans) -> histogram bin; shared by every segment since
        #: the scan period is a machine-level parameter.
        self._bin_lut = bins.bin_of_age(
            np.arange(MAX_PAGE_AGE_SCANS + 1, dtype=np.int64) * self.scan_period
        ).astype(np.int16)

    # ------------------------------------------------------------------
    # Segment lifecycle
    # ------------------------------------------------------------------

    def add(self, job_id: str, capacity_pages: int,
            content_profile: ContentProfile,
            rng: np.random.Generator) -> MemCg:
        """Claim a segment and a histogram row for a new memcg; returns
        the memcg, a handle on the row."""
        memcg = MemCg(job_id, capacity_pages, content_profile, self.bins, rng)
        n = memcg.capacity_pages
        if self.used + n > self._cap:
            self._grow_pages(max(self._cap * 2, self.used + n, 4096))
        row = self._take_row()
        base = self.used
        self.used += n
        self._segment_table = None
        self.layout_version += 1
        self.row_base[row] = base
        self.row_size[row] = n
        self.row_memcg[row] = memcg
        memcg.row = row
        memcg._pool = self
        # Free slots already carry construction defaults; only ownership
        # and the histogram row need (re)setting.
        self.owner_row[base : base + n] = row
        self.cold_counts[row, :] = 0
        self.cold_young[row] = 0
        self.promo_counts[row, :] = 0
        self.promo_young[row] = 0
        self.refresh_row_threshold(memcg)
        return memcg

    def remove(self, memcg: MemCg) -> None:
        """Release a memcg's segment, compacting the pool behind it.

        The departing memcg keeps copies of its final histograms, so late
        readers (job stats, tests) see a frozen snapshot rather than a
        recycled row.
        """
        row = memcg.row
        base = int(self.row_base[row])
        size = int(self.row_size[row])
        memcg._detach()

        tail = self.used - (base + size)
        if tail:
            for name, _dtype, _fill in _PAGE_FIELDS:
                arr = getattr(self, name)
                arr[base : base + tail] = arr[base + size : self.used].copy()
        new_used = self.used - size
        for name, _dtype, fill in _PAGE_FIELDS:
            getattr(self, name)[new_used : self.used] = fill
        self.used = new_used

        self.row_base[self.row_base > base] -= size
        self._segment_table = None
        self.layout_version += 1
        self.row_base[row] = 0
        self.row_size[row] = 0
        self.row_reclaim_thr[row] = _NEVER_SCANS
        self.row_memcg[row] = None
        self._free_rows.append(row)

    def refresh_row_threshold(self, memcg: MemCg) -> None:
        """Re-encode one memcg's reclaim threshold into the row array.

        Encodes exactly the gate the reference walk applies per call:
        disabled zswap (the walk skips the memcg) or a non-finite
        threshold (:func:`~repro.kernel.oracle.reclaim_candidates` lists
        nothing) means "never reclaim"; otherwise the threshold in whole
        scans (ceil), clamped so the encoded value always fits the
        sentinel.
        """
        threshold = memcg.cold_age_threshold
        if not memcg.zswap_enabled or not math.isfinite(threshold):
            encoded = _NEVER_SCANS
        else:
            encoded = min(
                math.ceil(threshold / self.scan_period), _NEVER_SCANS
            )
        self.row_reclaim_thr[memcg.row] = encoded

    def row_histogram(self, row: int, promotion: bool) -> AgeHistogram:
        """A copy of one row's promotion (or cold-age) histogram."""
        counts, young = (
            (self.promo_counts, self.promo_young) if promotion
            else (self.cold_counts, self.cold_young)
        )
        hist = AgeHistogram(self.bins)
        hist.counts = counts[row].copy()
        hist.young_count = int(young[row])
        return hist

    @property
    def memcg_count(self) -> int:
        """Memcgs the pool holds."""
        return self._n_rows - len(self._free_rows)

    def segments(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Live rows in base order, with their segment bases and sizes.

        Segments tile ``[0, used)``, so ``np.add.reduceat`` over the bases
        and ``np.repeat`` over the sizes are exact per-row passes.  Cached
        per layout; :meth:`add` and :meth:`remove` (compaction) drop it.
        """
        if self._segment_table is None:
            live = np.flatnonzero(self.row_size)
            live = live[np.argsort(self.row_base[live])]
            self._segment_table = (
                live, self.row_base[live], self.row_size[live]
            )
        return self._segment_table

    def _take_row(self) -> int:
        if self._free_rows:
            self._free_rows.sort()
            return self._free_rows.pop(0)
        if self._n_rows == self._row_cap:
            self._grow_rows(max(self._row_cap * 2, 16))
        row = self._n_rows
        self._n_rows += 1
        self.row_memcg.append(None)
        return row

    def _grow_pages(self, new_cap: int) -> None:
        for name, dtype, fill in _PAGE_FIELDS:
            old = getattr(self, name)
            fresh = np.full(new_cap, fill, dtype=dtype)
            fresh[: self.used] = old[: self.used]
            setattr(self, name, fresh)
        self._cap = new_cap

    def _grow_rows(self, new_row_cap: int) -> None:
        n = self._n_rows
        nbins = self._nbins
        for name in ("row_base", "row_size", "cold_young", "promo_young"):
            fresh = np.zeros(new_row_cap, dtype=np.int64)
            fresh[:n] = getattr(self, name)[:n]
            setattr(self, name, fresh)
        fresh_thr = np.full(new_row_cap, _NEVER_SCANS, dtype=np.int64)
        fresh_thr[:n] = self.row_reclaim_thr[:n]
        self.row_reclaim_thr = fresh_thr
        for name in ("cold_counts", "promo_counts"):
            fresh = np.zeros((new_row_cap, nbins), dtype=np.int64)
            fresh[:n] = getattr(self, name)[:n]
            setattr(self, name, fresh)
        self._row_cap = new_row_cap

    # ------------------------------------------------------------------
    # Row-addressed page operations (memcg-local page indices)
    # ------------------------------------------------------------------

    def _base(self, row: int) -> int:
        return int(self.row_base[row])

    def allocate(self, row: int, n_pages: int) -> np.ndarray:
        """Allocate ``n_pages`` new pages in a row's lowest free slots;
        returns their memcg-local indices.  New pages are NEAR, age 0,
        accessed and dirtied by the allocating store, active, with
        payloads drawn from the memcg's stream.  Raises
        :class:`SimulationError` when the memcg lacks free slots (the
        machine enforces memory limits before allocating)."""
        if n_pages == 0:
            return np.zeros(0, dtype=np.int64)
        memcg = self.row_memcg[row]
        base = self._base(row)
        free = np.flatnonzero(~self.resident[base : base + memcg.capacity_pages])
        if free.size < n_pages:
            raise SimulationError(
                f"memcg {memcg.job_id}: requested {n_pages} pages but only "
                f"{free.size} slots free of {memcg.capacity_pages}"
            )
        idx = free[:n_pages]
        slots = idx + base
        for name in ("resident", "accessed", "lru_active", "dirtied"):
            getattr(self, name)[slots] = True
        for name in ("incompressible", "unevictable"):
            getattr(self, name)[slots] = False
        self.age_scans[slots] = 0
        self.state[slots] = _NEAR
        self.payload_bytes[slots] = memcg.content_profile.sample_payload_bytes(
            n_pages, memcg._rng
        )
        return idx

    def release(self, row: int, indices: np.ndarray) -> np.ndarray:
        """Free a row's pages; returns the pool slots of those that were
        far, whose payloads the caller drops from the zswap arena.  A
        huge mapping holding a freed page splits, as Linux splits a THP
        on a partial unmap."""
        slots = np.asarray(indices, dtype=np.int64) + self._base(row)
        if slots.size == 0:
            return slots
        require(bool(self.resident[slots].all()), "releasing non-resident pages")
        far = slots[self.state[slots] == _FAR]
        self.split_huge_at(slots)
        self.resident[slots] = False
        self.accessed[slots] = False
        self.state[slots] = _NEAR
        return far

    def map_huge(self, row: int, start: int,
                 pages_per_huge: int = 512) -> None:
        """Back a row's ``[start, start + pages_per_huge)``, all resident
        NEAR pages in no other mapping, with one huge mapping: one PTE
        accessed/dirty bit for all of them at scan time."""
        check_positive(pages_per_huge, "pages_per_huge")
        stop = start + pages_per_huge
        require(
            0 <= start and stop <= self.row_size[row],
            f"huge range [{start}, {stop}) outside the memcg",
        )
        base = self._base(row)
        window = slice(base + start, base + stop)
        if not (self.resident[window].all()
                and (self.state[window] == _NEAR).all()):
            raise SimulationError(
                f"huge range [{start}, {stop}) must be fully resident NEAR"
            )
        if (self.huge_group[window] >= 0).any():
            raise SimulationError(
                f"huge range [{start}, {stop}) overlaps an existing mapping"
            )
        self.huge_group[window] = start

    def mlock(self, row: int, indices: np.ndarray) -> None:
        """Pin a row's pages: they leave the LRU and are never compressed."""
        self.unevictable[np.asarray(indices) + self._base(row)] = True

    def munlock(self, row: int, indices: np.ndarray) -> None:
        """Unpin a row's previously mlocked pages."""
        self.unevictable[np.asarray(indices) + self._base(row)] = False

    def far_slots(self, rows: Sequence[int]) -> np.ndarray:
        """The pool slots of ``rows``' far pages, row by row, ascending."""
        res, state = self.resident, self.state
        return np.concatenate([np.zeros(0, dtype=np.int64)] + [
            seg.start + np.flatnonzero(res[seg] & (state[seg] == _FAR))
            for seg in self._segments_of(rows)
        ])

    def row_pages(self, row: int) -> PageColumns:
        """Copies of one row's per-page columns, by memcg-local index."""
        seg = self._segments_of([row])[0]
        return PageColumns(*[
            getattr(self, name)[seg].copy() for name in PageColumns._fields
        ])

    # ------------------------------------------------------------------
    # Pooled accounting reductions (replace per-memcg Python sums)
    # ------------------------------------------------------------------

    def _row_sums(self, per_slot: np.ndarray) -> np.ndarray:
        """Per-row sums of a ``[0, used)`` array (free rows: zero), one
        ``np.add.reduceat`` over the segments in base order."""
        sums = np.zeros(self._row_cap, dtype=np.int64)
        if self.used:
            rows, bases, _sizes = self.segments()
            sums[rows] = np.add.reduceat(per_slot, bases, dtype=np.int64)
        return sums

    def _segments_of(self, rows: Sequence[int]) -> List[slice]:
        """The slot range of each row in ``rows``, in that order."""
        base, size = self.row_base, self.row_size
        return [slice(base[row], base[row] + size[row]) for row in rows]

    def tier_pages(self, rows: Optional[Sequence[int]] = None) -> np.ndarray:
        """Resident ``[near, far]`` page counts per row, as an int64
        ``(n, 2)`` array: indexed by pool row (one pool-wide pass), or in
        ``rows`` order (one count per segment: cheaper for the few rows
        of one machine)."""
        res, state = self.resident, self.state
        if rows is None:
            far = self._row_sums(res[: self.used]
                                 & (state[: self.used] == _FAR))
            return np.stack([self._row_sums(res[: self.used]) - far, far],
                            axis=1)
        tiers = np.empty((len(rows), 2), dtype=np.int64)
        for i, seg in enumerate(self._segments_of(rows)):
            resident = res[seg]
            far = np.count_nonzero(resident & (state[seg] == _FAR))
            tiers[i] = (np.count_nonzero(resident) - far, far)
        return tiers

    def cold_pages(self, threshold_seconds: float,
                   rows: Optional[Sequence[int]] = None) -> np.ndarray:
        """Resident pages idle at least ``threshold_seconds`` per row, as
        an int64 array: indexed by pool row, or in ``rows`` order."""
        scans = int(np.ceil(threshold_seconds / self.scan_period))
        res, ages = self.resident, self.age_scans
        if rows is None:
            u = self.used
            return self._row_sums(res[:u] & (ages[:u] >= scans))
        return np.array([
            np.count_nonzero(res[seg] & (ages[seg] >= scans))
            for seg in self._segments_of(rows)
        ], dtype=np.int64)

    # ------------------------------------------------------------------
    # Histogram gathers (the agent's round, the zero-copy export)
    # ------------------------------------------------------------------

    def histogram_columns(
        self, rows: np.ndarray, min_cold_age_seconds: int
    ) -> Dict[str, np.ndarray]:
        """Gather the kernel histograms of ``rows``, one output row each.

        One fancy-index gather per column (the gathers *are* the copies:
        the returned arrays never alias live pool storage).  The node
        agent's round reads these; :meth:`export_columns` adds the
        resident counts for the exporter.

        Args:
            rows: pool row ordinals, in output order.
            min_cold_age_seconds: the SLO's working-set window; the
                working-set column replays
                :func:`repro.core.slo.working_set_pages` per row.

        Returns:
            Columns keyed ``promotion_counts``/``promotion_young``
            (cumulative, since pool start), ``cold_counts``/``cold_young``
            (current snapshot) and ``working_set_pages`` -- int64
            throughout, bit-identical to the per-memcg scalar reads.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cold_counts = self.cold_counts[rows]
        cold_young = self.cold_young[rows]
        # Working set: young pages plus every bin strictly below the
        # window (the vectorized twin of ``slo.working_set_pages``).
        idx = bisect_left(self.bins.thresholds, min_cold_age_seconds)
        return {
            "promotion_counts": self.promo_counts[rows],
            "promotion_young": self.promo_young[rows],
            "cold_counts": cold_counts,
            "cold_young": cold_young,
            "working_set_pages": cold_young + cold_counts[:, :idx].sum(axis=1),
        }

    def export_columns(
        self, rows: np.ndarray, min_cold_age_seconds: int
    ) -> Dict[str, np.ndarray]:
        """Materialize one export window's telemetry columns for ``rows``.

        The zero-copy half of the telemetry fast path:
        :meth:`histogram_columns` plus one segment-wise reduction for the
        per-row ``resident_pages``.  No per-job Python loop runs here; the
        exporter packs the result into a
        :class:`~repro.model.trace.TelemetryBlock` as-is.
        """
        columns = self.histogram_columns(rows, min_cold_age_seconds)
        columns["resident_pages"] = self._row_sums(
            self.resident[: self.used]
        )[np.asarray(rows, dtype=np.int64)]
        return columns

    # ------------------------------------------------------------------
    # Pooled promotion
    # ------------------------------------------------------------------

    def touch(self, slots: np.ndarray, write: bool) -> np.ndarray:
        """One touch pass over pool slots: the MMU for every memcg at once.

        Skips slots holding no page, sets the accessed bits (and the
        dirtied bits for a write), and flips the far pages NEAR, so a
        later pass finds them near.  Returns those far slots, each once,
        in first-occurrence order.  Segments are disjoint, so this is the
        reference memcg's ``touch`` and ``mark_near`` on each memcg's share.
        """
        far = touch_pages(self, slots, write)
        self.state[far] = PageState.NEAR
        return far

    def payloads(self, slots: np.ndarray) -> np.ndarray:
        """The payload sizes of pool slots."""
        return self.payload_bytes[slots]

    def promote(self, slots: np.ndarray,
                promotions: Sequence[Promotion]) -> None:
        """Account faulted pool slots as promotions in one pool pass.

        ``slots`` are grouped by ``promotions``, one ``(memcg, pages)``
        entry per run.  The pooled twin of the reference memcg's
        ``mark_near`` plus ``record_promotions``: one state write, one age
        reset, and one ``bincount`` into the promotion-histogram rows (from the
        pre-reset ages, like :meth:`scan_all`); the per-memcg counters
        advance in order.
        """
        self.state[slots] = PageState.NEAR
        self._add_promotion_ages(self.owner_row[slots], self.age_scans[slots])
        self.age_scans[slots] = 0
        for memcg, count in promotions:
            memcg.promoted_pages_total += count
            if memcg.promoted_counter is not None:
                memcg.promoted_counter.inc(count)

    def _add_promotion_ages(
        self, rows: np.ndarray, ages: np.ndarray
    ) -> None:
        """Add pages' pre-reset ages (in scans) to their rows' promotion
        histograms.

        One ``bincount`` keyed by ``(row, bin + 1)``: column 0 collects
        the young bucket (bin -1).  The keys are built in place in one
        intp array, the type ``bincount`` reads without a copy, after the
        table lookup (whose index copy is as large).  Ages never exceed
        the cap; ``clip`` only bounds the table lookup.
        """
        width = self._nbins + 1
        bins = self._bin_lut.take(ages, mode="clip")
        bins += 1
        keys = np.multiply(rows, width, dtype=np.intp)
        keys += bins
        del bins
        counts = np.bincount(
            keys, minlength=self._row_cap * width
        ).reshape(self._row_cap, width)
        self.promo_young += counts[:, 0]
        self.promo_counts += counts[:, 1:]

    # ------------------------------------------------------------------
    # Pooled kstaled scan
    # ------------------------------------------------------------------

    def scan_all(self, memcgs: Iterable[MemCg]) -> int:
        """One kstaled pass over every segment in a single pool sweep.

        Replays :func:`repro.kernel.oracle.scan_memcg` slot-for-slot:
        huge-bit propagation, promotion-histogram accounting from
        pre-reset ages, age reset / saturating increment, two-list LRU
        maintenance, dirty-page payload resampling (per memcg, with that
        memcg's own RNG, in iteration order — the draw sequences match
        the reference scan exactly), and a recount of every cold-age
        histogram.  Scratch masks and index arrays are dropped as soon as
        they are used, so the recount -- the scan's largest temporary --
        runs with none of them alive.

        Args:
            memcgs: every memcg bound to the pool (all machines' memcgs
                when the pool is a cluster's), in scan order — the
                order their dirty pages draw fresh payloads.

        Returns:
            Total resident pages examined (the kstaled CPU-cost input).
        """
        memcg_list = list(memcgs)
        if invariants_enabled():
            verify_column_contracts(self, COLUMN_CONTRACTS, where="scan_all")
        u = self.used
        if u == 0:
            self.last_scan_row_pages = np.zeros(self._row_cap, dtype=np.int64)
            return 0
        res = self.resident[:u]
        accessed = self.accessed[:u]
        age = self.age_scans[:u]
        owner = self.owner_row[:u]

        self._propagate_huge_bits_pooled(u, res)

        # Promotion histograms for all memcgs, from the accessed pages'
        # pre-reset ages.
        acc = res & accessed
        acc_idx = np.flatnonzero(acc)
        if acc_idx.size:
            rows, ages = owner[acc_idx], age[acc_idx]
            del acc_idx
            self._add_promotion_ages(rows, ages)
            del rows, ages

        # Branch-free whole-pool writes: boolean-mask assignments (and
        # ``where=`` ufuncs) are an order of magnitude slower.  Ages never
        # exceed the cap, so incrementing idle pages below it is the
        # saturating increment (it never wraps the uint8 column).
        idle = res ^ acc
        idle &= age < MAX_PAGE_AGE_SCANS
        np.add(age, idle, out=age)
        del idle
        not_res = ~res
        lru = self.lru_active[:u]
        lru &= not_res
        lru |= acc
        np.invert(acc, out=acc)
        np.multiply(age, acc, out=age)
        del acc
        accessed &= not_res

        # Dirtied NEAR pages shed their incompressible mark and resample
        # payload content.  The draws stay per memcg, in iteration order:
        # each memcg owns an independent RNG stream and the scalar kernel
        # draws exactly n_dirty values from it.
        dirtied = self.dirtied[:u]
        near = self.state[:u] == PageState.NEAR
        near &= dirtied
        near &= res
        dirty_idx = np.flatnonzero(near)
        del near
        if dirty_idx.size:
            self.incompressible[dirty_idx] = False
            rows = [memcg.row for memcg in memcg_list]
            bases = self.row_base[rows]
            los = np.searchsorted(dirty_idx, bases).tolist()
            his = np.searchsorted(dirty_idx, bases + self.row_size[rows]).tolist()
            dirty = [
                (memcg, lo, hi)
                for memcg, lo, hi in zip(memcg_list, los, his)
                if hi > lo
            ]
            if dirty:
                self.payload_bytes[
                    np.concatenate([dirty_idx[lo:hi] for _m, lo, hi in dirty])
                ] = sample_payloads([
                    (m.content_profile, hi - lo, m._rng) for m, lo, hi in dirty
                ])
        del dirty_idx
        dirtied &= not_res
        del not_res

        self._recount_cold_histograms(res, age, owner)

        if invariants_enabled():
            for memcg in memcg_list:
                check_memcg_histogram(self, memcg)
        return int(self.last_scan_row_pages.sum())

    def _propagate_huge_bits_pooled(self, u: int, res: np.ndarray) -> None:
        """Share accessed/dirty bits within every huge mapping at once.

        Group ids are memcg-local; adding the owner segment's base yields
        pool-global ids that cannot collide across memcgs, so one bool
        scatter per bit marks every mapping with a set page.
        """
        hg = self.huge_group[:u]
        hp = np.flatnonzero(res & (hg >= 0))
        if hp.size == 0:
            return
        groups = hg[hp] + self.row_base[self.owner_row[hp]]
        aggregate = np.zeros(u, dtype=bool)
        for bits in (self.accessed[:u], self.dirtied[:u]):
            page_bits = bits[hp]
            aggregate[groups[page_bits]] = True
            bits[hp] = aggregate[groups]
            aggregate[groups] = False

    def _recount_cold_histograms(
        self, res: np.ndarray, age: np.ndarray, owner: np.ndarray
    ) -> None:
        """Recount every row's cold-age snapshot from live page ages.

        One ``bincount`` keyed by ``(row, bin + 2)``: column 0 collects
        the slots holding no page, column 1 the young bucket (bin -1).
        The no-page column also yields each row's resident count, which
        is what the scan books as pages examined.  Free rows count zero.
        The keys are one intp array (``bincount``'s own index type, so it
        reads them without a copy) plus the int16 bin of every slot.
        """
        width = self._nbins + 2
        bins = self._bin_lut.take(age, mode="clip")
        bins -= _HIST_NO_PAGE
        bins *= res
        keys = np.multiply(owner, width, dtype=np.intp)
        keys += bins
        del bins
        counts = np.bincount(
            keys, minlength=self._row_cap * width
        ).reshape(self._row_cap, width)
        self.cold_young[:] = counts[:, 1]
        self.cold_counts[:] = counts[:, 2:]
        self.last_scan_row_pages = self.row_size - counts[:, 0]

    # ------------------------------------------------------------------
    # Pooled kreclaimd candidate evaluation
    # ------------------------------------------------------------------

    def _reclaim_slots(self) -> np.ndarray:
        """Every reclaim candidate's pool slot, ascending, from one
        pool-wide mask.

        The mask is resident, NEAR, evictable, compressible and aged at
        or beyond the *owning memcg's* threshold.  Per-row thresholds are
        pre-encoded in ``row_reclaim_thr`` (maintained by the memcg
        property setters) and spread to their slots with one
        ``np.repeat`` over the segments in base order, clamped to one
        past the oldest age so they fit 16 bits (no age meets the clamp,
        as none meets the sentinel).  Memcgs with zswap disabled or a
        non-finite threshold carry the never-matches sentinel and yield
        nothing, matching the reference
        :func:`~repro.kernel.oracle.reclaim_candidates`.
        """
        u = self.used
        if u == 0:
            return np.zeros(0, dtype=np.int64)
        seg_rows, _bases, sizes = self.segments()
        thresholds = np.minimum(
            self.row_reclaim_thr[seg_rows], MAX_PAGE_AGE_SCANS + 1
        ).astype(np.uint16)
        mask = self.age_scans[:u] >= np.repeat(thresholds, sizes)
        mask &= self.resident[:u]
        mask &= self.state[:u] == PageState.NEAR
        mask &= ~self.unevictable[:u]
        mask &= ~self.incompressible[:u]
        return np.flatnonzero(mask)

    def reclaim_walk(
        self, memcgs: Sequence[MemCg]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Every memcg's reclaim candidates as pool slots, in the order
        kreclaimd walks them.

        ``memcgs`` sets the walk order.  Within a memcg the walk is its
        LRU order (:func:`~repro.kernel.oracle.reclaim_order`: inactive
        list first, oldest first, ties by ascending slot), so one stable
        ``lexsort`` keyed by (memcg rank, list, age) over the ascending
        candidate mask is every memcg's ``reclaim_order`` at once.

        Returns:
            ``(slots, ranks)``: the candidate slots, and for each the
            index in ``memcgs`` of its owner (non-decreasing).
        """
        cand = self._reclaim_slots()
        if cand.size == 0:
            return cand, cand
        rank = np.full(len(self.row_memcg), -1, dtype=np.int64)
        rank[[memcg.row for memcg in memcgs]] = np.arange(len(memcgs))
        ranks = rank[self.owner_row[cand]]
        # Rows outside ``memcgs`` (another pool user's) take no part.
        if ranks.min() < 0:
            keep = ranks >= 0
            cand, ranks = cand[keep], ranks[keep]
        # Oldest first: the cap minus the age orders as the negated age
        # does, and cannot wrap the uint8 column.
        order = np.lexsort((
            np.subtract(MAX_PAGE_AGE_SCANS, self.age_scans[cand]),
            self.lru_active[cand], ranks,
        ))
        return cand[order], ranks[order]

    def direct_reclaim_walk(
        self, rows: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Every reclaimable page of ``rows`` as pool slots, in the order
        direct reclaim takes them: row by row in ``rows`` order, oldest
        first, ties by ascending slot.

        Direct reclaim has no cold-age threshold and no list preference:
        one mask over the rows' segments (resident, NEAR, evictable,
        compressible) and one stable ``lexsort`` keyed by (rank, age)
        give every memcg's order at once.

        Returns:
            ``(slots, ranks)``: the candidate slots, and for each the
            index in ``rows`` of its owner (non-decreasing).
        """
        segs = self._segments_of(rows)
        slots = np.concatenate([np.zeros(0, dtype=np.int64)] + [
            np.arange(seg.start, seg.stop) for seg in segs
        ])
        ranks = np.repeat(np.arange(len(segs)),
                          [seg.stop - seg.start for seg in segs])
        keep = self.resident[slots] & (self.state[slots] == _NEAR)
        keep &= ~self.unevictable[slots]
        keep &= ~self.incompressible[slots]
        slots, ranks = slots[keep], ranks[keep]
        order = np.lexsort((
            np.subtract(MAX_PAGE_AGE_SCANS, self.age_scans[slots]), ranks,
        ))
        return slots[order], ranks[order]

    # ------------------------------------------------------------------
    # Pooled zswap store (tier flips over pool slots)
    # ------------------------------------------------------------------

    def mark_incompressible(self, slots: np.ndarray) -> None:
        """Flag pool slots whose compression attempt was rejected."""
        self.incompressible[slots] = True

    def mark_far(self, slots: np.ndarray) -> None:
        """Move pool slots to the FAR tier (the reference memcg's
        ``mark_far`` on every owner's share)."""
        self.state[slots] = PageState.FAR
        self.dirtied[slots] = False

    def split_huge_at(self, slots: np.ndarray) -> None:
        """Split every huge mapping holding one of ``slots`` back to base
        pages (the reference memcg's ``split_huge_at`` on every owner's
        share).

        Group ids plus the owner's segment base are pool-global, so one
        membership test over the pool's huge pages finds every page of
        the touched mappings.
        """
        groups = self.huge_group[slots]
        huge = groups >= 0
        if not huge.any():
            return
        touched = np.unique(
            groups[huge] + self.row_base[self.owner_row[slots[huge]]]
        )
        hg = self.huge_group[: self.used]
        hp = np.flatnonzero(hg >= 0)
        pool_groups = hg[hp] + self.row_base[self.owner_row[hp]]
        self.huge_group[hp[np.isin(pool_groups, touched)]] = -1
