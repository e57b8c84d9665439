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

:class:`ColumnarMemCg` is a :class:`~repro.kernel.memcg.MemCg` whose
arrays are numpy *views* into the pool: every inherited method —
``allocate``/``release``/``touch``, zswap's tier flips, huge-page
mapping — runs unchanged on the views and stays O(touched).  The pooled
passes (:meth:`MachinePagePool.scan_all`,
:meth:`MachinePagePool.reclaim_pairs`, the touch pass
:meth:`MachinePagePool.touch` and the batched
:meth:`MachinePagePool.promote`, the accounting reductions) replay the
exact per-slot arithmetic of the scalar memcg methods as whole-pool
array ops.  :class:`~repro.kernel.oracle.ScalarPagePool` answers the
same interface with those scalar methods and is the bit-equivalence
oracle (``MachineConfig(kernel="scalar")``), exactly as
``CompiledTrace``/``replay_compiled`` oracle the vectorized model.
Everything above the pool (machine, cluster, node agent, telemetry,
faults, the parallel engine) calls only that interface.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.checks.contracts import verify_column_contracts
from repro.checks.invariants import check_memcg_histogram, invariants_enabled
from repro.common.units import MAX_PAGE_AGE_SCANS
from repro.core.histograms import AgeBins, AgeHistogram
from repro.kernel.compression import sample_payloads
from repro.kernel.memcg import (
    _FAR,
    _HIST_NO_PAGE,
    MemCg,
    PageState,
    Promotion,
    touch_pages,
)

__all__ = ["ColumnarMemCg", "MachinePagePool", "PooledAgeHistogram"]

#: Pool columns: (pool attribute, dtype, fill value for free slots).  The
#: fill values equal a freshly constructed MemCg's defaults, so a new
#: segment needs no initialization beyond ``owner_row``.
_PAGE_FIELDS: Tuple[Tuple[str, type, object], ...] = (
    ("resident", np.bool_, False),
    ("age_scans", np.int32, 0),
    ("accessed", np.bool_, False),
    ("state", np.uint8, int(PageState.NEAR)),
    ("incompressible", np.bool_, False),
    ("dirtied", np.bool_, False),
    ("unevictable", np.bool_, False),
    ("payload_bytes", np.int32, 0),
    ("lru_active", np.bool_, False),
    ("huge_group", np.int64, -1),
    ("owner_row", np.int32, -1),
)

#: memcg attribute -> pool column for the per-page views.  ``owner_row``
#: is pool-internal; ``huge_group`` stays memcg-local (group ids are
#: relative to the segment base) so segments move without translation.
_VIEW_BINDINGS: Tuple[Tuple[str, str], ...] = (
    ("resident", "resident"),
    ("age_scans", "age_scans"),
    ("accessed", "accessed"),
    ("state", "state"),
    ("incompressible", "incompressible"),
    ("dirtied", "dirtied"),
    ("unevictable", "unevictable"),
    ("payload_bytes", "payload_bytes"),
    ("lru_active", "lru_active"),
    ("huge_group", "huge_group"),
)

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
    "MachinePagePool.age_scans": {"dtype": "int32", "ndim": 1},
    "MachinePagePool.accessed": {"dtype": "bool", "ndim": 1},
    "MachinePagePool.state": {"dtype": "uint8", "ndim": 1},
    "MachinePagePool.incompressible": {"dtype": "bool", "ndim": 1},
    "MachinePagePool.dirtied": {"dtype": "bool", "ndim": 1},
    "MachinePagePool.unevictable": {"dtype": "bool", "ndim": 1},
    "MachinePagePool.payload_bytes": {"dtype": "int32", "ndim": 1},
    "MachinePagePool.lru_active": {"dtype": "bool", "ndim": 1},
    "MachinePagePool.huge_group": {"dtype": "int64", "ndim": 1},
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


class PooledAgeHistogram(AgeHistogram):
    """An :class:`AgeHistogram` whose storage is one row of a pool matrix.

    ``counts`` is a row view of the pool's ``(memcgs, bins)`` matrix, so
    in-place updates (``+=``, ``[:] = 0``) — which is all the base class
    ever does — write straight through to the pool.  ``young_count``
    proxies one element of the pool's young-count vector.  ``copy()`` and
    ``diff()`` inherit from the base class and return plain detached
    :class:`AgeHistogram` objects, which is what every consumer (node
    agent, telemetry, invariants) expects.
    """

    def __init__(self, bins: AgeBins, counts: np.ndarray,
                 young: np.ndarray, row: int):
        self.bins = bins
        self.counts = counts
        self._young = young
        self._row = int(row)

    @property
    def young_count(self) -> int:
        return int(self._young[self._row])

    @young_count.setter
    def young_count(self, value: int) -> None:
        self._young[self._row] = value


class ColumnarMemCg(MemCg):
    """A memcg whose per-page arrays alias a :class:`MachinePagePool`.

    Constructed exactly like :class:`MemCg`; the owning machine then
    registers it with the pool, which replaces the private arrays with
    segment views.  All inherited behaviour is preserved bit-for-bit —
    the views cover the same slots the private arrays would.
    """

    #: The owning pool; assigned by :meth:`MachinePagePool.add`.
    _pool: Optional["MachinePagePool"] = None

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # The pooled scan recounts cold-age histograms and the pooled
        # reclaim pass builds its own mask, so the scalar fold's per-slot
        # bin cache and the cached reclaim mask have no use here.
        del self._hist_bin
        del self._reclaim_mask

    # The reclaim threshold and zswap gate are written by the node agent
    # once per control round but *read* by the pooled reclaim mask for
    # every page on the machine.  Property setters mirror them into the
    # pool's per-row encoded-threshold array so ``reclaim_pairs`` gathers
    # thresholds with one indexed load instead of a per-memcg Python walk.

    @property
    def cold_age_threshold(self) -> float:
        return self._cold_age_threshold

    @cold_age_threshold.setter
    def cold_age_threshold(self, value: float) -> None:
        self._cold_age_threshold = value
        if self._pool is not None:
            self._pool.refresh_row_threshold(self)

    @property
    def zswap_enabled(self) -> bool:
        return self._zswap_enabled

    @zswap_enabled.setter
    def zswap_enabled(self, value: bool) -> None:
        self._zswap_enabled = value
        if self._pool is not None:
            self._pool.refresh_row_threshold(self)

    def __getstate__(self):
        # The views alias pool storage: pickling them would ship detached
        # copies (and double the payload).  Drop them — the pool carries
        # the data, and ``Machine.__setstate__`` rebinds on arrival.
        state = self.__dict__.copy()
        for attr, _field in _VIEW_BINDINGS:
            state.pop(attr, None)
        state.pop("cold_age_histogram", None)
        state.pop("promotion_histogram", None)
        return state


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

    memcg_class = ColumnarMemCg

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
        #: sync by the :class:`ColumnarMemCg` property setters.
        self.row_reclaim_thr = np.full(0, _NEVER_SCANS, dtype=np.int64)
        self.row_memcg: List[Optional[ColumnarMemCg]] = []
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

    def add(self, memcg: ColumnarMemCg) -> None:
        """Claim a segment + histogram row for a new memcg and bind views."""
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
        memcg._pool_row = row
        memcg._pool = self
        # Free slots already carry construction defaults; only ownership
        # and the histogram row need (re)setting.
        self.owner_row[base : base + n] = row
        self.cold_counts[row, :] = 0
        self.cold_young[row] = 0
        self.promo_counts[row, :] = 0
        self.promo_young[row] = 0
        self.bind(memcg)

    def remove(self, memcg: ColumnarMemCg) -> None:
        """Release a memcg's segment, compacting the pool behind it.

        The departing memcg keeps private *copies* of its final state, so
        late readers (job stats, tests) see a frozen snapshot rather than
        recycled pool slots.
        """
        row = memcg._pool_row
        base = int(self.row_base[row])
        size = int(self.row_size[row])
        for attr, _field in _VIEW_BINDINGS:
            setattr(memcg, attr, getattr(memcg, attr).copy())
        memcg.cold_age_histogram = memcg.cold_age_histogram.copy()
        memcg.promotion_histogram = memcg.promotion_histogram.copy()
        memcg._pool_row = -1
        memcg._pool = None

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
        self._rebind_from(base)

    def bind(self, memcg: ColumnarMemCg) -> None:
        """(Re)point one memcg's arrays and histograms at its segment."""
        row = memcg._pool_row
        base = int(self.row_base[row])
        end = base + int(self.row_size[row])
        for attr, field in _VIEW_BINDINGS:
            setattr(memcg, attr, getattr(self, field)[base:end])
        memcg.cold_age_histogram = PooledAgeHistogram(
            self.bins, self.cold_counts[row], self.cold_young, row
        )
        memcg.promotion_histogram = PooledAgeHistogram(
            self.bins, self.promo_counts[row], self.promo_young, row
        )
        self.refresh_row_threshold(memcg)

    def refresh_row_threshold(self, memcg: "ColumnarMemCg") -> None:
        """Re-encode one memcg's reclaim threshold into the row array.

        Encodes exactly the gate the scalar ``MemCg.reclaim_candidates``
        applies per call: disabled zswap or a non-finite threshold means
        "never reclaim"; otherwise the threshold in whole scans (ceil),
        clamped so the encoded value always fits the sentinel.
        """
        threshold = memcg._cold_age_threshold
        if not memcg._zswap_enabled or not math.isfinite(threshold):
            encoded = _NEVER_SCANS
        else:
            encoded = min(
                math.ceil(threshold / self.scan_period), _NEVER_SCANS
            )
        self.row_reclaim_thr[memcg._pool_row] = encoded

    #: True while the memcg views may alias dead storage (set on pickle,
    #: cleared by :meth:`rebind_all`).  Lets the many machines sharing a
    #: cluster's pool rebind it exactly once after unpickling.
    _views_stale = False

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_views_stale"] = True
        return state

    def rebind_all(self) -> None:
        """Rebind every live memcg (after unpickling or storage growth)."""
        for memcg in self.row_memcg:
            if memcg is not None:
                self.bind(memcg)
        self._views_stale = False

    def _rebind_from(self, floor_base: int) -> None:
        for memcg in self.row_memcg:
            if memcg is not None and self.row_base[memcg._pool_row] >= floor_base:
                self.bind(memcg)

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
        self.rebind_all()

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
        self.rebind_all()

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
        in first-occurrence order.  Segments are disjoint, so this is
        :meth:`MemCg.touch` and ``mark_near`` on each memcg's share.
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
        entry per run.  The pooled twin of ``mark_near`` plus
        :meth:`MemCg.record_promotions`: one state write, one age reset,
        and one ``bincount`` into the promotion-histogram rows (from the
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
        the young bucket (bin -1).  Ages never exceed the cap; ``clip``
        only bounds the table lookup.
        """
        width = self._nbins + 1
        keys = rows.astype(np.int64) * width
        keys += self._bin_lut.take(ages, mode="clip")
        keys += 1
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

        Replays ``MemCg.scan_update`` slot-for-slot: huge-bit propagation,
        promotion-histogram accounting from pre-reset ages, age reset /
        saturating increment, two-list LRU maintenance, dirty-page payload
        resampling (per memcg, with that memcg's own RNG, in iteration
        order — the draw sequences match the scalar kernel exactly), and
        a recount of every cold-age histogram (the result the scalar
        kernel's incremental fold must reach).

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
        state = self.state[:u]
        owner = self.owner_row[:u]

        self._propagate_huge_bits_pooled(u, res)

        acc = res & accessed
        idle = res ^ acc

        # Promotion histograms for all memcgs, from the accessed pages'
        # pre-reset ages.
        acc_idx = np.flatnonzero(acc)
        if acc_idx.size:
            self._add_promotion_ages(owner[acc_idx], age[acc_idx])

        # Branch-free whole-pool writes: boolean-mask assignments (and
        # ``where=`` ufuncs) are an order of magnitude slower.  Ages never
        # exceed the cap, so incrementing idle pages below it is the
        # saturating increment.
        not_res = ~res
        np.add(age, idle & (age < MAX_PAGE_AGE_SCANS), out=age)
        np.multiply(age, ~acc, out=age)
        lru = self.lru_active[:u]
        lru &= not_res
        lru |= acc
        accessed &= not_res

        # Dirtied NEAR pages shed their incompressible mark and resample
        # payload content.  The draws stay per memcg, in iteration order:
        # each memcg owns an independent RNG stream and the scalar kernel
        # draws exactly n_dirty values from it.
        dirty_idx = np.flatnonzero(res & self.dirtied[:u] & (state == PageState.NEAR))
        if dirty_idx.size:
            self.incompressible[dirty_idx] = False
            rows = [memcg._pool_row for memcg in memcg_list]
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
        self.dirtied[:u] &= not_res

        self._recount_cold_histograms(res, age, owner)

        if invariants_enabled():
            for memcg in memcg_list:
                check_memcg_histogram(memcg)
        return int(self.last_scan_row_pages.sum())

    def _propagate_huge_bits_pooled(self, u: int, res: np.ndarray) -> None:
        """Share accessed/dirty bits within every huge mapping at once.

        Group ids are memcg-local; adding the owner segment's base yields
        pool-global ids that cannot collide across memcgs, so one
        aggregate pass covers every mapping in the pool.
        """
        hg = self.huge_group[:u]
        hp = np.flatnonzero(res & (hg >= 0))
        if hp.size == 0:
            return
        groups = hg[hp] + self.row_base[self.owner_row[hp]]
        for bits in (self.accessed[:u], self.dirtied[:u]):
            aggregate = np.bincount(groups, weights=bits[hp], minlength=u) > 0
            bits[hp] = aggregate[groups]

    def _recount_cold_histograms(
        self, res: np.ndarray, age: np.ndarray, owner: np.ndarray
    ) -> None:
        """Recount every row's cold-age snapshot from live page ages.

        One ``bincount`` keyed by ``(row, bin + 2)``: column 0 collects
        the slots holding no page, column 1 the young bucket (bin -1).
        The no-page column also yields each row's resident count, which
        is what the scan books as pages examined.  Free rows count zero.
        """
        width = self._nbins + 2
        keys = self._bin_lut.take(age, mode="clip")
        keys -= _HIST_NO_PAGE
        keys *= res
        counts = np.bincount(
            owner * width + keys, minlength=self._row_cap * width
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
        ``np.repeat`` over the segments in base order.  Memcgs with zswap
        disabled or a non-finite threshold carry the never-matches
        sentinel and yield nothing, matching ``MemCg.reclaim_candidates``.
        """
        u = self.used
        if u == 0:
            return np.zeros(0, dtype=np.int64)
        seg_rows, _bases, sizes = self.segments()
        thresholds = np.repeat(self.row_reclaim_thr[seg_rows], sizes)
        mask = (
            self.resident[:u]
            & (self.state[:u] == PageState.NEAR)
            & ~self.unevictable[:u]
            & ~self.incompressible[:u]
            & (self.age_scans[:u] >= thresholds)
        )
        return np.flatnonzero(mask)

    def reclaim_pairs(
        self, memcgs: Iterable[MemCg]
    ) -> List[Tuple[MemCg, np.ndarray]]:
        """Reclaim candidates for every memcg, grouped back into
        memcg-local indices along segment boundaries.

        Returns:
            ``(memcg, local_candidates)`` pairs in iteration order,
            candidates ascending -- byte-identical to the scalar walk.
        """
        cand = self._reclaim_slots()
        if cand.size == 0:
            return []
        # Segments are contiguous, so candidates sorted by slot are also
        # grouped by owning row; one boundary scan replaces the two
        # searchsorted calls per memcg.
        rows = self.owner_row[cand]
        starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
        bounds = np.append(starts[1:], rows.size)
        spans = {
            int(rows[s]): (int(s), int(e)) for s, e in zip(starts, bounds)
        }
        pairs: List[Tuple[MemCg, np.ndarray]] = []
        for memcg in memcgs:
            span = spans.get(memcg._pool_row)
            if span is None:
                continue
            lo, hi = span
            pairs.append(
                (memcg, cand[lo:hi] - int(self.row_base[memcg._pool_row]))
            )
        return pairs

    def reclaim_walk(
        self, memcgs: Sequence[MemCg]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Every memcg's reclaim candidates as pool slots, in the order
        kreclaimd walks them.

        ``memcgs`` sets the walk order.  Within a memcg the walk is its
        LRU order (:meth:`MemCg.reclaim_order`: inactive list first,
        oldest first, ties by ascending slot), so one stable ``lexsort``
        keyed by (memcg rank, list, age) over the ascending candidate
        mask is every memcg's ``reclaim_order`` at once.

        Returns:
            ``(slots, ranks)``: the candidate slots, and for each the
            index in ``memcgs`` of its owner (non-decreasing).
        """
        cand = self._reclaim_slots()
        if cand.size == 0:
            return cand, cand
        rank = np.full(len(self.row_memcg), -1, dtype=np.int64)
        rank[[memcg._pool_row for memcg in memcgs]] = np.arange(len(memcgs))
        ranks = rank[self.owner_row[cand]]
        # Rows outside ``memcgs`` (another pool user's) take no part.
        if ranks.min() < 0:
            keep = ranks >= 0
            cand, ranks = cand[keep], ranks[keep]
        order = np.lexsort(
            (-self.age_scans[cand], self.lru_active[cand], ranks)
        )
        return cand[order], ranks[order]

    # ------------------------------------------------------------------
    # Pooled zswap store (tier flips over pool slots)
    # ------------------------------------------------------------------

    def mark_incompressible(self, slots: np.ndarray) -> None:
        """Flag pool slots whose compression attempt was rejected."""
        self.incompressible[slots] = True

    def mark_far(self, slots: np.ndarray) -> None:
        """Move pool slots to the FAR tier: :meth:`MemCg.mark_far` on
        every owner's share."""
        self.state[slots] = PageState.FAR
        self.dirtied[slots] = False

    def split_huge_at(self, slots: np.ndarray) -> None:
        """Split every huge mapping holding one of ``slots`` back to base
        pages (:meth:`MemCg.split_huge_at` on every owner's share).

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
