"""Append-only columnar trace store (the on-disk telemetry warehouse).

The paper's control loop (§5.2-5.3) assumes a telemetry warehouse that
retains per-job cold-age histograms fleet-wide; the in-memory
:class:`~repro.cluster.trace_db.TraceDatabase` caps both fleet size and
trace horizon.  This module is the on-disk half of the columnar arc:
trace entries append into a bounded in-memory write buffer that seals
into fixed-schema ``.npz`` segments (one numpy array per column), a
small JSON manifest indexes the segments, per-window aggregates are
maintained incrementally at append time, and old segments can be
downsampled in place without losing those aggregates.

Layout of a store directory::

    store/
      manifest.json        # schema, string tables, segment + window index
      seg-000000.npz       # columns: time, job, machine, wss, resident,
      seg-000001.npz       #   cpu_cores, promotion_counts/_young,
      ...                  #   cold_counts/_young

Columns are fixed-schema: scalar per-row vectors plus two
``(rows, len(bins))`` histogram-count matrices over the shared candidate
threshold grid.  Job and machine ids are interned into string tables in
the manifest and stored as ordinals.  ``.npz`` members are read lazily
per column, so consumers that only need a few columns (e.g. the window
CLI reading ``time``) never materialize the histogram matrices.

The store is **single-writer**: the process that created (or opened) it
owns the files.  A forked copy — e.g. in the parallel engine's workers,
which inherit the parent fleet via ``fork`` — keeps buffering appends in
memory but never touches disk.

Self-describing metrics (rows/segments/bytes written, flush latency,
buffer occupancy) register in the :mod:`repro.obs` catalog under the
``repro_tracestore_*`` names.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.common.errors import TraceError, TraceStoreError
from repro.common.validation import check_positive
from repro.core.histograms import AgeBins, AgeHistogram
from repro.model.trace import (
    TRACE_PERIOD_SECONDS,
    CompiledTrace,
    TelemetryBlock,
    TraceEntry,
)
from repro.obs import MetricName, MetricRegistry, Stopwatch, get_registry

__all__ = [
    "DEFAULT_BUFFER_ROWS",
    "DEFAULT_WINDOW_SECONDS",
    "FORMAT_VERSION",
    "MANIFEST_NAME",
    "SegmentInfo",
    "TraceStore",
    "WindowSummary",
]

#: Manifest file name inside a store directory.
MANIFEST_NAME = "manifest.json"

#: On-disk format version; bumped on incompatible schema changes.
FORMAT_VERSION = 1

#: Rows buffered in memory before sealing a segment.
DEFAULT_BUFFER_ROWS = 4096

#: Width of one incremental-aggregation window (one hour of sim time).
DEFAULT_WINDOW_SECONDS = 3600

#: int64 per-row columns, in schema order.
_INT_COLUMNS = (
    "time",
    "job",
    "machine",
    "working_set_pages",
    "resident_pages",
    "promotion_young",
    "cold_young",
)

#: float64 per-row columns.
_FLOAT_COLUMNS = ("cpu_cores",)

#: ``(rows, len(bins))`` int64 histogram-count matrices.
_MATRIX_COLUMNS = ("promotion_counts", "cold_counts")

#: Every column a segment must carry.
COLUMNS = _INT_COLUMNS + _FLOAT_COLUMNS + _MATRIX_COLUMNS

#: Grow-on-demand ``arange`` shared by the block ingest fast path, so
#: detecting the canonical ``job == arange(n)`` layout allocates nothing.
_IDENTITY = np.arange(1024, dtype=np.int64)


def _identity_ordinals(n: int) -> np.ndarray:
    global _IDENTITY
    if n > _IDENTITY.size:
        _IDENTITY = np.arange(max(n, 2 * _IDENTITY.size), dtype=np.int64)
    return _IDENTITY[:n]


@dataclass
class SegmentInfo:
    """Manifest record for one sealed segment.

    Attributes:
        name: file name inside the store directory.
        rows: rows stored.
        time_min: earliest entry time in the segment.
        time_max: latest entry time in the segment.
        bytes: file size when sealed.
        downsample: aggregation factor relative to the raw trace period
            (1 = raw 5-minute rows; ``k`` = each row merges ``k``
            consecutive raw rows of one job).
    """

    name: str
    rows: int
    time_min: int
    time_max: int
    bytes: int
    downsample: int = 1

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "rows": self.rows,
            "time_min": self.time_min,
            "time_max": self.time_max,
            "bytes": self.bytes,
            "downsample": self.downsample,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SegmentInfo":
        try:
            return cls(
                name=str(data["name"]),
                rows=int(data["rows"]),
                time_min=int(data["time_min"]),
                time_max=int(data["time_max"]),
                bytes=int(data["bytes"]),
                downsample=int(data.get("downsample", 1)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceStoreError(f"bad segment record in manifest: {exc}") from exc


@dataclass
class WindowSummary:
    """Incremental aggregate over one fixed time window.

    Maintained at append time, so the full-resolution summary survives
    even after the raw rows underneath are downsampled away.

    Attributes:
        start: window start time (multiple of the window width).
        rows: entries recorded in the window.
        job_ordinals: distinct jobs seen (ordinals into the job table).
        working_set_pages: summed working-set sizes.
        cold_pages: summed cold pages at the minimum threshold.
        promoted_pages: summed would-be promotions at the minimum
            threshold.
    """

    start: int
    rows: int = 0
    job_ordinals: Set[int] = field(default_factory=set)
    working_set_pages: int = 0
    cold_pages: int = 0
    promoted_pages: int = 0

    @property
    def jobs(self) -> int:
        """Distinct jobs observed in the window."""
        return len(self.job_ordinals)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "start": self.start,
            "rows": self.rows,
            "job_ordinals": sorted(self.job_ordinals),
            "working_set_pages": self.working_set_pages,
            "cold_pages": self.cold_pages,
            "promoted_pages": self.promoted_pages,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "WindowSummary":
        try:
            return cls(
                start=int(data["start"]),
                rows=int(data["rows"]),
                job_ordinals=set(int(j) for j in data["job_ordinals"]),
                working_set_pages=int(data["working_set_pages"]),
                cold_pages=int(data["cold_pages"]),
                promoted_pages=int(data["promoted_pages"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceStoreError(f"bad window record in manifest: {exc}") from exc


def _atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` via a same-directory temp file and an
    atomic rename, so a crash mid-write never leaves a truncated file."""
    tmp = path.parent / f".{path.name}.tmp-{os.getpid()}"
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # rename failed; don't litter
            tmp.unlink()


class TraceStore:
    """An append-only columnar store of trace telemetry.

    Args:
        root: store directory (created unless ``create=False``).
        buffer_rows: rows buffered before sealing a segment.
        window_seconds: width of the incremental aggregation windows.
        registry: metrics registry (defaults to the process-global one).
        create: when False, the directory must already hold a manifest —
            the mode the read-only CLI commands use, so a typo'd path
            fails loudly instead of silently creating an empty store.

    Raises:
        TraceStoreError: on a missing store (``create=False``) or a
            malformed manifest.
    """

    def __init__(
        self,
        root: Union[str, Path],
        buffer_rows: int = DEFAULT_BUFFER_ROWS,
        window_seconds: int = DEFAULT_WINDOW_SECONDS,
        registry: Optional[MetricRegistry] = None,
        create: bool = True,
    ):
        check_positive(buffer_rows, "buffer_rows")
        check_positive(window_seconds, "window_seconds")
        self.root = Path(root)
        self.buffer_rows = int(buffer_rows)
        self.window_seconds = int(window_seconds)
        self.interval_seconds = TRACE_PERIOD_SECONDS
        self._owner_pid = os.getpid()

        self.bins: Optional[AgeBins] = None
        self._jobs: List[str] = []
        self._job_index: Dict[str, int] = {}
        self._machines: List[str] = []
        self._machine_index: Dict[str, int] = {}
        #: Rows per job already sealed into segments (buffer excluded).
        self._job_sealed_rows: List[int] = []
        #: Last appended entry time per job (order enforcement).
        self._job_last_time: List[int] = []
        self.segments: List[SegmentInfo] = []
        self._next_segment_id = 0
        self._windows: Dict[int, WindowSummary] = {}
        self._buffer: Dict[str, list] = {name: [] for name in COLUMNS}
        #: Whole-window column chunks appended via :meth:`append_batch`,
        #: awaiting the next segment seal alongside the row buffer.
        self._chunks: List[Dict[str, np.ndarray]] = []
        self._chunk_rows = 0
        #: Interning results keyed by (kind, table tuple).  Exporters
        #: rebuild the same small string tables every window, so on the
        #: block fast path a cache hit replaces the per-id interning
        #: loop with one dict lookup.  Ordinals never change once
        #: assigned, which makes cached LUTs valid forever.
        self._lut_cache: Dict[Tuple[str, Tuple[str, ...]], np.ndarray] = {}
        #: Entries currently stored (sealed + buffered).
        self.rows_total = 0

        # Plain attributes mirrored into metrics, so the bench harness
        # can report them without scraping a registry.
        self.bytes_written = 0
        self.flush_count = 0
        self.flush_seconds_total = 0.0
        self.last_flush_seconds = 0.0
        self.rows_downsampled = 0

        manifest = self.root / MANIFEST_NAME
        if manifest.exists():
            self._load_manifest(manifest)
        elif not create:
            raise TraceStoreError(
                f"{self.root} is not a trace store (no {MANIFEST_NAME})"
            )
        else:
            self.root.mkdir(parents=True, exist_ok=True)

        self._bind_metrics(
            registry if registry is not None else get_registry()
        )

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def _bind_metrics(self, registry: MetricRegistry) -> None:
        store = self.root.name or "store"
        self._m_rows = registry.counter(
            MetricName.TRACESTORE_ROWS_TOTAL,
            "Trace rows appended to the columnar store.", ("store",)
        ).labels(store=store)
        self._m_segments = registry.counter(
            MetricName.TRACESTORE_SEGMENTS_TOTAL,
            "Columnar segments sealed to disk.", ("store",)
        ).labels(store=store)
        self._m_bytes = registry.counter(
            MetricName.TRACESTORE_BYTES_WRITTEN_TOTAL,
            "Bytes written to sealed segments.", ("store",)
        ).labels(store=store)
        self._m_flush = registry.histogram(
            MetricName.TRACESTORE_FLUSH_SECONDS,
            "Wall seconds per segment flush.", ("store",)
        ).labels(store=store)
        self._g_buffer = registry.gauge(
            MetricName.TRACESTORE_BUFFER_ROWS,
            "Rows currently waiting in the write buffer.", ("store",)
        ).labels(store=store)
        self._m_downsampled = registry.counter(
            MetricName.TRACESTORE_ROWS_DOWNSAMPLED_TOTAL,
            "Raw rows merged away by downsampling.", ("store",)
        ).labels(store=store)
        self._m_blocks = registry.counter(
            MetricName.TRACESTORE_BLOCKS_TOTAL,
            "Telemetry blocks ingested via the zero-copy column path.",
            ("store",)
        ).labels(store=store)
        self._m_block_rows = registry.counter(
            MetricName.TRACESTORE_BLOCK_ROWS_TOTAL,
            "Rows ingested via the zero-copy column path.", ("store",)
        ).labels(store=store)

    @property
    def _is_owner(self) -> bool:
        """True in the process that owns the files (see module doc)."""
        return os.getpid() == self._owner_pid

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------

    def _load_manifest(self, path: Path) -> None:
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise TraceStoreError(f"{path}: unreadable manifest: {exc}") from exc
        if not isinstance(data, dict):
            raise TraceStoreError(f"{path}: manifest is not a JSON object")
        version = data.get("version")
        if version != FORMAT_VERSION:
            raise TraceStoreError(
                f"{path}: manifest version {version!r}, "
                f"this build reads version {FORMAT_VERSION}"
            )
        try:
            thresholds = data["thresholds"]
            self.bins = (
                AgeBins(tuple(int(t) for t in thresholds))
                if thresholds is not None
                else None
            )
            self.interval_seconds = int(data["interval_seconds"])
            self.window_seconds = int(data["window_seconds"])
            self._jobs = [str(j) for j in data["jobs"]]
            self._machines = [str(m) for m in data["machines"]]
            self._job_sealed_rows = [int(n) for n in data["job_rows"]]
            self._job_last_time = [int(t) for t in data["job_last_time"]]
            self._next_segment_id = int(data["next_segment_id"])
            self.segments = [
                SegmentInfo.from_dict(seg) for seg in data["segments"]
            ]
            self._windows = {
                w.start: w
                for w in (
                    WindowSummary.from_dict(item) for item in data["windows"]
                )
            }
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceStoreError(
                f"{path}: manifest missing or malformed field: {exc}"
            ) from exc
        if len(self._job_sealed_rows) != len(self._jobs) or len(
            self._job_last_time
        ) != len(self._jobs):
            raise TraceStoreError(
                f"{path}: job tables disagree on length"
            )
        self._job_index = {j: i for i, j in enumerate(self._jobs)}
        self._machine_index = {m: i for i, m in enumerate(self._machines)}
        self.rows_total = sum(seg.rows for seg in self.segments)

    def _write_manifest(self) -> None:
        data = {
            "version": FORMAT_VERSION,
            "thresholds": (
                list(self.bins.thresholds) if self.bins is not None else None
            ),
            "interval_seconds": self.interval_seconds,
            "window_seconds": self.window_seconds,
            "jobs": self._jobs,
            "machines": self._machines,
            "job_rows": self._job_sealed_rows,
            "job_last_time": self._job_last_time,
            "next_segment_id": self._next_segment_id,
            "segments": [seg.to_dict() for seg in self.segments],
            "windows": [
                self._windows[start].to_dict()
                for start in sorted(self._windows)
            ],
        }
        _atomic_write_text(
            self.root / MANIFEST_NAME, json.dumps(data, indent=1) + "\n"
        )

    # ------------------------------------------------------------------
    # Append path
    # ------------------------------------------------------------------

    @property
    def jobs(self) -> List[str]:
        """Job ids in first-seen order."""
        return list(self._jobs)

    @property
    def machines(self) -> List[str]:
        """Machine ids in first-seen order."""
        return list(self._machines)

    def job_rows(self, job_id: str) -> int:
        """Rows currently stored for one job (sealed + buffered)."""
        ordinal = self._job_index.get(job_id)
        if ordinal is None:
            return 0
        sealed = self._job_sealed_rows[ordinal]
        buffered = sum(1 for j in self._buffer["job"] if j == ordinal)
        for chunk in self._chunks:
            buffered += int(np.count_nonzero(chunk["job"] == ordinal))
        return sealed + buffered

    def _intern_job(self, job_id: str) -> int:
        ordinal = self._job_index.get(job_id)
        if ordinal is None:
            ordinal = len(self._jobs)
            self._jobs.append(job_id)
            self._job_index[job_id] = ordinal
            self._job_sealed_rows.append(0)
            self._job_last_time.append(-1)
        return ordinal

    def _intern_machine(self, machine_id: str) -> int:
        ordinal = self._machine_index.get(machine_id)
        if ordinal is None:
            ordinal = len(self._machines)
            self._machines.append(machine_id)
            self._machine_index[machine_id] = ordinal
        return ordinal

    #: Bound on distinct interning LUTs kept; a churny fleet cycles many
    #: table shapes, and dropping the cache only costs a re-intern pass.
    _LUT_CACHE_MAX = 1024

    def _cache_lut(self, key: Tuple[str, Tuple[str, ...]],
                   lut: np.ndarray) -> None:
        if len(self._lut_cache) >= self._LUT_CACHE_MAX:
            self._lut_cache.clear()
        self._lut_cache[key] = lut

    def append(self, entry: TraceEntry) -> None:
        """Buffer one entry; seals a segment at the row threshold.

        Raises:
            TraceError: on a threshold-grid mismatch or an out-of-order
                entry for its job — the same contracts
                :class:`~repro.model.trace.JobTrace` enforces.
        """
        if self.bins is None:
            self.bins = entry.bins
        elif entry.bins.thresholds != self.bins.thresholds:
            raise TraceError(
                f"entry for job {entry.job_id} uses threshold grid "
                f"{list(entry.bins.thresholds)}, store is fixed to "
                f"{list(self.bins.thresholds)}"
            )
        job = self._intern_job(entry.job_id)
        if entry.time < self._job_last_time[job]:
            raise TraceError(
                f"out-of-order trace entry for job {entry.job_id} at "
                f"t={entry.time} after t={self._job_last_time[job]}"
            )
        self._job_last_time[job] = entry.time

        buf = self._buffer
        buf["time"].append(int(entry.time))
        buf["job"].append(job)
        buf["machine"].append(self._intern_machine(entry.machine_id))
        buf["working_set_pages"].append(int(entry.working_set_pages))
        buf["resident_pages"].append(int(entry.resident_pages))
        buf["cpu_cores"].append(float(entry.cpu_cores))
        buf["promotion_counts"].append(
            entry.promotion_histogram.counts.copy()
        )
        buf["promotion_young"].append(
            int(entry.promotion_histogram.young_count)
        )
        buf["cold_counts"].append(entry.cold_age_histogram.counts.copy())
        buf["cold_young"].append(int(entry.cold_age_histogram.young_count))

        self._observe_window(entry, job)
        self.rows_total += 1
        if self._is_owner:
            self._m_rows.inc()
            self._g_buffer.set(self._pending_rows)
        if self._pending_rows >= self.buffer_rows:
            self.flush()

    def append_batch(self, entries: Sequence[TraceEntry]) -> None:
        """Buffer a whole export window of entries as one column chunk.

        The batch half of the sink protocol: instead of per-entry list
        appends, the window's entries become numpy column arrays
        immediately and travel to the sealed segment as a single chunk.
        The columnar kernel's telemetry path uses this to ship each
        machine's 5-minute window in one call.  Store contents are
        identical to calling :meth:`append` once per entry, in order.

        Raises:
            TraceError: same contracts as :meth:`append` (threshold-grid
                match, per-job monotonic time).  The batch is rejected
                whole — on error nothing is appended.
        """
        if not entries:
            return
        if self.bins is None:
            self.bins = entries[0].bins
        # Validate the full batch before touching any store state, so a
        # bad batch cannot leave rows half-appended.
        watermark: Dict[str, int] = {}
        for entry in entries:
            if entry.bins.thresholds != self.bins.thresholds:
                raise TraceError(
                    f"entry for job {entry.job_id} uses threshold grid "
                    f"{list(entry.bins.thresholds)}, store is fixed to "
                    f"{list(self.bins.thresholds)}"
                )
            prev = watermark.get(entry.job_id)
            if prev is None:
                ordinal = self._job_index.get(entry.job_id)
                if ordinal is not None:
                    prev = self._job_last_time[ordinal]
            if prev is not None and entry.time < prev:
                raise TraceError(
                    f"out-of-order trace entry for job {entry.job_id} at "
                    f"t={entry.time} after t={prev}"
                )
            watermark[entry.job_id] = entry.time

        n = len(entries)
        jobs = np.empty(n, dtype=np.int64)
        machines = np.empty(n, dtype=np.int64)
        for i, entry in enumerate(entries):
            job = self._intern_job(entry.job_id)
            jobs[i] = job
            machines[i] = self._intern_machine(entry.machine_id)
            self._job_last_time[job] = entry.time
        chunk = {
            "time": np.fromiter(
                (e.time for e in entries), dtype=np.int64, count=n),
            "job": jobs,
            "machine": machines,
            "working_set_pages": np.fromiter(
                (e.working_set_pages for e in entries),
                dtype=np.int64, count=n),
            "resident_pages": np.fromiter(
                (e.resident_pages for e in entries),
                dtype=np.int64, count=n),
            "promotion_young": np.fromiter(
                (e.promotion_histogram.young_count for e in entries),
                dtype=np.int64, count=n),
            "cold_young": np.fromiter(
                (e.cold_age_histogram.young_count for e in entries),
                dtype=np.int64, count=n),
            "cpu_cores": np.fromiter(
                (e.cpu_cores for e in entries), dtype=np.float64, count=n),
            # np.stack copies, so the chunk never aliases live kernel
            # histograms.
            "promotion_counts": np.stack(
                [e.promotion_histogram.counts for e in entries]
            ).astype(np.int64),
            "cold_counts": np.stack(
                [e.cold_age_histogram.counts for e in entries]
            ).astype(np.int64),
        }
        self._commit_chunk(chunk)

    def append_columns(self, block: TelemetryBlock) -> None:
        """Zero-copy ingest of one :class:`TelemetryBlock`.

        The fast half of the sink protocol: the block's arrays become the
        pending chunk directly — only the job/machine ordinal columns are
        rewritten through the store's interning tables; the scalar and
        histogram columns travel to the sealed segment untouched, and no
        :class:`~repro.model.trace.TraceEntry` is ever constructed.
        Store contents are identical to calling :meth:`append` once per
        row of ``block.entries()``, in row order.

        Raises:
            TraceError: same contracts as :meth:`append` — schema/dtype
                validity (always enforced, not only under
                ``REPRO_CHECKS``), threshold-grid match, and per-job
                monotonic time.  The block is rejected whole: on error
                nothing is appended and no metric moves.
        """
        n = block.n_rows
        if n == 0:
            return
        # Hard schema gate: a malformed column must never reach a
        # segment, so validation is unconditional on this path (the
        # per-entry path gets the same guarantee from TraceEntry's
        # constructor normalizing field by field).
        block.validate()
        if self.bins is None:
            self.bins = block.bins
        elif block.bins.thresholds != self.bins.thresholds:
            raise TraceError(
                f"block for jobs {block.job_table[:3]} uses threshold "
                f"grid {list(block.bins.thresholds)}, store is fixed to "
                f"{list(self.bins.thresholds)}"
            )
        # Interning LUTs: exporters rebuild the same job/machine tables
        # window after window, so look the tuples up in the cache before
        # falling back to the per-id interning loop.  A cache hit means
        # every id is already interned, so watermark lookups need no
        # unknown-job sentinel.
        job_key = ("job", tuple(block.job_table))
        job_lut = self._lut_cache.get(job_key)
        last_times = self._job_last_time
        if (
            job_lut is not None
            and n == job_lut.size
            and np.array_equal(block.job, _identity_ordinals(n))
        ):
            # Identity fast path: the canonical exporter block carries
            # each job exactly once with ``job == arange(n)``, so
            # within-block order is trivially monotonic and the only
            # check left is the stored per-job watermark — two short
            # loops over the tiny table instead of the argsort below.
            times = block.time.tolist()
            ordinals = job_lut.tolist()
            for i, ordinal in enumerate(ordinals):
                if times[i] < last_times[ordinal]:
                    raise TraceError(
                        f"out-of-order trace entry for job "
                        f"{block.job_table[i]} at t={times[i]} after "
                        f"t={last_times[ordinal]}"
                    )
            for i, ordinal in enumerate(ordinals):
                last_times[ordinal] = times[i]
            job_col = job_lut.copy()
            time_range = (min(times), max(times))
        else:
            time_range = None
            # Validate per-job monotonic time before touching store
            # state, so a bad block cannot leave rows half-appended.  A
            # stable sort by job keeps row order within each job,
            # turning the per-job check into one vectorized diff.
            order = np.argsort(block.job, kind="stable")
            j_sorted = block.job[order]
            t_sorted = block.time[order]
            same = j_sorted[1:] == j_sorted[:-1]
            bad = same & (np.diff(t_sorted) < 0)
            if np.any(bad):
                at = int(np.flatnonzero(bad)[0])
                raise TraceError(
                    f"out-of-order trace entry for job "
                    f"{block.job_table[int(j_sorted[at + 1])]} at "
                    f"t={int(t_sorted[at + 1])} after t={int(t_sorted[at])}"
                )
            group_start = np.flatnonzero(
                np.concatenate([np.ones(1, dtype=bool), ~same])
            )
            if job_lut is not None:
                stored_last = np.fromiter(
                    (last_times[o] for o in job_lut.tolist()),
                    np.int64, job_lut.size,
                )
            else:
                floor = np.iinfo(np.int64).min
                stored_last = np.fromiter(
                    (
                        last_times[self._job_index[job_id]]
                        if job_id in self._job_index else floor
                        for job_id in block.job_table
                    ),
                    np.int64, len(block.job_table),
                )
            first_time = t_sorted[group_start]
            first_job = j_sorted[group_start]
            late = first_time < stored_last[first_job]
            if np.any(late):
                at = int(np.flatnonzero(late)[0])
                local = int(first_job[at])
                raise TraceError(
                    f"out-of-order trace entry for job "
                    f"{block.job_table[local]} at t={int(first_time[at])} "
                    f"after t={int(stored_last[local])}"
                )

            # All checks passed — intern tables, advance watermarks (the
            # last row of each stable-sorted group is the job's last row
            # in append order).  Interning happens only after validation
            # so a rejected block cannot grow the manifest tables.
            if job_lut is None:
                job_lut = np.fromiter(
                    (self._intern_job(job_id) for job_id in block.job_table),
                    np.int64, len(block.job_table),
                )
                self._cache_lut(job_key, job_lut)
            group_end = np.concatenate([group_start[1:], [n]]) - 1
            for local, last_time in zip(
                j_sorted[group_end], t_sorted[group_end]
            ):
                last_times[int(job_lut[int(local)])] = int(last_time)
            job_col = job_lut[block.job]
        machine_key = ("machine", tuple(block.machine_table))
        machine_lut = self._lut_cache.get(machine_key)
        if machine_lut is None:
            machine_lut = np.fromiter(
                (self._intern_machine(m) for m in block.machine_table),
                np.int64, len(block.machine_table),
            )
            self._cache_lut(machine_key, machine_lut)
        self._commit_chunk({
            "time": block.time,
            "job": job_col,
            "machine": machine_lut[block.machine],
            "working_set_pages": block.working_set_pages,
            "resident_pages": block.resident_pages,
            "promotion_young": block.promotion_young,
            "cold_young": block.cold_young,
            "cpu_cores": block.cpu_cores,
            "promotion_counts": block.promotion_counts,
            "cold_counts": block.cold_counts,
        }, time_range)
        if self._is_owner:
            self._m_blocks.inc()
            self._m_block_rows.inc(n)

    def _commit_chunk(
        self,
        chunk: Dict[str, np.ndarray],
        time_range: Optional[Tuple[int, int]] = None,
    ) -> None:
        """Stage one validated column chunk: fold the row buffer ahead of
        it (append order must hold across mixed per-entry/batch/block
        use), update window aggregates, count rows, maybe seal.  Callers
        that already know the chunk's (min, max) time pass it as
        ``time_range`` to skip two reductions."""
        if self._buffer["time"]:
            sealed = self._buffer_arrays()
            self._chunks.append(sealed)
            self._chunk_rows += int(sealed["time"].size)
            for column in self._buffer.values():
                column.clear()

        n = int(chunk["time"].size)
        jobs = chunk["job"]
        if time_range is None:
            time_range = (int(chunk["time"].min()), int(chunk["time"].max()))
        first = time_range[0] // self.window_seconds * self.window_seconds
        if time_range[1] < first + self.window_seconds:
            # Fast path: an export window's rows share one summary
            # window, so skip the per-window selection masks entirely.
            window = self._windows.get(first)
            if window is None:
                window = WindowSummary(start=first)
                self._windows[first] = window
            window.rows += n
            window.job_ordinals.update(jobs.tolist())
            window.working_set_pages += int(chunk["working_set_pages"].sum())
            window.cold_pages += int(chunk["cold_counts"].sum())
            window.promoted_pages += int(chunk["promotion_counts"].sum())
        else:
            starts = (
                chunk["time"] // self.window_seconds
            ) * self.window_seconds
            for start in np.unique(starts):
                window = self._windows.get(int(start))
                if window is None:
                    window = WindowSummary(start=int(start))
                    self._windows[int(start)] = window
                sel = starts == start
                window.rows += int(np.count_nonzero(sel))
                window.job_ordinals.update(jobs[sel].tolist())
                window.working_set_pages += int(
                    chunk["working_set_pages"][sel].sum())
                window.cold_pages += int(chunk["cold_counts"][sel].sum())
                window.promoted_pages += int(
                    chunk["promotion_counts"][sel].sum())

        self._chunks.append(chunk)
        self._chunk_rows += n
        self.rows_total += n
        if self._is_owner:
            self._m_rows.inc(n)
            self._g_buffer.set(self._pending_rows)
        if self._pending_rows >= self.buffer_rows:
            self.flush()

    def _observe_window(self, entry: TraceEntry, job: int) -> None:
        start = (entry.time // self.window_seconds) * self.window_seconds
        window = self._windows.get(start)
        if window is None:
            window = WindowSummary(start=start)
            self._windows[start] = window
        window.rows += 1
        window.job_ordinals.add(job)
        window.working_set_pages += int(entry.working_set_pages)
        window.cold_pages += int(entry.cold_age_histogram.counts.sum())
        window.promoted_pages += int(entry.promotion_histogram.counts.sum())

    def flush(self) -> int:
        """Seal the buffer into a segment; returns rows sealed.

        A forked copy of the store (in the parallel engine's workers)
        never writes: the buffer simply keeps accumulating in memory.
        """
        n = self._pending_rows
        if n == 0 or not self._is_owner:
            return 0
        with Stopwatch() as watch:
            arrays = self._pending_arrays()
            name = f"seg-{self._next_segment_id:06d}.npz"
            path = self.root / name
            tmp = self.root / f".{name}.tmp"
            with tmp.open("wb") as fh:
                np.savez(fh, **arrays)
            os.replace(tmp, path)
            info = SegmentInfo(
                name=name,
                rows=n,
                time_min=int(arrays["time"].min()),
                time_max=int(arrays["time"].max()),
                bytes=path.stat().st_size,
                downsample=1,
            )
            self.segments.append(info)
            self._next_segment_id += 1
            counts = np.bincount(
                arrays["job"], minlength=len(self._jobs)
            )
            for ordinal, count in enumerate(counts):
                self._job_sealed_rows[ordinal] += int(count)
            for column in self._buffer.values():
                column.clear()
            self._chunks.clear()
            self._chunk_rows = 0
            self._write_manifest()
        self.bytes_written += info.bytes
        self.flush_count += 1
        self.last_flush_seconds = watch.seconds
        self.flush_seconds_total += watch.seconds
        self._m_segments.inc()
        self._m_bytes.inc(info.bytes)
        self._m_flush.observe(watch.seconds)
        self._g_buffer.set(0)
        return n

    def close(self) -> None:
        """Flush any buffered rows (owner process only)."""
        self.flush()

    def __enter__(self) -> "TraceStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    @property
    def _pending_rows(self) -> int:
        """Rows awaiting the next seal (chunks plus the row buffer)."""
        return self._chunk_rows + len(self._buffer["time"])

    def _pending_arrays(self) -> Optional[Dict[str, np.ndarray]]:
        """Everything unsealed as one column dict, in append order
        (chunks always precede the live row buffer); None when empty."""
        parts: List[Dict[str, np.ndarray]] = list(self._chunks)
        if self._buffer["time"]:
            parts.append(self._buffer_arrays())
        if not parts:
            return None
        if len(parts) == 1:
            return dict(parts[0])
        return {
            name: np.concatenate([p[name] for p in parts])
            for name in COLUMNS
        }

    def _buffer_arrays(self) -> Dict[str, np.ndarray]:
        buf = self._buffer
        bins = len(self.bins) if self.bins is not None else 0
        arrays: Dict[str, np.ndarray] = {}
        for name in _INT_COLUMNS:
            arrays[name] = np.asarray(buf[name], dtype=np.int64)
        for name in _FLOAT_COLUMNS:
            arrays[name] = np.asarray(buf[name], dtype=np.float64)
        for name in _MATRIX_COLUMNS:
            if buf[name]:
                arrays[name] = np.stack(buf[name]).astype(np.int64)
            else:
                arrays[name] = np.zeros((0, bins), dtype=np.int64)
        return arrays

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------

    def _open_segment(self, info: SegmentInfo):
        path = self.root / info.name
        try:
            return np.load(path)
        except (OSError, ValueError) as exc:
            raise TraceStoreError(
                f"{path}: unreadable segment (manifest lists {info.rows} "
                f"rows): {exc}"
            ) from exc

    def _iter_column_sources(self):
        """Sealed segment arrays in order, then unsealed chunks and the
        live row buffer."""
        for info in self.segments:
            with self._open_segment(info) as seg:
                yield {name: seg[name] for name in COLUMNS}
        yield from self._chunks
        if self._buffer["time"]:
            yield self._buffer_arrays()

    def job_columns(self, job_id: str) -> Dict[str, np.ndarray]:
        """One job's rows, concatenated across segments and the buffer.

        Raises:
            TraceError: if the job is unknown.
        """
        ordinal = self._job_index.get(job_id)
        if ordinal is None:
            raise TraceError(f"no trace recorded for job {job_id}")
        chunks: List[Dict[str, np.ndarray]] = []
        for cols in self._iter_column_sources():
            idx = np.flatnonzero(cols["job"] == ordinal)
            if idx.size:
                chunks.append({name: cols[name][idx] for name in COLUMNS})
        if not chunks:
            bins = len(self.bins) if self.bins is not None else 0
            out: Dict[str, np.ndarray] = {}
            for name in _INT_COLUMNS:
                out[name] = np.zeros(0, dtype=np.int64)
            for name in _FLOAT_COLUMNS:
                out[name] = np.zeros(0, dtype=np.float64)
            for name in _MATRIX_COLUMNS:
                out[name] = np.zeros((0, bins), dtype=np.int64)
            return out
        return {
            name: np.concatenate([c[name] for c in chunks])
            for name in COLUMNS
        }

    def _entry_from_columns(
        self, cols: Dict[str, np.ndarray], i: int
    ) -> TraceEntry:
        assert self.bins is not None
        promo = AgeHistogram(self.bins)
        promo.counts = np.array(cols["promotion_counts"][i], dtype=np.int64)
        promo.young_count = int(cols["promotion_young"][i])
        cold = AgeHistogram(self.bins)
        cold.counts = np.array(cols["cold_counts"][i], dtype=np.int64)
        cold.young_count = int(cols["cold_young"][i])
        return TraceEntry(
            job_id=self._jobs[int(cols["job"][i])],
            machine_id=self._machines[int(cols["machine"][i])],
            time=int(cols["time"][i]),
            working_set_pages=int(cols["working_set_pages"][i]),
            promotion_histogram=promo,
            cold_age_histogram=cold,
            resident_pages=int(cols["resident_pages"][i]),
            cpu_cores=float(cols["cpu_cores"][i]),
        )

    def entries_for(self, job_id: str, start: int = 0) -> List[TraceEntry]:
        """Materialize one job's entries from row ``start`` on.

        When every requested row still sits in the write buffer, no
        segment is opened at all.

        Raises:
            TraceError: if the job is unknown.
        """
        ordinal = self._job_index.get(job_id)
        if ordinal is None:
            raise TraceError(f"no trace recorded for job {job_id}")
        if start >= self._job_sealed_rows[ordinal]:
            # Fast path: only unsealed rows are needed.
            skip = start - self._job_sealed_rows[ordinal]
            cols = self._pending_arrays()
            if cols is None:
                return []
            idx = np.flatnonzero(cols["job"] == ordinal)[skip:]
            return [self._entry_from_columns(cols, int(i)) for i in idx]
        cols = self.job_columns(job_id)
        return [
            self._entry_from_columns(cols, i)
            for i in range(start, cols["time"].size)
        ]

    def downsample_factor(self) -> int:
        """The store-wide downsampling factor.

        Raises:
            TraceStoreError: when segments mix factors (compile needs a
                uniform interval; re-run ``compact`` over the whole
                store to restore uniformity).
        """
        factors = {seg.downsample for seg in self.segments if seg.rows}
        if self._pending_rows:
            factors.add(1)
        if not factors:
            return 1
        if len(factors) > 1:
            raise TraceStoreError(
                f"segments mix downsample factors {sorted(factors)}; "
                f"compact the whole store to a single factor first"
            )
        return factors.pop()

    def compiled_traces(
        self,
        start: Optional[int] = None,
        end: Optional[int] = None,
    ) -> List[CompiledTrace]:
        """Compile every job's columns into replay tensors directly.

        One pass over the segments; no :class:`TraceEntry` objects are
        materialized.  Results are bit-identical to materializing each
        job and calling :meth:`~repro.model.trace.JobTrace.compile`
        (``CompiledTrace.from_columns`` is proven against
        ``from_trace``), and jobs come back sorted by ``job_id``.  Intern
        order depends on which engine fed the store, and the fast model's
        fleet sums depend on the order of their terms, so a fixed order
        keeps replay reports identical across engines.

        Args:
            start: include rows with ``time >= start`` (None = all).
            end: include rows with ``time < end`` (None = all).
        """
        factor = self.downsample_factor()
        interval = self.interval_seconds * factor
        per_job: List[List[Dict[str, np.ndarray]]] = [
            [] for _ in self._jobs
        ]
        for cols in self._iter_column_sources():
            times = cols["time"]
            mask = np.ones(times.shape, dtype=bool)
            if start is not None:
                mask &= times >= start
            if end is not None:
                mask &= times < end
            if not mask.any():
                continue
            jobs_col = cols["job"]
            for ordinal in np.unique(jobs_col[mask]):
                idx = np.flatnonzero(mask & (jobs_col == ordinal))
                per_job[int(ordinal)].append(
                    {name: cols[name][idx] for name in COLUMNS}
                )
        compiled = []
        for job_id, chunks in sorted(zip(self._jobs, per_job),
                                     key=lambda pair: pair[0]):
            if not chunks:
                continue
            merged = {
                name: np.concatenate([c[name] for c in chunks])
                for name in COLUMNS
            }
            compiled.append(
                CompiledTrace.from_columns(
                    job_id=job_id,
                    bins=self.bins,
                    cold_counts=merged["cold_counts"],
                    promotion_counts=merged["promotion_counts"],
                    working_set_pages=merged["working_set_pages"],
                    times=merged["time"],
                    resident_pages=merged["resident_pages"],
                    cpu_cores=merged["cpu_cores"],
                    interval_seconds=interval,
                )
            )
        return compiled

    def window_summaries(self) -> List[WindowSummary]:
        """The incremental per-window aggregates, oldest first."""
        return [self._windows[start] for start in sorted(self._windows)]

    @property
    def time_range(self) -> Optional[tuple]:
        """(earliest, latest) entry time stored, or None when empty."""
        lows = [seg.time_min for seg in self.segments if seg.rows]
        highs = [seg.time_max for seg in self.segments if seg.rows]
        if self._buffer["time"]:
            lows.append(min(self._buffer["time"]))
            highs.append(max(self._buffer["time"]))
        for chunk in self._chunks:
            lows.append(int(chunk["time"].min()))
            highs.append(int(chunk["time"].max()))
        if not lows:
            return None
        return (min(lows), max(highs))

    # ------------------------------------------------------------------
    # Downsampling
    # ------------------------------------------------------------------

    def compact(self, factor: int, before: Optional[int] = None) -> int:
        """Downsample raw segments in place; returns rows merged away.

        Each output row merges ``factor`` consecutive raw rows of one
        job: promotion counts accumulate (they are per-period deltas),
        the cold-age histogram keeps the last snapshot (it is a
        point-in-time state), the working set takes the group maximum
        (conservative), and the row keeps the group's first timestamp.
        Window aggregates are untouched — they were folded in at append
        time, which is exactly why aggregation is incremental.

        Args:
            factor: raw rows per output row (>= 2 to change anything).
            before: only downsample segments whose newest row is older
                than this time (None = all sealed segments).

        Raises:
            TraceStoreError: when called from a forked (non-owner) copy.
        """
        check_positive(factor, "factor")
        if not self._is_owner:
            raise TraceStoreError(
                "compact() from a forked copy would corrupt the owner's "
                "files"
            )
        self.flush()
        if factor == 1:
            return 0
        removed = 0
        for index, info in enumerate(self.segments):
            if info.downsample != 1 or info.rows == 0:
                continue
            if before is not None and info.time_max >= before:
                continue
            with self._open_segment(info) as seg:
                cols = {name: seg[name] for name in COLUMNS}
            new_cols = _downsample_columns(cols, factor)
            name = f"seg-{self._next_segment_id:06d}.npz"
            self._next_segment_id += 1
            path = self.root / name
            tmp = self.root / f".{name}.tmp"
            with tmp.open("wb") as fh:
                np.savez(fh, **new_cols)
            os.replace(tmp, path)
            (self.root / info.name).unlink()
            self.segments[index] = SegmentInfo(
                name=name,
                rows=int(new_cols["time"].size),
                time_min=int(new_cols["time"].min()),
                time_max=int(new_cols["time"].max()),
                bytes=path.stat().st_size,
                downsample=factor,
            )
            removed += info.rows - self.segments[index].rows
        if removed:
            # Sealed per-job row counts changed; rebuild from disk.
            sealed = np.zeros(len(self._jobs), dtype=np.int64)
            for info in self.segments:
                with self._open_segment(info) as seg:
                    sealed += np.bincount(
                        seg["job"], minlength=len(self._jobs)
                    )
            self._job_sealed_rows = [int(n) for n in sealed]
            self.rows_total -= removed
            self.rows_downsampled += removed
            self._m_downsampled.inc(removed)
        self._write_manifest()
        return removed


def _downsample_columns(
    cols: Dict[str, np.ndarray], factor: int
) -> Dict[str, np.ndarray]:
    """Merge groups of ``factor`` consecutive rows per job (see
    :meth:`TraceStore.compact` for the per-column policy)."""
    jobs_col = cols["job"]
    out: Dict[str, List] = {name: [] for name in COLUMNS}
    # First-appearance job order; the final sort canonicalizes anyway.
    seen = dict.fromkeys(jobs_col.tolist())
    for ordinal in seen:
        idx = np.flatnonzero(jobs_col == ordinal)
        for g in range(0, idx.size, factor):
            grp = idx[g:g + factor]
            first, last = int(grp[0]), int(grp[-1])
            out["time"].append(int(cols["time"][first]))
            out["job"].append(int(ordinal))
            out["machine"].append(int(cols["machine"][last]))
            out["working_set_pages"].append(
                int(cols["working_set_pages"][grp].max())
            )
            out["resident_pages"].append(int(cols["resident_pages"][last]))
            out["cpu_cores"].append(float(cols["cpu_cores"][grp].mean()))
            out["promotion_counts"].append(
                cols["promotion_counts"][grp].sum(axis=0)
            )
            out["promotion_young"].append(
                int(cols["promotion_young"][grp].sum())
            )
            out["cold_counts"].append(np.array(cols["cold_counts"][last]))
            out["cold_young"].append(int(cols["cold_young"][last]))
    arrays: Dict[str, np.ndarray] = {}
    for name in _INT_COLUMNS:
        arrays[name] = np.asarray(out[name], dtype=np.int64)
    for name in _FLOAT_COLUMNS:
        arrays[name] = np.asarray(out[name], dtype=np.float64)
    for name in _MATRIX_COLUMNS:
        arrays[name] = (
            np.stack(out[name]).astype(np.int64)
            if out[name]
            else np.zeros((0, cols[name].shape[1]), dtype=np.int64)
        )
    order = np.lexsort((arrays["job"], arrays["time"]))
    return {name: arrays[name][order] for name in COLUMNS}
