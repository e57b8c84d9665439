"""Far-memory trace schema (paper §5.3).

Each trace entry captures one job's far-memory statistics aggregated over a
5-minute period — exactly the triple the paper's telemetry exports:

* the **working set size** (pages touched within the minimum threshold),
* the **promotion histogram** accumulated over the period (would-be
  promotions at every candidate threshold),
* the **cold-age histogram** snapshot at the end of the period.

These entries are all the fast far memory model needs to replay the §4.3
control algorithm offline under any parameter configuration: the histograms
carry information about *all* candidate thresholds simultaneously.

Entries are plain data with dict/JSON round-tripping so traces can be
persisted to the external database (:mod:`repro.cluster.trace_db`) and
shipped to the autotuner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.checks.contracts import verify_column_contracts
from repro.checks.invariants import invariants_enabled
from repro.common.errors import TraceError
from repro.core.histograms import AgeBins, AgeHistogram

__all__ = [
    "TRACE_PERIOD_SECONDS",
    "TelemetryBlock",
    "TraceEntry",
    "JobTrace",
    "CompiledTrace",
    "suffix_columns",
]

#: Aggregation period of one trace entry (the paper uses 5 minutes).
TRACE_PERIOD_SECONDS = 300

#: The trace tensor layout promises.  Checked statically by the
#: CON001/CON002 flow rules against every visible constructor call, and
#: at runtime (under ``REPRO_CHECKS=1``) by ``__post_init__`` on every
#: construction path — ``from_trace``, ``from_columns``, ``from_entries``,
#: and direct instantiation alike.  Must stay a pure literal.
COLUMN_CONTRACTS = {
    "CompiledTrace.cold_suffix_sums": {"dtype": "int64", "ndim": 2},
    "CompiledTrace.promotion_suffix_sums": {"dtype": "int64", "ndim": 2},
    "CompiledTrace.working_set_pages": {"dtype": "int64", "ndim": 1},
    "CompiledTrace.times": {"dtype": "int64", "ndim": 1},
    "CompiledTrace.resident_pages": {"dtype": "int64", "ndim": 1},
    "CompiledTrace.cpu_cores": {"dtype": "float64", "ndim": 1},
    # The zero-copy telemetry block: one export window as dense columns.
    "TelemetryBlock.job": {"dtype": "int64", "ndim": 1},
    "TelemetryBlock.machine": {"dtype": "int64", "ndim": 1},
    "TelemetryBlock.time": {"dtype": "int64", "ndim": 1},
    "TelemetryBlock.working_set_pages": {"dtype": "int64", "ndim": 1},
    "TelemetryBlock.resident_pages": {"dtype": "int64", "ndim": 1},
    "TelemetryBlock.cpu_cores": {"dtype": "float64", "ndim": 1},
    "TelemetryBlock.promotion_counts": {"dtype": "int64", "ndim": 2},
    "TelemetryBlock.promotion_young": {"dtype": "int64", "ndim": 1},
    "TelemetryBlock.cold_counts": {"dtype": "int64", "ndim": 2},
    "TelemetryBlock.cold_young": {"dtype": "int64", "ndim": 1},
}

#: TelemetryBlock per-row columns by family — the validation tables the
#: block and the trace store share.
BLOCK_INT_COLUMNS = (
    "time",
    "job",
    "machine",
    "working_set_pages",
    "resident_pages",
    "promotion_young",
    "cold_young",
)
BLOCK_FLOAT_COLUMNS = ("cpu_cores",)
BLOCK_MATRIX_COLUMNS = ("promotion_counts", "cold_counts")

#: Precomputed (dtype, ndim) per block column.  ``validate`` runs on the
#: hot ingest path for every block, so dtype checks compare against
#: these dtype objects instead of building name strings each call.
_BLOCK_SCHEMA: Dict[str, Tuple[np.dtype, int]] = {
    **{name: (np.dtype(np.int64), 1) for name in BLOCK_INT_COLUMNS},
    **{name: (np.dtype(np.float64), 1) for name in BLOCK_FLOAT_COLUMNS},
    **{name: (np.dtype(np.int64), 2) for name in BLOCK_MATRIX_COLUMNS},
}


def _histogram_to_lists(histogram: AgeHistogram) -> Tuple[List[int], int]:
    return histogram.counts.tolist(), histogram.young_count


def _histogram_from_lists(
    bins: AgeBins, counts: Sequence[int], young: int
) -> AgeHistogram:
    histogram = AgeHistogram(bins)
    counts = np.asarray(counts, dtype=np.int64)
    if counts.shape != histogram.counts.shape:
        raise TraceError(
            f"histogram has {counts.size} bins, grid expects "
            f"{histogram.counts.size}"
        )
    histogram.counts = counts
    histogram.young_count = int(young)
    return histogram


@dataclass
class TraceEntry:
    """One job's 5-minute far-memory statistics.

    Attributes:
        job_id: the job this entry describes.
        machine_id: where the job was running.
        time: start of the aggregation period (seconds).
        working_set_pages: pages accessed within the minimum threshold.
        promotion_histogram: would-be promotions during this period, by age.
        cold_age_histogram: page-age snapshot at the end of the period.
        resident_pages: total resident pages (near + far).
        cpu_cores: the job's average CPU usage in cores (for overhead
            normalization in Fig. 8).
    """

    job_id: str
    machine_id: str
    time: int
    working_set_pages: int
    promotion_histogram: AgeHistogram
    cold_age_histogram: AgeHistogram
    resident_pages: int
    cpu_cores: float = 1.0

    def __post_init__(self) -> None:
        if self.promotion_histogram.bins.thresholds != (
            self.cold_age_histogram.bins.thresholds
        ):
            raise TraceError("trace histograms must share one threshold grid")
        if self.working_set_pages < 0 or self.resident_pages < 0:
            raise TraceError("page counts must be non-negative")

    @property
    def bins(self) -> AgeBins:
        """The candidate-threshold grid these histograms use."""
        return self.promotion_histogram.bins

    def to_dict(self) -> Dict[str, Any]:
        """Serialize to JSON-compatible primitives."""
        promo_counts, promo_young = _histogram_to_lists(self.promotion_histogram)
        cold_counts, cold_young = _histogram_to_lists(self.cold_age_histogram)
        return {
            "job_id": self.job_id,
            "machine_id": self.machine_id,
            "time": self.time,
            "working_set_pages": self.working_set_pages,
            "thresholds": list(self.bins.thresholds),
            "promotion_counts": promo_counts,
            "promotion_young": promo_young,
            "cold_counts": cold_counts,
            "cold_young": cold_young,
            "resident_pages": self.resident_pages,
            "cpu_cores": self.cpu_cores,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TraceEntry":
        """Inverse of :meth:`to_dict`."""
        try:
            bins = AgeBins(tuple(int(t) for t in data["thresholds"]))
            return cls(
                job_id=data["job_id"],
                machine_id=data["machine_id"],
                time=int(data["time"]),
                working_set_pages=int(data["working_set_pages"]),
                promotion_histogram=_histogram_from_lists(
                    bins, data["promotion_counts"], data["promotion_young"]
                ),
                cold_age_histogram=_histogram_from_lists(
                    bins, data["cold_counts"], data["cold_young"]
                ),
                resident_pages=int(data["resident_pages"]),
                cpu_cores=float(data.get("cpu_cores", 1.0)),
            )
        except KeyError as missing:
            raise TraceError(f"trace entry missing field {missing}") from None


@dataclass
class TelemetryBlock:
    """One telemetry export window as dense numpy columns (zero-copy unit).

    The columnar kernel materializes a block per export window straight
    from :class:`~repro.kernel.columnar.MachinePagePool` columns (one
    fancy-index gather per column), and the on-disk trace store ingests
    it via ``append_columns`` without ever constructing a
    :class:`TraceEntry`.  Job and machine ids are carried once each in
    small string tables; the per-row ``job``/``machine`` columns hold
    ordinals into those tables.

    Rows are one-per-(job, window); the histogram matrices are
    ``(rows, len(bins))`` over the shared candidate threshold grid,
    exactly the layout :mod:`repro.tracestore` segments persist.

    Attributes:
        bins: the candidate-threshold grid every row shares.
        job_table: distinct job ids, first-seen order.
        machine_table: distinct machine ids, first-seen order.
        job: per-row ordinals into ``job_table`` (int64).
        machine: per-row ordinals into ``machine_table`` (int64).
        time: period start times (int64).
        working_set_pages: working-set sizes (int64).
        resident_pages: resident page counts (int64).
        cpu_cores: average CPU cores (float64).
        promotion_counts: per-period promotion histogram counts.
        promotion_young: per-period promotion young counts (int64).
        cold_counts: cold-age snapshot counts.
        cold_young: cold-age young counts (int64).
    """

    bins: AgeBins
    job_table: List[str]
    machine_table: List[str]
    job: np.ndarray
    machine: np.ndarray
    time: np.ndarray
    working_set_pages: np.ndarray
    resident_pages: np.ndarray
    cpu_cores: np.ndarray
    promotion_counts: np.ndarray
    promotion_young: np.ndarray
    cold_counts: np.ndarray
    cold_young: np.ndarray

    def __post_init__(self) -> None:
        if invariants_enabled():
            verify_column_contracts(self, COLUMN_CONTRACTS, where="construct")
            self.validate()

    @property
    def n_rows(self) -> int:
        """Rows in the block."""
        return int(self.time.size)

    def validate(self) -> None:
        """Check dtypes, shapes, and ordinal ranges; raise a located error.

        The trace store calls this unconditionally before ingesting a
        block, so a dtype drift is rejected whole with the offending
        column named — never half-appended.

        Raises:
            TraceError: naming the first offending column.
        """
        n = int(np.asarray(self.time).size)
        for name, (dtype, ndim) in _BLOCK_SCHEMA.items():
            column = getattr(self, name)
            if not isinstance(column, np.ndarray):
                raise TraceError(
                    f"TelemetryBlock.{name}: expected ndarray, got "
                    f"{type(column).__name__}"
                )
            # Pointer comparison first: numpy interns builtin dtypes, so
            # the well-formed case never pays a dtype __eq__.
            if column.dtype is not dtype and column.dtype != dtype:
                raise TraceError(
                    f"TelemetryBlock.{name}: dtype {column.dtype}, "
                    f"expected {dtype}"
                )
            if column.ndim != ndim:
                raise TraceError(
                    f"TelemetryBlock.{name}: ndim {column.ndim}, "
                    f"expected {ndim}"
                )
            if column.shape[0] != n:
                raise TraceError(
                    f"TelemetryBlock.{name}: {column.shape[0]} rows, "
                    f"block has {n}"
                )
            if ndim == 2 and column.shape[1] != len(self.bins):
                raise TraceError(
                    f"TelemetryBlock.{name}: {column.shape[1]} bins, "
                    f"grid has {len(self.bins)}"
                )
        if n:
            for name, table in (
                ("job", self.job_table),
                ("machine", self.machine_table),
            ):
                column = getattr(self, name)
                if int(column.min()) < 0 or int(column.max()) >= len(table):
                    raise TraceError(
                        f"TelemetryBlock.{name}: ordinal out of range for "
                        f"a {len(table)}-entry table"
                    )
            if int(self.working_set_pages.min()) < 0 or int(
                self.resident_pages.min()
            ) < 0:
                raise TraceError(
                    "TelemetryBlock: page counts must be non-negative"
                )

    @classmethod
    def from_entries(cls, entries: Sequence[TraceEntry]) -> "TelemetryBlock":
        """Pack trace entries into a block (the object-path bridge).

        Used by the equivalence oracle and by mixed merges (e.g. a
        degraded engine shard that staged entries).  Row order is the
        entry order.

        Raises:
            TraceError: on an empty sequence or mixed threshold grids.
        """
        if not entries:
            raise TraceError("cannot build a TelemetryBlock from no entries")
        bins = entries[0].bins
        job_table: List[str] = []
        job_index: Dict[str, int] = {}
        machine_table: List[str] = []
        machine_index: Dict[str, int] = {}
        n = len(entries)
        jobs = np.empty(n, dtype=np.int64)
        machines = np.empty(n, dtype=np.int64)
        for i, entry in enumerate(entries):
            if entry.bins.thresholds != bins.thresholds:
                raise TraceError(
                    f"entry for job {entry.job_id} uses a different "
                    f"threshold grid; a block carries exactly one"
                )
            ordinal = job_index.get(entry.job_id)
            if ordinal is None:
                ordinal = len(job_table)
                job_index[entry.job_id] = ordinal
                job_table.append(entry.job_id)
            jobs[i] = ordinal
            ordinal = machine_index.get(entry.machine_id)
            if ordinal is None:
                ordinal = len(machine_table)
                machine_index[entry.machine_id] = ordinal
                machine_table.append(entry.machine_id)
            machines[i] = ordinal
        return cls(
            bins=bins,
            job_table=job_table,
            machine_table=machine_table,
            job=jobs,
            machine=machines,
            time=np.fromiter(
                (e.time for e in entries), dtype=np.int64, count=n),
            working_set_pages=np.fromiter(
                (e.working_set_pages for e in entries),
                dtype=np.int64, count=n),
            resident_pages=np.fromiter(
                (e.resident_pages for e in entries),
                dtype=np.int64, count=n),
            cpu_cores=np.fromiter(
                (e.cpu_cores for e in entries), dtype=np.float64, count=n),
            promotion_counts=np.stack(
                [e.promotion_histogram.counts for e in entries]
            ).astype(np.int64),
            promotion_young=np.fromiter(
                (e.promotion_histogram.young_count for e in entries),
                dtype=np.int64, count=n),
            cold_counts=np.stack(
                [e.cold_age_histogram.counts for e in entries]
            ).astype(np.int64),
            cold_young=np.fromiter(
                (e.cold_age_histogram.young_count for e in entries),
                dtype=np.int64, count=n),
        )

    def entries(self) -> List[TraceEntry]:
        """Materialize the rows as :class:`TraceEntry` objects, in order.

        The degraded path: the telemetry exporter spills a block this way
        when the sink rejects it, so the per-entry retry buffer replays
        exactly the rows the block carried.  Histogram rows are copied —
        the entries outlive the block.
        """
        out: List[TraceEntry] = []
        for i in range(self.n_rows):
            promo = AgeHistogram(self.bins)
            promo.counts = np.array(self.promotion_counts[i], dtype=np.int64)
            promo.young_count = int(self.promotion_young[i])
            cold = AgeHistogram(self.bins)
            cold.counts = np.array(self.cold_counts[i], dtype=np.int64)
            cold.young_count = int(self.cold_young[i])
            out.append(TraceEntry(
                job_id=self.job_table[int(self.job[i])],
                machine_id=self.machine_table[int(self.machine[i])],
                time=int(self.time[i]),
                working_set_pages=int(self.working_set_pages[i]),
                promotion_histogram=promo,
                cold_age_histogram=cold,
                resident_pages=int(self.resident_pages[i]),
                cpu_cores=float(self.cpu_cores[i]),
            ))
        return out

    @classmethod
    def concat(cls, blocks: Sequence["TelemetryBlock"]) -> "TelemetryBlock":
        """Concatenate blocks row-wise, merging the string tables.

        The parallel engine's per-tick merge concatenates per-shard block
        deltas in deterministic shard order; string tables merge
        first-seen, and ordinal columns are remapped through a lookup
        vector (no per-row Python work).

        Raises:
            TraceError: on an empty sequence or mixed threshold grids.
        """
        if not blocks:
            raise TraceError("cannot concatenate zero TelemetryBlocks")
        if len(blocks) == 1:
            return blocks[0]
        bins = blocks[0].bins
        job_table: List[str] = []
        job_index: Dict[str, int] = {}
        machine_table: List[str] = []
        machine_index: Dict[str, int] = {}
        job_cols: List[np.ndarray] = []
        machine_cols: List[np.ndarray] = []
        for block in blocks:
            if block.bins.thresholds != bins.thresholds:
                raise TraceError(
                    "cannot concatenate TelemetryBlocks with different "
                    "threshold grids"
                )
            for table, merged, index, col, out in (
                (block.job_table, job_table, job_index, block.job, job_cols),
                (block.machine_table, machine_table, machine_index,
                 block.machine, machine_cols),
            ):
                lut = np.empty(len(table), dtype=np.int64)
                for i, name in enumerate(table):
                    ordinal = index.get(name)
                    if ordinal is None:
                        ordinal = len(merged)
                        index[name] = ordinal
                        merged.append(name)
                    lut[i] = ordinal
                out.append(lut[col])
        merged_columns = {
            name: np.concatenate([getattr(b, name) for b in blocks])
            for name in (
                "time", "working_set_pages", "resident_pages", "cpu_cores",
                "promotion_counts", "promotion_young", "cold_counts",
                "cold_young",
            )
        }
        return cls(
            bins=bins,
            job_table=job_table,
            machine_table=machine_table,
            job=np.concatenate(job_cols),
            machine=np.concatenate(machine_cols),
            **merged_columns,
        )

    def sorted_by_time_job(self) -> "TelemetryBlock":
        """Rows stably re-ordered by ``(time, job_id)``, tables canonical.

        The same canonical cross-job order the parallel engine's entry
        merge uses (ties keep their current relative order, so per-shard
        per-job sequences survive intact).  The string tables are rebuilt
        in first-appearance order of the sorted rows — so a consumer that
        interns ids row by row (the trace store) assigns exactly the
        ordinals it would have assigned to the equivalent entry stream,
        regardless of how this block was assembled.
        """
        if self.n_rows == 0:
            return self
        names = np.asarray(self.job_table, dtype=np.str_)[self.job]
        order = np.lexsort((names, self.time))
        job_col = self.job[order]
        machine_col = self.machine[order]
        tables = {}
        for key, col, table in (
            ("job", job_col, self.job_table),
            ("machine", machine_col, self.machine_table),
        ):
            uniq, first_at = np.unique(col, return_index=True)
            seen_order = np.argsort(first_at, kind="stable")
            lut = np.empty(len(table), dtype=np.int64)
            lut[uniq[seen_order]] = np.arange(seen_order.size)
            tables[key] = (
                [table[int(uniq[i])] for i in seen_order],
                lut[col],
            )
        return TelemetryBlock(
            bins=self.bins,
            job_table=tables["job"][0],
            machine_table=tables["machine"][0],
            job=tables["job"][1],
            machine=tables["machine"][1],
            time=self.time[order],
            working_set_pages=self.working_set_pages[order],
            resident_pages=self.resident_pages[order],
            cpu_cores=self.cpu_cores[order],
            promotion_counts=self.promotion_counts[order],
            promotion_young=self.promotion_young[order],
            cold_counts=self.cold_counts[order],
            cold_young=self.cold_young[order],
        )


@dataclass
class JobTrace:
    """The time-ordered trace of one job (one replay unit).

    Attributes:
        job_id: the job identifier.
        entries: entries sorted by time.
    """

    job_id: str
    entries: List[TraceEntry] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[TraceEntry]:
        return iter(self.entries)

    def append(self, entry: TraceEntry) -> None:
        """Add an entry, enforcing job identity and time order."""
        if entry.job_id != self.job_id:
            raise TraceError(
                f"entry for job {entry.job_id} appended to trace of "
                f"{self.job_id}"
            )
        if self.entries and entry.time < self.entries[-1].time:
            raise TraceError(
                f"out-of-order trace entry at t={entry.time} after "
                f"t={self.entries[-1].time}"
            )
        self.entries.append(entry)

    @property
    def duration_seconds(self) -> int:
        """Span from first entry to one period past the last."""
        if not self.entries:
            return 0
        return (
            self.entries[-1].time - self.entries[0].time + TRACE_PERIOD_SECONDS
        )

    def to_dicts(self) -> List[Dict[str, Any]]:
        """Serialize all entries."""
        return [entry.to_dict() for entry in self.entries]

    @classmethod
    def from_dicts(cls, job_id: str, dicts: Sequence[Dict[str, Any]]) -> "JobTrace":
        """Rebuild a trace from serialized entries."""
        trace = cls(job_id)
        for data in dicts:
            trace.append(TraceEntry.from_dict(data))
        return trace

    def compile(self) -> "CompiledTrace":
        """Compile this trace into dense arrays for vectorized replay."""
        return CompiledTrace.from_trace(self)


@dataclass(frozen=True)
class CompiledTrace:
    """One job's trace as dense tensors (the vectorized-replay unit).

    Replaying a trace needs, per interval, only ``colder_than(T)`` lookups
    on the two histograms plus the working-set size — so a trace compiles
    once into per-interval suffix-sum matrices (``suffix[t, i]`` is the
    count with age >= ``bins.thresholds[i]`` during interval ``t``; column
    ``len(bins)`` is an explicit zero so a threshold beyond the grid
    indexes to zero, mirroring :meth:`AgeHistogram.colder_than`), a
    working-set vector, and interval metadata.  All fields are plain
    numpy arrays, so a compiled trace pickles cheaply and ships to
    MapReduce workers once per model instead of once per configuration.

    Attributes:
        job_id: the compiled job.
        bins: the candidate-threshold grid (None only for empty traces).
        cold_suffix_sums: ``(intervals, len(bins) + 1)`` int64 matrix of
            cold-age-histogram suffix sums.
        promotion_suffix_sums: same shape, for the promotion histograms.
        working_set_pages: ``(intervals,)`` int64 vector.
        times: ``(intervals,)`` int64 vector of period start times.
        resident_pages: ``(intervals,)`` int64 vector.
        cpu_cores: ``(intervals,)`` float vector (overhead normalization).
        interval_seconds: aggregation period of each interval.
    """

    job_id: str
    bins: Optional[AgeBins]
    cold_suffix_sums: np.ndarray
    promotion_suffix_sums: np.ndarray
    working_set_pages: np.ndarray
    times: np.ndarray
    resident_pages: np.ndarray
    cpu_cores: np.ndarray
    interval_seconds: int = TRACE_PERIOD_SECONDS

    def __post_init__(self) -> None:
        if invariants_enabled():
            verify_column_contracts(self, COLUMN_CONTRACTS, where="construct")

    @property
    def intervals(self) -> int:
        return int(self.working_set_pages.size)

    @classmethod
    def from_trace(cls, trace: JobTrace) -> "CompiledTrace":
        """Compile a :class:`JobTrace` (one pass; O(intervals * bins)).

        Raises:
            TraceError: if entries disagree on the threshold grid — the
                scalar replay would reject such a trace mid-flight, the
                compiler rejects it up front.
        """
        if not trace.entries:
            empty = np.zeros((0, 1), dtype=np.int64)
            vec = np.zeros(0, dtype=np.int64)
            return cls(
                job_id=trace.job_id,
                bins=None,
                cold_suffix_sums=empty,
                promotion_suffix_sums=empty.copy(),
                working_set_pages=vec,
                times=vec.copy(),
                resident_pages=vec.copy(),
                cpu_cores=np.zeros(0, dtype=float),
            )
        bins = trace.entries[0].bins
        for entry in trace.entries:
            if entry.bins.thresholds != bins.thresholds:
                raise TraceError(
                    f"trace {trace.job_id} mixes threshold grids; "
                    f"cannot compile"
                )
        cold_counts = np.stack(
            [entry.cold_age_histogram.counts for entry in trace.entries]
        )
        promo_counts = np.stack(
            [entry.promotion_histogram.counts for entry in trace.entries]
        )
        return cls(
            job_id=trace.job_id,
            bins=bins,
            cold_suffix_sums=_suffix_sum_matrix(cold_counts),
            promotion_suffix_sums=_suffix_sum_matrix(promo_counts),
            working_set_pages=np.asarray(
                [entry.working_set_pages for entry in trace.entries],
                dtype=np.int64,
            ),
            times=np.asarray(
                [entry.time for entry in trace.entries], dtype=np.int64
            ),
            resident_pages=np.asarray(
                [entry.resident_pages for entry in trace.entries],
                dtype=np.int64,
            ),
            cpu_cores=np.asarray(
                [entry.cpu_cores for entry in trace.entries], dtype=float
            ),
        )

    @classmethod
    def from_columns(
        cls,
        job_id: str,
        bins: Optional[AgeBins],
        cold_counts: np.ndarray,
        promotion_counts: np.ndarray,
        working_set_pages: np.ndarray,
        times: np.ndarray,
        resident_pages: np.ndarray,
        cpu_cores: np.ndarray,
        interval_seconds: int = TRACE_PERIOD_SECONDS,
    ) -> "CompiledTrace":
        """Compile straight from columnar arrays (no ``TraceEntry`` objects).

        The on-disk trace store (:mod:`repro.tracestore`) holds exactly
        these columns per segment; this constructor builds the suffix-sum
        tensors from them directly, bit-identical to routing the same
        rows through :meth:`from_trace` (which stays as the oracle — the
        equivalence is asserted in tier-1 tests).

        Args:
            job_id: the compiled job.
            bins: the threshold grid shared by every row (None only when
                ``times`` is empty).
            cold_counts: ``(intervals, len(bins))`` cold-age histogram
                counts, one row per interval, time-ascending.
            promotion_counts: same shape, promotion histogram counts.
            working_set_pages: ``(intervals,)`` working-set sizes.
            times: ``(intervals,)`` period start times, ascending.
            resident_pages: ``(intervals,)`` resident page counts.
            cpu_cores: ``(intervals,)`` CPU usage in cores.
            interval_seconds: aggregation period of each row (larger
                than the raw 5-minute period for downsampled stores).

        Raises:
            TraceError: on shape mismatches between the columns, or a
                missing grid for a non-empty trace.
        """
        times = np.asarray(times, dtype=np.int64)
        if times.size == 0:
            empty = np.zeros((0, 1), dtype=np.int64)
            vec = np.zeros(0, dtype=np.int64)
            return cls(
                job_id=job_id,
                bins=None,
                cold_suffix_sums=empty,
                promotion_suffix_sums=empty.copy(),
                working_set_pages=vec,
                times=vec.copy(),
                resident_pages=vec.copy(),
                cpu_cores=np.zeros(0, dtype=float),
                interval_seconds=interval_seconds,
            )
        if bins is None:
            raise TraceError(
                f"trace {job_id}: non-empty columns need a threshold grid"
            )
        cold_counts = np.asarray(cold_counts, dtype=np.int64)
        promotion_counts = np.asarray(promotion_counts, dtype=np.int64)
        expected = (times.size, len(bins))
        for name, matrix in (
            ("cold_counts", cold_counts),
            ("promotion_counts", promotion_counts),
        ):
            if matrix.shape != expected:
                raise TraceError(
                    f"trace {job_id}: {name} shape {matrix.shape} != "
                    f"{expected}"
                )
        for name, vector in (
            ("working_set_pages", working_set_pages),
            ("resident_pages", resident_pages),
            ("cpu_cores", cpu_cores),
        ):
            if np.asarray(vector).shape != times.shape:
                raise TraceError(
                    f"trace {job_id}: {name} has {np.asarray(vector).size} "
                    f"rows, times has {times.size}"
                )
        return cls(
            job_id=job_id,
            bins=bins,
            cold_suffix_sums=_suffix_sum_matrix(cold_counts),
            promotion_suffix_sums=_suffix_sum_matrix(promotion_counts),
            working_set_pages=np.asarray(working_set_pages, dtype=np.int64),
            times=times,
            resident_pages=np.asarray(resident_pages, dtype=np.int64),
            cpu_cores=np.asarray(cpu_cores, dtype=float),
            interval_seconds=interval_seconds,
        )

    def colder_than(self, thresholds: np.ndarray, *, cold: bool) -> np.ndarray:
        """Per-interval ``colder_than(thresholds[t])`` as one indexed lookup.

        Args:
            thresholds: ``(intervals,)`` per-interval thresholds; infinite
                entries (DISABLED) yield 0.
            cold: read the cold-age matrix (True) or the promotion matrix.
        """
        assert self.bins is not None
        matrix = self.cold_suffix_sums if cold else self.promotion_suffix_sums
        column = suffix_columns(self.bins, thresholds)
        return matrix[np.arange(matrix.shape[0]), column]


def suffix_columns(bins: AgeBins, thresholds: np.ndarray) -> np.ndarray:
    """The suffix-sum column that answers ``colder_than(thresholds[t])``.

    A finite threshold reads the first candidate at or above it; DISABLED
    (infinite) rows read the explicit zero column ``len(bins)``.
    """
    grid = np.asarray(bins.thresholds)
    finite = np.isfinite(thresholds)
    column = np.full(thresholds.shape, len(grid), dtype=np.int64)
    column[finite] = np.searchsorted(grid, thresholds[finite], side="left")
    return column


def _suffix_sum_matrix(counts: np.ndarray) -> np.ndarray:
    """Row-wise suffix sums with a trailing zero column.

    ``result[t, i] == counts[t, i:].sum()`` — the matrix form of
    :meth:`AgeHistogram.suffix_sums` — and ``result[t, -1] == 0`` so that
    an index one past the grid (a threshold larger than every candidate)
    reads zero.
    """
    suffix = np.cumsum(counts[:, ::-1], axis=1, dtype=np.int64)[:, ::-1]
    zero = np.zeros((counts.shape[0], 1), dtype=np.int64)
    return np.concatenate([suffix, zero], axis=1)
