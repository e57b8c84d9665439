"""The trace database: the fleet's telemetry sink over a :class:`TraceStore`.

Node agents export per-job 5-minute telemetry here (paper §5.2-5.3) and
the autotuner's fast far memory model reads it back.  Everything that
talks to the database does so through duck typing — the ``TraceSink``
protocol (``add_block``) and the model's trace reads (``trace_for`` /
``traces`` / ``compiled_traces``):

    db = ColumnarTraceDatabase()                # in memory (the default)
    db = ColumnarTraceDatabase("run/traces")    # persisted as segments
    fleet = quickfleet(machines=..., trace_db=db)

:meth:`~ColumnarTraceDatabase.compiled_traces` builds the replay tensors
straight from the columns without materializing a single
:class:`~repro.model.trace.TraceEntry`; entries exist only for the
per-job reads and the JSON-lines interchange.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import List, Optional, Union

from repro.common.errors import TraceError
from repro.model.trace import (
    CompiledTrace,
    JobTrace,
    TelemetryBlock,
    TraceEntry,
)
from repro.obs import MetricRegistry
from repro.tracestore.store import (
    DEFAULT_BUFFER_ROWS,
    DEFAULT_WINDOW_SECONDS,
    TraceStore,
)

__all__ = ["ColumnarTraceDatabase"]


class ColumnarTraceDatabase:
    """Append-only trace database over a columnar :class:`TraceStore`.

    Args:
        root: store directory (created if missing), or None (the
            default) for an in-memory store.
        buffer_rows: rows pending in memory before sealing a segment.
        window_seconds: incremental-aggregation window width.
        registry: metrics registry for the store's self-metrics.
    """

    def __init__(
        self,
        root: Optional[Union[str, Path]] = None,
        buffer_rows: int = DEFAULT_BUFFER_ROWS,
        window_seconds: int = DEFAULT_WINDOW_SECONDS,
        registry: Optional[MetricRegistry] = None,
    ) -> None:
        self.store = TraceStore(
            root,
            buffer_rows=buffer_rows,
            window_seconds=window_seconds,
            registry=registry,
        )

    def __len__(self) -> int:
        return self.store.rows_total

    @property
    def job_ids(self) -> List[str]:
        """All jobs with at least one entry."""
        return sorted(self.store.jobs)

    def add_block(self, block: TelemetryBlock) -> None:
        """Store a whole export window (the
        :class:`~repro.agent.telemetry.TraceSink` protocol): every row of
        the block, or none of them.  See :meth:`TraceStore.append_columns`.
        """
        self.store.append_columns(block)

    def flush(self) -> int:
        """Seal pending rows into a segment; returns rows sealed."""
        return self.store.flush()

    def close(self) -> None:
        """Flush and release the store."""
        self.store.close()

    # ------------------------------------------------------------------
    # Trace reads
    # ------------------------------------------------------------------

    def trace_for(self, job_id: str) -> JobTrace:
        """The full trace of one job, materialized from columns.

        Raises:
            TraceError: if the job has no entries.
        """
        return JobTrace(job_id, self.store.entries_for(job_id))

    def traces(
        self, start: Optional[int] = None, end: Optional[int] = None
    ) -> List[JobTrace]:
        """All job traces, sorted by job id, optionally windowed to
        ``[start, end)``."""
        return [
            JobTrace(job_id, self.store.entries_of(cols))
            for job_id, cols in sorted(self.store.rows_by_job(start, end),
                                       key=lambda pair: pair[0])
        ]

    def compiled_traces(
        self, start: Optional[int] = None, end: Optional[int] = None
    ) -> List[CompiledTrace]:
        """Vectorized-replay tensors built directly from the columns.

        No :class:`TraceEntry` objects are materialized; jobs come back
        sorted by job id.  See :meth:`TraceStore.compiled_traces`.
        """
        return self.store.compiled_traces(start=start, end=end)

    # ------------------------------------------------------------------
    # Persistence interchange
    # ------------------------------------------------------------------

    def save_jsonl(self, path: Union[str, Path]) -> int:
        """Write every entry as one JSON line, jobs in first-seen order;
        returns lines written.

        The file appears atomically: entries stream to a temp file in the
        same directory which is renamed into place only once every line
        is out, so a crash mid-export (e.g. under fault injection) can
        never leave a truncated trace file at ``path``.
        """
        path = Path(path)
        tmp = path.parent / f".{path.name}.tmp-{os.getpid()}"
        count = 0
        try:
            with tmp.open("w", encoding="utf-8") as fh:
                for _job_id, cols in self.store.rows_by_job():
                    for entry in self.store.entries_of(cols):
                        fh.write(json.dumps(entry.to_dict()))
                        fh.write("\n")
                        count += 1
            os.replace(tmp, path)
        finally:
            if tmp.exists():
                tmp.unlink()
        return count

    @classmethod
    def load_jsonl(
        cls,
        path: Union[str, Path],
        root: Optional[Union[str, Path]] = None,
        buffer_rows: int = DEFAULT_BUFFER_ROWS,
        registry: Optional[MetricRegistry] = None,
    ) -> "ColumnarTraceDatabase":
        """Import a JSON-lines trace file into a new database.

        Entries are fed in file order as blocks of up to ``buffer_rows``
        rows (:meth:`TelemetryBlock.from_entries`).

        Args:
            path: a :meth:`save_jsonl`-format file.
            root: directory for the new store (None = in memory).

        Raises:
            TraceError: on a malformed line, with its location.
        """
        db = cls(root, buffer_rows=buffer_rows, registry=registry)
        path = Path(path)
        pending: List[TraceEntry] = []
        with path.open("r", encoding="utf-8") as fh:
            for line_number, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    pending.append(TraceEntry.from_dict(json.loads(line)))
                except (json.JSONDecodeError, TraceError) as exc:
                    raise TraceError(
                        f"{path}:{line_number}: bad trace entry: {exc}"
                    ) from exc
                if len(pending) == buffer_rows:
                    _import_block(db, path, pending)
                    pending = []
        if pending:
            _import_block(db, path, pending)
        db.flush()
        return db


def _import_block(db: ColumnarTraceDatabase, path: Path,
                  entries: List[TraceEntry]) -> None:
    try:
        db.add_block(TelemetryBlock.from_entries(entries))
    except TraceError as exc:
        raise TraceError(f"{path}: bad trace entries: {exc}") from exc
