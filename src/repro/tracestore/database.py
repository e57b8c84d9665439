"""A drop-in, disk-backed ``TraceDatabase`` over :class:`TraceStore`.

The in-memory :class:`~repro.cluster.trace_db.TraceDatabase` is the
simulator's telemetry warehouse; everything that talks to it does so
through duck typing — the ``TraceSink`` protocol (``add``) and the
model's trace reads (``trace_for``/``traces``).  This class implements the same
surface on top of the columnar on-disk store, so a fleet can be wired to
it with no changes to the node agent, the fault injector's sink-outage
wrapper, or the engine:

    db = ColumnarTraceDatabase("run/traces")
    fleet = quickfleet(machines=..., trace_db=db)

plus one capability the in-memory database cannot offer:
:meth:`compiled_traces` builds the vectorized-replay tensors straight
from the on-disk columns without materializing a single
:class:`~repro.model.trace.TraceEntry`.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import List, Optional, Sequence, Union

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
    """Append-only trace database persisted as columnar segments.

    Interface-compatible with
    :class:`~repro.cluster.trace_db.TraceDatabase` (add / trace_for /
    traces / save_jsonl / load_jsonl / job_ids / len), backed by a :class:`TraceStore` directory.

    Args:
        root: store directory (created if missing).
        buffer_rows: rows buffered in memory before sealing a segment.
        window_seconds: incremental-aggregation window width.
        registry: metrics registry for the store's self-metrics.
    """

    def __init__(
        self,
        root: Union[str, Path],
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
    def entries_total(self) -> int:
        """Entries stored (sealed segments plus the live buffer)."""
        return self.store.rows_total

    @property
    def job_ids(self) -> List[str]:
        """All jobs with at least one entry."""
        return sorted(self.store.jobs)

    def add(self, entry: TraceEntry) -> None:
        """Store one entry (the :class:`~repro.agent.telemetry.TraceSink`
        protocol)."""
        self.store.append(entry)

    def add_batch(self, entries: Sequence[TraceEntry]) -> None:
        """Store a whole export window as one columnar chunk.

        The batched half of the sink protocol: the columnar kernel's
        telemetry exporter ships each machine's window in a single call
        and the entries go straight to column arrays — no per-entry
        buffer appends.  Equivalent to calling :meth:`add` per entry.
        """
        self.store.append_batch(entries)

    def add_block(self, block: TelemetryBlock) -> None:
        """Store a whole export window as one zero-copy column block.

        The fastest rung of the sink protocol: the columnar kernel's
        telemetry exporter gathers the window straight from pool columns
        and the arrays land in the segment buffer with only the ordinal
        columns rewritten — no :class:`TraceEntry` is ever constructed.
        Equivalent to calling :meth:`add` per row of ``block.entries()``.
        """
        self.store.append_columns(block)

    def flush(self) -> int:
        """Seal buffered rows into a segment; returns rows sealed."""
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
        entries = self.store.entries_for(job_id)
        trace = JobTrace(job_id)
        for entry in entries:
            trace.append(entry)
        return trace

    def traces(
        self, start: Optional[int] = None, end: Optional[int] = None
    ) -> List[JobTrace]:
        """All job traces, sorted by job id, optionally windowed to
        ``[start, end)``."""
        result = []
        for job_id in self.job_ids:
            trace = JobTrace(job_id)
            for entry in self.store.entries_for(job_id):
                if start is not None and entry.time < start:
                    continue
                if end is not None and entry.time >= end:
                    continue
                trace.append(entry)
            if trace.entries:
                result.append(trace)
        return result

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
        """Export every entry as one JSON line (atomic, like the
        in-memory database); returns lines written."""
        path = Path(path)
        tmp = path.parent / f".{path.name}.tmp-{os.getpid()}"
        count = 0
        try:
            with tmp.open("w", encoding="utf-8") as fh:
                for job_id in self.store.jobs:
                    for entry in self.store.entries_for(job_id):
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
        root: Union[str, Path],
        buffer_rows: int = DEFAULT_BUFFER_ROWS,
        registry: Optional[MetricRegistry] = None,
    ) -> "ColumnarTraceDatabase":
        """Import a JSON-lines trace file into a new columnar store.

        Args:
            path: a :meth:`save_jsonl`-format file.
            root: directory for the new store.

        Raises:
            TraceError: on a malformed line, with its location.
        """
        db = cls(root, buffer_rows=buffer_rows, registry=registry)
        path = Path(path)
        with path.open("r", encoding="utf-8") as fh:
            for line_number, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    db.add(TraceEntry.from_dict(json.loads(line)))
                except (json.JSONDecodeError, TraceError) as exc:
                    raise TraceError(
                        f"{path}:{line_number}: bad trace entry: {exc}"
                    ) from exc
        db.flush()
        return db
