"""The external trace database (paper §5.2-5.3).

Node agents export per-job 5-minute trace entries here; the autotuner's
fast far memory model reads them back as per-job traces.  The store is
in-memory with JSON-lines persistence — the simulator's stand-in for the
paper's telemetry warehouse.
"""

from __future__ import annotations

import json
import os
from bisect import bisect_left
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.common.errors import TraceError
from repro.model.trace import JobTrace, TraceEntry

__all__ = ["TraceDatabase"]


class TraceDatabase:
    """Append-only store of trace entries, indexed by job."""

    def __init__(self) -> None:
        self._by_job: Dict[str, JobTrace] = {}
        self.entries_total = 0

    def __len__(self) -> int:
        return self.entries_total

    @property
    def job_ids(self) -> List[str]:
        """All jobs with at least one entry."""
        return sorted(self._by_job)

    def add(self, entry: TraceEntry) -> None:
        """Store one entry (the :class:`~repro.agent.telemetry.TraceSink`
        protocol)."""
        trace = self._by_job.get(entry.job_id)
        if trace is None:
            trace = JobTrace(entry.job_id)
            self._by_job[entry.job_id] = trace
        trace.append(entry)
        self.entries_total += 1

    def add_batch(self, entries: List[TraceEntry]) -> None:
        """Store a whole export window (the batched sink protocol).

        All-or-nothing, like the columnar store's batch path: the whole
        batch is validated against the per-job time watermarks before any
        entry lands.  The exporter depends on this — a batch that fails
        mid-way would spill *every* entry to its retry buffer, and any
        half-appended prefix would then be delivered twice on replay.

        The in-memory database has no columnar representation to
        exploit, so past validation this is a plain loop — it exists so
        exporters can use one code path against either database.

        Raises:
            TraceError: on an out-of-order entry; nothing is appended.
        """
        watermark: Dict[str, int] = {}
        for entry in entries:
            prev = watermark.get(entry.job_id)
            if prev is None:
                trace = self._by_job.get(entry.job_id)
                if trace is not None and trace.entries:
                    prev = trace.entries[-1].time
            if prev is not None and entry.time < prev:
                raise TraceError(
                    f"out-of-order trace entry for job {entry.job_id} at "
                    f"t={entry.time} after t={prev}"
                )
            watermark[entry.job_id] = entry.time
        for entry in entries:
            self.add(entry)

    def mark(self) -> Dict[str, int]:
        """An opaque position marker for :meth:`entries_since`."""
        return {job_id: len(trace.entries) for job_id, trace in self._by_job.items()}

    def entries_since(self, mark: Dict[str, int]) -> List[TraceEntry]:
        """Entries added after ``mark`` was taken.

        Per-job order is preserved; jobs are visited in insertion order.
        """
        out: List[TraceEntry] = []
        for job_id, trace in self._by_job.items():
            start = mark.get(job_id, 0)
            if len(trace.entries) > start:
                out.extend(trace.entries[start:])
        return out

    def trace_for(self, job_id: str) -> JobTrace:
        """The full trace of one job.

        Raises:
            TraceError: if the job has no entries.
        """
        trace = self._by_job.get(job_id)
        if trace is None:
            raise TraceError(f"no trace recorded for job {job_id}")
        return trace

    def traces(
        self, start: Optional[int] = None, end: Optional[int] = None
    ) -> List[JobTrace]:
        """All job traces, optionally windowed to ``[start, end)``."""
        if start is None and end is None:
            return list(self._by_job.values())
        result = []
        for job_id, trace in self._by_job.items():
            # Entries are time-ordered per job, so the window is a
            # contiguous slice — locate its edges with bisect instead of
            # filtering every entry of every job.
            entries = trace.entries
            lo = (
                bisect_left(entries, start, key=lambda e: e.time)
                if start is not None
                else 0
            )
            hi = (
                bisect_left(entries, end, key=lambda e: e.time)
                if end is not None
                else len(entries)
            )
            if hi > lo:
                windowed = JobTrace(job_id)
                for entry in entries[lo:hi]:
                    windowed.append(entry)
                result.append(windowed)
        return result

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save_jsonl(self, path: Union[str, Path]) -> int:
        """Write every entry as one JSON line; returns lines written.

        The file appears atomically: entries stream to a temp file in
        the same directory which is renamed into place only once every
        line is out, so a crash mid-export (e.g. under fault injection)
        can never leave a truncated trace file at ``path``.
        """
        path = Path(path)
        tmp = path.parent / f".{path.name}.tmp-{os.getpid()}"
        count = 0
        try:
            with tmp.open("w", encoding="utf-8") as fh:
                for trace in self._by_job.values():
                    for entry in trace.entries:
                        fh.write(json.dumps(entry.to_dict()))
                        fh.write("\n")
                        count += 1
            os.replace(tmp, path)
        finally:
            if tmp.exists():
                tmp.unlink()
        return count

    @classmethod
    def load_jsonl(cls, path: Union[str, Path]) -> "TraceDatabase":
        """Rebuild a database from :meth:`save_jsonl` output."""
        db = cls()
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
        return db
