"""Columnar trace store: the fleet's telemetry warehouse (paper §5.2-5.3).

Telemetry reaches the store one :class:`~repro.model.trace.TelemetryBlock`
at a time through ``TraceStore.append_columns``.  The store keeps it as
append-only fixed-schema segments with incremental per-window
aggregation and downsampling for old segments — on disk (``.npz``
segments with a JSON manifest) or in memory (``root=None``).
:class:`ColumnarTraceDatabase` is the fleet's trace database over it.
"""

from repro.tracestore.database import ColumnarTraceDatabase
from repro.tracestore.store import (
    DEFAULT_BUFFER_ROWS,
    DEFAULT_WINDOW_SECONDS,
    FORMAT_VERSION,
    MANIFEST_NAME,
    SegmentInfo,
    TraceStore,
    WindowSummary,
)

__all__ = [
    "ColumnarTraceDatabase",
    "DEFAULT_BUFFER_ROWS",
    "DEFAULT_WINDOW_SECONDS",
    "FORMAT_VERSION",
    "MANIFEST_NAME",
    "SegmentInfo",
    "TraceStore",
    "WindowSummary",
]
