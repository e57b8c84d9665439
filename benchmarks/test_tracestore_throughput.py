"""The columnar trace store on a synthetic fleet of one-day traces.

Replaying the what-if batch from on-disk columns must be bit-identical
to the object path (materialize every ``TraceEntry``, build ``JobTrace``
objects, compile), compile at least as fast, and — the reason the store
exists — peak *lower* in memory, because no entry objects are ever
built.  Ingest through ``add`` plus segment sealing must keep a
conservative rows/s floor.
"""

from __future__ import annotations

import time
import tracemalloc

import pytest

from repro.core.slo import PromotionRateSlo
from repro.model.replay import FarMemoryModel
from repro.tracestore.database import ColumnarTraceDatabase

pytestmark = pytest.mark.slow


def _peak_bytes_during(fn):
    """Run ``fn`` under tracemalloc; returns (result, peak_bytes)."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture(scope="module")
def store(synthetic_fleet, tmp_path_factory):
    """The synthetic fleet ingested entry by entry; returns the database
    and the ingest wall seconds."""
    db = ColumnarTraceDatabase(tmp_path_factory.mktemp("trace-store"),
                               buffer_rows=2048)
    start = time.perf_counter()
    for trace in synthetic_fleet:
        for entry in trace.entries:
            db.add(entry)
    db.flush()
    return db, time.perf_counter() - start


@pytest.fixture(scope="module")
def replays(store, what_if_batch):
    """The first four what-if configs replayed both ways from the store:
    (reports, compile seconds, peak bytes) per path."""
    db, _ = store
    batch = what_if_batch[:4]
    slo = PromotionRateSlo()

    def _object_path():
        start = time.perf_counter()
        model = FarMemoryModel(db.traces(), slo)
        model.compiled_traces
        compile_seconds = time.perf_counter() - start
        with model:
            return model.evaluate_many(batch), compile_seconds

    def _columnar_path():
        start = time.perf_counter()
        model = FarMemoryModel(db.compiled_traces(), slo)
        compile_seconds = time.perf_counter() - start
        with model:
            return model.evaluate_many(batch), compile_seconds

    (obj_reports, obj_compile), obj_peak = _peak_bytes_during(_object_path)
    (col_reports, col_compile), col_peak = _peak_bytes_during(_columnar_path)
    return {
        "object": (obj_reports, obj_compile, obj_peak),
        "columnar": (col_reports, col_compile, col_peak),
    }


def test_columnar_replay_equivalent(replays):
    assert replays["columnar"][0] == replays["object"][0]


def test_columnar_peaks_lower_than_object_path(replays):
    assert replays["columnar"][2] / replays["object"][2] < 1.0


def test_compile_from_columns_not_slower(replays):
    # Generous bound: from_columns skips entry materialization entirely,
    # so even on a loaded host it should never lose to the object path.
    assert replays["object"][1] / replays["columnar"][1] >= 1.0


def test_ingest_throughput(store):
    # The append path is pure python + numpy copies; tens of thousands of
    # rows/s is the conservative floor on any host.
    db, seconds = store
    assert db.store.rows_total / seconds > 5_000
    assert db.store.flush_count >= 1
    assert db.store.bytes_written > 0
