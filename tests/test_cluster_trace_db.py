"""The fleet's default trace database (in memory): indexing, windowing,
JSON-lines persistence."""

import numpy as np
import pytest

from repro.common.errors import TraceError
from repro.core.histograms import AgeHistogram, default_age_bins
from repro.model.trace import JobTrace, TelemetryBlock, TraceEntry
from repro.tracestore import ColumnarTraceDatabase


def make_entry(job_id="j", time=0, wss=100, machine="m0"):
    bins = default_age_bins()
    promo = AgeHistogram(bins)
    promo.add_ages(np.array([150.0] * 5))
    cold = AgeHistogram(bins)
    cold.add_ages(np.array([150.0] * 30 + [10.0] * 70))
    return TraceEntry(
        job_id=job_id,
        machine_id=machine,
        time=time,
        working_set_pages=wss,
        promotion_histogram=promo,
        cold_age_histogram=cold,
        resident_pages=100,
        cpu_cores=2.0,
    )


def add(db, entry):
    db.add_block(TelemetryBlock.from_entries([entry]))


class TestIndexing:
    def test_add_and_lookup(self):
        db = ColumnarTraceDatabase()
        add(db, make_entry("a", 0))
        add(db, make_entry("a", 300))
        add(db, make_entry("b", 0))
        assert len(db) == 3
        assert db.job_ids == ["a", "b"]
        assert len(db.trace_for("a")) == 2

    def test_unknown_job_raises(self):
        with pytest.raises(TraceError):
            ColumnarTraceDatabase().trace_for("ghost")

    def test_out_of_order_rejected(self):
        db = ColumnarTraceDatabase()
        add(db, make_entry("a", 600))
        with pytest.raises(TraceError):
            add(db, make_entry("a", 300))

    def test_windowed_traces(self):
        db = ColumnarTraceDatabase()
        for t in (0, 300, 600, 900):
            add(db, make_entry("a", t))
        windowed = db.traces(start=300, end=900)
        assert len(windowed) == 1
        assert [e.time for e in windowed[0].entries] == [300, 600]

    def test_window_excluding_everything(self):
        db = ColumnarTraceDatabase()
        add(db, make_entry("a", 0))
        assert db.traces(start=1000) == []


class TestPersistence:
    def test_jsonl_roundtrip(self, tmp_path):
        db = ColumnarTraceDatabase()
        add(db, make_entry("a", 0))
        add(db, make_entry("a", 300))
        add(db, make_entry("b", 0, machine="m1"))
        path = tmp_path / "traces.jsonl"
        written = db.save_jsonl(path)
        assert written == 3

        loaded = ColumnarTraceDatabase.load_jsonl(path)
        assert loaded.job_ids == ["a", "b"]
        original = db.trace_for("a").entries[0]
        restored = loaded.trace_for("a").entries[0]
        assert restored.working_set_pages == original.working_set_pages
        assert restored.machine_id == original.machine_id
        np.testing.assert_array_equal(
            restored.promotion_histogram.counts,
            original.promotion_histogram.counts,
        )

    def test_corrupt_line_raises_with_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"not": "a trace entry"}\n')
        with pytest.raises(TraceError, match="bad.jsonl:1"):
            ColumnarTraceDatabase.load_jsonl(path)

    def test_blank_lines_skipped(self, tmp_path):
        db = ColumnarTraceDatabase()
        add(db, make_entry("a", 0))
        path = tmp_path / "traces.jsonl"
        db.save_jsonl(path)
        path.write_text(path.read_text() + "\n\n")
        assert len(ColumnarTraceDatabase.load_jsonl(path)) == 1


class TestJobTrace:
    def test_wrong_job_rejected(self):
        trace = JobTrace("a")
        with pytest.raises(TraceError):
            trace.append(make_entry("b", 0))

    def test_duration(self):
        trace = JobTrace("a")
        trace.append(make_entry("a", 0))
        trace.append(make_entry("a", 600))
        assert trace.duration_seconds == 900

    def test_empty_duration(self):
        assert JobTrace("a").duration_seconds == 0

    def test_dict_roundtrip(self):
        trace = JobTrace("a")
        trace.append(make_entry("a", 0))
        rebuilt = JobTrace.from_dicts("a", trace.to_dicts())
        assert len(rebuilt) == 1
        assert rebuilt.entries[0].time == 0
