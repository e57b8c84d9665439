"""Columnar trace store: equivalence, persistence, downsampling, engine."""

import json
import os

import numpy as np
import pytest

from repro.common.errors import (
    ConfigurationError,
    TraceError,
    TraceStoreError,
)
from repro.core.histograms import AgeBins, AgeHistogram, default_age_bins
from repro.core.threshold_policy import ThresholdPolicyConfig
from repro.model.replay import FarMemoryModel
from repro.model.trace import (
    TRACE_PERIOD_SECONDS,
    CompiledTrace,
    JobTrace,
    TelemetryBlock,
    TraceEntry,
)
from repro.obs import MetricRegistry
from repro.tracestore import (
    ColumnarTraceDatabase,
    MANIFEST_NAME,
    TraceStore,
)


def make_entry(job_id="j", time=0, wss=100, machine="m0", bins=None, seed=None):
    bins = bins if bins is not None else default_age_bins()
    promo = AgeHistogram(bins)
    cold = AgeHistogram(bins)
    if seed is None:
        promo.add_ages(np.array([150.0] * 5))
        cold.add_ages(np.array([150.0] * 30 + [10.0] * 70))
    else:
        rng = np.random.default_rng(seed)
        promo.add_binned(rng.integers(0, 50, size=len(bins)))
        promo.young_count = int(rng.integers(0, 10))
        cold.add_binned(rng.integers(0, 500, size=len(bins)))
        cold.young_count = int(rng.integers(0, 100))
    return TraceEntry(
        job_id=job_id,
        machine_id=machine,
        time=time,
        working_set_pages=wss,
        promotion_histogram=promo,
        cold_age_histogram=cold,
        resident_pages=wss + 20,
        cpu_cores=2.0,
    )


def row(entry):
    """One entry as a one-row block: per-entry ingest."""
    return TelemetryBlock.from_entries([entry])


def random_fleet(jobs=5, max_intervals=12, seed=7):
    """Randomized per-job traces (varying lengths, shared grid)."""
    rng = np.random.default_rng(seed)
    traces = []
    for j in range(jobs):
        trace = JobTrace(f"job-{j}")
        for t in range(int(rng.integers(1, max_intervals + 1))):
            trace.append(
                make_entry(
                    trace.job_id,
                    time=t * TRACE_PERIOD_SECONDS,
                    wss=int(rng.integers(10, 100_000)),
                    machine=f"m{j % 3}",
                    seed=int(rng.integers(0, 2**31)),
                )
            )
        traces.append(trace)
    return traces


def assert_compiled_equal(a: CompiledTrace, b: CompiledTrace):
    assert a.job_id == b.job_id
    assert (a.bins.thresholds if a.bins else None) == (
        b.bins.thresholds if b.bins else None
    )
    np.testing.assert_array_equal(a.cold_suffix_sums, b.cold_suffix_sums)
    np.testing.assert_array_equal(
        a.promotion_suffix_sums, b.promotion_suffix_sums
    )
    np.testing.assert_array_equal(a.working_set_pages, b.working_set_pages)
    np.testing.assert_array_equal(a.times, b.times)
    np.testing.assert_array_equal(a.resident_pages, b.resident_pages)
    np.testing.assert_array_equal(a.cpu_cores, b.cpu_cores)
    assert a.interval_seconds == b.interval_seconds


class TestFromColumnsEquivalence:
    """`from_columns` must be bit-identical to the `from_trace` oracle."""

    def columns_of(self, trace: JobTrace):
        return dict(
            cold_counts=np.stack(
                [e.cold_age_histogram.counts for e in trace.entries]
            ),
            promotion_counts=np.stack(
                [e.promotion_histogram.counts for e in trace.entries]
            ),
            working_set_pages=np.array(
                [e.working_set_pages for e in trace.entries]
            ),
            times=np.array([e.time for e in trace.entries]),
            resident_pages=np.array(
                [e.resident_pages for e in trace.entries]
            ),
            cpu_cores=np.array([e.cpu_cores for e in trace.entries]),
        )

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_randomized_traces(self, seed):
        for trace in random_fleet(jobs=4, seed=seed):
            oracle = CompiledTrace.from_trace(trace)
            built = CompiledTrace.from_columns(
                job_id=trace.job_id,
                bins=trace.entries[0].bins,
                **self.columns_of(trace),
            )
            assert_compiled_equal(built, oracle)

    def test_empty(self):
        oracle = CompiledTrace.from_trace(JobTrace("empty"))
        bins = default_age_bins()
        built = CompiledTrace.from_columns(
            job_id="empty",
            bins=None,
            cold_counts=np.zeros((0, len(bins)), dtype=np.int64),
            promotion_counts=np.zeros((0, len(bins)), dtype=np.int64),
            working_set_pages=np.zeros(0, dtype=np.int64),
            times=np.zeros(0, dtype=np.int64),
            resident_pages=np.zeros(0, dtype=np.int64),
            cpu_cores=np.zeros(0),
        )
        assert_compiled_equal(built, oracle)

    def test_single_interval(self):
        trace = JobTrace("one")
        trace.append(make_entry("one", 0, seed=11))
        built = CompiledTrace.from_columns(
            job_id="one", bins=trace.entries[0].bins, **self.columns_of(trace)
        )
        assert_compiled_equal(built, CompiledTrace.from_trace(trace))

    def test_colder_than_beyond_grid(self):
        """A threshold past the grid must read the explicit zero column
        identically on both constructions."""
        trace = random_fleet(jobs=1, seed=5)[0]
        oracle = CompiledTrace.from_trace(trace)
        built = CompiledTrace.from_columns(
            job_id=trace.job_id,
            bins=trace.entries[0].bins,
            **self.columns_of(trace),
        )
        beyond = np.full(
            oracle.intervals, float(max(oracle.bins.thresholds)) * 10
        )
        disabled = np.full(oracle.intervals, np.inf)
        for thresholds in (beyond, disabled):
            for cold in (True, False):
                np.testing.assert_array_equal(
                    built.colder_than(thresholds, cold=cold),
                    oracle.colder_than(thresholds, cold=cold),
                )
        np.testing.assert_array_equal(
            built.colder_than(beyond, cold=True), np.zeros(oracle.intervals)
        )

    def test_missing_bins_rejected(self):
        trace = random_fleet(jobs=1, seed=6)[0]
        with pytest.raises(TraceError, match="threshold grid"):
            CompiledTrace.from_columns(
                job_id=trace.job_id, bins=None, **self.columns_of(trace)
            )

    def test_shape_mismatch_rejected(self):
        trace = random_fleet(jobs=1, seed=6)[0]
        cols = self.columns_of(trace)
        cols["working_set_pages"] = cols["working_set_pages"][:-1]
        with pytest.raises(TraceError, match="working_set_pages"):
            CompiledTrace.from_columns(
                job_id=trace.job_id, bins=trace.entries[0].bins, **cols
            )


class TestTraceStore:
    def test_seal_reopen_roundtrip(self, tmp_path):
        store = TraceStore(tmp_path / "s", buffer_rows=3)
        fleet = random_fleet(jobs=3, seed=9)
        entries = sorted(
            (e for t in fleet for e in t.entries),
            key=lambda e: (e.time, e.job_id),
        )
        for entry in entries:
            store.append_columns(row(entry))
        store.close()
        assert len(store.segments) >= 2  # buffer_rows=3 forces sealing

        reopened = TraceStore(tmp_path / "s")
        assert reopened.rows_total == len(entries)
        assert reopened.jobs == store.jobs
        for trace in fleet:
            restored = reopened.entries_for(trace.job_id)
            assert [e.time for e in restored] == [
                e.time for e in trace.entries
            ]
            np.testing.assert_array_equal(
                restored[0].cold_age_histogram.counts,
                trace.entries[0].cold_age_histogram.counts,
            )
            assert restored[0].machine_id == trace.entries[0].machine_id
            assert restored[0].cpu_cores == trace.entries[0].cpu_cores

    def test_compiled_traces_match_oracle(self, tmp_path):
        store = TraceStore(tmp_path / "s", buffer_rows=4)
        fleet = random_fleet(jobs=4, seed=10)
        for trace in fleet:
            for entry in trace.entries:
                store.append_columns(row(entry))
        # Deliberately leave rows in the buffer: compile must see them.
        compiled = {c.job_id: c for c in store.compiled_traces()}
        assert set(compiled) == {t.job_id for t in fleet}
        for trace in fleet:
            assert_compiled_equal(
                compiled[trace.job_id], CompiledTrace.from_trace(trace)
            )

    def test_compiled_traces_windowed(self, tmp_path):
        store = TraceStore(tmp_path / "s")
        trace = JobTrace("a")
        for t in range(6):
            entry = make_entry("a", t * TRACE_PERIOD_SECONDS, seed=t)
            trace.append(entry)
            store.append_columns(row(entry))
        (compiled,) = store.compiled_traces(
            start=TRACE_PERIOD_SECONDS, end=4 * TRACE_PERIOD_SECONDS
        )
        windowed = JobTrace("a")
        for entry in trace.entries[1:4]:
            windowed.append(entry)
        assert_compiled_equal(compiled, CompiledTrace.from_trace(windowed))

    def test_grid_mismatch_rejected(self, tmp_path):
        store = TraceStore(tmp_path / "s")
        store.append_columns(row(make_entry("a", 0)))
        other = AgeBins((120, 600))
        with pytest.raises(TraceError, match="threshold grid"):
            store.append_columns(row(make_entry("a", 300, bins=other)))

    def test_out_of_order_rejected_across_flush(self, tmp_path):
        store = TraceStore(tmp_path / "s", buffer_rows=1)
        store.append_columns(row(make_entry("a", 600)))
        with pytest.raises(TraceError, match="out-of-order"):
            store.append_columns(row(make_entry("a", 300)))

    def test_window_summaries(self, tmp_path):
        store = TraceStore(tmp_path / "s", window_seconds=600)
        store.append_columns(row(make_entry("a", 0, wss=10)))
        store.append_columns(row(make_entry("b", 300, wss=20)))
        store.append_columns(row(make_entry("a", 600, wss=30)))
        summaries = store.window_summaries()
        assert [w.start for w in summaries] == [0, 600]
        assert summaries[0].rows == 2
        assert summaries[0].jobs == 2
        assert summaries[0].working_set_pages == 30
        assert summaries[1].rows == 1
        assert summaries[1].jobs == 1

    def test_window_summaries_survive_reopen_and_compact(self, tmp_path):
        store = TraceStore(tmp_path / "s", window_seconds=600)
        for t in range(4):
            store.append_columns(row(make_entry("a", t * 300, wss=t + 1, seed=t)))
        store.close()
        before = [w.to_dict() for w in store.window_summaries()]
        reopened = TraceStore(tmp_path / "s", window_seconds=600)
        reopened.compact(4)
        assert reopened.rows_total == 1
        assert [w.to_dict() for w in reopened.window_summaries()] == before

    def test_metrics_registered(self, tmp_path):
        registry = MetricRegistry()
        store = TraceStore(tmp_path / "s", buffer_rows=2, registry=registry)
        store.append_columns(row(make_entry("a", 0)))
        store.append_columns(row(make_entry("a", 300)))  # triggers a flush
        exposition = registry.expose_text()
        assert "repro_tracestore_rows_total" in exposition
        assert "repro_tracestore_segments_total" in exposition
        assert "repro_tracestore_bytes_written_total" in exposition
        assert store.flush_count == 1
        assert store.bytes_written > 0

    def test_missing_store_rejected(self, tmp_path):
        with pytest.raises(TraceStoreError, match="not a trace store"):
            TraceStore(tmp_path / "ghost", create=False)

    def test_corrupt_manifest_rejected(self, tmp_path):
        root = tmp_path / "s"
        root.mkdir()
        (root / MANIFEST_NAME).write_text("{not json", encoding="utf-8")
        with pytest.raises(TraceStoreError, match="unreadable manifest"):
            TraceStore(root)

    def test_wrong_version_rejected(self, tmp_path):
        root = tmp_path / "s"
        root.mkdir()
        (root / MANIFEST_NAME).write_text(
            json.dumps({"version": 999}), encoding="utf-8"
        )
        with pytest.raises(TraceStoreError, match="version"):
            TraceStore(root)

    def test_missing_field_rejected(self, tmp_path):
        store = TraceStore(tmp_path / "s", buffer_rows=1)
        store.append_columns(row(make_entry("a", 0)))
        manifest = tmp_path / "s" / MANIFEST_NAME
        data = json.loads(manifest.read_text())
        del data["segments"]
        manifest.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(TraceStoreError, match="missing or malformed"):
            TraceStore(tmp_path / "s")

    def test_missing_segment_file_rejected(self, tmp_path):
        store = TraceStore(tmp_path / "s", buffer_rows=1)
        store.append_columns(row(make_entry("a", 0)))
        (tmp_path / "s" / store.segments[0].name).unlink()
        reopened = TraceStore(tmp_path / "s")
        with pytest.raises(TraceStoreError, match="unreadable segment"):
            reopened.entries_for("a")

    def test_forked_copy_never_writes(self, tmp_path):
        store = TraceStore(tmp_path / "s", buffer_rows=2)
        store.append_columns(row(make_entry("a", 0)))
        store._owner_pid = os.getpid() + 1  # simulate a forked child
        store.append_columns(row(make_entry("a", 300)))  # would seal in the owner
        store.append_columns(row(make_entry("a", 600)))
        assert store.segments == []
        assert store.flush() == 0
        assert list(tmp_path.glob("s/seg-*.npz")) == []
        # Reads still see the buffered rows.
        assert [e.time for e in store.entries_for("a")] == [0, 300, 600]
        with pytest.raises(TraceStoreError, match="forked"):
            store.compact(2)


class TestDownsampling:
    def fill(self, tmp_path, intervals=8):
        store = TraceStore(tmp_path / "s", buffer_rows=4)
        trace = JobTrace("a")
        for t in range(intervals):
            entry = make_entry(
                "a", t * TRACE_PERIOD_SECONDS, wss=100 * (t + 1), seed=t
            )
            trace.append(entry)
            store.append_columns(row(entry))
        store.close()
        return store, trace

    def test_compact_semantics(self, tmp_path):
        store, trace = self.fill(tmp_path)
        removed = store.compact(2)
        assert removed == 4
        assert store.rows_total == 4
        (compiled,) = store.compiled_traces()
        assert compiled.interval_seconds == 2 * TRACE_PERIOD_SECONDS
        # Promotions accumulate across each merged pair...
        raw = CompiledTrace.from_trace(trace)
        np.testing.assert_array_equal(
            compiled.promotion_suffix_sums,
            raw.promotion_suffix_sums[0::2] + raw.promotion_suffix_sums[1::2],
        )
        # ...the cold snapshot keeps the last row of each pair...
        np.testing.assert_array_equal(
            compiled.cold_suffix_sums, raw.cold_suffix_sums[1::2]
        )
        # ...the working set is the pair maximum, the time the pair start.
        np.testing.assert_array_equal(
            compiled.working_set_pages,
            np.maximum(raw.working_set_pages[0::2],
                       raw.working_set_pages[1::2]),
        )
        np.testing.assert_array_equal(compiled.times, raw.times[0::2])

    def test_mixed_factors_rejected(self, tmp_path):
        store, _ = self.fill(tmp_path)
        store.compact(2, before=TRACE_PERIOD_SECONDS * 4)
        with pytest.raises(TraceStoreError, match="mix downsample factors"):
            store.compiled_traces()

    def test_compact_is_idempotent_on_downsampled(self, tmp_path):
        store, _ = self.fill(tmp_path)
        store.compact(2)
        assert store.compact(2) == 0  # already-downsampled segments skipped


class TestColumnarTraceDatabase:
    def test_database_surface(self, tmp_path):
        db = ColumnarTraceDatabase(tmp_path / "s", buffer_rows=3)
        db.add_block(row(make_entry("a", 0)))
        db.add_block(row(make_entry("a", 300)))
        db.add_block(row(make_entry("b", 0)))
        assert len(db) == 3
        assert db.job_ids == ["a", "b"]
        assert len(db.trace_for("a")) == 2
        with pytest.raises(TraceError):
            db.trace_for("ghost")
        windowed = db.traces(start=300)
        assert len(windowed) == 1
        assert [e.time for e in windowed[0].entries] == [300]

    def test_jsonl_interchange(self, tmp_path):
        db = ColumnarTraceDatabase(tmp_path / "s")
        for t in (0, 300):
            db.add_block(row(make_entry("a", t, seed=t)))
        path = tmp_path / "out.jsonl"
        assert db.save_jsonl(path) == 2
        loaded = ColumnarTraceDatabase.load_jsonl(path, tmp_path / "s2")
        assert loaded.job_ids == ["a"]
        np.testing.assert_array_equal(
            loaded.trace_for("a").entries[0].cold_age_histogram.counts,
            db.trace_for("a").entries[0].cold_age_histogram.counts,
        )

    def test_load_jsonl_bad_line_located(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"not": "a trace entry"}\n')
        with pytest.raises(TraceError, match="bad.jsonl:1"):
            ColumnarTraceDatabase.load_jsonl(path, tmp_path / "s")

    def test_model_replays_from_columns(self, tmp_path):
        """The acceptance-criteria path: evaluate_many over compiled
        tensors built straight from disk equals the object path."""
        db = ColumnarTraceDatabase(tmp_path / "s", buffer_rows=8)
        for trace in random_fleet(jobs=3, seed=12):
            for entry in trace.entries:
                db.add_block(row(entry))
        db.flush()
        batch = [
            ThresholdPolicyConfig(percentile_k=k, warmup_seconds=600,
                                  history_length=60)
            for k in (90.0, 95.0, 98.0)
        ]
        with FarMemoryModel(db.traces()) as object_model:
            expected = object_model.evaluate_many(batch)
        with FarMemoryModel(db.compiled_traces()) as columnar_model:
            actual = columnar_model.evaluate_many(batch)
        assert actual == expected

    def test_mixed_trace_kinds_rejected(self, tmp_path):
        db = ColumnarTraceDatabase(tmp_path / "s")
        db.add_block(row(make_entry("a", 0)))
        mixed = [db.trace_for("a"), *db.compiled_traces()]
        with pytest.raises(ConfigurationError, match="mix"):
            FarMemoryModel(mixed)


class TestEngineIntegration:
    def test_serial_parallel_equivalence_on_columnar_db(self, tmp_path):
        """The fleet's trace_db can be columnar with zero engine changes;
        forked workers must not corrupt the parent's segments."""
        from repro.cluster import quickfleet
        from repro.common.units import HOUR
        from repro.engine import FleetEngine

        def run(workers, root):
            db = ColumnarTraceDatabase(root, buffer_rows=16)
            fleet = quickfleet(
                clusters=2,
                machines_per_cluster=2,
                jobs_per_machine=2,
                seed=3,
                trace_db=db,
            )
            if workers > 1:
                FleetEngine(fleet, workers=workers).run(HOUR)
            else:
                fleet.run(HOUR)
            return fleet, db

        serial_fleet, serial_db = run(1, tmp_path / "serial")
        parallel_fleet, parallel_db = run(2, tmp_path / "parallel")

        def rows(db):
            return sorted(
                (e.job_id, e.time, e.working_set_pages,
                 tuple(e.cold_age_histogram.counts.tolist()))
                for t in db.traces()
                for e in t.entries
            )

        assert rows(serial_db) == rows(parallel_db)
        assert (
            serial_fleet.coverage_report() == parallel_fleet.coverage_report()
        )
        # The parent owned the store the whole time: reopening from disk
        # (after a flush) sees every entry exactly once.
        parallel_db.flush()
        reopened = ColumnarTraceDatabase(tmp_path / "parallel")
        assert rows(reopened) == rows(parallel_db)


class TestAtomicSaveJsonl:
    def test_no_temp_residue_and_atomic_content(self, tmp_path):
        db = ColumnarTraceDatabase()
        db.add_block(row(make_entry("a", 0)))
        path = tmp_path / "out.jsonl"
        path.write_text("stale\n", encoding="utf-8")
        assert db.save_jsonl(path) == 1
        assert "stale" not in path.read_text()
        assert list(tmp_path.iterdir()) == [path]

    def test_crash_mid_export_leaves_original(self, tmp_path, monkeypatch):
        db = ColumnarTraceDatabase()
        db.add_block(row(make_entry("a", 0)))
        path = tmp_path / "out.jsonl"
        path.write_text("original\n", encoding="utf-8")

        def boom(entry_self):
            raise RuntimeError("injected crash")

        monkeypatch.setattr(TraceEntry, "to_dict", boom)
        with pytest.raises(RuntimeError, match="injected crash"):
            db.save_jsonl(path)
        assert path.read_text() == "original\n"
        assert list(tmp_path.iterdir()) == [path]


class TestBisectWindowing:
    def test_windowed_traces_still_correct(self):
        db = ColumnarTraceDatabase()
        for t in (0, 300, 600, 900):
            db.add_block(row(make_entry("a", t)))
        db.add_block(row(make_entry("b", 600)))
        windowed = {t.job_id: t for t in db.traces(start=300, end=900)}
        assert [e.time for e in windowed["a"].entries] == [300, 600]
        assert [e.time for e in windowed["b"].entries] == [600]
        assert db.traces(start=1200) == []
        assert db.traces(end=0) == []
        assert len(db.traces()) == 2


class TestBatchAppend:
    """Window blocks (one block per export window, the telemetry write
    path) against one-row blocks (per-entry ingest)."""

    @staticmethod
    def _window_batches(jobs=4, windows=6):
        """Entries grouped per export window, every job in every window."""
        batches = []
        for w in range(windows):
            batches.append([
                make_entry(f"job-{j}", time=w * 300, machine=f"m{j % 2}",
                           seed=w * 100 + j)
                for j in range(jobs)
            ])
        return batches

    @staticmethod
    def _dump(store):
        return {
            job_id: [e.to_dict() for e in store.entries_for(job_id)]
            for job_id in store.jobs
        }

    def test_batch_matches_per_entry(self, tmp_path):
        batches = self._window_batches()
        one = TraceStore(tmp_path / "per-entry", registry=MetricRegistry())
        for batch in batches:
            for entry in batch:
                one.append_columns(row(entry))
        many = TraceStore(tmp_path / "batched", registry=MetricRegistry())
        for batch in batches:
            many.append_columns(TelemetryBlock.from_entries(batch))

        assert many.rows_total == one.rows_total
        assert many.jobs == one.jobs
        assert many.machines == one.machines
        assert many.time_range == one.time_range
        assert self._dump(many) == self._dump(one)
        assert (
            [w.to_dict() for w in many.window_summaries()]
            == [w.to_dict() for w in one.window_summaries()]
        )
        # Sealed segments must match too, not just the pending rows.
        assert many.flush() == one.flush()
        assert self._dump(many) == self._dump(one)

    def test_interleaved_append_and_batch_preserve_order(self, tmp_path):
        batches = self._window_batches(jobs=2, windows=3)
        store = TraceStore(tmp_path / "mixed", registry=MetricRegistry())
        oracle = TraceStore(tmp_path / "oracle", registry=MetricRegistry())
        for w, batch in enumerate(batches):
            if w % 2 == 0:
                store.append_columns(TelemetryBlock.from_entries(batch))
            else:
                for entry in batch:
                    store.append_columns(row(entry))
            for entry in batch:
                oracle.append_columns(row(entry))
        assert self._dump(store) == self._dump(oracle)
        for job_id in oracle.jobs:
            assert store.job_rows(job_id) == oracle.job_rows(job_id)

    def test_bad_batch_rejected_whole(self, tmp_path):
        store = TraceStore(tmp_path / "s", registry=MetricRegistry())
        store.append_columns(row(make_entry("a", time=600)))
        bad = [
            make_entry("b", time=900),
            make_entry("a", time=300),  # older than a's watermark
        ]
        with pytest.raises(TraceError, match="out-of-order"):
            store.append_columns(TelemetryBlock.from_entries(bad))
        assert store.rows_total == 1
        assert store.jobs == ["a"]
        # A valid batch still lands afterwards.
        store.append_columns(TelemetryBlock.from_entries(
            [make_entry("a", time=900), make_entry("b", time=900)]))
        assert store.rows_total == 3

    def test_batch_grid_mismatch_rejected(self, tmp_path):
        store = TraceStore(tmp_path / "s", registry=MetricRegistry())
        store.append_columns(row(make_entry("a", time=0)))
        other = AgeBins((240.0, 3600.0))
        with pytest.raises(TraceError, match="threshold grid"):
            store.append_columns(TelemetryBlock.from_entries(
                [make_entry("b", time=0, bins=other)]))
        assert store.rows_total == 1

    def test_batch_seals_and_reopens(self, tmp_path):
        root = tmp_path / "sealed"
        store = TraceStore(root, buffer_rows=4, registry=MetricRegistry())
        for batch in self._window_batches(jobs=3, windows=4):
            store.append_columns(TelemetryBlock.from_entries(batch))
        assert store.segments  # threshold crossed inside append_columns
        store.close()
        reopened = TraceStore(root, registry=MetricRegistry())
        assert reopened.rows_total == 12
        assert [e.time for e in reopened.entries_for("job-0")] == [
            0, 300, 600, 900
        ]

    def test_columnar_fleet_batch_export_matches_scalar(self, tmp_path):
        """End to end: the columnar pool's telemetry blocks store the same
        entries the reference pool's do."""
        from repro.cluster.wsc import quickfleet
        from repro.obs import Tracer

        dumps = {}
        for kernel in ("scalar", "columnar"):
            db = ColumnarTraceDatabase(
                tmp_path / kernel, registry=MetricRegistry()
            )
            fleet = quickfleet(
                clusters=1, machines_per_cluster=2, jobs_per_machine=4,
                seed=11, machine_dram_gib=1.0, kernel=kernel,
                registry=MetricRegistry(), tracer=Tracer(),
                trace_db=db,
            )
            fleet.run(3600)
            db.flush()
            dumps[kernel] = {
                job_id: [e.to_dict() for e in db.store.entries_for(job_id)]
                for job_id in db.store.jobs
            }
        assert dumps["columnar"] == dumps["scalar"]
        assert any(rows for rows in dumps["scalar"].values())
