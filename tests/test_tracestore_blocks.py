"""Zero-copy TelemetryBlock ingest: all-or-nothing semantics, located
dtype rejection, identity/generic path parity, and exporter block-failure
degradation (spill-in-order, no double-counted rows) under sink outages.

A one-row block per entry (:func:`row`) is the per-entry ingest the
window blocks are checked against."""

import numpy as np
import pytest

from repro.agent.telemetry import TelemetryExporter
from repro.cluster import quickfleet
from repro.common.errors import TraceError
from repro.common.rng import SeedSequenceFactory
from repro.common.units import HOUR
from repro.core.histograms import AgeHistogram, default_age_bins
from repro.faults import (
    ALL_MACHINES,
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
)
from repro.kernel.compression import ContentProfile
from repro.core.threshold_policy import ThresholdPolicyConfig
from repro.kernel.machine import FarMemoryMode, Machine, MachineConfig
from repro.model.replay import FarMemoryModel
from repro.model.trace import TelemetryBlock, TraceEntry
from repro.obs import MetricRegistry, Tracer
from repro.tracestore import ColumnarTraceDatabase, TraceStore


def make_entry(job_id="j", time=0, wss=100, machine="m0", seed=None):
    bins = default_age_bins()
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
    return TelemetryBlock.from_entries([entry])


def random_windows(windows=8, jobs=6, seed=3):
    """Export windows with a varying job subset and shuffled row order.

    Shuffling within a window makes the block's job ordinals non-identity
    (first-seen order differs from sorted order), which forces the
    store's generic append path instead of the identity fast path.
    """
    rng = np.random.default_rng(seed)
    out = []
    for w in range(windows):
        present = sorted(
            rng.choice(jobs, size=int(rng.integers(1, jobs + 1)),
                       replace=False).tolist()
        )
        window = [
            make_entry(f"job-{j}", time=w * 300, machine=f"m{j % 3}",
                       seed=int(rng.integers(0, 2**31)))
            for j in present
        ]
        rng.shuffle(window)
        out.append(window)
    return out


def dump(store):
    return {
        job_id: [e.to_dict() for e in store.entries_for(job_id)]
        for job_id in store.jobs
    }


def dir_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def empty_block():
    bins = default_age_bins()
    width = len(bins)
    return TelemetryBlock(
        bins=bins,
        job_table=[],
        machine_table=[],
        job=np.empty(0, dtype=np.int64),
        machine=np.empty(0, dtype=np.int64),
        time=np.empty(0, dtype=np.int64),
        working_set_pages=np.empty(0, dtype=np.int64),
        resident_pages=np.empty(0, dtype=np.int64),
        cpu_cores=np.empty(0, dtype=np.float64),
        promotion_counts=np.empty((0, width), dtype=np.int64),
        promotion_young=np.empty(0, dtype=np.int64),
        cold_counts=np.empty((0, width), dtype=np.int64),
        cold_young=np.empty(0, dtype=np.int64),
    )


class TestAppendColumnsAllOrNothing:
    """append_columns either lands every row or leaves the store alone."""

    def test_empty_block_is_noop(self, tmp_path):
        registry = MetricRegistry()
        store = TraceStore(tmp_path / "s", registry=registry)
        store.append_columns(empty_block())
        assert store.rows_total == 0
        assert store.jobs == []
        assert registry.value("repro_tracestore_blocks_total") == 0
        assert registry.value("repro_tracestore_rows_total") == 0

    def test_dtype_mismatch_rejected_with_located_error(self, tmp_path):
        store = TraceStore(tmp_path / "s", registry=MetricRegistry())
        block = TelemetryBlock.from_entries(
            [make_entry("a", time=0), make_entry("b", time=0)]
        )
        block.time = block.time.astype(np.int32)
        with pytest.raises(
            TraceError, match=r"TelemetryBlock\.time: dtype int32"
        ):
            store.append_columns(block)
        assert store.rows_total == 0
        assert store.jobs == []

    def test_shape_mismatch_names_column(self, tmp_path):
        store = TraceStore(tmp_path / "s", registry=MetricRegistry())
        block = TelemetryBlock.from_entries(
            [make_entry("a", time=0), make_entry("b", time=0)]
        )
        block.cold_counts = block.cold_counts[:, :-1]
        with pytest.raises(TraceError, match=r"TelemetryBlock\.cold_counts"):
            store.append_columns(block)
        assert store.rows_total == 0

    def test_out_of_order_block_rejected_whole_at_seal_boundary(
        self, tmp_path
    ):
        """A bad block straddling the segment-seal threshold must leave
        the buffer, the watermarks, and the segment list untouched."""
        registry = MetricRegistry()
        store = TraceStore(tmp_path / "s", buffer_rows=4, registry=registry)
        store.append_columns(row(make_entry("a", time=300)))
        store.append_columns(row(make_entry("a", time=600)))
        store.append_columns(row(make_entry("b", time=300)))
        before = dump(store)

        bad = TelemetryBlock.from_entries([
            make_entry("a", time=900),
            make_entry("b", time=0),  # older than b's watermark
        ])
        with pytest.raises(TraceError, match="out-of-order"):
            store.append_columns(bad)
        assert store.rows_total == 3
        assert store.flush_count == 0  # 3 rows buffered, seal untriggered
        assert dump(store) == before
        assert registry.value("repro_tracestore_blocks_total") == 3
        assert registry.value("repro_tracestore_rows_total") == 3

        # The corrected window still lands — and crosses the seal.
        good = TelemetryBlock.from_entries([
            make_entry("a", time=900),
            make_entry("b", time=600),
        ])
        store.append_columns(good)
        assert store.rows_total == 5
        assert store.flush_count == 1
        assert registry.value("repro_tracestore_blocks_total") == 4
        assert registry.value("repro_tracestore_rows_total") == 5

    def test_rejected_block_does_not_grow_string_tables(self, tmp_path):
        store = TraceStore(tmp_path / "s", registry=MetricRegistry())
        store.append_columns(row(make_entry("a", time=600)))
        bad = TelemetryBlock.from_entries([
            make_entry("brand-new-job", time=900, machine="m9"),
            make_entry("a", time=300),  # behind a's watermark
        ])
        with pytest.raises(TraceError, match="out-of-order"):
            store.append_columns(bad)
        assert store.jobs == ["a"]
        assert store.machines == ["m0"]

    def test_out_of_order_within_block_rejected(self, tmp_path):
        store = TraceStore(tmp_path / "s", registry=MetricRegistry())
        bad = TelemetryBlock.from_entries([
            make_entry("a", time=600),
            make_entry("a", time=300),
        ])
        with pytest.raises(TraceError, match="out-of-order"):
            store.append_columns(bad)
        assert store.rows_total == 0


class TestBlockEntryEquivalence:
    """Window blocks must store exactly what one-row blocks store."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_randomized_blocks_match_entry_and_batch_paths(
        self, tmp_path, seed
    ):
        windows = random_windows(windows=10, jobs=5, seed=seed)
        one = TraceStore(tmp_path / "entry", buffer_rows=16,
                         registry=MetricRegistry())
        batched = TraceStore(tmp_path / "batch", buffer_rows=16,
                             registry=MetricRegistry())
        blocked = TraceStore(tmp_path / "block", buffer_rows=16,
                             registry=MetricRegistry())
        for window in windows:
            for entry in window:
                one.append_columns(row(entry))
            batched.append_columns(
                TelemetryBlock.concat([row(entry) for entry in window]))
            blocked.append_columns(TelemetryBlock.from_entries(window))

        assert dump(blocked) == dump(one)
        assert blocked.rows_total == one.rows_total
        assert blocked.jobs == one.jobs
        assert blocked.machines == one.machines
        assert (
            [w.to_dict() for w in blocked.window_summaries()]
            == [w.to_dict() for w in one.window_summaries()]
        )
        # A window concatenated from one-row blocks and one packed from
        # the entries share delivery granularity: after a final flush the
        # two stores must be byte-identical on disk, manifest included.
        batched.flush()
        blocked.flush()
        batched.close()
        blocked.close()
        assert dir_bytes(tmp_path / "block") == dir_bytes(tmp_path / "batch")

    def test_identity_and_shuffled_blocks_store_identically(self, tmp_path):
        """The identity fast path (sorted job ordinals) and the generic
        path (shuffled rows) must persist the same logical content."""
        windows = random_windows(windows=6, jobs=4, seed=9)
        sorted_store = TraceStore(tmp_path / "sorted",
                                  registry=MetricRegistry())
        shuffled_store = TraceStore(tmp_path / "shuffled",
                                    registry=MetricRegistry())
        for window in windows:
            ordered = sorted(window, key=lambda e: e.job_id)
            sorted_store.append_columns(TelemetryBlock.from_entries(ordered))
            shuffled_store.append_columns(TelemetryBlock.from_entries(window))
        a = dump(sorted_store)
        b = dump(shuffled_store)
        assert sorted(a) == sorted(b)
        for job_id in a:
            assert a[job_id] == b[job_id]

    def test_repeated_job_table_blocks_roundtrip(self, tmp_path):
        """Many windows with the same stable job population (the LUT
        cache's steady state) plus a new job arriving mid-stream."""
        store = TraceStore(tmp_path / "s", registry=MetricRegistry())
        oracle = TraceStore(tmp_path / "o", registry=MetricRegistry())
        for w in range(12):
            window = [
                make_entry(f"job-{j}", time=w * 300, seed=w * 10 + j)
                for j in range(3)
            ]
            if w >= 6:  # a new job joins the fleet mid-stream
                window.append(
                    make_entry("late-arrival", time=w * 300, seed=w)
                )
            store.append_columns(TelemetryBlock.from_entries(window))
            for entry in window:
                oracle.append_columns(row(entry))
        assert dump(store) == dump(oracle)


class BlockFlakySink:
    """A block-capable sink whose availability the test toggles."""

    def __init__(self, inner):
        self.inner = inner
        self.down = False

    def add_block(self, block):
        if self.down:
            raise RuntimeError("sink offline")
        self.inner.add_block(block)


COMPRESSIBLE = ContentProfile(incompressible_fraction=0.0, min_ratio=1.5)


def columnar_machine(seed=4):
    config = MachineConfig(
        dram_bytes=1 << 30,
        mode=FarMemoryMode.PROACTIVE,
        kernel="columnar",
    )
    machine = Machine(
        "m0", config, seeds=SeedSequenceFactory(seed),
        registry=MetricRegistry(), tracer=Tracer(),
    )
    for j in range(3):
        machine.add_job(f"job-{j}", 100, COMPRESSIBLE)
        machine.allocate(f"job-{j}", 100)
    return machine


class TestExporterBlockFailure:
    """A failed ``add_block`` spills the window's rows in order; after
    the sink heals nothing is lost, duplicated, or double-counted."""

    def run_exporter(self, root, registry, outage=None):
        machine = columnar_machine()
        db = ColumnarTraceDatabase(root, registry=registry)
        sink = BlockFlakySink(db)
        exporter = TelemetryExporter(
            machine, sink, registry=registry, tracer=Tracer()
        )
        for t in range(0, 3601, 300):
            if outage is not None:
                sink.down = outage[0] <= t <= outage[1]
            machine.tick(t)
            exporter.maybe_export(t)
        sink.down = False
        # Keep exporting until the retry backoff elapses and the spill
        # buffer drains.
        t = 3900
        while exporter.sink_degraded and t < 3600 + 5 * HOUR:
            machine.tick(t)
            exporter.maybe_export(t)
            t += 300
        db.flush()
        return machine, db, exporter

    def test_block_failure_spills_and_replays_in_order(self, tmp_path):
        oracle_reg = MetricRegistry()
        _, oracle_db, _ = self.run_exporter(tmp_path / "oracle", oracle_reg)

        registry = MetricRegistry()
        _, db, exporter = self.run_exporter(
            tmp_path / "flaky", registry, outage=(900, 1500)
        )
        assert not exporter.sink_degraded
        spilled = registry.value("repro_telemetry_spilled_entries_total")
        assert spilled > 0
        assert registry.value(
            "repro_telemetry_replayed_entries_total") == spilled
        assert registry.value("repro_telemetry_dropped_entries_total") == 0

        # Ordered, complete replay: per-job store contents match a
        # fault-free run of the identical machine.
        assert dump(db.store) == dump(oracle_db.store)

        # No double count: a failed add_block lands zero rows, so the
        # rows counter agrees exactly with what the store holds.
        assert registry.value(
            "repro_tracestore_rows_total") == db.store.rows_total

    def test_rows_metric_matches_store_under_mid_stream_failures(
        self, tmp_path
    ):
        registry = MetricRegistry()
        _, db, _ = self.run_exporter(
            tmp_path / "flaky2", registry, outage=(600, 2100)
        )
        assert registry.value(
            "repro_tracestore_rows_total") == db.store.rows_total
        assert registry.value(
            "repro_tracestore_blocks_total") <= db.store.rows_total


class TestSinkOutageColumnarFleet:
    """The sink_outage chaos scenario against the full zero-copy stack:
    columnar kernel, cluster pool, columnar store.  Delivery is exactly
    once: the outage run reads as the fault-free run, down to the fast
    model's reports."""

    DURATION = 2 * HOUR

    def columnar_fleet(self, root, seed=33):
        registry = MetricRegistry()
        db = ColumnarTraceDatabase(root, registry=registry)
        fleet = quickfleet(
            clusters=1,
            machines_per_cluster=2,
            jobs_per_machine=3,
            seed=seed,
            kernel="columnar",
            registry=registry,
            tracer=Tracer(),
            trace_db=db,
        )
        return fleet, db, registry

    def test_ordered_replay_without_double_counting(self, tmp_path):
        baseline, base_db, _ = self.columnar_fleet(tmp_path / "base")
        chaotic, chaos_db, registry = self.columnar_fleet(tmp_path / "chaos")
        plan = FaultPlan(events=(
            FaultEvent(time=1800, kind=FaultKind.SINK_OUTAGE,
                       duration=1800, target=ALL_MACHINES),
        ))
        chaotic.clusters[0].attach_fault_injector(
            FaultInjector(plan, SeedSequenceFactory(5))
        )
        baseline.run(self.DURATION)
        chaotic.run(self.DURATION)
        base_db.flush()
        chaos_db.flush()

        assert registry.value("repro_telemetry_sink_outages_total") > 0
        spilled = registry.value("repro_telemetry_spilled_entries_total")
        assert spilled > 0
        assert registry.value(
            "repro_telemetry_replayed_entries_total") == spilled
        assert registry.value("repro_telemetry_dropped_entries_total") == 0
        for exporter in chaotic.clusters[0].exporters.values():
            assert not exporter.sink_degraded

        # Every row counted exactly once despite mid-outage block
        # failures: the metric agrees with the store itself...
        assert registry.value(
            "repro_tracestore_rows_total") == chaos_db.store.rows_total
        # ...the delivered traces are exactly the fault-free ones...
        assert dump(chaos_db.store) == dump(base_db.store)
        # ...and so are the replay tensors and the model's reports.
        compiled = chaos_db.compiled_traces()
        clean = base_db.compiled_traces()
        assert [c.job_id for c in compiled] == [c.job_id for c in clean]
        for ours, theirs in zip(compiled, clean):
            for column in ("cold_suffix_sums", "promotion_suffix_sums",
                           "working_set_pages", "times", "resident_pages",
                           "cpu_cores"):
                np.testing.assert_array_equal(getattr(ours, column),
                                              getattr(theirs, column))
        configs = [ThresholdPolicyConfig(percentile_k=k, warmup_seconds=600)
                   for k in (90.0, 98.0)]
        reports = []
        for traces in (compiled, clean):
            with FarMemoryModel(traces, registry=MetricRegistry()) as model:
                # repr, not ==: reports carry NaN rates for zero-WSS
                # intervals.
                reports.append(repr(model.evaluate_many(configs)))
        assert reports[0] == reports[1]
