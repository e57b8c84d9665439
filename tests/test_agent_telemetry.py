"""Telemetry export of 5-minute trace rows."""

from repro.agent.telemetry import TelemetryExporter
from repro.common.events import EventLog
from repro.common.rng import SeedSequenceFactory
from repro.core.histograms import AgeBins, AgeHistogram
from repro.kernel.compression import ContentProfile
from repro.kernel.machine import Machine, MachineConfig
from repro.model.trace import TRACE_PERIOD_SECONDS
from repro.obs import MetricRegistry
from repro.tracestore import ColumnarTraceDatabase


COMPRESSIBLE = ContentProfile(incompressible_fraction=0.0, min_ratio=1.5)


def make_machine():
    return Machine(
        "m0", MachineConfig(dram_bytes=1 << 30), seeds=SeedSequenceFactory(4)
    )


def test_exports_every_five_minutes():
    machine = make_machine()
    db = ColumnarTraceDatabase()
    exporter = TelemetryExporter(machine, db)
    machine.add_job("j", 200, COMPRESSIBLE)
    machine.allocate("j", 200)
    for t in range(0, 1501, 60):
        machine.tick(t)
        exporter.maybe_export(t)
    # Exports at t=0, 300, ..., 1500 -> 6 entries (t=0 one included).
    assert len(db) == 6
    assert db.job_ids == ["j"]


def test_promotion_histogram_is_per_period_diff():
    machine = make_machine()
    db = ColumnarTraceDatabase()
    exporter = TelemetryExporter(machine, db)
    memcg = machine.add_job("j", 200, COMPRESSIBLE)
    idx = machine.allocate("j", 200)
    for t in range(0, 601, 60):
        machine.tick(t)
        exporter.maybe_export(t)
    # Age everything, then touch cold pages once in period 3.
    machine.touch("j", idx[:50])
    for t in range(660, 1201, 60):
        machine.tick(t)
        exporter.maybe_export(t)
    entries = db.trace_for("j").entries
    total_promos = sum(e.promotion_histogram.colder_than(120) for e in entries)
    # The cold touches appear exactly once across all period diffs.
    assert total_promos == memcg.promotion_histogram.colder_than(120)


def test_entry_fields_populated():
    machine = make_machine()
    db = ColumnarTraceDatabase()
    exporter = TelemetryExporter(machine, db, cpu_lookup=lambda j: 4.0)
    machine.add_job("j", 300, COMPRESSIBLE)
    machine.allocate("j", 300)
    for t in range(0, 601, 60):
        machine.tick(t)
        exporter.maybe_export(t)
    entry = db.trace_for("j").entries[-1]
    assert entry.machine_id == "m0"
    assert entry.resident_pages == 300
    assert entry.cpu_cores == 4.0
    assert entry.working_set_pages >= 0


def test_departed_jobs_cleaned_up():
    machine = make_machine()
    db = ColumnarTraceDatabase()
    exporter = TelemetryExporter(machine, db)
    machine.add_job("j", 100, COMPRESSIBLE)
    machine.allocate("j", 100)
    for t in range(0, 301, 60):
        machine.tick(t)
        exporter.maybe_export(t)
    machine.remove_job("j")
    for t in range(360, 661, 60):
        machine.tick(t)
        exporter.maybe_export(t)
    assert "j" not in exporter._last_promotion


def test_counts_exported_entries():
    machine = make_machine()
    db = ColumnarTraceDatabase()
    exporter = TelemetryExporter(machine, db)
    machine.add_job("a", 50, COMPRESSIBLE)
    machine.add_job("b", 50, COMPRESSIBLE)
    machine.allocate("a", 50)
    machine.allocate("b", 50)
    exporter.export(TRACE_PERIOD_SECONDS)
    assert exporter.entries_exported == 2


def test_histogram_reset_event_on_bin_change():
    machine = make_machine()
    db = ColumnarTraceDatabase()
    events = EventLog()
    registry = MetricRegistry()
    exporter = TelemetryExporter(machine, db, events=events,
                                 registry=registry)
    memcg = machine.add_job("j", 100, COMPRESSIBLE)
    machine.allocate("j", 100)
    exporter.export(300)
    assert len(events.of_kind("telemetry.histogram_reset")) == 0

    # A mid-run grid change makes the cumulative snapshot incomparable.
    new_bins = AgeBins(thresholds=(120, 600, 3600))
    assert new_bins.thresholds != memcg.bins.thresholds
    memcg.bins = new_bins
    # The memcg leaves the pool's histogram rows for ones on the new grid.
    memcg._own_histograms = (AgeHistogram(new_bins), AgeHistogram(new_bins))
    memcg._pool = None
    exporter.export(600)

    resets = events.of_kind("telemetry.histogram_reset")
    assert len(resets) == 1
    assert resets[0].payload == {"job": "j", "machine": "m0"}
    assert resets[0].time == 600
    assert registry.value("repro_telemetry_histogram_resets_total") == 1

    # Stable bins afterwards: no further resets.
    exporter.export(900)
    assert len(events.of_kind("telemetry.histogram_reset")) == 1


def test_first_export_timestamp_clamped_at_zero():
    """Regression: the t=0 boundary used to stamp ``now - period`` = -300
    into the trace database; entry times must never be negative."""
    machine = make_machine()
    db = ColumnarTraceDatabase()
    exporter = TelemetryExporter(machine, db)
    machine.add_job("j", 100, COMPRESSIBLE)
    machine.allocate("j", 100)
    for t in range(0, 601, 60):
        machine.tick(t)
        exporter.maybe_export(t)
    times = [e.time for e in db.trace_for("j").entries]
    assert times == [0, 0, 300]
    assert min(times) >= 0


class FlakySink:
    """A sink whose availability is toggled by the test."""

    def __init__(self, inner):
        self.inner = inner
        self.down = False

    def add_block(self, block):
        if self.down:
            raise RuntimeError("sink offline")
        self.inner.add_block(block)


class TestSinkOutage:
    def make(self):
        machine = make_machine()
        db = ColumnarTraceDatabase()
        sink = FlakySink(db)
        events = EventLog()
        registry = MetricRegistry()
        exporter = TelemetryExporter(machine, sink, events=events,
                                     registry=registry)
        machine.add_job("j", 100, COMPRESSIBLE)
        machine.allocate("j", 100)
        return machine, db, sink, events, registry, exporter

    def test_outage_spills_then_replays_everything_in_order(self):
        machine, db, sink, events, registry, exporter = self.make()
        machine.tick(0)
        exporter.maybe_export(0)
        assert len(db) == 1

        sink.down = True
        for t in range(60, 901, 60):
            machine.tick(t)
            exporter.maybe_export(t)  # exports at 300, 600, 900 spill
        assert len(db) == 1
        assert exporter.sink_degraded
        assert len(events.of_kind("telemetry.sink_outage")) == 1
        assert registry.value("repro_telemetry_sink_outages_total") == 1
        assert registry.value("repro_telemetry_spilled_entries_total") == 3
        assert registry.value("repro_degraded_mode") == 1

        sink.down = False
        for t in range(960, 1501, 60):
            machine.tick(t)
            exporter.maybe_export(t)
        # Nothing lost: all 6 boundary exports (0..1500) are in the DB.
        assert not exporter.sink_degraded
        assert len(db) == 6
        times = [e.time for e in db.trace_for("j").entries]
        assert times == sorted(times)
        recovered = events.of_kind("telemetry.sink_recovered")
        assert len(recovered) == 1
        assert registry.value("repro_telemetry_replayed_entries_total") == 3
        assert registry.value("repro_degraded_mode") == 0

    def test_backoff_doubles_until_heal(self):
        from repro.agent.telemetry import INITIAL_BACKOFF_SECONDS

        machine, db, sink, events, registry, exporter = self.make()
        sink.down = True
        machine.tick(0)
        exporter.export(300)
        assert exporter._backoff == INITIAL_BACKOFF_SECONDS
        # The retry at t=600 fails again: backoff doubles.
        exporter.export(600)
        assert exporter._backoff == 2 * INITIAL_BACKOFF_SECONDS
        # t=900 is inside the backoff window: no retry, backoff unchanged,
        # but the fresh entry still spills behind the queued ones.
        exporter.export(900)
        assert exporter._backoff == 2 * INITIAL_BACKOFF_SECONDS
        assert len(exporter._spill) == 3
        # Only one outage episode was recorded for the whole spell.
        assert len(events.of_kind("telemetry.sink_outage")) == 1

    def test_full_buffer_drops_oldest(self, monkeypatch):
        import repro.agent.telemetry as telemetry_mod

        monkeypatch.setattr(telemetry_mod, "RETRY_BUFFER_CAP", 2)
        machine, db, sink, events, registry, exporter = self.make()
        sink.down = True
        machine.tick(0)
        for t in (300, 600, 900, 1200):
            exporter.export(t)
        assert len(exporter._spill) == 2
        assert exporter.entries_dropped == 2
        assert registry.value("repro_telemetry_dropped_entries_total") == 2
        drops = events.of_kind("telemetry.entries_dropped")
        assert len(drops) == 2
        # The two newest entries survived (drop-oldest).
        assert [int(t) for block in exporter._spill for t in block.time] == [
            600, 900]


    def test_cap_is_row_exact_and_splits_blocks(self, monkeypatch):
        import repro.agent.telemetry as telemetry_mod

        monkeypatch.setattr(telemetry_mod, "RETRY_BUFFER_CAP", 4)
        machine = make_machine()
        db = ColumnarTraceDatabase()
        sink = FlakySink(db)
        events = EventLog()
        registry = MetricRegistry()
        exporter = TelemetryExporter(machine, sink, events=events,
                                     registry=registry)
        for job in ("a", "b", "c"):
            machine.add_job(job, 50, COMPRESSIBLE)
            machine.allocate(job, 50)

        def spilled():
            return [(block.job_table[int(j)], int(t))
                    for block in exporter._spill
                    for j, t in zip(block.job, block.time)]

        sink.down = True
        machine.tick(0)
        exporter.export(300)
        exporter.export(600)  # six rows spilled, cap four: two go
        # The oldest rows went even though that split the first block.
        assert spilled() == [("c", 0), ("a", 300), ("b", 300), ("c", 300)]
        assert len(exporter._spill) == 2
        exporter.export(900)  # seven rows: three more go
        assert spilled() == [("c", 300), ("a", 600), ("b", 600), ("c", 600)]
        assert exporter.entries_dropped == 5
        assert registry.value("repro_telemetry_dropped_entries_total") == 5
        drops = events.of_kind("telemetry.entries_dropped")
        assert [event.payload["count"] for event in drops] == [2, 3]

        sink.down = False
        exporter.export(1200)  # the backoff has elapsed: the spill replays
        assert not exporter.sink_degraded
        assert registry.value("repro_telemetry_spilled_entries_total") == 9
        assert registry.value("repro_telemetry_replayed_entries_total") == 4
        assert [e.time for e in db.trace_for("c").entries] == [300, 600, 900]
        assert [e.time for e in db.trace_for("a").entries] == [600, 900]
        assert len(db) == 7


def test_first_export_is_not_a_reset():
    machine = make_machine()
    events = EventLog()
    registry = MetricRegistry()
    exporter = TelemetryExporter(machine, ColumnarTraceDatabase(), events=events,
                                 registry=registry)
    machine.add_job("j", 50, COMPRESSIBLE)
    machine.allocate("j", 50)
    exporter.export(300)
    assert len(events.of_kind("telemetry.histogram_reset")) == 0
    assert registry.value("repro_telemetry_histogram_resets_total") == 0
