"""Telemetry export: node agent -> external trace database (paper §5.2-5.3).

Every 5 minutes the agent exports, per job, the trace entry the autotuner's
fast far memory model consumes: working set size, the promotion histogram
accumulated over the period, and the current cold-age snapshot.  The sink
is anything with an ``add(entry)`` method — in this repo,
:class:`repro.cluster.trace_db.TraceDatabase`.
"""

from __future__ import annotations

from itertools import groupby
from typing import Callable, Dict, List, Optional, Protocol, Sequence

import numpy as np

from repro.common.events import EventKind, EventLog
from repro.common.simtime import PeriodicSchedule
from repro.core.histograms import AgeHistogram
from repro.core.slo import PromotionRateSlo, working_set_pages
from repro.kernel.machine import Machine
from repro.model.trace import TRACE_PERIOD_SECONDS, TelemetryBlock, TraceEntry
from repro.obs import (
    MetricName,
    MetricRegistry,
    Tracer,
    get_registry,
    get_tracer,
)

__all__ = ["TraceSink", "TelemetryExporter", "export_telemetry"]

#: Most spilled entries retained while the sink is down; beyond this the
#: oldest spilled entries are dropped (and counted) so a never-healing
#: sink cannot grow memory without bound.
RETRY_BUFFER_CAP = 4096

#: First retry happens one export period after the failure; each failed
#: retry doubles the wait up to :data:`MAX_BACKOFF_SECONDS`.
INITIAL_BACKOFF_SECONDS = TRACE_PERIOD_SECONDS
MAX_BACKOFF_SECONDS = 3600


def _default_cpu_lookup(_job_id: str) -> float:
    """Fallback CPU lookup: one core per job (module-level so exporters
    stay picklable when no lookup is injected)."""
    return 1.0


class TraceSink(Protocol):
    """Anything that accepts exported trace entries."""

    def add(self, entry: TraceEntry) -> None:
        """Store one trace entry."""
        ...


class TelemetryExporter:
    """Per-machine 5-minute trace exporter.

    Args:
        machine: the machine whose jobs are exported.
        sink: destination database.
        cpu_lookup: maps job id to average CPU cores (for Fig. 8
            normalization); defaults to 1 core per job.
        period: export period in seconds (300 in the paper).
        slo: defines the working-set window.
        events: optional event log; the exporter records a
            ``telemetry.histogram_reset`` event whenever a job's period
            histogram had to restart from the cumulative counts because
            the bin thresholds changed mid-run.
        registry: metrics registry (defaults to the process-global one).
        tracer: span tracer (defaults to the process-global one).
    """

    #: When True (the default) and the sink implements ``add_block``,
    #: each export window ships as one
    #: :class:`~repro.model.trace.TelemetryBlock` gathered straight from
    #: the machine's page-pool columns, with no per-job ``TraceEntry``
    #: objects.  Tests flip this off to force the entry path as the
    #: bit-equivalence oracle.
    prefer_blocks: bool = True

    def __init__(
        self,
        machine: Machine,
        sink: TraceSink,
        cpu_lookup: Optional[Callable[[str], float]] = None,
        period: int = TRACE_PERIOD_SECONDS,
        slo: Optional[PromotionRateSlo] = None,
        events: Optional[EventLog] = None,
        registry: Optional[MetricRegistry] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.machine = machine
        self.sink = sink
        self.cpu_lookup = (
            cpu_lookup if cpu_lookup is not None else _default_cpu_lookup
        )
        self.period = int(period)
        self.slo = slo if slo is not None else PromotionRateSlo()
        self.events = events
        self.schedule = PeriodicSchedule(self.period)
        self._last_promotion: Dict[str, AgeHistogram] = {}
        self.entries_exported = 0
        # Graceful degradation under a failing sink: entries that could
        # not be delivered wait here (FIFO, bounded) until a retry lands.
        self._spill: List[TraceEntry] = []
        self._backoff = INITIAL_BACKOFF_SECONDS
        self._retry_at: Optional[int] = None
        self.entries_dropped = 0

        registry = registry if registry is not None else get_registry()
        self._tracer = tracer if tracer is not None else get_tracer()
        self._bind_metrics(registry)

    def _bind_metrics(self, registry: MetricRegistry) -> None:
        machine_id = self.machine.machine_id
        self._m_exports = registry.counter(
            MetricName.TELEMETRY_EXPORTS_TOTAL,
            "Completed 5-minute telemetry export rounds.", ("machine",)
        ).labels(machine=machine_id)
        self._m_entries = registry.counter(
            MetricName.TELEMETRY_ENTRIES_TOTAL,
            "Trace entries shipped to the trace database.", ("machine",)
        ).labels(machine=machine_id)
        self._m_resets = registry.counter(
            MetricName.TELEMETRY_HISTOGRAM_RESETS_TOTAL,
            "Period histograms restarted after a bin-threshold change.",
            ("machine",)
        ).labels(machine=machine_id)
        self._m_outages = registry.counter(
            MetricName.TELEMETRY_SINK_OUTAGES_TOTAL,
            "Sink-outage episodes (first failed add after a healthy spell).",
            ("machine",)
        ).labels(machine=machine_id)
        self._m_spilled = registry.counter(
            MetricName.TELEMETRY_SPILLED_ENTRIES_TOTAL,
            "Entries diverted to the retry buffer while the sink was down.",
            ("machine",)
        ).labels(machine=machine_id)
        self._m_replayed = registry.counter(
            MetricName.TELEMETRY_REPLAYED_ENTRIES_TOTAL,
            "Spilled entries delivered after the sink recovered.",
            ("machine",)
        ).labels(machine=machine_id)
        self._m_dropped = registry.counter(
            MetricName.TELEMETRY_DROPPED_ENTRIES_TOTAL,
            "Spilled entries evicted because the retry buffer was full.",
            ("machine",)
        ).labels(machine=machine_id)
        self._g_degraded = registry.gauge(
            MetricName.DEGRADED_MODE,
            "1 while a component is running degraded (per component).",
            ("component", "machine")
        ).labels(component="telemetry", machine=machine_id)

    def rebind_observability(self, registry: MetricRegistry,
                             tracer: Tracer) -> None:
        """Re-point metric handles and tracer after a cross-process move."""
        self._tracer = tracer
        self._bind_metrics(registry)

    def maybe_export(self, now: int) -> bool:
        """Export if the period boundary passed; returns True when it did."""
        if not self.schedule.due(now):
            return False
        self.export(now)
        return True

    @property
    def sink_degraded(self) -> bool:
        """True while undelivered entries sit in the retry buffer."""
        return bool(self._spill)

    def _spill_entry(self, now: int, entry: TraceEntry) -> None:
        """Queue an entry for later replay, evicting the oldest when full."""
        self._spill.append(entry)
        self._m_spilled.inc()
        overflow = len(self._spill) - RETRY_BUFFER_CAP
        if overflow > 0:
            del self._spill[:overflow]
            self.entries_dropped += overflow
            self._m_dropped.inc(overflow)
            if self.events is not None:
                self.events.record(
                    now, EventKind.TELEMETRY_ENTRIES_DROPPED,
                    machine=self.machine.machine_id, count=overflow,
                )

    def _begin_outage(self, now: int) -> None:
        """First failed ``sink.add`` after a healthy spell."""
        self._backoff = INITIAL_BACKOFF_SECONDS
        self._retry_at = now + self._backoff
        self._m_outages.inc()
        self._g_degraded.set(1)
        if self.events is not None:
            self.events.record(
                now, EventKind.TELEMETRY_SINK_OUTAGE,
                machine=self.machine.machine_id,
            )

    def _retry_spill(self, now: int) -> None:
        """Replay the retry buffer if the backoff window has elapsed.

        Entries are replayed oldest-first so per-job trace order (and the
        trace database's monotonic-append contract) is preserved.  A
        failure mid-replay keeps the remainder queued and doubles the
        backoff; draining the buffer ends the outage episode.
        """
        if not self._spill or (self._retry_at is not None and now < self._retry_at):
            return
        replayed = 0
        while self._spill:
            try:
                self.sink.add(self._spill[0])
            except Exception:
                self._backoff = min(self._backoff * 2, MAX_BACKOFF_SECONDS)
                self._retry_at = now + self._backoff
                break
            self._spill.pop(0)
            replayed += 1
            self.entries_exported += 1
            self._m_entries.inc()
        if replayed:
            self._m_replayed.inc(replayed)
        if not self._spill:
            self._backoff = INITIAL_BACKOFF_SECONDS
            self._retry_at = None
            self._g_degraded.set(0)
            if self.events is not None:
                self.events.record(
                    now, EventKind.TELEMETRY_SINK_RECOVERED,
                    machine=self.machine.machine_id, replayed=replayed,
                )

    def _deliver(self, now: int, entry: TraceEntry) -> None:
        """Ship one entry, spilling it (in order) when the sink is down."""
        if self._spill:
            # Never overtake queued entries: per-job order must hold.
            self._spill_entry(now, entry)
            return
        try:
            self.sink.add(entry)
        except Exception:
            self._begin_outage(now)
            self._spill_entry(now, entry)
            return
        self.entries_exported += 1
        self._m_entries.inc()

    def _deliver_batch(self, now: int, entries: List[TraceEntry]) -> None:
        """Ship one export window in a single ``sink.add_batch`` call.

        Failure handling matches the per-entry path except that the
        batch is all-or-nothing: ``add_batch`` appends no row on error,
        so the whole window spills and is replayed in order later.
        """
        if not entries:
            return
        if self._spill:
            # Never overtake queued entries: per-job order must hold.
            for entry in entries:
                self._spill_entry(now, entry)
            return
        try:
            self.sink.add_batch(entries)
        except Exception:
            self._begin_outage(now)
            for entry in entries:
                self._spill_entry(now, entry)
            return
        self.entries_exported += len(entries)
        self._m_entries.inc(len(entries))

    def _takes_blocks(self) -> bool:
        """True when this export ships on the block rung: the fastest
        of the delivery ladder (blocks gathered from pool columns, one
        ``add_batch`` of entries, per-entry ``add``) both ends support."""
        return self.prefer_blocks and hasattr(self.sink, "add_block")

    def _period_baseline(
        self, now: int, job_id: str, memcg
    ) -> Optional[AgeHistogram]:
        """The job's previous cumulative promotion snapshot, or None when
        its period histogram restarts from the cumulative counts: on its
        first export, or after its bin thresholds changed (a reset,
        counted and recorded as a ``telemetry.histogram_reset`` event)."""
        last = self._last_promotion.get(job_id)
        if last is not None and last.bins.thresholds != memcg.bins.thresholds:
            self._m_resets.inc()
            if self.events is not None:
                self.events.record(
                    now, EventKind.TELEMETRY_HISTOGRAM_RESET,
                    job=job_id, machine=self.machine.machine_id,
                )
            return None
        return last

    def export(self, now: int) -> None:
        """Emit one trace entry per job on the machine: an export round
        over a list of one (see :func:`export_telemetry`)."""
        export_telemetry([self], now)

    def _export_entries(self, now: int, entry_time: int) -> None:
        """Object-path export window (the block rung's oracle)."""
        batch: Optional[List[TraceEntry]] = (
            [] if hasattr(self.sink, "add_batch") else None
        )
        jobs = self.machine.memcgs.items()
        resident = self.machine.pool.tier_pages(
            [memcg.row for _job, memcg in jobs]).sum(axis=1).tolist()
        for (job_id, memcg), resident_pages in zip(jobs, resident):
            last = self._period_baseline(now, job_id, memcg)
            if last is None:
                period_hist = memcg.promotion_histogram.copy()
            else:
                period_hist = memcg.promotion_histogram.diff(last)
            self._last_promotion[job_id] = memcg.promotion_histogram.copy()

            entry = TraceEntry(
                job_id=job_id,
                machine_id=self.machine.machine_id,
                time=entry_time,
                working_set_pages=working_set_pages(
                    memcg.cold_age_histogram, self.slo.min_cold_age_seconds
                ),
                promotion_histogram=period_hist,
                cold_age_histogram=memcg.cold_age_histogram.copy(),
                resident_pages=resident_pages,
                cpu_cores=self.cpu_lookup(job_id),
            )
            if batch is not None:
                batch.append(entry)
            else:
                self._deliver(now, entry)
        if batch is not None:
            self._deliver_batch(now, batch)


class _BlockRung:
    """An export round's block-rung exporters: one gather per pool, then
    one :class:`TelemetryBlock` per run of them.  Rows ``spans[e]`` of
    the gather are exporter ``e``'s jobs, so a run is one row range."""

    def __init__(self, exporters: List[TelemetryExporter], now: int):
        self.now = now
        self.items = {e: list(e.machine.memcgs.items()) for e in exporters}
        sizes = [len(self.items[e]) for e in exporters]
        ends = np.cumsum(sizes).tolist()
        self.spans = {e: (end - n, end) for e, n, end in zip(exporters, sizes, ends)}
        parts = [
            pool.export_columns(np.array([
                memcg.row for e in group for _j, memcg in self.items[e]
            ], dtype=np.int64), window)
            for (pool, window), group in groupby(
                exporters,
                key=lambda e: (e.machine.pool, e.slo.min_cold_age_seconds),
            )
        ]
        self.cols = parts[0] if len(parts) == 1 else {
            name: np.concatenate([part[name] for part in parts])
            for name in parts[0]
        }
        self.prev_counts = np.zeros_like(self.cols["promotion_counts"])
        self.prev_young = np.zeros_like(self.cols["promotion_young"])
        self.times = np.repeat(
            np.array([max(0, now - e.period) for e in exporters], np.int64),
            sizes,
        )

    def baselines(self, exporter: TelemetryExporter) -> None:
        """One exporter's period baselines and new promotion snapshots
        (the gather detached the rows from the pool, so a snapshot wraps
        its row without a copy)."""
        promo_now = self.cols["promotion_counts"]
        promo_young_now = self.cols["promotion_young"]
        start = self.spans[exporter][0]
        for i, (job_id, memcg) in enumerate(self.items[exporter], start):
            last = exporter._period_baseline(self.now, job_id, memcg)
            if last is not None:
                self.prev_counts[i] = last.counts
                self.prev_young[i] = last.young_count
            snapshot = AgeHistogram(memcg.bins)
            snapshot.counts = promo_now[i]
            snapshot.young_count = int(promo_young_now[i])
            exporter._last_promotion[job_id] = snapshot

    def block(self, run: List[TelemetryExporter]) -> Optional[TelemetryBlock]:
        """The run's rows as one block, or None when it has none."""
        lo, hi = self.spans[run[0]][0], self.spans[run[-1]][1]
        if hi == lo:
            return None
        shipping = [e for e in run if self.items[e]]
        jobs = [(e, job_id) for e in shipping for job_id, _m in self.items[e]]
        cols = self.cols
        return TelemetryBlock(
            bins=run[0].machine.pool.bins,
            job_table=[job_id for _e, job_id in jobs],
            machine_table=[e.machine.machine_id for e in shipping],
            job=np.arange(hi - lo, dtype=np.int64),
            machine=np.repeat(np.arange(len(shipping), dtype=np.int64),
                              [len(self.items[e]) for e in shipping]),
            time=self.times[lo:hi],
            working_set_pages=cols["working_set_pages"][lo:hi],
            resident_pages=cols["resident_pages"][lo:hi],
            cpu_cores=np.fromiter((e.cpu_lookup(job_id) for e, job_id in jobs),
                                  np.float64, hi - lo),
            promotion_counts=(cols["promotion_counts"][lo:hi]
                              - self.prev_counts[lo:hi]),
            promotion_young=(cols["promotion_young"][lo:hi]
                             - self.prev_young[lo:hi]),
            cold_counts=cols["cold_counts"][lo:hi],
            cold_young=cols["cold_young"][lo:hi],
        )

    def spill(self, exporter: TelemetryExporter) -> None:
        """Queue one exporter's rows as entries, in row order."""
        block = self.block([exporter])
        for entry in block.entries() if block is not None else ():
            exporter._spill_entry(self.now, entry)

    def ship(self, run: List[TelemetryExporter]) -> None:
        """One ``add_block`` for a run of exporters sharing a sink.  It is
        all-or-nothing, so on failure each exporter with rows begins its
        own outage and spills its own rows in order (never counted
        twice)."""
        block = self.block(run)
        if block is None:
            return
        try:
            run[0].sink.add_block(block)
        except Exception:
            for exporter in run:
                if self.items[exporter]:
                    exporter._begin_outage(self.now)
                    self.spill(exporter)
            return
        for exporter in run:
            exporter.entries_exported += len(self.items[exporter])
            exporter._m_entries.inc(len(self.items[exporter]))


def export_telemetry(exporters: Sequence[TelemetryExporter], now: int) -> None:
    """One export round for every exporter in ``exporters``.

    Block-rung exporters share one gather per pool, and each run of
    consecutive ones that share a sink and have nothing queued ships as
    one block with a machine table.  An exporter on another rung, or with
    a queued spill, goes its own way and splits the run around itself,
    so rows reach each sink in exactly the per-machine order.  Each
    exporter first retries its spill (once its backoff has elapsed), so
    spilled entries replay oldest first, ahead of the new window.
    Entries describe the period that *ended* at ``now``, clamped at 0.
    """
    if not exporters:
        return
    with exporters[0]._tracer.span("telemetry.export", sim_time=now):
        on_blocks = [e for e in exporters if e._takes_blocks()]
        rung = _BlockRung(on_blocks, now) if on_blocks else None
        run: List[TelemetryExporter] = []
        for exporter in exporters:
            on_rung = rung is not None and exporter in rung.spans
            if exporter._spill or not on_rung or (
                run and run[0].sink is not exporter.sink
            ):
                if run:
                    rung.ship(run)
                run = []
                exporter._retry_spill(now)
            if not on_rung:
                exporter._export_entries(now, max(0, now - exporter.period))
            else:
                rung.baselines(exporter)
                if exporter._spill:
                    # Never overtake queued entries: per-job order must hold.
                    rung.spill(exporter)
                else:
                    run.append(exporter)
            gone = exporter._last_promotion.keys() - exporter.machine.memcgs.keys()
            for job_id in gone:
                del exporter._last_promotion[job_id]
        if run:
            rung.ship(run)
    for exporter in exporters:
        exporter._m_exports.inc()
