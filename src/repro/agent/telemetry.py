"""Telemetry export: node agent -> external trace database (paper §5.2-5.3).

Every 5 minutes the agent exports, per job, the row the autotuner's fast
far memory model consumes: working set size, the promotion histogram
accumulated over the period, and the current cold-age snapshot.  An export
round gathers every machine's rows from its page pool in one pass and
ships them as blocks (:class:`~repro.model.trace.TelemetryBlock`); the
sink is anything with an ``add_block(block)`` method — in this repo,
:class:`repro.tracestore.ColumnarTraceDatabase`.
"""

from __future__ import annotations

from itertools import groupby
from typing import Callable, Dict, List, Optional, Protocol, Sequence

import numpy as np

from repro.common.events import EventKind, EventLog
from repro.common.simtime import PeriodicSchedule
from repro.core.histograms import AgeHistogram
from repro.core.slo import PromotionRateSlo
from repro.kernel.machine import Machine
from repro.model.trace import TRACE_PERIOD_SECONDS, TelemetryBlock
from repro.obs import (
    MetricName,
    MetricRegistry,
    Tracer,
    get_registry,
    get_tracer,
)

__all__ = ["TraceSink", "TelemetryExporter", "export_telemetry"]

#: Most spilled rows retained while the sink is down; beyond this the
#: oldest spilled rows are dropped (and counted) so a never-healing sink
#: cannot grow memory without bound.
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
    """Anything that accepts exported telemetry blocks."""

    def add_block(self, block: TelemetryBlock) -> None:
        """Store every row of ``block``, or none of them (and raise)."""
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
        # Graceful degradation under a failing sink: blocks that could
        # not be delivered wait here (FIFO, bounded by rows) until a retry
        # lands.
        self._spill: List[TelemetryBlock] = []
        self._spill_rows = 0
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
            "Sink-outage episodes (first failed add_block after a healthy spell).",
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
        """True while undelivered rows sit in the retry buffer."""
        return bool(self._spill)

    def _spill_block(self, now: int, block: TelemetryBlock) -> None:
        """Queue a block for later replay; past :data:`RETRY_BUFFER_CAP`
        rows the oldest rows go, even where that splits a block."""
        self._spill.append(block)
        self._spill_rows += block.n_rows
        self._m_spilled.inc(block.n_rows)
        overflow = self._spill_rows - RETRY_BUFFER_CAP
        if overflow <= 0:
            return
        self._spill_rows -= overflow
        self.entries_dropped += overflow
        self._m_dropped.inc(overflow)
        if self.events is not None:
            self.events.record(
                now, EventKind.TELEMETRY_ENTRIES_DROPPED,
                machine=self.machine.machine_id, count=overflow,
            )
        while overflow >= self._spill[0].n_rows:
            overflow -= self._spill.pop(0).n_rows
        if overflow:
            head = self._spill[0]
            self._spill[0] = head.select(np.arange(overflow, head.n_rows))

    def _begin_outage(self, now: int) -> None:
        """First failed ``add_block`` after a healthy spell."""
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

        Blocks are replayed oldest first, one ``add_block`` each, so
        per-job trace order (and the trace database's monotonic-append
        contract) is preserved.  A failure mid-replay keeps the remainder
        queued and doubles the backoff; draining the buffer ends the
        outage episode.
        """
        if not self._spill or (self._retry_at is not None and now < self._retry_at):
            return
        replayed = 0
        while self._spill:
            try:
                self.sink.add_block(self._spill[0])
            except Exception:
                self._backoff = min(self._backoff * 2, MAX_BACKOFF_SECONDS)
                self._retry_at = now + self._backoff
                break
            rows = self._spill.pop(0).n_rows
            self._spill_rows -= rows
            replayed += rows
        if replayed:
            self._count_exported(replayed)
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

    def _count_exported(self, rows: int) -> None:
        self.entries_exported += rows
        self._m_entries.inc(rows)

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
        """Export one row per job on the machine: an export round over a
        list of one (see :func:`export_telemetry`)."""
        export_telemetry([self], now)


class _ExportWindow:
    """One export round's rows: one gather per pool, then one
    :class:`TelemetryBlock` per run of exporters.  Rows ``spans[e]`` of
    the gather are exporter ``e``'s jobs, so a run is one row range."""

    def __init__(self, exporters: Sequence[TelemetryExporter], now: int):
        self.now = now
        self.items = {e: list(e.machine.memcgs.items()) for e in exporters}
        sizes = [len(self.items[e]) for e in exporters]
        ends = np.cumsum(sizes).tolist()
        self.spans = {e: (end - n, end) for e, n, end in zip(exporters, sizes, ends)}
        parts = [
            pool.export_columns(np.array([
                memcg.row for e in group for _j, memcg in self.items[e]
            ], dtype=np.int64), min_age)
            for (pool, min_age), group in groupby(
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

    def ship(self, run: List[TelemetryExporter]) -> None:
        """One ``add_block`` for a run of exporters sharing a sink.  It is
        all-or-nothing, so on failure each exporter with rows begins its
        own outage and spills its own rows (never counted twice)."""
        block = self.block(run) if run else None
        if block is None:
            return
        try:
            run[0].sink.add_block(block)
        except Exception:
            base = self.spans[run[0]][0]
            for exporter in run:
                lo, hi = self.spans[exporter]
                if hi > lo:
                    exporter._begin_outage(self.now)
                    exporter._spill_block(self.now, block.select(
                        np.arange(lo - base, hi - base)))
            return
        for exporter in run:
            exporter._count_exported(len(self.items[exporter]))


def export_telemetry(exporters: Sequence[TelemetryExporter], now: int) -> None:
    """One export round for every exporter in ``exporters``.

    The exporters share one gather per pool, and each run of consecutive
    ones that share a sink and have nothing queued ships as one block
    with a machine table.  An exporter with a queued spill goes its own
    way and splits the run around itself, so rows reach each sink in
    exactly the per-machine order: it first retries its spill (once its
    backoff has elapsed), oldest block first, and its new window queues
    behind whatever is still spilled.  Rows describe the period that
    *ended* at ``now``, clamped at 0.
    """
    if not exporters:
        return
    with exporters[0]._tracer.span("telemetry.export", sim_time=now):
        window = _ExportWindow(exporters, now)
        run: List[TelemetryExporter] = []
        for exporter in exporters:
            if exporter._spill or (run and run[0].sink is not exporter.sink):
                window.ship(run)
                run = []
                exporter._retry_spill(now)
            window.baselines(exporter)
            if exporter._spill:
                # Never overtake queued rows: per-job order must hold.
                block = window.block([exporter])
                if block is not None:
                    exporter._spill_block(now, block)
            else:
                run.append(exporter)
            gone = exporter._last_promotion.keys() - exporter.machine.memcgs.keys()
            for job_id in gone:
                del exporter._last_promotion[job_id]
        window.ship(run)
    for exporter in exporters:
        exporter._m_exports.inc()
