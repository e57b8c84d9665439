"""The object-path oracle of the telemetry export.

The exporter gathers each export round from pool columns and ships it in
blocks (:class:`~repro.model.trace.TelemetryBlock`).  :class:`EntryOracle`
computes the same rows one job at a time from the memcg handle: its
histograms, :func:`~repro.core.slo.working_set_pages` over its cold-age
histogram, and a per-job promotion baseline the oracle keeps itself.
:func:`route_exports_through_oracle` makes every export round ship
``TelemetryBlock.from_entries`` of the oracle's entries instead of the
gathered block, so a store fed that way is the reference a store fed by
the runtime's blocks must equal.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.agent import telemetry
from repro.core.histograms import AgeHistogram
from repro.core.slo import working_set_pages
from repro.model.trace import TelemetryBlock, TraceEntry


class EntryOracle:
    """Per-job trace entries of export rounds, built from memcg handles."""

    def __init__(self) -> None:
        #: Last cumulative promotion histogram, by machine and job.
        self._last: Dict[str, Dict[str, AgeHistogram]] = {}

    def entries(self, exporter, now: int) -> List[TraceEntry]:
        """One entry per job on ``exporter``'s machine for the period that
        ended at ``now``; advances the jobs' promotion baselines."""
        machine = exporter.machine
        last = self._last.setdefault(machine.machine_id, {})
        jobs = list(machine.memcgs.items())
        resident = machine.pool.tier_pages(
            [memcg.row for _job, memcg in jobs]).sum(axis=1).tolist()
        out = []
        for (job_id, memcg), resident_pages in zip(jobs, resident):
            promotion = memcg.promotion_histogram
            previous = last.get(job_id)
            if previous is None or (
                previous.bins.thresholds != memcg.bins.thresholds
            ):
                period = promotion.copy()
            else:
                period = promotion.diff(previous)
            last[job_id] = promotion.copy()
            out.append(TraceEntry(
                job_id=job_id,
                machine_id=machine.machine_id,
                time=max(0, now - exporter.period),
                working_set_pages=working_set_pages(
                    memcg.cold_age_histogram,
                    exporter.slo.min_cold_age_seconds,
                ),
                promotion_histogram=period,
                cold_age_histogram=memcg.cold_age_histogram.copy(),
                resident_pages=resident_pages,
                cpu_cores=exporter.cpu_lookup(job_id),
            ))
        for job_id in last.keys() - machine.memcgs.keys():
            del last[job_id]
        return out

    def block(self, window, run) -> Optional[TelemetryBlock]:
        """What the export window ships for ``run``, built from entries."""
        entries = [entry for exporter in run
                   for entry in self.entries(exporter, window.now)]
        return TelemetryBlock.from_entries(entries) if entries else None


def route_exports_through_oracle(monkeypatch) -> EntryOracle:
    """Make every export round (in this process and in any process forked
    from it while the patch holds) ship the oracle's blocks."""
    oracle = EntryOracle()
    monkeypatch.setattr(telemetry._ExportWindow, "block",
                        lambda window, run: oracle.block(window, run))
    return oracle
