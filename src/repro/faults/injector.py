"""Fault injector: applies a :class:`FaultPlan` to a live cluster.

The injector is attached to a cluster (``cluster.attach_fault_injector``)
and fires from the top of ``Cluster.tick`` — before jobs, daemons, agents,
and exporters run — so a fault lands at the same simulated instant no
matter which process executes the tick.  Everything the injector does is
driven by the plan plus :class:`~repro.common.rng.SeedSequenceFactory`
streams, which is what keeps chaos runs bit-for-bit identical between the
serial and parallel engines.

Episodic faults are *level-triggered*: while an episode is open the
injector re-asserts the degraded state on every tick (re-wrapping a
telemetry sink, re-pinning the zswap payload cutoff).  That makes the
layer robust against runtime rewiring — ``Cluster.rebind_runtime`` resets
``exporter.sink`` after a cross-process move, and a level-triggered
outage simply wraps it again on the next tick.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.common.errors import ReproError
from repro.common.events import EventKind
from repro.common.rng import SeedSequenceFactory
from repro.faults.plan import (
    ALL_MACHINES,
    EPISODIC_KINDS,
    FaultEvent,
    FaultKind,
    FaultPlan,
)
from repro.obs import MetricName

__all__ = ["BrokenSink", "FaultInjector", "SinkUnavailableError"]


class SinkUnavailableError(ReproError):
    """The telemetry sink is down (injected outage)."""


class BrokenSink:
    """A trace sink stand-in that refuses every ``add_block``.

    Module-level (not a closure) so a cluster mid-outage still pickles
    across the parallel engine's fork boundary.  The wrapped sink is kept
    on ``inner`` so the injector can unwrap it when the episode ends.
    """

    def __init__(self, inner: Any):
        self.inner = inner

    def add_block(self, block: Any) -> None:
        raise SinkUnavailableError("telemetry sink offline (injected fault)")


@dataclass
class _ActiveFault:
    """One open episode: the event, its window, and undo state."""

    seq: int
    event: FaultEvent
    end_time: float
    machine_ids: Tuple[str, ...]
    #: Original ``zswap.max_payload_bytes`` per machine (storm/failure).
    saved_cutoffs: Dict[str, int] = field(default_factory=dict)


class FaultInjector:
    """Executes a :class:`FaultPlan` against one cluster.

    Args:
        plan: the schedule to execute.
        seeds: seed factory for the injector's own draws (pressure-spike
            page choices, corruption victim choices).  Fork a per-cluster
            child so sibling clusters stay independent.

    The injector holds no metric handles or subscriber closures of its
    own — counters and events are resolved through the cluster at fire
    time — so it pickles cleanly with the cluster it is attached to.
    """

    def __init__(self, plan: FaultPlan, seeds: SeedSequenceFactory):
        self.plan = plan
        self._seeds = seeds
        self._next = 0
        self._active: List[_ActiveFault] = []
        self._crashed: List[str] = []
        self.faults_injected = 0
        self.faults_cleared = 0

    def bind(self, cluster: Any) -> None:
        """Hook for :meth:`Cluster.attach_fault_injector` (stateless)."""
        del cluster

    @property
    def active_faults(self) -> Tuple[FaultEvent, ...]:
        """Events whose episodes are currently open."""
        return tuple(af.event for af in self._active)

    def done(self) -> bool:
        """True once every event fired and every episode closed."""
        return self._next >= len(self.plan.events) and not self._active

    # ------------------------------------------------------------------
    # Tick hook
    # ------------------------------------------------------------------

    def on_tick(self, cluster: Any, now: int) -> None:
        """Start due events, close elapsed episodes, re-assert open ones."""
        events = self.plan.events
        while self._next < len(events) and events[self._next].time <= now:
            self._start(cluster, now, self._next, events[self._next])
            self._next += 1
        still_open: List[_ActiveFault] = []
        for af in self._active:
            if af.end_time <= now:
                self._end(cluster, now, af)
            else:
                still_open.append(af)
        self._active = still_open
        for af in self._active:
            self._enforce(cluster, af)

    # ------------------------------------------------------------------
    # Start / enforce / end
    # ------------------------------------------------------------------

    def _target_machines(self, cluster: Any, event: FaultEvent) -> List[Any]:
        machines = cluster.machines
        if event.target == ALL_MACHINES:
            return list(machines)
        return [machines[event.target % len(machines)]]

    def _count_injected(self, cluster: Any, kind: str) -> None:
        cluster.registry.counter(
            MetricName.FAULTS_INJECTED_TOTAL,
            "Faults injected into the cluster, by fault kind.", ("kind",)
        ).labels(kind=kind).inc()

    def _start(self, cluster: Any, now: int, seq: int,
               event: FaultEvent) -> None:
        targets = self._target_machines(cluster, event)
        machine_ids = tuple(m.machine_id for m in targets)
        af = _ActiveFault(
            seq=seq, event=event, end_time=event.end_time,
            machine_ids=machine_ids,
        )

        if event.kind == FaultKind.MACHINE_CRASH:
            for machine in targets:
                if machine.machine_id in self._crashed:
                    continue
                cluster.fail_machine(machine.machine_id)
                self._crashed.append(machine.machine_id)
        elif event.kind in (FaultKind.INCOMPRESSIBLE_STORM,
                            FaultKind.COMPRESSION_FAILURE):
            for machine in targets:
                af.saved_cutoffs[machine.machine_id] = int(
                    machine.zswap.max_payload_bytes
                )
        elif event.kind == FaultKind.MEMORY_PRESSURE:
            self._spike_pressure(targets, seq, event.magnitude)
        elif event.kind == FaultKind.HISTOGRAM_CORRUPT:
            self._corrupt_histograms(targets, seq, event.magnitude)

        self.faults_injected += 1
        self._count_injected(cluster, event.kind)
        cluster.events.record(
            now, EventKind.FAULT_INJECTED,
            fault=event.kind, scenario=self.plan.name,
            machines=list(machine_ids), magnitude=event.magnitude,
            duration=event.duration,
        )
        if event.kind in EPISODIC_KINDS:
            self._active.append(af)
            self._enforce(cluster, af)

    def _enforce(self, cluster: Any, af: _ActiveFault) -> None:
        """Re-assert an open episode's degraded state (idempotent)."""
        event = af.event
        if event.kind == FaultKind.SINK_OUTAGE:
            # The same outage that blocks trace uploads also blocks the
            # agents' SLI uploads: the cluster drops the affected
            # machines' samples at drain time, so monitors see a
            # telemetry gap (and deployment's coverage gate fails
            # closed) instead of vacuously passing on silence.
            cluster.sli_blocked_machines.update(af.machine_ids)
            for machine_id in af.machine_ids:
                exporter = cluster.exporters.get(machine_id)
                if exporter is not None and not isinstance(
                    exporter.sink, BrokenSink
                ):
                    exporter.sink = BrokenSink(exporter.sink)
        elif event.kind in (FaultKind.INCOMPRESSIBLE_STORM,
                            FaultKind.COMPRESSION_FAILURE):
            for machine in cluster.machines:
                original = af.saved_cutoffs.get(machine.machine_id)
                if original is None:
                    continue
                machine.zswap.max_payload_bytes = int(
                    original * event.magnitude
                )

    def _end(self, cluster: Any, now: int, af: _ActiveFault) -> None:
        event = af.event
        if event.kind == FaultKind.MACHINE_CRASH:
            for machine_id in af.machine_ids:
                if machine_id in self._crashed:
                    cluster.repair_machine(machine_id)
                    self._crashed.remove(machine_id)
        elif event.kind == FaultKind.SINK_OUTAGE:
            cluster.sli_blocked_machines.difference_update(af.machine_ids)
            for machine_id in af.machine_ids:
                exporter = cluster.exporters.get(machine_id)
                if exporter is not None and isinstance(
                    exporter.sink, BrokenSink
                ):
                    exporter.sink = exporter.sink.inner
        elif event.kind in (FaultKind.INCOMPRESSIBLE_STORM,
                            FaultKind.COMPRESSION_FAILURE):
            for machine in cluster.machines:
                original = af.saved_cutoffs.get(machine.machine_id)
                if original is not None:
                    machine.zswap.max_payload_bytes = original
        self.faults_cleared += 1
        cluster.events.record(
            now, EventKind.FAULT_CLEARED,
            fault=event.kind, scenario=self.plan.name,
            machines=list(af.machine_ids),
        )

    # ------------------------------------------------------------------
    # Instantaneous fault bodies
    # ------------------------------------------------------------------

    def _spike_pressure(self, targets: List[Any], seq: int,
                        magnitude: float) -> None:
        """Touch a seeded fraction of every target job's resident pages.

        The touches go through the machine, so far pages among them fault
        back through zswap and count as promotions.
        """
        rng = self._seeds.stream("faults.pressure", seq=seq)
        for machine in targets:
            for job_id in sorted(machine.memcgs):
                row = machine.memcgs[job_id].row
                resident = np.flatnonzero(machine.pool.row_pages(row).resident)
                count = int(resident.size * magnitude)
                if count == 0:
                    continue
                touched = rng.choice(resident, size=count, replace=False)
                machine.touch(job_id, touched)

    def _corrupt_histograms(self, targets: List[Any], seq: int,
                            magnitude: float) -> None:
        """Flag a seeded fraction of target jobs' histograms corrupt."""
        rng = self._seeds.stream("faults.corrupt", seq=seq)
        for machine in targets:
            for job_id in sorted(machine.memcgs):
                if rng.random() < magnitude:
                    machine.memcgs[job_id].histograms_corrupt = True
