"""A cluster: machines + node agents + running jobs, driven tick by tick.

This is the composition root of the simulator (the paper's Fig. 4, scaled
to one cluster): every machine runs the kernel daemons, a node agent with
the §4.3 policy, and a telemetry exporter feeding the shared trace
database.  The cluster advances all of them on a common clock and handles
job lifecycle, memory-pressure eviction, and coverage sampling.

All its machines keep their page state in the cluster's one page pool,
so each layer runs as one round per tick over every due machine: the
job step (one draw round into pool slots, one touch round with one
pooled promotion), the kstaled scan, node-agent control with kreclaimd,
and telemetry export.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.agent.node_agent import NodeAgent, SliSample, control_agents
from repro.agent.telemetry import TelemetryExporter, TraceSink, export_telemetry
from repro.common.errors import OutOfMemoryError, SchedulingError
from repro.common.events import EventKind, EventLog
from repro.common.rng import SeedSequenceFactory, seed_index
from repro.common.simtime import DEFAULT_TICK_SECONDS, Clock
from repro.common.units import MIN_COLD_AGE_THRESHOLD, PAGE_SIZE
from repro.common.validation import check_positive
from repro.core.coverage import CoverageSample
from repro.core.histograms import AgeBins, default_age_bins
from repro.core.slo import PromotionRateSlo
from repro.core.threshold_policy import (
    ColdMemoryPolicy,
    ThresholdPolicyConfig,
    as_policy,
)
from repro.cluster.job import RunningJob, StepPlan
from repro.cluster.scheduler import BorgScheduler
from repro.kernel.machine import (
    Machine,
    MachineConfig,
    machine_sums,
    reclaim_machines,
    tick_machines,
    touch_machines,
)
from repro.obs import (
    MetricName,
    MetricRegistry,
    Tracer,
    get_registry,
    get_tracer,
)
from repro.tracestore import ColumnarTraceDatabase
from repro.workloads.job_generator import JobSpec

__all__ = ["Cluster"]

#: How often coverage samples are taken (seconds).
COVERAGE_SAMPLE_PERIOD = 300


class Cluster:
    """One named cluster of machines under a single scheduler.

    Args:
        name: cluster name (e.g. ``"cluster-00"``).
        n_machines: machines to create.
        machine_config: per-machine static parameters.
        seeds: RNG factory for all cluster randomness.
        trace_db: shared trace database (fleet telemetry sink); defaults
            to a fresh in-memory
            :class:`~repro.tracestore.ColumnarTraceDatabase` on the
            cluster's registry.
        policy_config: what the node agents run — a deployable
            :class:`~repro.core.threshold_policy.ColdMemoryPolicy` or a
            bare :class:`ThresholdPolicyConfig` (coerced to the paper
            policy).
        slo: the promotion-rate SLO.
        bins: candidate-threshold grid; defaults to the paper grid.
        overcommit: scheduler memory overcommit fraction.
        placement: scheduler strategy ("best_fit" or "spread").
        control_period: seconds between node-agent control rounds
            (default: one minute, the paper's cadence).  Dense
            simulation configs stretch it to trade SLI sampling
            resolution for wall-clock throughput.
        registry: metrics registry threaded to every machine, agent and
            exporter (defaults to the process-global one).  The cluster
            also bridges its event log into the registry: every recorded
            event increments ``repro_events_total{kind=...}``.
        tracer: span tracer, likewise threaded down (defaults to the
            process-global one).
    """

    def __init__(
        self,
        name: str,
        n_machines: int,
        machine_config: MachineConfig,
        seeds: SeedSequenceFactory,
        trace_db: Optional[TraceSink] = None,
        policy_config: Optional[object] = None,
        slo: Optional[PromotionRateSlo] = None,
        bins: Optional[AgeBins] = None,
        overcommit: float = 0.0,
        placement: str = "best_fit",
        control_period: Optional[int] = None,
        registry: Optional[MetricRegistry] = None,
        tracer: Optional[Tracer] = None,
    ):
        check_positive(n_machines, "n_machines")
        self.name = name
        self.seeds = seeds
        self.bins = bins if bins is not None else default_age_bins()
        self.slo = slo if slo is not None else PromotionRateSlo()
        self.policy: ColdMemoryPolicy = as_policy(
            policy_config if policy_config is not None else ThresholdPolicyConfig()
        )
        self.events = EventLog(max_events=200_000)
        self.clock = Clock(tick_seconds=DEFAULT_TICK_SECONDS)
        self.registry = registry if registry is not None else get_registry()
        self.trace_db = (trace_db if trace_db is not None
                         else ColumnarTraceDatabase(registry=self.registry))
        self.tracer = tracer if tracer is not None else get_tracer()

        self._wire_event_bridge()

        #: The page pool of every machine below; the cluster drives its
        #: scan and reclaim rounds from :meth:`tick`.
        self.pool = machine_config.make_pool(self.bins)

        self.machines: List[Machine] = [
            Machine(
                machine_id=f"{name}/m{i:04d}",
                config=machine_config,
                bins=self.bins,
                seeds=seeds.fork("machine", index=i),
                events=self.events,
                registry=self.registry,
                tracer=self.tracer,
                pool=self.pool,
            )
            for i in range(n_machines)
        ]
        self.scheduler = BorgScheduler(
            self.machines,
            overcommit=overcommit,
            strategy=placement,
            events=self.events,
        )
        agent_kwargs = {}
        if control_period is not None:
            agent_kwargs["control_period"] = control_period
        self.agents: Dict[str, NodeAgent] = {
            m.machine_id: NodeAgent(m, self.policy, self.slo,
                                    events=self.events,
                                    registry=self.registry, tracer=self.tracer,
                                    **agent_kwargs)
            for m in self.machines
        }
        self.exporters: Dict[str, TelemetryExporter] = {
            m.machine_id: TelemetryExporter(
                m,
                self.trace_db,
                cpu_lookup=self._cpu_of,
                slo=self.slo,
                events=self.events,
                registry=self.registry,
                tracer=self.tracer,
            )
            for m in self.machines
        }
        self.running: Dict[str, RunningJob] = {}
        #: The job step's cached plan (:meth:`_step_jobs`).
        self._step_plan: Optional[StepPlan] = None
        #: Machines whose SLI telemetry is currently lost (e.g. the fault
        #: injector's sink outage).  Their agents keep controlling; the
        #: cluster just drops their samples on the floor at drain time, so
        #: monitors see a telemetry gap rather than stale late batches.
        self.sli_blocked_machines: set = set()
        self.coverage_samples: List[CoverageSample] = []
        self._next_coverage_sample = 0
        self._job_source = None
        self._target_population = 0
        self.fault_injector = None

    def _wire_event_bridge(self) -> None:
        """Bridge the event log into the registry (events -> counter).

        The subscription closure is process-local (EventLog drops
        subscribers on pickle), so this is called both at construction and
        from :meth:`rebind_runtime` after a cross-process move.
        """
        events_counter = self.registry.counter(
            MetricName.EVENTS_TOTAL,
            "Simulation events recorded, by event kind.", ("kind",)
        )
        self.events.subscribe(
            "", lambda event: events_counter.labels(kind=event.kind).inc()
        )

    def rebind_runtime(self, registry: MetricRegistry, tracer: Tracer,
                       trace_db: TraceSink) -> None:
        """Re-attach a cluster that crossed a process boundary.

        An unpickled cluster carries its own forked registry/tracer copies,
        an empty event-subscriber list, and a private trace database.  The
        parallel engine calls this after swapping worker clusters back into
        the parent fleet so every metric handle, span, subscription, and
        telemetry sink points at the parent's live objects again.
        """
        self.registry = registry
        self.tracer = tracer
        self.trace_db = trace_db
        # A cluster rebound *in place* (engine shard fallback) still has
        # its previous bridge subscribed; clear before re-wiring so events
        # are never double-counted.  Unpickled clusters arrive with an
        # empty subscriber list, so this is a no-op on the common path.
        self.events.clear_subscribers()
        self._wire_event_bridge()
        for machine in self.machines:
            machine.rebind_observability(registry, tracer)
        for agent in self.agents.values():
            agent.rebind_observability(registry, tracer)
        for exporter in self.exporters.values():
            exporter.rebind_observability(registry, tracer)
            exporter.sink = trace_db

    # ------------------------------------------------------------------
    # Job lifecycle
    # ------------------------------------------------------------------

    def submit(self, spec: JobSpec) -> RunningJob:
        """Place and start a job; raises SchedulingError when full.

        If the chosen machine cannot physically back the allocation (it can
        be overcommitted), lower-priority jobs are evicted to make room —
        the paper's kill-and-reschedule escape hatch.  The submission fails
        only when eviction cannot help.
        """
        placement = self.scheduler.place(spec, self.clock.now)
        machine = self.scheduler.machines[placement.machine_id]
        while True:
            try:
                job = RunningJob(
                    spec,
                    machine,
                    self.seeds.fork("job", index=self._job_index(spec)),
                    start_time=self.clock.now,
                )
                break
            except OutOfMemoryError:
                if spec.job_id in machine.memcgs:
                    machine.remove_job(spec.job_id)
                victim = self.scheduler.evict_for_pressure(
                    placement.machine_id, self.clock.now
                )
                victim_job = self.running.pop(victim, None) if victim else None
                if victim_job is not None:
                    victim_job.stop()
                if victim is None or victim == spec.job_id:
                    raise SchedulingError(
                        f"machine {placement.machine_id} cannot back "
                        f"job {spec.job_id} even after eviction"
                    ) from None
        self.running[spec.job_id] = job
        return job

    def submit_all(self, specs: Sequence[JobSpec]) -> List[RunningJob]:
        """Submit many jobs; skips (and reports) the ones that don't fit."""
        placed = []
        for spec in specs:
            try:
                placed.append(self.submit(spec))
            except SchedulingError:
                self.events.record(
                    self.clock.now, EventKind.CLUSTER_ADMISSION_REJECT, job=spec.job_id
                )
        return placed

    def finish(self, job_id: str) -> None:
        """Stop a job and release its resources."""
        job = self.running.pop(job_id)
        job.stop()
        self.scheduler.remove(job_id, self.clock.now)

    def enable_churn(self, job_source, target_population: int) -> None:
        """Keep the cluster population at a target as jobs finish.

        Args:
            job_source: zero-argument callable returning a fresh
                :class:`JobSpec` (e.g. ``generator.next_job``).
            target_population: jobs to keep running; each tick, departed
                jobs are replaced (placement failures are skipped quietly
                and retried next tick).
        """
        check_positive(target_population, "target_population")
        self._job_source = job_source
        self._target_population = int(target_population)

    def _replenish(self) -> None:
        if self._job_source is None:
            return
        while len(self.running) < self._target_population:
            spec = self._job_source()
            try:
                self.submit(spec)
            except SchedulingError:
                self.events.record(
                    self.clock.now, EventKind.CLUSTER_REPLENISH_REJECT,
                    job=spec.job_id,
                )
                break

    def _job_index(self, spec: JobSpec) -> int:
        return seed_index(spec.job_id, 31, absolute=True)

    def _cpu_of(self, job_id: str) -> float:
        try:
            return self.scheduler.spec_of(job_id).cpu_cores
        except SchedulingError:
            return 1.0

    # ------------------------------------------------------------------
    # Simulation loop
    # ------------------------------------------------------------------

    def attach_fault_injector(self, injector) -> None:
        """Install a :class:`repro.faults.FaultInjector` on this cluster.

        The injector fires inside :meth:`tick` — *before* jobs, daemons,
        agents, and exporters run — so faults land at the same simulated
        instant whether the cluster ticks in-process or inside a parallel
        engine worker.  That placement is what keeps chaos runs replayable
        bit-for-bit across execution modes.
        """
        self.fault_injector = injector
        injector.bind(self)

    def tick(self) -> None:
        """Advance one tick: jobs, daemons, agents, exporters, sampling."""
        now = self.clock.now

        with self.tracer.span("cluster.tick", sim_time=now):
            if self.fault_injector is not None:
                self.fault_injector.on_tick(self, now)
            for job_id in [
                j for j, job in self.running.items() if job.expired(now)
            ]:
                self.finish(job_id)
            self._replenish()

            self._step_jobs(now)

            tiers = tick_machines(self.machines, now)
            for machine, (near, _far) in zip(self.machines, tiers):
                self._relieve_pressure(machine, now, near)

            # One control, reclaim and export round for all due machines.
            reclaim_machines(control_agents(
                [a for a in self.agents.values() if a.schedule.due(now)], now
            ))
            export_telemetry(
                [e for e in self.exporters.values() if e.schedule.due(now)],
                now,
            )

            if now >= self._next_coverage_sample:
                self._sample_coverage(now)
                self._next_coverage_sample = now + COVERAGE_SAMPLE_PERIOD

        self.clock.advance()

    def _step_jobs(self, now: int) -> None:
        """Every job's accesses for this tick: one draw round, then one
        touch round.

        The draw round (:class:`~repro.cluster.job.StepPlan`) samples
        every job on its own RNG stream into pool slots; the touch round
        (:func:`~repro.kernel.machine.touch_machines`) makes one pool
        touch pass for the reads, one for the writes, and one pooled
        promotion for every machine.  The plan
        is rebuilt whenever the pool layout or the tick interval changes.
        """
        with self.tracer.span("job.step", sim_time=now):
            plan = self._step_plan
            interval = self.clock.tick_seconds
            if plan is None or not plan.fits(self.pool, interval):
                plan = self._step_plan = StepPlan(
                    self.running.values(), self.pool, interval
                )
            reads, writes = plan.draw(now, self.pool.used)
            touch_machines(self.machines, reads, writes)

    def __getstate__(self) -> dict:
        # The engine ships clusters by pickle; the plan is rebuilt on
        # demand, so it never travels.
        state = self.__dict__.copy()
        state["_step_plan"] = None
        return state

    def run(self, seconds: int) -> None:
        """Run the cluster forward by ``seconds``."""
        check_positive(seconds, "seconds")
        end = self.clock.now + seconds
        while self.clock.now < end:
            self.tick()

    def fail_machine(self, machine_id: str) -> List[str]:
        """Simulate a machine crash: its jobs die and reschedule elsewhere.

        The paper's reliability argument for zswap is that compression
        confines the failure domain to one machine — this method is that
        failure.  Jobs are torn down (their far-memory copies vanish with
        the machine), recorded against the eviction SLO, and resubmitted
        to the remaining machines where capacity allows.

        Returns:
            Job ids that could not be rescheduled.
        """
        machine = self.scheduler.machines.get(machine_id)
        if machine is None:
            raise SchedulingError(f"unknown machine {machine_id}")
        victims = self.scheduler.jobs_on(machine_id)
        self.scheduler.mark_offline(machine_id)
        self.events.record(self.clock.now, EventKind.CLUSTER_MACHINE_FAILURE,
                           machine=machine_id, jobs=len(victims))
        unplaced: List[str] = []
        for job_id in victims:
            spec = self.scheduler.spec_of(job_id)
            job = self.running.pop(job_id, None)
            if job is not None:
                job.stop()
            self.scheduler.remove(job_id, self.clock.now)
            self.scheduler.eviction_slo.record(job_id, self.clock.now)
            # Resubmit under a restart name (job ids are unique per life).
            respawn = JobSpec(
                job_id=f"{spec.job_id}.r{self.clock.now}",
                pages=spec.pages,
                cpu_cores=spec.cpu_cores,
                priority=spec.priority,
                content_profile=spec.content_profile,
                pattern_factory=spec.pattern_factory,
                cold_fraction_target=spec.cold_fraction_target,
                duration_seconds=spec.duration_seconds,
            )
            try:
                self.submit(respawn)
            except SchedulingError:
                unplaced.append(job_id)
        return unplaced

    def eviction_slo_jobs(self) -> set:
        """Job ids with at least one recorded eviction."""
        return set(self.scheduler.eviction_slo.evictions)

    def repair_machine(self, machine_id: str) -> None:
        """Bring a failed machine back into the placement pool."""
        self.scheduler.mark_online(machine_id)
        self.events.record(self.clock.now, EventKind.CLUSTER_MACHINE_REPAIRED,
                           machine=machine_id)

    def _relieve_pressure(self, machine: Machine, now: int, near: int) -> None:
        """Evict best-effort jobs while a machine is over capacity.

        ``near`` is the tick's near-page count (:func:`tick_machines`);
        after an eviction the machine is recounted exactly.
        """
        used = near * PAGE_SIZE + machine.arena.footprint_bytes
        while used > machine.config.dram_bytes:
            victim = self.scheduler.evict_for_pressure(machine.machine_id, now)
            if victim is None:
                break
            job = self.running.pop(victim, None)
            if job is not None:
                job.stop()
            used = machine.used_bytes

    def _sample_coverage(self, now: int) -> None:
        """One coverage sample per machine, from one pass over the pool
        for far pages and one for cold pages."""
        far = machine_sums(self.machines, self.pool.tier_pages()[:, 1])
        cold = machine_sums(self.machines,
                            self.pool.cold_pages(MIN_COLD_AGE_THRESHOLD))
        for far_pages, cold_pages in zip(far.tolist(), cold.tolist()):
            self.coverage_samples.append(
                CoverageSample(
                    far_memory_pages=far_pages,
                    cold_pages_at_min_threshold=cold_pages,
                    time=now,
                )
            )

    # ------------------------------------------------------------------
    # Control-plane management
    # ------------------------------------------------------------------

    @property
    def policy_config(self) -> object:
        """The deployed policy's tunables (the policy itself if it has none).

        Kept for the pre-seam spelling ``cluster.policy_config == config``:
        paper/fixed policies expose their :class:`ThresholdPolicyConfig`
        here, so config-level comparisons keep working unchanged.
        """
        return getattr(self.policy, "config", self.policy)

    def deploy_policy(self, policy: object) -> None:
        """Roll a new cold-memory policy to every node agent.

        Accepts either a deployable :class:`ColdMemoryPolicy` or a bare
        :class:`ThresholdPolicyConfig` (the paper policy with those
        tunables).  Per-job controller history carries over.
        """
        self.policy = as_policy(policy)
        for agent in self.agents.values():
            agent.set_policy(self.policy)

    def drain_sli_samples(self) -> List[SliSample]:
        """Collect and clear SLI samples from all agents.

        Samples from machines in :attr:`sli_blocked_machines` are drained
        but discarded — a telemetry outage loses data, it does not queue
        it for later delivery.
        """
        samples: List[SliSample] = []
        for machine_id, agent in self.agents.items():
            drained = agent.drain_sli_samples()
            if machine_id in self.sli_blocked_machines:
                continue
            samples.extend(drained)
        return samples

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    def machine_cold_fractions(self, threshold_seconds: float) -> List[float]:
        """Per-machine cold memory share of used memory (Fig. 2)."""
        resident = machine_sums(self.machines,
                                self.pool.tier_pages()).sum(axis=1)
        cold = machine_sums(self.machines,
                            self.pool.cold_pages(threshold_seconds))
        return [c / r for c, r in zip(cold.tolist(), resident.tolist()) if r]

    def machine_coverages(self) -> List[float]:
        """Per-machine instantaneous coverage (Fig. 6)."""
        far = machine_sums(self.machines, self.pool.tier_pages()[:, 1])
        cold = machine_sums(self.machines,
                            self.pool.cold_pages(MIN_COLD_AGE_THRESHOLD))
        return [min(1.0, f / c) for f, c in zip(far.tolist(), cold.tolist())
                if c]
