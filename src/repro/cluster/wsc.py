"""The warehouse-scale computer: a fleet of clusters (paper §2.2, §6).

:class:`WSC` aggregates clusters behind fleet-level metrics — coverage,
cold-memory distributions, SLI percentiles — and fans control-plane
deployments (new autotuner configurations) out to every cluster.
:func:`quickfleet` builds a small calibrated fleet in one call for
examples and tests.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.agent.node_agent import SliSample
from repro.common.rng import SeedSequenceFactory
from repro.common.units import GIB, HOUR, MIB, MIN_COLD_AGE_THRESHOLD, PAGE_SIZE
from repro.common.validation import check_positive
from repro.core.coverage import CoverageSample, fleet_coverage
from repro.cluster.cluster import Cluster
from repro.cluster.trace_db import TraceDatabase
from repro.kernel.machine import FarMemoryMode, MachineConfig
from repro.obs import (
    MetricName,
    MetricRegistry,
    Tracer,
    get_registry,
    get_tracer,
)
from repro.workloads.job_generator import FleetMixGenerator

__all__ = ["WSC", "quickfleet"]


class WSC:
    """A fleet of clusters sharing one trace database and one policy.

    Args:
        clusters: member clusters (each already wired to ``trace_db``).
        trace_db: the fleet telemetry store.
        registry: metrics registry the fleet-level gauges are published
            to (defaults to the process-global one).
        tracer: span tracer (defaults to the process-global one).
    """

    def __init__(
        self,
        clusters: Sequence[Cluster],
        trace_db: TraceDatabase,
        registry: Optional[MetricRegistry] = None,
        tracer: Optional[Tracer] = None,
    ):
        if not clusters:
            raise ValueError("a WSC needs at least one cluster")
        self._clusters = list(clusters)
        self._machines_cache: Optional[List] = None
        #: The open :class:`~repro.engine.FleetEngine` session whose
        #: workers own some clusters (None: every cluster is live here).
        self._session = None
        self.trace_db = trace_db
        self.sli_history: List[SliSample] = []
        self.registry = registry if registry is not None else get_registry()
        self.tracer = tracer if tracer is not None else get_tracer()

    @property
    def clusters(self) -> List[Cluster]:
        """Member clusters, live: an open engine session is closed first.

        Assigning a new list invalidates the machine cache; mutating the
        list in place requires calling :meth:`invalidate_caches` by hand.
        """
        self._close_session()
        return self._clusters

    @clusters.setter
    def clusters(self, clusters: Sequence[Cluster]) -> None:
        if not clusters:
            raise ValueError("a WSC needs at least one cluster")
        self._close_session()
        self._clusters = list(clusters)
        self.invalidate_caches()

    def _close_session(self) -> None:
        """Ship every cluster home from an open engine session, if any."""
        if self._session is not None:
            self._session.close(self)

    def invalidate_caches(self) -> None:
        """Drop cached aggregates derived from the cluster list."""
        self._machines_cache = None

    @property
    def machines(self) -> List:
        """Every machine in the fleet (cached; see :attr:`clusters`)."""
        self._close_session()
        if self._machines_cache is None:
            self._machines_cache = [
                m for c in self._clusters for m in c.machines
            ]
        return self._machines_cache

    @property
    def now(self) -> int:
        """Fleet time (clusters share a logical clock)."""
        if self._session is not None:
            return self._session.now(self)
        return self._clusters[0].clock.now

    def run(self, seconds: int, engine=None) -> None:
        """Advance every cluster by ``seconds``, in lockstep ticks.

        Args:
            seconds: simulated seconds to advance.  Every tick drains
                the clusters' SLI samples into :attr:`sli_history`.
            engine: optional :class:`repro.engine.FleetEngine` bound to
                this fleet; when given, execution is delegated to it
                (parallel across worker processes where possible) with
                results guaranteed identical to the serial path.
        """
        check_positive(seconds, "seconds")
        if engine is not None:
            engine.run(seconds)
            return
        self._close_session()
        end = self.now + seconds
        while self.now < end:
            for cluster in self._clusters:
                cluster.tick()
            for cluster in self._clusters:
                self.sli_history.extend(cluster.drain_sli_samples())

    def deploy_policy(self, policy: object) -> None:
        """Fleet-wide rollout of a cold-memory policy.

        Accepts a :class:`~repro.core.threshold_policy.ColdMemoryPolicy`
        or a bare :class:`ThresholdPolicyConfig` (the paper policy).
        """
        self.map_clusters(_deploy_policy, policy)

    def map_clusters(self, fn: Callable, *args,
                     indices: Optional[Iterable[int]] = None) -> list:
        """``fn(cluster, *args)`` for each selected cluster, in cluster
        order, wherever the cluster lives.

        Under an open engine session each worker owning a selected
        cluster gets one command (logged, so a replay of a lost worker
        reproduces it) and the session stays open; without one this is
        a plain loop.  ``fn`` must be a module-level function and
        ``args`` and the results picklable.

        Args:
            fn: applied to each selected cluster.
            args: extra positional arguments for ``fn``.
            indices: cluster indices to apply ``fn`` to (default: all).
        """
        if indices is None:
            indices = range(len(self._clusters))
        indices = list(indices)
        if self._session is not None:
            return self._session.call(self, fn, args, indices)
        return [fn(self._clusters[ci], *args) for ci in indices]

    # ------------------------------------------------------------------
    # Fleet metrics
    # ------------------------------------------------------------------

    def coverage(self) -> float:
        """Instantaneous fleet cold-memory coverage."""
        samples = [
            CoverageSample(
                far_memory_pages=m.far_pages,
                cold_pages_at_min_threshold=m.cold_pages(MIN_COLD_AGE_THRESHOLD),
            )
            for m in self.machines
        ]
        return fleet_coverage(samples)

    def cold_fraction(self, threshold_seconds: float) -> float:
        """Fleet share of used memory idle at least ``threshold_seconds``."""
        cold = 0
        resident = 0
        for machine in self.machines:
            cold += machine.cold_pages(threshold_seconds)
            resident += sum(m.resident_pages for m in machine.memcgs.values())
        return cold / resident if resident else 0.0

    def promotion_rate_percentile(self, percentile: float) -> float:
        """Fleet percentile of the normalized promotion-rate SLI (Fig. 7)."""
        rates = [
            s.normalized_rate_pct_per_min
            for s in self.sli_history
            if np.isfinite(s.normalized_rate_pct_per_min)
            and s.working_set_pages > 0
        ]
        if not rates:
            return 0.0
        return float(np.percentile(rates, percentile))

    def coverage_report(self) -> Dict[str, float]:
        """Headline fleet numbers in one dict."""
        return {
            "coverage": self.coverage(),
            "cold_fraction_at_min_threshold": self.cold_fraction(
                MIN_COLD_AGE_THRESHOLD
            ),
            "promotion_rate_p98_pct_per_min": self.promotion_rate_percentile(98.0),
            "far_memory_gib": sum(m.far_pages for m in self.machines)
            * PAGE_SIZE
            / GIB,
            "saved_gib": sum(m.saved_bytes() for m in self.machines) / GIB,
        }

    def fleet_health_report(self) -> Dict[str, float]:
        """The fleet health SLIs the paper monitors, in one dict.

        Extends :meth:`coverage_report` with the zswap quality numbers
        (mean compression ratio, incompressible fraction — §3.2/§6.3) and
        the promotion-rate SLI percentiles (Fig. 7).  Each derived number
        is also published to the registry as a ``repro_fleet_*`` gauge so
        it appears in the Prometheus exposition next to the raw counters.
        """
        compressed = rejected = payload = 0
        for machine in self.machines:
            for stats in machine.zswap.job_stats.values():
                compressed += stats.pages_compressed
                rejected += stats.pages_rejected
                payload += stats.payload_bytes_stored
        attempts = compressed + rejected
        incompressible = rejected / attempts if attempts else 0.0
        ratio = compressed * PAGE_SIZE / payload if payload else 0.0

        report = dict(self.coverage_report())
        report.update(
            {
                "promotion_rate_p50_pct_per_min": self.promotion_rate_percentile(50.0),
                "promotion_rate_p90_pct_per_min": self.promotion_rate_percentile(90.0),
                "incompressible_fraction": incompressible,
                "compression_ratio": ratio,
            }
        )

        gauges = {
            MetricName.FLEET_COVERAGE:
                ("Fleet cold-memory coverage (far / cold).", "coverage"),
            MetricName.FLEET_COLD_FRACTION:
                ("Fleet share of used memory cold at the minimum threshold.",
                 "cold_fraction_at_min_threshold"),
            MetricName.FLEET_COMPRESSION_RATIO:
                ("Fleet mean zswap compression ratio.", "compression_ratio"),
            MetricName.FLEET_INCOMPRESSIBLE_FRACTION:
                ("Fraction of compression attempts rejected as "
                 "incompressible.", "incompressible_fraction"),
            MetricName.FLEET_PROMOTION_RATE_P50_PCT_PER_MIN:
                ("Fleet p50 of the promotion-rate SLI.",
                 "promotion_rate_p50_pct_per_min"),
            MetricName.FLEET_PROMOTION_RATE_P90_PCT_PER_MIN:
                ("Fleet p90 of the promotion-rate SLI.",
                 "promotion_rate_p90_pct_per_min"),
            MetricName.FLEET_PROMOTION_RATE_P98_PCT_PER_MIN:
                ("Fleet p98 of the promotion-rate SLI.",
                 "promotion_rate_p98_pct_per_min"),
            MetricName.FLEET_FAR_MEMORY_GIB:
                ("GiB currently stored compressed fleet-wide.",
                 "far_memory_gib"),
            MetricName.FLEET_SAVED_GIB:
                ("GiB of DRAM saved by compression fleet-wide.",
                 "saved_gib"),
        }
        for name, (help_text, key) in gauges.items():
            self.registry.gauge(name, help_text).set(report[key])
        return report


def _deploy_policy(cluster: Cluster, policy: object) -> None:
    cluster.deploy_policy(policy)


def quickfleet(
    clusters: int = 1,
    machines_per_cluster: int = 4,
    jobs_per_machine: int = 8,
    seed: int = 0,
    machine_dram_gib: float = 4.0,
    job_pages_range: Optional[tuple] = None,
    mode: FarMemoryMode = FarMemoryMode.PROACTIVE,
    kernel: str = "columnar",
    pool_scope: str = "cluster",
    scan_period: Optional[int] = None,
    control_period: Optional[int] = None,
    policy_config: Optional[object] = None,
    mean_cold_fraction: float = 0.32,
    warmup_hours: float = 0.0,
    placement: str = "spread",
    churn_duration_range: Optional[tuple] = None,
    registry: Optional[MetricRegistry] = None,
    tracer: Optional[Tracer] = None,
    trace_db=None,
) -> WSC:
    """Build a small, ready-to-run fleet with a calibrated job mix.

    Each cluster keeps the page state of all its machines in one page
    pool (columnar unless ``kernel`` asks for the reference).

    Args:
        clusters: number of clusters.
        machines_per_cluster: machines per cluster.
        jobs_per_machine: jobs submitted per machine.
        seed: root RNG seed (everything is derived from it).
        machine_dram_gib: DRAM per machine.
        job_pages_range: (min_pages, max_pages) clip for job sizes;
            defaults to 4-32 MiB jobs so examples run in seconds.
        mode: far-memory mode for every machine.
        kernel: page-pool class of every cluster — ``"columnar"`` (see
            :mod:`repro.kernel.columnar`) or the bit-equivalent reference
            ``"scalar"`` (:mod:`repro.kernel.oracle`), which only
            equivalence checks use.
        pool_scope: accepted for older callers and must be
            ``"cluster"``: every cluster owns exactly one page pool.  The
            per-machine pools are gone, and any other value raises
            :class:`ValueError`.
        scan_period: kstaled period override in seconds (defaults to the
            kernel default, 120 s).
        control_period: node-agent control round period override in
            seconds (defaults to the paper's one-minute cadence).
        policy_config: initial policy — a ``ColdMemoryPolicy`` or a bare
            ``ThresholdPolicyConfig``; defaults to the paper defaults.
        mean_cold_fraction: target fleet-mean cold share.
        warmup_hours: optionally run the fleet forward before returning,
            so ages and histograms are populated.
        placement: scheduler strategy; defaults to "spread" so every
            machine hosts jobs (best_fit strands machines when jobs are
            small relative to DRAM).
        churn_duration_range: optional (low, high) job-lifetime seconds.
            When set, jobs have finite lives and the cluster keeps its
            population constant by admitting fresh jobs — the fleet churn
            that makes the warm-up parameter S meaningful.
        registry: metrics registry threaded through every layer
            (defaults to the process-global one).
        tracer: span tracer, likewise threaded (defaults to the global
            one).
        trace_db: the telemetry sink shared by every cluster — any
            object with the :class:`~repro.cluster.trace_db.TraceDatabase`
            surface, e.g. a
            :class:`~repro.tracestore.ColumnarTraceDatabase` to persist
            traces to disk as they stream (defaults to a fresh in-memory
            database).

    Returns:
        A :class:`WSC` with all jobs placed (and optionally warmed up).
    """
    if pool_scope != "cluster":
        raise ValueError(
            f"pool_scope={pool_scope!r}: per-machine page pools were "
            f"removed; every cluster owns one page pool, so the only "
            f'accepted value is "cluster"'
        )
    seeds = SeedSequenceFactory(seed)
    if trace_db is None:
        trace_db = TraceDatabase()
    if job_pages_range is None:
        job_pages_range = ((4 * MIB) // PAGE_SIZE, (32 * MIB) // PAGE_SIZE)

    generator = FleetMixGenerator(
        seeds=seeds.fork("fleetmix"),
        mean_cold_fraction=mean_cold_fraction,
        min_pages=job_pages_range[0],
        max_pages=job_pages_range[1],
        duration_range=churn_duration_range,
    )
    config_kwargs = dict(
        dram_bytes=int(machine_dram_gib * GIB), mode=mode, kernel=kernel
    )
    if scan_period is not None:
        config_kwargs["scan_period"] = int(scan_period)
    machine_config = MachineConfig(**config_kwargs)
    built = []
    for c in range(clusters):
        cluster = Cluster(
            name=f"cluster-{c:02d}",
            n_machines=machines_per_cluster,
            machine_config=machine_config,
            seeds=seeds.fork("cluster", index=c),
            trace_db=trace_db,
            policy_config=policy_config,
            overcommit=0.0,
            placement=placement,
            control_period=control_period,
            registry=registry,
            tracer=tracer,
        )
        specs = generator.generate(machines_per_cluster * jobs_per_machine)
        cluster.submit_all(specs)
        if churn_duration_range is not None:
            # Each cluster gets its own churn generator so replacement-job
            # draws depend only on that cluster's history, never on how
            # clusters interleave — the property that lets the parallel
            # engine shard clusters across workers (repro.engine).
            churn_generator = FleetMixGenerator(
                seeds=seeds.fork("churn", index=c),
                mean_cold_fraction=mean_cold_fraction,
                min_pages=job_pages_range[0],
                max_pages=job_pages_range[1],
                duration_range=churn_duration_range,
                name_prefix=f"churn-c{c:02d}",
            )
            cluster.enable_churn(churn_generator.next_job, len(specs))
        built.append(cluster)
    fleet = WSC(built, trace_db, registry=registry, tracer=tracer)
    if warmup_hours > 0:
        fleet.run(int(warmup_hours * HOUR))
    return fleet
