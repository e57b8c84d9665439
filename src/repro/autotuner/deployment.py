"""Staged deployment with monitoring and rollback (paper §5.3).

"The deployment happens in multiple stages from qualification to production
with rigorous monitoring at each stage in order to detect bad
configurations and roll back if necessary before causing a large-scale
impact."

:class:`StagedDeployment` rolls a policy to progressively larger slices of
the fleet; after each stage it runs the fleet forward, measures the SLO on
the slice, and either advances, or rolls every touched cluster back to the
configuration it was actually running before the rollout started.

Three hard-won properties of a real canary pipeline are encoded here:

* **Fail closed.**  "No alert fired" is only evidence of health when SLI
  samples actually arrived; a telemetry outage must not look like a green
  soak.  Each stage requires at least ``min_coverage`` slice samples or it
  fails with reason ``"insufficient-coverage"``.
* **Attribute every sample.**  Jobs churn during a soak, so job→cluster
  ownership is resolved from scheduler placements over the whole window —
  a sample from a job that exited mid-soak still counts toward the slice
  that ran it.  Samples that cannot be attributed at all are counted in
  the outcome rather than silently dropped.
* **Restore what each cluster ran.**  Clusters may be on heterogeneous
  configurations (a prior partial rollout, per-cluster experiments);
  rollback restores each cluster's own recorded prior policy, never one
  fleet-wide "previous config".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.agent.monitoring import SloMonitor
from repro.common.events import EventKind
from repro.common.validation import check_fraction, check_positive, require
from repro.core.threshold_policy import ColdMemoryPolicy, as_policy
from repro.cluster.wsc import WSC
from repro.obs import MetricName, MetricRegistry, get_registry

__all__ = ["DeploymentStage", "StageOutcome", "StagedDeployment",
           "DEFAULT_STAGES"]


@dataclass(frozen=True)
class DeploymentStage:
    """One rollout stage.

    Attributes:
        name: e.g. ``"qualification"``, ``"canary"``, ``"production"``.
        fleet_fraction: cumulative fraction of clusters running the new
            configuration after this stage.
        soak_seconds: how long to run before judging the stage.
    """

    name: str
    fleet_fraction: float
    soak_seconds: int

    def __post_init__(self) -> None:
        check_fraction(self.fleet_fraction, "fleet_fraction")
        check_positive(self.soak_seconds, "soak_seconds")


#: The paper-style default ladder.
DEFAULT_STAGES = (
    DeploymentStage("qualification", 0.1, 3600),
    DeploymentStage("canary", 0.3, 3600),
    DeploymentStage("production", 1.0, 3600),
)


@dataclass
class StageOutcome:
    """Result of one stage.

    Attributes:
        stage: the stage that ran.
        p98_promotion_rate: measured SLI on the upgraded slice.
        passed: whether the stage met the SLO with enough evidence.
        alerts: names of monitoring rules that fired during the soak.
        reason: ``"advanced"``, ``"slo-breach"``, or
            ``"insufficient-coverage"`` (the fail-closed gate).
        slice_samples: SLI samples attributed to the upgraded slice.
        unattributed_samples: soak samples whose job could not be mapped
            to any cluster (should be zero; nonzero means attribution
            lost data).
    """

    stage: DeploymentStage
    p98_promotion_rate: float
    passed: bool
    alerts: tuple = ()
    reason: str = ""
    slice_samples: int = 0
    unattributed_samples: int = 0


class StagedDeployment:
    """Rolls a new policy through the fleet, stage by stage.

    Args:
        fleet: the WSC to deploy to.
        stages: the rollout ladder (cumulative fractions, increasing).
        slo_limit: maximum acceptable p98 normalized promotion rate.
        min_coverage: minimum slice SLI samples a stage must produce to
            count as evidence; below this the stage **fails closed**.
            ``0`` disables the gate (the pre-fix vacuous-pass behavior).
        registry: metrics registry for the ``repro_canary_*`` series
            (defaults to the process-global one).
        engine: optional :class:`repro.engine.FleetEngine` bound to
            ``fleet``; soaks run through it when given (bit-identical to
            serial by the engine's contract).
    """

    def __init__(
        self,
        fleet: WSC,
        stages: Sequence[DeploymentStage] = DEFAULT_STAGES,
        slo_limit: float = 0.2,
        min_coverage: int = 10,
        registry: Optional[MetricRegistry] = None,
        engine=None,
    ):
        require(len(stages) > 0, "need at least one stage")
        fractions = [s.fleet_fraction for s in stages]
        require(
            all(b >= a for a, b in zip(fractions, fractions[1:])),
            "stage fractions must be non-decreasing",
        )
        check_positive(slo_limit, "slo_limit")
        require(min_coverage >= 0, "min_coverage must be >= 0")
        self.fleet = fleet
        self.stages = list(stages)
        self.slo_limit = float(slo_limit)
        self.min_coverage = int(min_coverage)
        self.registry = registry if registry is not None else get_registry()
        self.engine = engine
        self.outcomes: List[StageOutcome] = []

        self._m_advanced = self.registry.counter(
            MetricName.CANARY_STAGES_ADVANCED_TOTAL,
            "Canary stages that passed and advanced the rollout.",
            ("stage",),
        )
        self._m_rolled_back = self.registry.counter(
            MetricName.CANARY_STAGES_ROLLED_BACK_TOTAL,
            "Canary stages rolled back on an SLO breach.",
            ("stage",),
        )
        self._m_failed_closed = self.registry.counter(
            MetricName.CANARY_STAGES_FAILED_CLOSED_TOTAL,
            "Canary stages failed closed on insufficient SLI coverage.",
            ("stage",),
        )
        self._m_coverage = self.registry.gauge(
            MetricName.CANARY_SLICE_COVERAGE,
            "SLI samples attributed to the canary slice in the last soak.",
            ("stage",),
        )

    def deploy(self, policy: object) -> bool:
        """Run the ladder; returns True if production was reached.

        Args:
            policy: what to roll out — a
                :class:`~repro.core.threshold_policy.ColdMemoryPolicy` or
                a bare :class:`ThresholdPolicyConfig` (coerced to the
                paper policy).

        On a failed stage every touched cluster is rolled back to the
        policy it was running when this call started (recorded
        per-cluster, so heterogeneous fleets are restored exactly) and
        the ladder stops.
        """
        new_policy = as_policy(policy)
        fleet = self.fleet
        # Every cluster read and write below goes through the fleet's
        # routing seam, so under a parallel-engine session it reaches the
        # worker that owns the cluster and the session stays open.
        snapshot = fleet.map_clusters(_name_and_policy)
        prior: Dict[str, ColdMemoryPolicy] = dict(snapshot)
        names = [name for name, _ in snapshot]
        upgraded = 0
        for stage in self.stages:
            target = max(1, round(stage.fleet_fraction * len(names)))
            fleet.map_clusters(_deploy_canary, new_policy, fleet.now,
                               stage.name, indices=range(upgraded, target))
            upgraded = max(upgraded, target)

            # Snapshot job ownership *before* the soak: jobs that exit
            # mid-soak still produced samples under the new policy and
            # must count toward their cluster's slice.
            job_map: Dict[str, str] = {}
            for name, running in zip(names, fleet.map_clusters(_running)):
                for job_id in running:
                    job_map[job_id] = name

            before = len(fleet.sli_history)
            soak_start = fleet.now
            fleet.run(stage.soak_seconds, engine=self.engine)

            # Jobs admitted during the soak (churn replacements, crash
            # respawns) appear in the scheduler-placement event stream;
            # fold them in, then anything still running catches stragglers
            # whose placement predates the retained event window.
            placed = fleet.map_clusters(_placed_or_running, soak_start,
                                        fleet.now + 1)
            for name, job_ids in zip(names, placed):
                for job_id in job_ids:
                    job_map.setdefault(job_id, name)

            slice_ids = set(names[:upgraded])
            slice_samples = []
            unattributed = 0
            for sample in fleet.sli_history[before:]:
                owner = job_map.get(sample.job_id) if sample.job_id else None
                if owner is None:
                    unattributed += 1
                elif owner in slice_ids:
                    slice_samples.append(sample)

            monitor = SloMonitor(
                window_seconds=stage.soak_seconds, slo_limit=self.slo_limit
            )
            alerts = monitor.observe(fleet.now, slice_samples)
            p98 = monitor.window.percentile(98.0)
            self._m_coverage.labels(stage=stage.name).set(
                monitor.samples_ingested
            )

            if monitor.samples_ingested < self.min_coverage:
                passed, reason = False, "insufficient-coverage"
                self._m_failed_closed.labels(stage=stage.name).inc()
            elif not monitor.healthy:
                passed, reason = False, "slo-breach"
                self._m_rolled_back.labels(stage=stage.name).inc()
            else:
                passed, reason = True, "advanced"
                self._m_advanced.labels(stage=stage.name).inc()

            self.outcomes.append(
                StageOutcome(
                    stage, p98, passed,
                    alerts=tuple(a.rule for a in alerts),
                    reason=reason,
                    slice_samples=monitor.samples_ingested,
                    unattributed_samples=unattributed,
                )
            )
            if not passed:
                # Restore every touched cluster to its own recorded prior.
                fleet.map_clusters(_restore_prior, prior, fleet.now,
                                   stage.name, reason,
                                   indices=range(upgraded))
                return False
        return True


# Module-level, so the fleet can route them to a parallel-engine worker.


def _name_and_policy(cluster) -> Tuple[str, ColdMemoryPolicy]:
    return cluster.name, cluster.policy


def _running(cluster) -> List[str]:
    return list(cluster.running)


def _deploy_canary(cluster, policy: ColdMemoryPolicy, now: int,
                   stage_name: str) -> None:
    cluster.deploy_policy(policy)
    cluster.events.record(now, EventKind.CANARY_DEPLOY, stage=stage_name,
                          policy=policy.describe())


def _restore_prior(cluster, prior: Dict[str, ColdMemoryPolicy], now: int,
                   stage_name: str, reason: str) -> None:
    restored = prior[cluster.name]
    cluster.deploy_policy(restored)
    cluster.events.record(now, EventKind.CANARY_ROLLBACK, stage=stage_name,
                          reason=reason, policy=restored.describe())


def _placed_or_running(cluster, start: int, end: int) -> List[str]:
    """Job ids the cluster placed in ``[start, end)``, then those it runs."""
    placed = [
        event.payload.get("job")
        for event in cluster.events.between(start, end)
        if event.kind == EventKind.SCHEDULER_PLACE
    ]
    return [j for j in placed if j is not None] + list(cluster.running)
