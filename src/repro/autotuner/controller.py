"""Online fleet controller: the §5.3 rollout ladder run against the live
fleet, closing the autotuning loop.

The offline pipeline (:mod:`repro.autotuner.pipeline`) scores candidate
configurations with the fast far memory model; this module is the other
half of the paper's control plane — take a candidate, canary it on a
cluster subset through :class:`~repro.autotuner.deployment.StagedDeployment`,
watch the SLI windows over each soak, and either promote it to production
or roll every touched cluster back to its own recorded prior policy.
Measured outcomes flow back into the bandit
(:meth:`AutotuningPipeline.observe_measured`), so the explore-measure
loop can run entirely online.

Everything here is deterministic by construction: no wall clock, no RNG,
all time from the fleet's logical clock — so a canary round replayed
under a chaos scenario produces bit-identical decisions whether the soaks
execute serially or through the parallel :class:`~repro.engine.FleetEngine`.
:func:`canary_smoke` asserts exactly that, plus the fail-closed coverage
gate, as a CI gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.autotuner.deployment import (
    DEFAULT_STAGES,
    DeploymentStage,
    StagedDeployment,
    StageOutcome,
)
from repro.common.validation import check_positive
from repro.core.threshold_policy import (
    ColdMemoryPolicy,
    FixedThresholdPolicy,
    PaperPolicy,
    as_policy,
)
from repro.cluster.wsc import WSC, quickfleet
from repro.obs import (
    MetricName,
    MetricRegistry,
    Tracer,
    get_registry,
    get_tracer,
)

__all__ = ["CanaryDecision", "FleetController", "canary_smoke"]


@dataclass(frozen=True)
class CanaryDecision:
    """The controller's verdict on one canaried policy.

    Attributes:
        policy: the policy that was canaried.
        promoted: True when the ladder reached production.
        reason: ``"promoted"``, or the failing stage's reason
            (``"slo-breach"`` / ``"insufficient-coverage"``).
        outcomes: every stage outcome, in ladder order.
        p98: worst per-stage p98 normalized promotion rate observed.
        far_pages: fleet far-memory pages after the round (the online
            objective reported back to the bandit).
    """

    policy: ColdMemoryPolicy
    promoted: bool
    reason: str
    outcomes: Tuple[StageOutcome, ...]
    p98: float
    far_pages: int

    def signature(self) -> tuple:
        """A comparable digest of the decision (for replay equivalence).

        Two runs of the same round must agree on this tuple exactly —
        including the floats, which are required to be bit-identical
        between the serial and parallel engines.
        """
        return (
            self.promoted,
            self.reason,
            self.far_pages,
            tuple(
                (
                    o.stage.name,
                    o.passed,
                    o.reason,
                    o.p98_promotion_rate,
                    o.slice_samples,
                    o.unattributed_samples,
                    o.alerts,
                )
                for o in self.outcomes
            ),
        )


class FleetController:
    """Runs canary rounds against a live fleet.

    Args:
        fleet: the WSC under control.
        stages: the rollout ladder used for every round.
        slo_limit: maximum acceptable p98 normalized promotion rate.
        min_coverage: fail-closed floor on slice SLI samples per stage
            (see :class:`StagedDeployment`).
        registry: metrics registry for the ``repro_canary_*`` series
            (defaults to the process-global one).
        tracer: span tracer (defaults to the process-global one).
        engine: optional :class:`repro.engine.FleetEngine` bound to
            ``fleet``; soaks run through it when given.
    """

    def __init__(
        self,
        fleet: WSC,
        stages: Sequence[DeploymentStage] = DEFAULT_STAGES,
        slo_limit: float = 0.2,
        min_coverage: int = 10,
        registry: Optional[MetricRegistry] = None,
        tracer: Optional[Tracer] = None,
        engine=None,
    ):
        self.fleet = fleet
        self.stages = tuple(stages)
        self.slo_limit = float(slo_limit)
        self.min_coverage = int(min_coverage)
        self.registry = registry if registry is not None else get_registry()
        self.tracer = tracer if tracer is not None else get_tracer()
        self.engine = engine
        self.decisions: List[CanaryDecision] = []
        self._m_rounds = self.registry.counter(
            MetricName.CANARY_ROUNDS_TOTAL,
            "Canary rounds run by the online controller, by verdict.",
            ("verdict",),
        )

    def canary(self, policy: object) -> CanaryDecision:
        """Canary one policy through the ladder; promote or roll back.

        A fresh :class:`StagedDeployment` is used per round so stage
        outcomes never leak between rounds; the rollback target is
        whatever each cluster is running *now* (possibly a previously
        promoted round's policy).
        """
        candidate = as_policy(policy)
        deployment = StagedDeployment(
            self.fleet,
            stages=self.stages,
            slo_limit=self.slo_limit,
            min_coverage=self.min_coverage,
            registry=self.registry,
            engine=self.engine,
        )
        with self.tracer.span("canary.round", policy=candidate.describe()):
            promoted = deployment.deploy(candidate)
        outcomes = tuple(deployment.outcomes)
        reason = "promoted" if promoted else outcomes[-1].reason
        decision = CanaryDecision(
            policy=candidate,
            promoted=promoted,
            reason=reason,
            outcomes=outcomes,
            p98=max(o.p98_promotion_rate for o in outcomes),
            far_pages=int(sum(self.fleet.map_clusters(_far_pages))),
        )
        self.decisions.append(decision)
        self._m_rounds.labels(verdict=reason).inc()
        return decision

    def run_online(self, pipeline, rounds: int = 4) -> List[CanaryDecision]:
        """Close the loop: bandit proposes, the live fleet disposes.

        Each round asks ``pipeline`` (an
        :class:`~repro.autotuner.pipeline.AutotuningPipeline`) for one
        candidate, canaries it as the paper policy, and feeds the
        *measured* objective and constraint back to the bandit.  Rounds
        that failed closed report nothing — zero telemetry is not a
        measurement of the configuration, and scoring it would teach the
        bandit that silence is safety.
        """
        check_positive(rounds, "rounds")
        made: List[CanaryDecision] = []
        for _ in range(rounds):
            point, config = pipeline.propose()
            decision = self.canary(PaperPolicy(config))
            made.append(decision)
            if decision.reason != "insufficient-coverage":
                pipeline.observe_measured(
                    point,
                    objective=decision.far_pages,
                    constraint=decision.p98,
                )
        return made


def _far_pages(cluster) -> int:
    return sum(m.far_pages for m in cluster.machines)


#: Smoke ladder: two short stages over a two-cluster fleet.
_SMOKE_STAGES = (
    DeploymentStage("qualification", 0.5, 600),
    DeploymentStage("production", 1.0, 600),
)


def _smoke_fleet(seed: int, registry: MetricRegistry, tracer: Tracer) -> WSC:
    from repro.faults import attach_scenario

    fleet = quickfleet(
        clusters=2,
        machines_per_cluster=2,
        jobs_per_machine=2,
        seed=seed,
        churn_duration_range=(1800, 3600),
        registry=registry,
        tracer=tracer,
    )
    # Storm chaos spanning warmup and both soaks.
    attach_scenario(fleet, "storm", duration_seconds=3600, seed=7)
    fleet.run(1800)  # warm up under chaos so ages/histograms are live
    return fleet


def canary_smoke(seed: int = 31, workers: int = 2) -> dict:
    """CI gate for the online controller (used by ``repro ci``).

    Three assertions in one cheap run:

    1. a deliberately SLO-breaching policy (fixed 120 s threshold against
       a near-zero promotion budget) canaried under storm chaos is rolled
       back — it never reaches production;
    2. the decision is bit-identical whether the soaks run serially or
       through the parallel engine;
    3. a fleet producing zero SLI samples fails closed with
       ``"insufficient-coverage"`` instead of passing vacuously.

    Returns:
        Report dict with one boolean per assertion plus the verdicts.

    Raises:
        AssertionError: when any of the three properties does not hold.
    """
    from repro.engine import FleetEngine

    breaching = FixedThresholdPolicy(
        threshold_seconds=120.0, warmup_seconds=0
    )
    decisions = {}
    for mode in ("serial", "parallel"):
        registry, tracer = MetricRegistry(), Tracer()
        fleet = _smoke_fleet(seed, registry, tracer)
        engine = (
            FleetEngine(fleet, workers=workers)
            if mode == "parallel"
            else None
        )
        controller = FleetController(
            fleet,
            stages=_SMOKE_STAGES,
            slo_limit=1e-6,
            min_coverage=10,
            registry=registry,
            tracer=tracer,
            engine=engine,
        )
        decisions[mode] = controller.canary(breaching)

    serial, parallel = decisions["serial"], decisions["parallel"]
    identical = serial.signature() == parallel.signature()
    rolled_back = not serial.promoted and serial.reason == "slo-breach"

    # Fail-closed leg: control period longer than the soak => no samples.
    registry, tracer = MetricRegistry(), Tracer()
    silent = quickfleet(
        clusters=1,
        machines_per_cluster=1,
        jobs_per_machine=1,
        seed=seed,
        control_period=7200,
        registry=registry,
        tracer=tracer,
    )
    controller = FleetController(
        silent,
        stages=(DeploymentStage("qualification", 1.0, 600),),
        registry=registry,
        tracer=tracer,
    )
    closed = controller.canary(FixedThresholdPolicy(3600.0))
    failed_closed = (
        not closed.promoted and closed.reason == "insufficient-coverage"
    )

    assert rolled_back, (
        "breaching policy was not rolled back: "
        f"promoted={serial.promoted} reason={serial.reason!r}"
    )
    assert identical, (
        "serial and parallel canary decisions diverged: "
        f"{serial.signature()} != {parallel.signature()}"
    )
    assert failed_closed, (
        "zero-sample canary did not fail closed: "
        f"promoted={closed.promoted} reason={closed.reason!r}"
    )
    return {
        "breach_rolled_back": rolled_back,
        "identical_decisions": identical,
        "failed_closed_on_silence": failed_closed,
        "serial_reason": serial.reason,
        "parallel_reason": parallel.reason,
        "silent_reason": closed.reason,
    }
