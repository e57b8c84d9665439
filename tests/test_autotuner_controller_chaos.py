"""Chaos determinism for the online canary controller.

Every fault scenario in :mod:`repro.faults` is replayed through two
canary rounds and a further run twice — once serially, once in one
parallel ``FleetEngine`` session — and the two runs' :class:`CanaryDecision`\\ s
must agree bit-for-bit on :meth:`CanaryDecision.signature`, floats
included. The controller has no wall clock and no RNG of its own, so any
divergence here means nondeterminism leaked into the rollout path.
"""

from contextlib import nullcontext

import pytest

from repro.autotuner import DeploymentStage, FleetController
from repro.cluster import quickfleet
from repro.core.threshold_policy import (
    FixedThresholdPolicy,
    PaperPolicy,
)
from repro.engine import FleetEngine
from repro.faults import SCENARIO_NAMES, attach_scenario
from repro.obs import MetricRegistry, Tracer


STAGES = (
    DeploymentStage("qualification", 0.5, 600),
    DeploymentStage("production", 1.0, 600),
)

#: Warmup plus both soaks — every scenario spans the whole round, and
#: sink_outage's middle third (600..1200 s) blankets the first soak.
SCENARIO_SECONDS = 1800

WORKERS = 2

#: A session: warmup, two canary rounds, then one more run; the scenario
#: spans all of it.
SESSION_SECONDS = 600 + 2 * 1200 + 600


def _session(scenario, parallel, seed=31):
    """Two canary rounds and a run, all in one engine session when
    ``parallel``; returns both decisions and the fleet."""
    registry, tracer = MetricRegistry(), Tracer()
    fleet = _fleet(scenario, SESSION_SECONDS, registry, tracer, seed)
    engine = FleetEngine(fleet, workers=WORKERS) if parallel else None
    with engine or nullcontext():
        controller = FleetController(
            fleet, stages=STAGES, slo_limit=0.2, registry=registry,
            tracer=tracer, engine=engine,
        )
        decisions = [
            controller.canary(PaperPolicy()),
            controller.canary(FixedThresholdPolicy(threshold_seconds=600.0)),
        ]
        fleet.run(600, engine=engine)
        if parallel:
            assert engine.last_stats.mode == "parallel"
            assert fleet._session is not None  # still one session
    return decisions, fleet


def _fleet(scenario, seconds, registry, tracer, seed):
    fleet = quickfleet(
        clusters=2,
        machines_per_cluster=2,
        jobs_per_machine=2,
        seed=seed,
        churn_duration_range=(900, 1800),
        registry=registry,
        tracer=tracer,
    )
    attach_scenario(fleet, scenario, duration_seconds=seconds, seed=7)
    fleet.run(600)  # warm up under chaos
    return fleet


def run_canary(scenario, policy, *, slo_limit, parallel, seed=31):
    registry, tracer = MetricRegistry(), Tracer()
    fleet = _fleet(scenario, SCENARIO_SECONDS, registry, tracer, seed)
    engine = FleetEngine(fleet, workers=WORKERS) if parallel else None
    controller = FleetController(
        fleet,
        stages=STAGES,
        slo_limit=slo_limit,
        registry=registry,
        tracer=tracer,
        engine=engine,
    )
    return controller.canary(policy), fleet


class TestDecisionsAreEngineInvariant:
    @pytest.mark.parametrize("scenario", SCENARIO_NAMES)
    def test_serial_and_parallel_agree_bit_for_bit(self, scenario):
        serial, serial_fleet = _session(scenario, parallel=False)
        parallel, parallel_fleet = _session(scenario, parallel=True)
        assert [d.signature() for d in serial] == [
            d.signature() for d in parallel
        ]
        for decision in serial:
            assert decision.reason in (
                "promoted", "slo-breach", "insufficient-coverage"
            )
        assert serial_fleet.sli_history == parallel_fleet.sli_history
        assert (serial_fleet.coverage_report()
                == parallel_fleet.coverage_report())


class TestRollbackUnderChaos:
    @pytest.mark.parametrize("scenario", ["storm", "mixed"])
    def test_breaching_policy_never_survives_chaos(self, scenario):
        # A near-zero promotion budget forces the first stage to fail
        # whatever the scenario does; the fault episodes must not keep
        # the breaching policy alive anywhere in the fleet.
        breaching = FixedThresholdPolicy(
            threshold_seconds=120.0, warmup_seconds=0
        )
        decision, fleet = run_canary(
            scenario, breaching, slo_limit=1e-6, parallel=True
        )
        assert not decision.promoted
        for cluster in fleet.clusters:
            assert cluster.policy != breaching
            for agent in cluster.agents.values():
                assert agent.policy != breaching

    def test_sink_outage_starves_the_canary_closed(self):
        # The blanket outage silences every machine across the first
        # soak: the controller must fail closed, not promote on silence.
        decision, _ = run_canary(
            "sink_outage", PaperPolicy(), slo_limit=1e9, parallel=False
        )
        assert not decision.promoted
        assert decision.reason == "insufficient-coverage"
