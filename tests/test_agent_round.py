"""The cluster-wide agent round ≡ driving each job's controller alone.

``control_agents`` computes every due job's interval histogram, working
set and best threshold in one array pass.  The reference below is the
per-job loop it replaced: each controller is driven through
``observe(interval_hist, wss)`` one job at a time, from ``AgeHistogram``
diffs and the scalar ``working_set_pages``.  Both run the same seeded,
cluster-pooled fleet, through a mid-run policy deployment and a
corrupt-histogram rewarm, on each page pool (the round reads histograms
by pool row, and each pool answers that read its own way), and must
agree on everything the agent publishes.
"""

import math

import pytest

import repro.cluster.cluster as cluster_module
from repro.agent.node_agent import SliSample, _JobState
from repro.baselines.thermostat import ThermostatPolicy
from repro.cluster import quickfleet
from repro.common.rng import SeedSequenceFactory
from repro.common.units import MINUTE, PAGE_SIZE
from repro.core.slo import normalized_promotion_rate, working_set_pages
from repro.core.threshold_policy import (
    DISABLED,
    FixedThresholdPolicy,
    PaperPolicy,
    ThresholdPolicyConfig,
)
from repro.faults import (
    ALL_MACHINES,
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
)
from repro.kernel.machine import FarMemoryMode
from repro.obs import MetricName, MetricRegistry, Tracer

AGENT_METRICS = {
    MetricName.AGENT_ROUNDS_TOTAL,
    MetricName.THRESHOLD_UPDATES_TOTAL,
    MetricName.THRESHOLD_SECONDS,
    MetricName.PROMOTION_RATE_PCT_PER_MIN,
    MetricName.AGENT_HISTOGRAM_REWARMS_TOTAL,
    MetricName.DEGRADED_MODE,
}


def reference_round(agents, now, baselines):
    """One agent at a time, one job at a time, through ``observe``."""
    controlled = []
    for agent in agents:
        machine = agent.machine
        if machine.config.mode is not FarMemoryMode.PROACTIVE:
            continue
        for job_id, memcg in machine.memcgs.items():
            key = (machine.machine_id, job_id)
            state = agent._jobs.get(job_id)
            if state is None:
                state = agent._jobs[job_id] = _JobState(
                    policy=agent.policy.build(memcg.bins, agent.slo),
                    last_promotion_counts=None,
                    last_promoted_total=memcg.promoted_pages_total,
                )
                baselines[key] = memcg.promotion_histogram.copy()
            if memcg.histograms_corrupt:
                agent._rewarm_job(now, job_id, memcg, state)
                baselines[key] = memcg.promotion_histogram.copy()
                continue
            wss = working_set_pages(
                memcg.cold_age_histogram, agent.slo.min_cold_age_seconds
            )
            interval = memcg.promotion_histogram.diff(baselines[key])
            baselines[key] = memcg.promotion_histogram.copy()
            state.policy.observe(interval, wss, agent.control_period)
            threshold = state.policy.threshold()
            memcg.zswap_enabled = state.policy.warmed_up
            memcg.cold_age_threshold = threshold
            memcg.soft_limit_pages = wss
            agent._m_threshold_updates.inc()
            if threshold != DISABLED:
                agent._h_threshold.observe(threshold)
            promotions = memcg.promoted_pages_total - state.last_promoted_total
            state.last_promoted_total = memcg.promoted_pages_total
            rate = normalized_promotion_rate(
                promotions * (MINUTE / agent.control_period), wss
            )
            if wss > 0 and math.isfinite(rate):
                agent._h_promotion_rate.observe(rate)
            agent.sli_samples.append(SliSample(
                time=now, job_id=job_id, promotions=promotions,
                working_set_pages=wss, normalized_rate_pct_per_min=rate,
                threshold=threshold,
            ))
        gone = set(agent._jobs) - set(machine.memcgs)
        for job_id in gone:
            del agent._jobs[job_id]
        agent._rewarming -= gone
        for job_id in sorted(agent._rewarming):
            if agent._jobs[job_id].policy.warmed_up:
                agent._rewarming.discard(job_id)
        agent._g_degraded.set(float(len(agent._rewarming)))
        agent._maybe_compact()
        agent.rounds += 1
        agent._m_rounds.inc()
        controlled.append(machine)
    return controlled


def run_fleet(policy, redeploy, kernel, seed=17):
    registry = MetricRegistry()
    fleet = quickfleet(
        clusters=1,
        machines_per_cluster=3,
        jobs_per_machine=3,
        seed=seed,
        machine_dram_gib=1.0,
        job_pages_range=((1 << 20) // PAGE_SIZE, (4 << 20) // PAGE_SIZE),
        kernel=kernel,
        scan_period=60,
        churn_duration_range=(1200, 3600),
        policy_config=policy,
        registry=registry,
        tracer=Tracer(),
    )
    cluster = fleet.clusters[0]
    plan = FaultPlan(events=(
        FaultEvent(time=1500, kind=FaultKind.HISTOGRAM_CORRUPT,
                   target=ALL_MACHINES, magnitude=0.5),
    ))
    cluster.attach_fault_injector(FaultInjector(plan, SeedSequenceFactory(3)))
    fleet.run(2400)
    cluster.deploy_policy(redeploy)
    fleet.run(1800)

    published = {
        (machine.machine_id, job_id): (
            memcg.cold_age_threshold,
            memcg.zswap_enabled,
            memcg.soft_limit_pages,
        )
        for machine in cluster.machines
        for job_id, memcg in machine.memcgs.items()
    }
    metrics = [
        record for record in registry.snapshot()
        if record["name"] in AGENT_METRICS
        and record["labels"].get("component", "agent") == "agent"
    ]
    return {
        "sli": fleet.sli_history,
        "published": published,
        "events": [(e.time, e.kind, e.payload) for e in cluster.events],
        "metrics": metrics,
        "rewarms": sum(a.rewarms for a in cluster.agents.values()),
    }


PAPER = PaperPolicy(ThresholdPolicyConfig(percentile_k=95, warmup_seconds=300))
FIXED = FixedThresholdPolicy(threshold_seconds=240, warmup_seconds=300)
THERMOSTAT = ThermostatPolicy()


@pytest.mark.parametrize("policy, redeploy, kernel", [
    (PAPER, THERMOSTAT, "columnar"),
    (FIXED, PAPER, "columnar"),
    (THERMOSTAT, FIXED, "columnar"),
    (PAPER, THERMOSTAT, "scalar"),
    (FIXED, PAPER, "scalar"),
    (THERMOSTAT, FIXED, "scalar"),
], ids=["paper", "fixed", "thermostat",
        "paper-scalar", "fixed-scalar", "thermostat-scalar"])
def test_agent_round_matches_per_job_reference(monkeypatch, policy, redeploy,
                                               kernel):
    rounds = run_fleet(policy, redeploy, kernel)

    baselines = {}
    monkeypatch.setattr(
        cluster_module, "control_agents",
        lambda agents, now: reference_round(agents, now, baselines),
    )
    reference = run_fleet(policy, redeploy, kernel)

    assert rounds["rewarms"] > 0  # the corrupt-histogram path ran
    assert len(rounds["sli"]) > 0
    assert rounds["sli"] == reference["sli"]
    assert rounds["published"] == reference["published"]
    assert rounds["events"] == reference["events"]
    assert rounds["metrics"] == reference["metrics"]
