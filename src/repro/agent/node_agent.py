"""The node agent — Borglet's far-memory control loop (paper §5.2).

Every minute, for every job on its machine, the agent:

1. reads the kernel's cumulative promotion histogram and diffs it against
   the copy from the previous minute (the per-interval histogram);
2. computes the job's working set size from the cold-age snapshot;
3. from both, computes the smallest SLO-respecting threshold for the
   past minute and records it in the job's
   :class:`ColdAgeThresholdPolicy` (§4.3);
4. publishes the policy's chosen threshold (K-th percentile of history,
   escalated on spikes) into the memcg, enables zswap only after the job's
   ``S``-second warm-up, and pins the memcg soft limit at the working set;
5. records the *actual* promotion rate SLI for monitoring (Fig. 7).

The agent also triggers kreclaimd after publishing thresholds and asks the
arena to compact when fragmentation crosses a watermark — both duties the
paper assigns to the node agent.

Steps 1-3 run as one array pass over every due agent of a cluster
(:func:`control_agents`): every job's histograms are read by pool row
with one gather, and the metrics are observed once per agent.  One
agent's round is that pass on a list of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from repro.common.events import EventKind, EventLog
from repro.common.simtime import PeriodicSchedule
from repro.common.units import MINUTE
from repro.common.validation import check_fraction, require
from repro.core.slo import PromotionRateSlo, normalized_promotion_rate
from repro.core.threshold_policy import (
    DISABLED,
    ColdAgeThresholdPolicy,
    ColdMemoryPolicy,
    ThresholdPolicyConfig,
    as_policy,
    best_thresholds_vectorized,
)
from repro.kernel.machine import FarMemoryMode, Machine
from repro.obs import (
    MetricName,
    MetricRegistry,
    Tracer,
    get_registry,
    get_tracer,
)

__all__ = ["SliSample", "NodeAgent", "control_agents"]

#: Buckets for the normalized promotion-rate SLI histogram (%/min).  The
#: SLO default is 0.2 %/min, so the grid is dense around it; the first
#: bucket (le=0) isolates the fully-quiet minutes.
PROMOTION_RATE_BUCKETS = (
    0.0, 0.01, 0.025, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5, 1.0, 2.0, 5.0, 10.0,
)

#: Buckets for the chosen cold-age thresholds (seconds); the paper's
#: candidate grid spans 120 s to 8 h.
THRESHOLD_BUCKETS = (
    120, 240, 480, 900, 1800, 3600, 7200, 14400, 28800, 86400,
)


@dataclass(frozen=True)
class SliSample:
    """One per-job, per-minute service-level-indicator observation.

    Attributes:
        time: start of the observed minute.
        job_id: the job observed.
        promotions: actual pages promoted during the minute.
        working_set_pages: the job's working set that minute.
        normalized_rate_pct_per_min: promotions as % of working set.
        threshold: the cold-age threshold in force (may be inf = disabled).
    """

    time: int
    job_id: str
    promotions: int
    working_set_pages: int
    normalized_rate_pct_per_min: float
    threshold: float


@dataclass
class _JobState:
    """Per-job bookkeeping the agent keeps between control rounds."""

    policy: ColdAgeThresholdPolicy
    #: The cumulative promotion-histogram counts at the last diff.
    last_promotion_counts: np.ndarray
    last_promoted_total: int = 0


class NodeAgent:
    """Per-machine far-memory controller.

    Args:
        machine: the machine to control.
        policy_config: what to run — a deployable
            :class:`~repro.core.threshold_policy.ColdMemoryPolicy`, or a
            bare ``(K, S)`` :class:`ThresholdPolicyConfig` meaning "the
            paper policy with these tunables" (the pre-seam call shape).
        slo: the promotion-rate SLO.
        control_period: seconds between control rounds (one minute).
        compaction_watermark: arena external-fragmentation fraction above
            which the agent triggers explicit compaction.
        events: optional event log; the agent records an
            ``agent.histogram_rewarm`` event whenever a job's kernel
            histograms were flagged corrupt and its policy restarted
            warm-up from scratch.
        registry: metrics registry (defaults to the process-global one).
        tracer: span tracer (defaults to the process-global one).
    """

    def __init__(
        self,
        machine: Machine,
        policy_config: Optional[object] = None,
        slo: Optional[PromotionRateSlo] = None,
        control_period: int = MINUTE,
        compaction_watermark: float = 0.2,
        events: Optional[EventLog] = None,
        registry: Optional[MetricRegistry] = None,
        tracer: Optional[Tracer] = None,
    ):
        check_fraction(compaction_watermark, "compaction_watermark")
        self.machine = machine
        self.events = events
        self.policy: ColdMemoryPolicy = as_policy(
            policy_config if policy_config is not None else ThresholdPolicyConfig()
        )
        self.slo = slo if slo is not None else PromotionRateSlo()
        self.control_period = int(control_period)
        self.compaction_watermark = compaction_watermark
        self.schedule = PeriodicSchedule(self.control_period)
        self._jobs: Dict[str, _JobState] = {}
        self.sli_samples: List[SliSample] = []
        self.rounds = 0
        self.rewarms = 0
        # Jobs currently re-warming after a corrupt-histogram rewarm;
        # drives the degraded-mode gauge until warm-up completes again.
        self._rewarming: Set[str] = set()

        registry = registry if registry is not None else get_registry()
        self._tracer = tracer if tracer is not None else get_tracer()
        self._bind_metrics(registry)

    def _bind_metrics(self, registry: MetricRegistry) -> None:
        machine_id = self.machine.machine_id
        self._m_rounds = registry.counter(
            MetricName.AGENT_ROUNDS_TOTAL,
            "Completed node-agent control rounds.", ("machine",)
        ).labels(machine=machine_id)
        self._m_threshold_updates = registry.counter(
            MetricName.THRESHOLD_UPDATES_TOTAL,
            "Per-job cold-age threshold publications.", ("machine",)
        ).labels(machine=machine_id)
        self._h_threshold = registry.histogram(
            MetricName.THRESHOLD_SECONDS,
            "Published cold-age thresholds (finite values only).",
            ("machine",),
            buckets=THRESHOLD_BUCKETS,
        ).labels(machine=machine_id)
        self._h_promotion_rate = registry.histogram(
            MetricName.PROMOTION_RATE_PCT_PER_MIN,
            "Normalized per-job promotion-rate SLI (% of WSS per minute).",
            ("machine",),
            buckets=PROMOTION_RATE_BUCKETS,
        ).labels(machine=machine_id)
        self._m_rewarms = registry.counter(
            MetricName.AGENT_HISTOGRAM_REWARMS_TOTAL,
            "Jobs sent back through warm-up after corrupt kernel histograms.",
            ("machine",)
        ).labels(machine=machine_id)
        self._g_degraded = registry.gauge(
            MetricName.DEGRADED_MODE,
            "1 while a component is running degraded (per component).",
            ("component", "machine")
        ).labels(component="agent", machine=machine_id)

    def rebind_observability(self, registry: MetricRegistry,
                             tracer: Tracer) -> None:
        """Re-point metric handles and tracer after a cross-process move."""
        self._tracer = tracer
        self._bind_metrics(registry)

    @property
    def policy_config(self) -> Optional[ThresholdPolicyConfig]:
        """The deployed policy's ``(K, S)`` tunables, when it has any.

        Paper and fixed-threshold policies expose their underlying
        :class:`ThresholdPolicyConfig`; algorithm swaps (e.g. Thermostat)
        return None — there is no ``(K, S)`` interpretation to report.
        """
        config = getattr(self.policy, "config", None)
        return config if isinstance(config, ThresholdPolicyConfig) else None

    def set_policy(self, policy: object) -> None:
        """Deploy a new cold-memory policy; per-job history carries over.

        The per-minute best thresholds come from kernel histograms and are
        policy-independent, so existing jobs keep their histories and their
        warm-up clocks — only the interpretation of that history changes.
        This holds for parameter redeployments *and* whole-algorithm swaps
        (``inherit_state`` is cross-policy by contract).
        """
        self.policy = as_policy(policy)
        for job_id, state in list(self._jobs.items()):
            memcg = self.machine.memcgs.get(job_id)
            if memcg is None:
                continue
            controller = self.policy.build(memcg.bins, self.slo)
            controller.inherit_state(state.policy)
            self._jobs[job_id] = _JobState(
                policy=controller,
                last_promotion_counts=state.last_promotion_counts,
                last_promoted_total=state.last_promoted_total,
            )

    def set_policy_config(self, config: ThresholdPolicyConfig) -> None:
        """Deploy new ``(K, S)`` tunables (pre-seam spelling of
        :meth:`set_policy` with the paper policy)."""
        self.set_policy(config)

    def maybe_control(self, now: int) -> bool:
        """Run a control round if the period boundary passed."""
        if not self.schedule.due(now):
            return False
        self.control(now)
        return True

    def control(self, now: int) -> None:
        """One control round over every job on the machine."""
        for machine in control_agents([self], now):
            machine.run_reclaim()

    def _job_state(self, now: int, job_id: str, memcg) -> Optional[_JobState]:
        """The job's state for this round, or None when it re-warms."""
        state = self._jobs.get(job_id)
        if state is None:
            state = self._jobs[job_id] = _JobState(
                policy=self.policy.build(memcg.bins, self.slo),
                last_promotion_counts=memcg.promotion_histogram.counts.copy(),
                last_promoted_total=memcg.promoted_pages_total,
            )
        if memcg.histograms_corrupt:
            self._rewarm_job(now, job_id, memcg, state)
            return None
        return state

    def _end_round(self) -> None:
        """Per-machine bookkeeping after a round, and the arena
        compaction check."""
        jobs = self._jobs
        # The round gave every job on the machine a state, so there are
        # more states than jobs exactly when some job left: drop theirs.
        if len(jobs) > len(self.machine.memcgs):
            gone = jobs.keys() - self.machine.memcgs.keys()
            for job_id in gone:
                del jobs[job_id]
            self._rewarming -= gone
        if self._rewarming:
            for job_id in sorted(self._rewarming):
                if jobs[job_id].policy.warmed_up:
                    self._rewarming.discard(job_id)
        self._g_degraded.set(float(len(self._rewarming)))
        self._maybe_compact()
        self.rounds += 1
        self._m_rounds.inc()

    def _rewarm_job(
        self, now: int, job_id: str, memcg, state: _JobState
    ) -> None:
        """Degraded mode for a job whose kernel histograms are corrupt.

        The promotion/cold-age counts can't be trusted, so instead of
        feeding garbage into the threshold policy the agent disables
        zswap for the job, forgets the policy's history (restarting the
        ``S``-second warm-up), and resets its own diff baselines to the
        current cumulative counters so the first post-rewarm interval is
        measured from a clean slate.  The corruption flag is consumed:
        the kernel re-accumulates from here on.
        """
        state.policy.reset()
        memcg.zswap_enabled = False
        memcg.cold_age_threshold = DISABLED
        state.last_promotion_counts = memcg.promotion_histogram.counts.copy()
        state.last_promoted_total = memcg.promoted_pages_total
        memcg.histograms_corrupt = False
        self._rewarming.add(job_id)
        self.rewarms += 1
        self._m_rewarms.inc()
        if self.events is not None:
            self.events.record(
                now, EventKind.AGENT_HISTOGRAM_REWARM,
                job=job_id, machine=self.machine.machine_id,
            )

    def _maybe_compact(self) -> None:
        """Trigger explicit arena compaction past the fragmentation mark
        (read from the arena's running totals)."""
        arena = self.machine.arena
        footprint = arena.footprint_bytes
        if footprint == 0:
            return
        fragmentation = arena.external_fragmentation_bytes / footprint
        if fragmentation > self.compaction_watermark:
            arena.compact()

    def drain_sli_samples(self) -> List[SliSample]:
        """Return and clear accumulated SLI samples (monitoring upload)."""
        samples = self.sli_samples
        self.sli_samples = []
        return samples


def control_agents(agents: Sequence[NodeAgent], now: int) -> List[Machine]:
    """One control round for every proactive agent in ``agents``.

    One array pass over all their jobs (one gather of their histogram
    rows from the page pool, one interval diff, one
    :func:`best_thresholds_vectorized` call) gives each controller what
    its ``observe`` would compute; the controllers and the memcg writes
    stay per job, in agent then job order, and the metrics are observed
    once per agent.  The agents share an SLO, a control period and a
    page pool (a cluster's do).  Returns the machines that ran, for
    their reclaim.
    """
    agents = [
        agent for agent in agents
        if agent.machine.config.mode is FarMemoryMode.PROACTIVE
    ]
    if not agents:
        return []
    first = agents[0]
    slo, period, pool = first.slo, first.control_period, first.machine.pool
    require(
        all((a.slo is slo or a.slo == slo) and a.control_period == period
            and a.machine.pool is pool for a in agents),
        "one control round needs one SLO, one control period and one "
        "page pool",
    )
    with first._tracer.span("agent.control", sim_time=now):
        # Per agent, ``(job_id, memcg, state)`` of every job not re-warming.
        rounds = []
        for agent in agents:
            states = agent._jobs
            jobs = []
            for job_id, memcg in agent.machine.memcgs.items():
                state = states.get(job_id)
                if state is None or memcg.histograms_corrupt:
                    state = agent._job_state(now, job_id, memcg)
                    if state is None:
                        continue
                jobs.append((job_id, memcg, state))
            if jobs:
                rounds.append((agent, jobs))
        if rounds:
            _array_pass(rounds, pool, slo, period, now)
    for agent in agents:
        agent._end_round()
    return [agent.machine for agent in agents]


def _array_pass(rounds: list, pool, slo: PromotionRateSlo, period: int,
                now: int) -> None:
    """The array pass of :func:`control_agents` plus its per-job writes
    (``rounds`` holds each agent's ``(job_id, memcg, state)`` list)."""
    jobs = [job for _agent, agent_jobs in rounds for job in agent_jobs]
    columns = pool.histogram_columns(
        [memcg.row for _, memcg, _ in jobs], slo.min_cold_age_seconds
    )
    promo = columns["promotion_counts"]
    wss = columns["working_set_pages"]
    interval = promo - np.stack(
        [state.last_promotion_counts for _, _, state in jobs]
    )
    suffix = np.cumsum(interval[:, ::-1], axis=1)[:, ::-1]
    best = best_thresholds_vectorized(suffix, wss, jobs[0][1].bins, slo,
                                      period).tolist()
    wss = wss.tolist()
    per_min_scale = MINUTE / period
    row = 0
    for agent, agent_jobs in rounds:
        thresholds = []
        rates = []
        samples = agent.sli_samples
        for job_id, memcg, state in agent_jobs:
            job_wss = wss[row]
            policy = state.policy
            policy.record(best[row], period)
            state.last_promotion_counts = promo[row]
            row += 1
            threshold = policy.threshold()
            warmed_up = policy.warmed_up
            # Setters only on change: a columnar memcg's setters re-encode
            # its pooled reclaim threshold.
            if memcg.zswap_enabled != warmed_up:
                memcg.zswap_enabled = warmed_up
            if memcg.cold_age_threshold != threshold:
                memcg.cold_age_threshold = threshold
            memcg.soft_limit_pages = job_wss
            if threshold != DISABLED:
                thresholds.append(threshold)

            total = memcg.promoted_pages_total
            promotions = total - state.last_promoted_total
            state.last_promoted_total = total
            rate = normalized_promotion_rate(
                promotions * per_min_scale, job_wss
            )
            if job_wss > 0 and math.isfinite(rate):
                rates.append(rate)
            samples.append(SliSample(
                now, job_id, promotions, job_wss, rate, threshold
            ))
        agent._m_threshold_updates.inc(len(agent_jobs))
        if thresholds:
            agent._h_threshold.observe_many(thresholds)
        if rates:
            agent._h_promotion_rate.observe_many(rates)
