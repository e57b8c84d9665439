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
(:func:`control_agents`); one agent's round is that pass on a list of one.
"""

from __future__ import annotations

import math
from bisect import bisect_left
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
        # Drop state for jobs that left the machine.
        gone = self._jobs.keys() - self.machine.memcgs.keys()
        for job_id in gone:
            del self._jobs[job_id]
        self._rewarming -= gone
        for job_id in sorted(self._rewarming):
            if self._jobs[job_id].policy.warmed_up:
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
        """Trigger explicit arena compaction past the fragmentation mark."""
        stats = self.machine.arena.stats()
        if stats.footprint_bytes == 0:
            return
        fragmentation = (
            stats.external_fragmentation_bytes / stats.footprint_bytes
        )
        if fragmentation > self.compaction_watermark:
            self.machine.arena.compact()

    def drain_sli_samples(self) -> List[SliSample]:
        """Return and clear accumulated SLI samples (monitoring upload)."""
        samples = self.sli_samples
        self.sli_samples = []
        return samples


def control_agents(agents: Sequence[NodeAgent], now: int) -> List[Machine]:
    """One control round for every proactive agent in ``agents``.

    One array pass over all their jobs (a stacked histogram gather, one
    working-set vector, one interval diff, one
    :func:`best_thresholds_vectorized` call) gives each controller what
    its ``observe`` would compute; the rest stays per job, in agent then
    job order.  The agents share an SLO and a control period (a
    cluster's do).  Returns the machines that ran, for their reclaim.
    """
    agents = [
        agent for agent in agents
        if agent.machine.config.mode is FarMemoryMode.PROACTIVE
    ]
    if not agents:
        return []
    slo = agents[0].slo
    period = agents[0].control_period
    require(
        all(a.slo == slo and a.control_period == period for a in agents),
        "one control round needs one SLO and one control period",
    )
    with agents[0]._tracer.span("agent.control", sim_time=now):
        jobs = []
        for agent in agents:
            for job_id, memcg in agent.machine.memcgs.items():
                state = agent._job_state(now, job_id, memcg)
                if state is not None:
                    jobs.append((agent, job_id, memcg, state))
        if jobs:
            _array_pass(jobs, slo, period, now)
    for agent in agents:
        agent._end_round()
    return [agent.machine for agent in agents]


def _array_pass(jobs: list, slo: PromotionRateSlo, period: int,
                now: int) -> None:
    """The array pass of :func:`control_agents` plus its per-job writes."""
    memcgs = [memcg for _, _, memcg, _ in jobs]
    bins = memcgs[0].bins
    promo = np.stack([memcg.promotion_histogram.counts for memcg in memcgs])
    interval = promo - np.stack([job[3].last_promotion_counts for job in jobs])
    cold = np.stack([memcg.cold_age_histogram.counts for memcg in memcgs])
    young = np.fromiter(
        (memcg.cold_age_histogram.young_count for memcg in memcgs),
        np.int64, len(memcgs),
    )
    # working_set_pages() for every job: the young bucket plus every bin
    # below the SLO's working-set window.
    window = bisect_left(bins.thresholds, slo.min_cold_age_seconds)
    wss = young + cold[:, :window].sum(axis=1)
    suffix = np.cumsum(interval[:, ::-1], axis=1)[:, ::-1]
    best = best_thresholds_vectorized(suffix, wss, bins, slo, period)
    per_min_scale = MINUTE / period
    for (agent, job_id, memcg, state), job_best, job_wss, counts in zip(
        jobs, best.tolist(), wss.tolist(), promo
    ):
        policy = state.policy
        policy.record(job_best, period)
        state.last_promotion_counts = counts
        threshold = policy.threshold()
        warmed_up = policy.warmed_up
        # Setters only on change: a columnar memcg's setters re-encode
        # its pooled reclaim threshold.
        if memcg.zswap_enabled != warmed_up:
            memcg.zswap_enabled = warmed_up
        if memcg.cold_age_threshold != threshold:
            memcg.cold_age_threshold = threshold
        memcg.soft_limit_pages = job_wss
        agent._m_threshold_updates.inc()
        if threshold != DISABLED:
            agent._h_threshold.observe(threshold)

        promotions = memcg.promoted_pages_total - state.last_promoted_total
        state.last_promoted_total = memcg.promoted_pages_total
        rate = normalized_promotion_rate(promotions * per_min_scale, job_wss)
        if job_wss > 0 and math.isfinite(rate):
            agent._h_promotion_rate.observe(rate)
        agent.sli_samples.append(SliSample(
            time=now, job_id=job_id, promotions=promotions,
            working_set_pages=job_wss, normalized_rate_pct_per_min=rate,
            threshold=threshold,
        ))
