"""Cold-age threshold controller (paper §4.3).

Every control period (one minute) the node agent computes, from that
period's promotion histogram, the *best* threshold — the smallest candidate
cold-age threshold whose promotion rate would have stayed within the SLO.
The controller then chooses the threshold for the *next* minute as:

* the **K-th percentile** of the history of per-minute best thresholds
  (violating the SLO roughly ``100 - K`` % of the time at steady state), or
* the **last minute's best threshold, if higher** — the spike-reaction rule
  that makes the system back off immediately when a job suddenly touches
  a lot of previously-cold memory;
* and zswap is **disabled for the first S seconds** of a job's execution,
  because the history is too thin to act on.

The policy is deliberately pure (no clock, no kernel handles): it consumes
per-interval histograms and emits a threshold, which is what lets the fast
far memory model (§5.3) replay it offline over recorded traces.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.units import MINUTE
from repro.common.validation import check_in_range, check_non_negative, require
from repro.core.histograms import AgeBins, AgeHistogram
from repro.core.slo import PromotionRateSlo

__all__ = [
    "ThresholdPolicyConfig",
    "ColdAgeThresholdPolicy",
    "ColdMemoryPolicy",
    "FixedThresholdPolicy",
    "PaperPolicy",
    "as_policy",
    "best_threshold",
    "best_thresholds_vectorized",
    "replay_threshold_batch",
]

#: Sentinel meaning "compress nothing" (no finite threshold chosen).
DISABLED: float = float("inf")


def _sorted_percentile(values: Sequence[float], k: float) -> float:
    """``np.percentile(values, k)`` over an already-sorted sequence.

    The node agent evaluates one percentile per job per minute over a pool
    of at most ``history_length`` floats; ``np.percentile``'s dispatch
    overhead dominates at that size.  This reimplements numpy's default
    linear interpolation — including its ``gamma >= 0.5`` symmetric-lerp
    fixup — in plain Python, bit-identically (asserted over randomized
    inputs in the test suite).
    """
    n = len(values)
    virtual_index = (k / 100.0) * (n - 1)
    if virtual_index >= n - 1:
        return values[-1]
    lower = int(virtual_index)
    gamma = virtual_index - lower
    a = values[lower]
    b = values[lower + 1]
    if gamma >= 0.5:
        return b - (b - a) * (1.0 - gamma)
    return a + (b - a) * gamma


def _sorted_percentile_rows(
    pools: np.ndarray, counts: np.ndarray, k: float
) -> np.ndarray:
    """:func:`_sorted_percentile` of every row of a row-sorted matrix.

    Row ``i``'s pool is ``pools[i, :counts[i]]`` (``counts[i] >= 1``);
    entries past it are ignored.  The K-th percentile is a gather of the
    lower and upper order statistics plus the same linear interpolation,
    ``gamma >= 0.5`` rule included, element for element — so each entry
    is bit-identical to the scalar form.  At ``virtual_index == n - 1``
    the upper index is clipped to the lower one, and interpolating
    between two equal values returns that value exactly, which is the
    scalar form's ``values[-1]`` shortcut.
    """
    last = np.asarray(counts, dtype=np.int64) - 1
    virtual_index = (k / 100.0) * last
    lower = virtual_index.astype(np.int64)
    gamma = virtual_index - lower
    rows = np.arange(last.size)
    a = pools[rows, lower]
    b = pools[rows, np.minimum(lower + 1, last)]
    return np.where(gamma >= 0.5, b - (b - a) * (1.0 - gamma),
                    a + (b - a) * gamma)


def best_threshold(
    promotion_histogram: AgeHistogram,
    working_set_size_pages: float,
    slo: PromotionRateSlo,
    interval_seconds: float = MINUTE,
) -> float:
    """Smallest candidate threshold meeting the SLO over one interval.

    Walks the candidate grid from most to least aggressive and returns the
    first threshold whose would-have-been promotion rate fits the budget.
    Returns :data:`DISABLED` when even the largest candidate violates the
    SLO (the job touched essentially all of its cold memory).
    """
    budget = slo.allowed_promotions_per_min(working_set_size_pages)
    scale = MINUTE / interval_seconds
    # The grid has ~10 candidates; plain-Python suffix sums beat the numpy
    # round trip at this size, and this runs once per job per minute.
    counts = promotion_histogram.counts.tolist()
    suffixes = [0] * len(counts)
    running = 0
    for i in range(len(counts) - 1, -1, -1):
        running += counts[i]
        suffixes[i] = running
    for threshold, events in zip(promotion_histogram.bins.thresholds, suffixes):
        if events * scale <= budget:
            return float(threshold)
    return DISABLED


@dataclass(frozen=True)
class ThresholdPolicyConfig:
    """Tunable parameters of the controller — the autotuner's search space.

    Attributes:
        percentile_k: the K in "K-th percentile of past best thresholds".
            Higher K is more conservative (higher thresholds, fewer SLO
            violations, less far memory).
        warmup_seconds: the S in "disable zswap for the first S seconds".
        history_length: how many per-minute best thresholds to remember.
        spike_reaction: apply §4.3's escalation rule (use the last
            interval's best threshold when it exceeds the percentile).
            Exposed so the ablation bench can measure what the rule buys.
        fixed_threshold_seconds: when set, bypass the controller entirely
            and always use this threshold (the static-threshold baseline;
            warm-up still applies).
    """

    percentile_k: float = 98.0
    warmup_seconds: int = 600
    history_length: int = 120
    spike_reaction: bool = True
    fixed_threshold_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        check_in_range(self.percentile_k, "percentile_k", 0.0, 100.0)
        check_non_negative(self.warmup_seconds, "warmup_seconds")
        require(self.history_length >= 1, "history_length must be >= 1")


class ColdAgeThresholdPolicy:
    """Stateful per-job instance of the §4.3 control algorithm.

    Drive it once per control interval with :meth:`record` (or its
    one-job wrappers :meth:`observe` and :meth:`observe_zero`), then read
    :meth:`threshold` for the threshold to apply during the next interval.
    """

    def __init__(self, config: ThresholdPolicyConfig, bins: AgeBins,
                 slo: Optional[PromotionRateSlo] = None):
        self.config = config
        self.bins = bins
        self.slo = slo if slo is not None else PromotionRateSlo()
        self._pool: Deque[float] = deque(maxlen=config.history_length)
        self._elapsed_seconds = 0
        self._last_best: float = DISABLED
        # DISABLED entries are encoded as a finite sentinel far above the
        # grid (see :meth:`threshold`); the encoded pool is kept sorted
        # incrementally so each percentile read is O(log n) instead of a
        # fresh sort.
        self._sentinel = float(bins.max_threshold) * 1e9
        self._sorted_pool: list = []

    def _append(self, best: float) -> None:
        """Record one interval's best threshold, keeping the sorted
        encoded mirror of the history pool in sync with the deque."""
        encoded = best if math.isfinite(best) else self._sentinel
        if len(self._pool) == self._pool.maxlen:
            oldest = self._pool[0]
            old_encoded = oldest if math.isfinite(oldest) else self._sentinel
            del self._sorted_pool[bisect_left(self._sorted_pool, old_encoded)]
        self._pool.append(best)
        insort(self._sorted_pool, encoded)
        self._last_best = best

    @property
    def warmed_up(self) -> bool:
        """True once the job has run for at least S seconds."""
        return self._elapsed_seconds >= self.config.warmup_seconds

    @property
    def history(self) -> tuple:
        """The pool of past per-minute best thresholds (oldest first)."""
        return tuple(self._pool)

    def record(self, best: float, interval_seconds: float = MINUTE) -> float:
        """Ingest one control interval's best threshold and return it
        (the node agent computes them all in one array pass)."""
        self._elapsed_seconds += int(interval_seconds)
        self._append(best)
        return best

    def observe(
        self,
        promotion_histogram: AgeHistogram,
        working_set_size_pages: float,
        interval_seconds: float = MINUTE,
    ) -> float:
        """:meth:`record` the best threshold of one interval histogram.

        Args:
            promotion_histogram: promotions recorded during this interval
                only (an interval diff, not a cumulative histogram).
            working_set_size_pages: the job's working set this interval.
            interval_seconds: length of the interval.
        """
        require(
            promotion_histogram.bins.thresholds == self.bins.thresholds,
            "promotion histogram uses a different threshold grid",
        )
        return self.record(best_threshold(
            promotion_histogram, working_set_size_pages, self.slo,
            interval_seconds,
        ), interval_seconds)

    def observe_zero(self, interval_seconds: float = MINUTE) -> float:
        """:meth:`record` an interval whose promotion histogram is all
        zeros: its best threshold is the most aggressive candidate."""
        return self.record(float(self.bins.min_threshold), interval_seconds)

    def threshold(self) -> float:
        """Threshold to apply for the next interval (or DISABLED).

        Returns :data:`DISABLED` while warming up or with an empty history.
        Otherwise: ``max(K-th percentile of pool, last interval's best)``.
        """
        if not self.warmed_up:
            return DISABLED
        if self.config.fixed_threshold_seconds is not None:
            return float(self.config.fixed_threshold_seconds)
        if not self._pool:
            return DISABLED
        # DISABLED entries dominate: a minute where even the largest
        # candidate violated the SLO must push high percentiles to
        # "compress nothing", not to "compress at the largest threshold".
        # They are mapped to a finite sentinel far above the grid so the
        # percentile interpolation stays warning-free; any result beyond
        # the grid decodes back to DISABLED.
        kth = _sorted_percentile(self._sorted_pool, self.config.percentile_k)
        if kth > self.bins.max_threshold:
            return DISABLED
        # Snap up to the nearest candidate threshold: the kernel can only
        # enforce thresholds on the candidate grid.
        idx = bisect_left(self.bins.thresholds, kth)
        if idx >= len(self.bins.thresholds):
            kth_snapped = float(self.bins.max_threshold)
        else:
            kth_snapped = float(self.bins.thresholds[idx])
        if not self.config.spike_reaction:
            return kth_snapped
        return max(kth_snapped, self._last_best)

    def reset(self) -> None:
        """Forget all history (job restart)."""
        self._pool.clear()
        self._sorted_pool.clear()
        self._elapsed_seconds = 0
        self._last_best = DISABLED

    def inherit_state(self, other: "ColdAgeThresholdPolicy") -> None:
        """Adopt another policy's observations (parameter redeployment).

        The kernel histograms — and therefore the per-minute best
        thresholds derived from them — are properties of the *job*, not of
        the parameters, so rolling out a new ``(K, S)`` must not restart
        the job's history or its warm-up clock.
        """
        for best in other._pool:
            self._pool.append(best)
        self._sorted_pool = sorted(
            v if math.isfinite(v) else self._sentinel for v in self._pool
        )
        self._elapsed_seconds = other._elapsed_seconds
        self._last_best = other._last_best


# ----------------------------------------------------------------------
# The deployable-policy seam (policy/mechanism separation)
# ----------------------------------------------------------------------
#
# The node agent, the cluster, and staged deployment never need to know
# *which* cold-memory detection algorithm is running — only that each job
# gets a controller it can drive once per control interval.  A
# :class:`ColdMemoryPolicy` is the deployable unit: an immutable value
# object (hashable, comparable, pickle-safe across the parallel engine's
# fork boundary) that builds per-job controllers on demand.  Swapping the
# paper's §4.3 algorithm for a baseline (Thermostat, fixed threshold) is a
# one-line change at the deployment site and touches nothing below it.


class ColdMemoryPolicy:
    """A deployable cold-memory policy: builds per-job threshold controllers.

    Implementations are frozen dataclasses so a policy can be compared,
    hashed, logged, and shipped across process boundaries.  The controller
    returned by :meth:`build` must implement the per-job control surface of
    :class:`ColdAgeThresholdPolicy`: ``record``, ``threshold``,
    ``warmed_up``, ``reset``, and ``inherit_state`` (which must accept a
    controller built by a *different* policy — redeploying parameters, or
    a whole new algorithm, never restarts a job's history or warm-up
    clock).

    Implementations carrying a :class:`ThresholdPolicyConfig` expose it as
    ``config`` so existing ``(K, S)``-shaped call sites keep working.
    """

    #: Short algorithm label for logs, events, and CLI tables.
    name: str = "abstract"

    def build(
        self, bins: AgeBins, slo: Optional[PromotionRateSlo] = None
    ) -> ColdAgeThresholdPolicy:
        """Create a fresh per-job controller on the given threshold grid."""
        raise NotImplementedError

    def describe(self) -> str:
        """One-line human description (CLI/report label)."""
        return self.name


@dataclass(frozen=True)
class PaperPolicy(ColdMemoryPolicy):
    """The paper's §4.3 K-th-percentile policy, as a deployable unit.

    Attributes:
        config: the ``(K, S)`` tunables handed to every per-job controller.
    """

    config: ThresholdPolicyConfig = ThresholdPolicyConfig()
    name = "paper"

    def build(
        self, bins: AgeBins, slo: Optional[PromotionRateSlo] = None
    ) -> ColdAgeThresholdPolicy:
        return ColdAgeThresholdPolicy(self.config, bins, slo)

    def describe(self) -> str:
        return (
            f"paper(K={self.config.percentile_k:g}, "
            f"S={self.config.warmup_seconds}s)"
        )


@dataclass(frozen=True)
class FixedThresholdPolicy(ColdMemoryPolicy):
    """The static-threshold baseline: always compress at one cold age.

    Attributes:
        threshold_seconds: the fixed cold-age threshold.
        warmup_seconds: zswap stays disabled this long after job start
            (the warm-up rule applies to every policy, §4.3).
    """

    threshold_seconds: float = 3600.0
    warmup_seconds: int = 600
    name = "fixed"

    @property
    def config(self) -> ThresholdPolicyConfig:
        """The equivalent ``ThresholdPolicyConfig`` (bypass mode)."""
        return ThresholdPolicyConfig(
            warmup_seconds=self.warmup_seconds,
            fixed_threshold_seconds=float(self.threshold_seconds),
        )

    def build(
        self, bins: AgeBins, slo: Optional[PromotionRateSlo] = None
    ) -> ColdAgeThresholdPolicy:
        return ColdAgeThresholdPolicy(self.config, bins, slo)

    def describe(self) -> str:
        return f"fixed(T={self.threshold_seconds:g}s)"


def as_policy(value: object) -> ColdMemoryPolicy:
    """Coerce a raw ``ThresholdPolicyConfig`` into a deployable policy.

    Deployment surfaces (``Cluster.deploy_policy``, ``WSC.deploy_policy``,
    ``NodeAgent.set_policy``) accept either a :class:`ColdMemoryPolicy` or
    a bare ``(K, S)`` config; the latter means "the paper policy with
    these tunables", which keeps every pre-seam call site valid.
    """
    if isinstance(value, ColdMemoryPolicy):
        return value
    if isinstance(value, ThresholdPolicyConfig):
        return PaperPolicy(value)
    raise TypeError(
        "expected a ColdMemoryPolicy or ThresholdPolicyConfig, "
        f"got {type(value).__name__}"
    )


# ----------------------------------------------------------------------
# Vectorized replay (the fast far memory model's hot path, §5.3)
# ----------------------------------------------------------------------
#
# The §4.3 algorithm looks sequential — the threshold for interval ``t``
# depends on the history of per-interval best thresholds — but the *best*
# threshold of an interval depends only on that interval's promotion
# histogram and working set, never on previously chosen thresholds.  The
# offline replay therefore factors into (1) a fully data-parallel best-
# threshold pass over all intervals of many traces at once and (2) a
# percentile pass over each interval's sorted history pool.  Both are
# expressed here over arrays; :class:`ColdAgeThresholdPolicy` above stays
# the semantic reference, and the model's tests prove the two produce
# bit-identical thresholds.


def best_thresholds_vectorized(
    promotion_suffix_sums: np.ndarray,
    working_set_pages: np.ndarray,
    bins: AgeBins,
    slo: PromotionRateSlo,
    interval_seconds: float = MINUTE,
) -> np.ndarray:
    """:func:`best_threshold` for every interval of a trace at once.

    Args:
        promotion_suffix_sums: ``(intervals, len(bins))`` matrix whose row
            ``t`` is ``promotion_histogram.suffix_sums()`` of interval ``t``.
        working_set_pages: ``(intervals,)`` working-set sizes.
        bins: the shared candidate-threshold grid.
        slo: the promotion-rate SLO.
        interval_seconds: length of each interval.

    Returns:
        ``(intervals,)`` float array of per-interval best thresholds,
        :data:`DISABLED` where even the largest candidate violates the SLO.
    """
    budgets = (slo.target_pct_per_min / 100.0) * np.asarray(
        working_set_pages, dtype=float
    )
    rates = np.asarray(promotion_suffix_sums) * (MINUTE / interval_seconds)
    fits = rates <= budgets[:, None]
    feasible = fits.any(axis=1)
    first_fit = np.argmax(fits, axis=1)
    grid = np.asarray(bins.thresholds, dtype=float)
    return np.where(feasible, grid[first_fit], DISABLED)


def _sorted_history_pools(
    encoded: np.ndarray, position: np.ndarray, rows: np.ndarray,
    history_length: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """The sorted history pool of each of ``rows``, padded with ``+inf``.

    Row ``r``'s pool is ``encoded`` over the previous
    ``min(position[r], history_length)`` rows of its own trace.  Every
    trace is laid out behind ``window`` cells of ``+inf`` so that the
    ``window`` cells before any row hold its pool and padding, never a
    row of the trace before it; one gather over a sliding-window view
    then builds all pools and one sort orders them.

    Returns:
        ``(pools, counts)``: the ``(len(rows), window)`` row-sorted pools,
        ``window = min(longest trace - 1, history_length)``, and each
        pool's size.
    """
    window = min(int(position.max()), history_length)
    trace_number = np.cumsum(position == 0)
    padded = np.full(encoded.size + window * int(trace_number[-1]), np.inf)
    padded[np.arange(encoded.size) + window * trace_number] = encoded
    starts = rows + window * (trace_number[rows] - 1)
    pools = np.lib.stride_tricks.sliding_window_view(padded, window)[starts]
    pools.sort(axis=1)
    return pools, np.minimum(position[rows], history_length)


def replay_threshold_batch(
    best: np.ndarray,
    position: np.ndarray,
    configs: Sequence[ThresholdPolicyConfig],
    bins: AgeBins,
    interval_seconds: float = MINUTE,
) -> List[np.ndarray]:
    """The threshold sequences :class:`ColdAgeThresholdPolicy` would
    publish, for many traces under many configurations at once.

    ``result[j][r]`` is the threshold governing row ``r`` under
    ``configs[j]``, computed from the rows before it in its own trace
    exactly as :meth:`ColdAgeThresholdPolicy.threshold` would after
    observing them: warm-up, the fixed-threshold bypass, the K-th
    percentile of the (sentinel-encoded) history pool, grid snapping, and
    the spike-reaction escalation.  The history pools do not depend on
    ``(K, S)``, so they are built and sorted once per distinct
    ``history_length`` of the batch; each configuration then costs a few
    whole-array operations.

    Args:
        best: per-interval best thresholds of one or more traces,
            concatenated trace after trace
            (from :func:`best_thresholds_vectorized`).
        position: each row's interval index within its own trace (0 on
            the first row of every trace).
        configs: the policy parameters being replayed.
        bins: the candidate-threshold grid shared by every trace.
        interval_seconds: length of each interval.
    """
    best = np.asarray(best, dtype=float)
    position = np.asarray(position, dtype=np.int64)
    elapsed = position * int(interval_seconds)
    results = [np.full(best.size, DISABLED) for _ in configs]
    by_length: Dict[int, List[int]] = {}
    for j, config in enumerate(configs):
        if config.fixed_threshold_seconds is not None:
            warmed = elapsed >= config.warmup_seconds
            results[j][warmed] = float(config.fixed_threshold_seconds)
        else:
            by_length.setdefault(config.history_length, []).append(j)
    # A trace's first row has an empty pool and stays DISABLED regardless
    # of warm-up.
    pooled = np.flatnonzero(position > 0)
    if not by_length or pooled.size == 0:
        return results
    encoded = np.where(np.isfinite(best), best,
                       float(bins.max_threshold) * 1e9)
    last_best = best[pooled - 1]
    grid = np.asarray(bins.thresholds)
    for history_length, members in by_length.items():
        pools, counts = _sorted_history_pools(
            encoded, position, pooled, history_length
        )
        for j in members:
            config = configs[j]
            kth = _sorted_percentile_rows(pools, counts, config.percentile_k)
            snap = np.searchsorted(grid, kth, side="left")
            snapped = np.where(
                snap >= len(grid),
                float(bins.max_threshold),
                grid.astype(float)[np.minimum(snap, len(grid) - 1)],
            )
            # A percentile beyond the grid decodes back to DISABLED; it
            # dominates the spike-reaction max below exactly as in the
            # scalar policy.
            snapped = np.where(kth > bins.max_threshold, DISABLED, snapped)
            if config.spike_reaction:
                snapped = np.maximum(snapped, last_best)
            active = elapsed[pooled] >= config.warmup_seconds
            results[j][pooled[active]] = snapped[active]
    return results
