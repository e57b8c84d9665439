"""Thermostat-style sampling cold-page detection (related work, §7).

Thermostat [Agarwal & Wenisch, ASPLOS'17] classifies *huge-page* (2 MiB)
regions as cold by "poisoning" the mappings of a small random sample of
regions each epoch and counting the page faults the sample incurs: a
sampled region with no faults over an epoch is likely cold.  The paper
contrasts its own accessed-bit approach with this design: sampling covers
only a fraction of memory per epoch and adds fault latency to sampled hot
pages, while kstaled's PTE-accessed-bit scan covers every page at a fixed
background cost.

:class:`ThermostatDetector` reproduces the sampling estimator at region
granularity so the comparison bench can measure, on identical access
streams, each detector's precision/recall against ground truth and its
overhead proxy (sampled faults vs pages scanned).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Set

import numpy as np

from repro.common.units import MINUTE, PAGE_SIZE
from repro.common.validation import check_fraction, check_positive, require
from repro.core.histograms import AgeBins
from repro.core.slo import PromotionRateSlo
from repro.core.threshold_policy import (
    ColdAgeThresholdPolicy,
    ColdMemoryPolicy,
    ThresholdPolicyConfig,
)

__all__ = [
    "ThermostatConfig",
    "ThermostatDetector",
    "ThermostatPolicy",
    "ThermostatPolicyConfig",
    "ThermostatThresholdPolicy",
]

#: Pages per 2 MiB huge-page region.
HUGE_PAGE_PAGES = (2 << 20) // PAGE_SIZE


@dataclass(frozen=True)
class ThermostatConfig:
    """Sampling parameters.

    Attributes:
        region_pages: granularity of classification (512 = 2 MiB regions).
        sample_fraction: fraction of regions poisoned each epoch.
        epoch_seconds: how long one sample is observed before judgment.
        ewma_alpha: smoothing of per-region access-rate estimates across
            epochs (regions are only sampled occasionally, so estimates
            must persist between samples).
    """

    region_pages: int = HUGE_PAGE_PAGES
    sample_fraction: float = 0.05
    epoch_seconds: int = 120
    ewma_alpha: float = 0.5

    def __post_init__(self) -> None:
        check_positive(self.region_pages, "region_pages")
        check_fraction(self.sample_fraction, "sample_fraction")
        check_positive(self.epoch_seconds, "epoch_seconds")
        check_fraction(self.ewma_alpha, "ewma_alpha")


class ThermostatDetector:
    """Sampling-based cold-region estimator for one job.

    Drive it with the same access stream the kernel sees::

        detector.begin_epoch(rng)
        for each tick:
            faults = detector.record_accesses(touched_page_indices)
        detector.end_epoch(now)

    Args:
        n_pages: the job's page-space size.
        config: sampling parameters.
    """

    def __init__(self, n_pages: int, config: Optional[ThermostatConfig] = None):
        check_positive(n_pages, "n_pages")
        self.config = config if config is not None else ThermostatConfig()
        self.n_pages = int(n_pages)
        self.n_regions = -(-self.n_pages // self.config.region_pages)
        #: Per-region estimated accesses per epoch (NaN = never sampled).
        self.estimated_rate = np.full(self.n_regions, np.nan)
        #: Regions currently poisoned.
        self._sampled: np.ndarray = np.zeros(0, dtype=np.int64)
        #: Fault counts for the current epoch's sample.
        self._epoch_faults = np.zeros(0, dtype=np.int64)
        #: Pages that already faulted this epoch (poison is removed by the
        #: first fault, as in Thermostat).
        self._faulted_pages: Set[int] = set()
        self.total_sampled_faults = 0
        self.epochs = 0

    def region_of(self, page_indices: np.ndarray) -> np.ndarray:
        """Map page indices to region indices."""
        return np.asarray(page_indices) // self.config.region_pages

    # ------------------------------------------------------------------
    # Epoch protocol
    # ------------------------------------------------------------------

    def begin_epoch(self, rng: np.random.Generator) -> np.ndarray:
        """Poison a fresh random sample of regions; returns the sample."""
        k = max(1, int(round(self.config.sample_fraction * self.n_regions)))
        self._sampled = rng.choice(self.n_regions, size=min(k, self.n_regions),
                                   replace=False)
        self._epoch_faults = np.zeros(self._sampled.size, dtype=np.int64)
        self._faulted_pages.clear()
        return self._sampled.copy()

    def record_accesses(self, touched: np.ndarray) -> int:
        """Process one tick's accesses; returns faults taken this tick.

        Only the *first* access to each poisoned page faults (the fault
        handler restores the mapping); subsequent accesses are free — that
        is Thermostat's per-page overhead bound.
        """
        touched = np.asarray(touched)
        if touched.size == 0 or self._sampled.size == 0:
            return 0
        regions = self.region_of(touched)
        in_sample = np.isin(regions, self._sampled)
        candidates = np.unique(touched[in_sample])
        fresh = [
            int(p) for p in candidates if int(p) not in self._faulted_pages
        ]
        if not fresh:
            return 0
        self._faulted_pages.update(fresh)
        rank_of_region = {int(r): i for i, r in enumerate(self._sampled)}
        for page in fresh:
            rank = rank_of_region[page // self.config.region_pages]
            self._epoch_faults[rank] += 1
        faults = len(fresh)
        self.total_sampled_faults += faults
        return faults

    def end_epoch(self, now: int = 0) -> None:
        """Fold the epoch's fault counts into the per-region estimates."""
        alpha = self.config.ewma_alpha
        for rank, region in enumerate(self._sampled):
            observed = float(self._epoch_faults[rank])
            previous = self.estimated_rate[region]
            if np.isnan(previous):
                self.estimated_rate[region] = observed
            else:
                self.estimated_rate[region] = (
                    alpha * observed + (1 - alpha) * previous
                )
        self._sampled = np.zeros(0, dtype=np.int64)
        self._epoch_faults = np.zeros(0, dtype=np.int64)
        self.epochs += 1

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------

    @property
    def coverage_fraction(self) -> float:
        """Fraction of regions with at least one estimate so far."""
        return float(np.mean(~np.isnan(self.estimated_rate)))

    def cold_regions(self, max_faults_per_epoch: float = 0.0) -> np.ndarray:
        """Regions estimated at or below the access-rate limit.

        Unsampled regions are (conservatively) not classified cold.
        """
        with np.errstate(invalid="ignore"):
            mask = self.estimated_rate <= max_faults_per_epoch
        return np.flatnonzero(np.nan_to_num(mask, nan=False))

    def cold_page_mask(self, max_faults_per_epoch: float = 0.0) -> np.ndarray:
        """Per-page boolean mask of the cold classification."""
        mask = np.zeros(self.n_pages, dtype=bool)
        for region in self.cold_regions(max_faults_per_epoch):
            start = int(region) * self.config.region_pages
            mask[start : start + self.config.region_pages] = True
        return mask


# ----------------------------------------------------------------------
# Thermostat as a deployable ColdMemoryPolicy
# ----------------------------------------------------------------------
#
# The detector above operates on raw access streams, which the node agent
# never sees — it only gets per-interval promotion histograms.  To canary
# Thermostat through the same control plane as the paper's policy, the
# adapter below transplants Thermostat's two defining ideas to the
# histogram level:
#
# * **duty-cycled sampling** — only every ``sample_period_intervals``-th
#   control interval is observed (Thermostat samples a fraction of memory
#   per epoch; here a fraction of *time* is sampled instead, the same
#   coverage/overhead trade at the telemetry level);
# * **EWMA persistence** — sampled observations are folded into an
#   exponentially-weighted estimate that persists across unsampled
#   intervals, exactly as the detector's per-region rate estimates do.
#
# The adapter is deliberately deterministic (no RNG): the duty cycle is a
# fixed stride, so a canary decision replays bit-for-bit serial vs
# parallel — the property the fleet controller's chaos suite asserts.


@dataclass(frozen=True)
class ThermostatPolicyConfig:
    """Tunables of the policy-level Thermostat adapter.

    Attributes:
        sample_period_intervals: observe the kernel histograms only every
            N-th control interval (N=2 mirrors a 120 s epoch over the
            one-minute agent cadence); unsampled intervals reuse the
            persisted estimate.
        ewma_alpha: smoothing of the threshold estimate across sampled
            intervals (the detector's per-region EWMA, §7).
        warmup_seconds: zswap stays disabled this long after job start.
        history_length: sampled best thresholds retained for state
            hand-off on redeployment.
    """

    sample_period_intervals: int = 2
    ewma_alpha: float = 0.5
    warmup_seconds: int = 600
    history_length: int = 32

    def __post_init__(self) -> None:
        check_positive(self.sample_period_intervals, "sample_period_intervals")
        check_fraction(self.ewma_alpha, "ewma_alpha")
        require(self.warmup_seconds >= 0, "warmup_seconds must be >= 0")
        require(self.history_length >= 1, "history_length must be >= 1")


class ThermostatThresholdPolicy(ColdAgeThresholdPolicy):
    """Per-job Thermostat controller on the node-agent control surface.

    Shares :class:`ColdAgeThresholdPolicy`'s surface (``record``,
    ``threshold``, ``warmed_up``, ``reset``, ``inherit_state``) so the
    node agent drives it without knowing the algorithm changed.
    Unsampled intervals leave history and estimate alone; sampled ones
    fold the interval's best threshold into the EWMA estimate that
    :meth:`threshold` publishes.  Jobs whose estimate does not exist yet
    (never sampled, like the detector's never-sampled regions) are
    conservatively left uncompressed.
    """

    def __init__(
        self,
        config: ThermostatPolicyConfig,
        bins: AgeBins,
        slo: Optional[PromotionRateSlo] = None,
    ):
        base = ThresholdPolicyConfig(
            warmup_seconds=config.warmup_seconds,
            history_length=config.history_length,
            spike_reaction=False,
        )
        super().__init__(base, bins, slo)
        self.thermostat = config
        self._intervals = 0
        #: EWMA of sentinel-encoded sampled best thresholds (NaN = never
        #: sampled; values beyond the grid decode to "compress nothing").
        self._estimate = float("nan")

    def _sampled(self) -> bool:
        return self._intervals % self.thermostat.sample_period_intervals == 0

    def _fold(self, best: float) -> None:
        encoded = best if math.isfinite(best) else self._sentinel
        if math.isnan(self._estimate):
            self._estimate = encoded
        else:
            alpha = self.thermostat.ewma_alpha
            self._estimate = alpha * encoded + (1 - alpha) * self._estimate

    def record(self, best: float, interval_seconds: float = MINUTE) -> float:
        self._intervals += 1
        if not self._sampled():
            # Unsampled interval: Thermostat is not looking.  The warm-up
            # clock still advances; history and estimate are untouched.
            self._elapsed_seconds += int(interval_seconds)
            return self._last_best
        super().record(best, interval_seconds)
        self._fold(best)
        return best

    def threshold(self) -> float:
        from repro.core.threshold_policy import DISABLED

        if not self.warmed_up or math.isnan(self._estimate):
            return DISABLED
        if self._estimate > self.bins.max_threshold:
            return DISABLED
        # Snap up to the candidate grid, as the kernel requires.
        grid = self.bins.thresholds
        for candidate in grid:
            if candidate >= self._estimate:
                return float(candidate)
        return float(self.bins.max_threshold)

    def reset(self) -> None:
        super().reset()
        self._intervals = 0
        self._estimate = float("nan")

    def inherit_state(self, other: ColdAgeThresholdPolicy) -> None:
        """Adopt another controller's observations (cross-policy safe).

        From another Thermostat controller the EWMA estimate and duty-cycle
        phase carry over verbatim; from any other controller (e.g. the
        paper policy during a policy swap) the estimate is rebuilt by
        folding the inherited best-threshold history in arrival order —
        deterministic, and faithful to what Thermostat would have estimated
        had it sampled those intervals.
        """
        super().inherit_state(other)
        inherited_estimate = getattr(other, "_estimate", None)
        if inherited_estimate is not None:
            self._estimate = float(inherited_estimate)
            self._intervals = int(getattr(other, "_intervals", 0))
            return
        self._intervals = len(self._pool)
        self._estimate = float("nan")
        for best in self._pool:
            self._fold(best)


@dataclass(frozen=True)
class ThermostatPolicy(ColdMemoryPolicy):
    """Thermostat as a deployable policy (one-line swap at the seam).

    Attributes:
        config: the adapter tunables handed to every per-job controller.
    """

    config: ThermostatPolicyConfig = ThermostatPolicyConfig()
    name = "thermostat"

    def build(
        self, bins: AgeBins, slo: Optional[PromotionRateSlo] = None
    ) -> ThermostatThresholdPolicy:
        return ThermostatThresholdPolicy(self.config, bins, slo)

    def describe(self) -> str:
        return (
            f"thermostat(every {self.config.sample_period_intervals} "
            f"intervals, alpha={self.config.ewma_alpha:g})"
        )
