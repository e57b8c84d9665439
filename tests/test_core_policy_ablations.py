"""Ablation knobs on the threshold controller."""

import numpy as np

from repro.core.histograms import AgeHistogram
from repro.core.threshold_policy import (
    DISABLED,
    ColdAgeThresholdPolicy,
    ThresholdPolicyConfig,
)


def burst_hist(bins, age, count):
    hist = AgeHistogram(bins)
    hist.add_ages(np.full(count, float(age)))
    return hist


class TestFixedThreshold:
    def test_fixed_threshold_bypasses_controller(self, bins):
        policy = ColdAgeThresholdPolicy(
            ThresholdPolicyConfig(warmup_seconds=0,
                                  fixed_threshold_seconds=480.0),
            bins,
        )
        policy.observe(burst_hist(bins, 200, 1000), 100)  # would back off
        assert policy.threshold() == 480.0

    def test_fixed_threshold_respects_warmup(self, bins):
        policy = ColdAgeThresholdPolicy(
            ThresholdPolicyConfig(warmup_seconds=600,
                                  fixed_threshold_seconds=120.0),
            bins,
        )
        assert policy.threshold() == DISABLED
        for _ in range(10):
            policy.observe(AgeHistogram(bins), 100)
        assert policy.threshold() == 120.0


class TestSpikeReactionToggle:
    def _history(self, policy, bins):
        for _ in range(30):
            policy.observe(AgeHistogram(bins), 1000)
        policy.observe(burst_hist(bins, 1000, 500), 1000)  # the spike

    def test_spike_reaction_escalates(self, bins):
        with_spike = ColdAgeThresholdPolicy(
            ThresholdPolicyConfig(percentile_k=50, warmup_seconds=0), bins
        )
        self._history(with_spike, bins)
        assert with_spike.threshold() >= 1920

    def test_without_spike_reaction_stays_on_percentile(self, bins):
        without = ColdAgeThresholdPolicy(
            ThresholdPolicyConfig(percentile_k=50, warmup_seconds=0,
                                  spike_reaction=False),
            bins,
        )
        self._history(without, bins)
        # The single bad minute barely moves the 50th percentile.
        assert without.threshold() == bins.min_threshold


class TestDisabledDominatesPercentile:
    def test_chronic_violator_stays_disabled(self, bins):
        """A job violating at every candidate threshold in >2% of minutes
        must be left uncompressed by a K=98 policy."""
        policy = ColdAgeThresholdPolicy(
            ThresholdPolicyConfig(percentile_k=98, warmup_seconds=0,
                                  history_length=50),
            bins,
        )
        for i in range(50):
            if i % 10 == 0:
                # Massive accesses to the very oldest pages: no finite
                # threshold can meet the SLO this minute.
                policy.observe(burst_hist(bins, 40000, 10_000), 100)
            else:
                policy.observe(AgeHistogram(bins), 100)
        assert policy.threshold() == DISABLED
