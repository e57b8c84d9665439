"""Ablation (§7 related work): accessed-bit scanning vs Thermostat sampling.

The paper bases cold-page identification on kstaled's full PTE-accessed-bit
scan and argues it over Thermostat's fault-sampling approach (which covers
only a sample per epoch and injects faults into hot paths).  We drive both
detectors with an identical access stream whose per-page Poisson rates are
known, and compare:

* detection quality — precision/recall against the generative ground truth
  (a page is truly cold at T when its rate is below 1/T);
* overhead — faults injected into the application (Thermostat) vs
  background pages scanned (kstaled).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import render_table
from repro.baselines import ThermostatConfig, ThermostatDetector
from repro.common.units import HOUR, KSTALED_SCAN_PERIOD
from repro.core.histograms import default_age_bins
from repro.kernel.compression import ContentProfile
from repro.kernel.kstaled import SCAN_SECONDS_PER_PAGE, Kstaled
from repro.kernel.oracle import ScalarPagePool
from repro.workloads import HeterogeneousPoissonPattern, make_rates_for_cold_fraction

N_PAGES = 64 * 512  # 64 huge-page regions
THRESHOLD = 960.0  # classify "cold at 16 minutes"
SIM_SECONDS = 4 * HOUR
FAULT_COST_SECONDS = 5e-6  # one minor fault on a hot path


def region_truth(rates: np.ndarray, region_pages: int) -> np.ndarray:
    """Ground truth at region granularity: a region is cold when its
    *aggregate* access rate stays below one touch per threshold window."""
    regions = rates.reshape(-1, region_pages)
    return regions.sum(axis=1) < (1.0 / THRESHOLD)


def page_truth(rates: np.ndarray) -> np.ndarray:
    return rates < (1.0 / THRESHOLD)


def precision_recall(predicted: np.ndarray, truth: np.ndarray):
    tp = int((predicted & truth).sum())
    fp = int((predicted & ~truth).sum())
    fn = int((~predicted & truth).sum())
    precision = tp / (tp + fp) if tp + fp else 1.0
    recall = tp / (tp + fn) if tp + fn else 1.0
    return precision, recall


@pytest.fixture(scope="module")
def detection_run():
    rng = np.random.default_rng(77)
    # Cluster rates by region so region-granular truth is meaningful
    # (Thermostat classifies 2 MiB regions, not pages).
    region_pages = 512
    n_regions = N_PAGES // region_pages
    region_rates = np.sort(
        make_rates_for_cold_fraction(n_regions, 0.4, rng)
    )
    rates = np.repeat(region_rates, region_pages)
    pattern = HeterogeneousPoissonPattern(rates)

    pool = ScalarPagePool(default_age_bins(), KSTALED_SCAN_PERIOD)
    memcg = pool.add("job", N_PAGES, ContentProfile(),
                     np.random.default_rng(1))
    memcg.allocate(N_PAGES)
    kstaled = Kstaled()
    thermostat = ThermostatDetector(
        N_PAGES,
        ThermostatConfig(region_pages=region_pages, sample_fraction=0.25,
                         epoch_seconds=120),
    )
    thermostat.begin_epoch(rng)
    for t in range(0, SIM_SECONDS, 60):
        touched, _ = pattern.step(t, 60, rng)
        memcg.touch(touched)
        thermostat.record_accesses(touched)
        if t % thermostat.config.epoch_seconds == 0 and t > 0:
            thermostat.end_epoch(t)
            thermostat.begin_epoch(rng)
        if kstaled.due(t):
            kstaled.record_scan(pool.scan_all([memcg]))
    return rates, memcg, kstaled, thermostat


def test_ablation_cold_detection(benchmark, detection_run, save_result):
    rates, memcg, kstaled, thermostat = detection_run
    region_pages = thermostat.config.region_pages

    def classify():
        # Both detectors judged at region (2 MiB) granularity: a region is
        # cold when no page in it was touched within the threshold.
        threshold_scans = int(np.ceil(THRESHOLD / memcg.scan_period))
        region_min_age = memcg.age_scans.reshape(-1, region_pages).min(axis=1)
        kstaled_cold = region_min_age >= threshold_scans
        thermostat_cold = np.zeros_like(kstaled_cold)
        thermostat_cold[thermostat.cold_regions(max_faults_per_epoch=0.0)] = (
            True
        )
        return kstaled_cold, thermostat_cold

    kstaled_cold, thermostat_cold = benchmark(classify)

    truth = region_truth(rates, region_pages)
    k_precision, k_recall = precision_recall(kstaled_cold, truth)
    t_precision, t_recall = precision_recall(thermostat_cold, truth)

    # Quality: the full scan must dominate sampling on recall (it observes
    # every page, every period) at comparable precision.
    assert k_recall >= t_recall
    assert k_precision >= 0.6
    assert k_recall >= 0.6

    # Overhead: Thermostat bills faults to the application's own accesses;
    # kstaled's cost is background scanning.
    fault_seconds = thermostat.total_sampled_faults * FAULT_COST_SECONDS
    scan_seconds = kstaled.pages_scanned * SCAN_SECONDS_PER_PAGE
    assert thermostat.total_sampled_faults > 0

    save_result(
        "ablation_cold_detection",
        render_table(
            ["detector", "precision", "recall", "app-visible overhead",
             "background overhead"],
            [
                ("kstaled accessed-bit scan", f"{k_precision:.2f}",
                 f"{k_recall:.2f}", "0 s", f"{scan_seconds:.3f} s"),
                ("Thermostat sampling", f"{t_precision:.2f}",
                 f"{t_recall:.2f}", f"{fault_seconds * 1e3:.2f} ms",
                 "~0 s"),
            ],
            title="§7 ablation — cold-page detection: scanning vs sampling "
            f"(T={THRESHOLD:.0f}s, 4 h, {N_PAGES} pages)",
        ),
    )
