"""Parallel-engine throughput: one fleet timed serially and in parallel.

Asserts the parallel engine actually buys wall-clock time on hardware
that can show it (4+ usable cores), and that it never pays for that
speed with correctness: coverage reports and SLI histories must match
the serial run everywhere the benchmark runs.  ``perfbench/run.py``
reports the same ratio as ``parallel_speedup`` on its workloads.
"""

from __future__ import annotations

import time

import pytest

from repro.cluster.wsc import quickfleet
from repro.common.units import HOUR
from repro.engine import FleetEngine, default_worker_count, fork_available
from repro.obs import MetricRegistry, Tracer

pytestmark = pytest.mark.slow


def _dense_fleet():
    """Small machines with mostly-cold jobs, 240 s scans and 5-minute
    control rounds; the tracer is off so span bookkeeping does not
    dominate either side."""
    return quickfleet(
        clusters=4,
        machines_per_cluster=1,
        jobs_per_machine=2,
        seed=42,
        machine_dram_gib=0.25,
        mean_cold_fraction=0.90,
        job_pages_range=(16, 64),
        scan_period=240,
        control_period=300,
        registry=MetricRegistry(),
        tracer=Tracer(enabled=False),
    )


@pytest.fixture(scope="module")
def timed_runs():
    """Half an hour serially and under four workers; returns both fleets,
    the engine stats and the serial / parallel wall-time ratio."""
    serial = _dense_fleet()
    start = time.perf_counter()
    serial.run(HOUR // 2)
    serial_wall = time.perf_counter() - start

    parallel = _dense_fleet()
    start = time.perf_counter()
    # One run is one session: the timed region includes its close.
    with FleetEngine(parallel, workers=4) as engine:
        stats = engine.run(HOUR // 2)
    parallel_wall = time.perf_counter() - start
    return serial, parallel, stats, serial_wall / parallel_wall


@pytest.mark.skipif(not fork_available(), reason="needs fork start method")
def test_parallel_results_equivalent(timed_runs):
    serial, parallel, _stats, _speedup = timed_runs
    assert parallel.coverage_report() == serial.coverage_report()
    assert parallel.sli_history == serial.sli_history


@pytest.mark.skipif(
    not fork_available() or default_worker_count() < 4,
    reason="speedup needs 4+ usable cores and fork support",
)
def test_parallel_speedup_on_multicore_host(timed_runs):
    _serial, _parallel, stats, speedup = timed_runs
    assert stats.mode == "parallel"
    assert speedup >= 1.5
