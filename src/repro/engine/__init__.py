"""Parallel fleet execution (the simulator's scale-out layer).

The serial :meth:`repro.cluster.wsc.WSC.run` loop walks every cluster on
one core; fleet-scale experiments (Fig. 5-7, TCO sweeps) are wall-clock
bound by that single thread.  This package shards clusters across a
fork-based worker pool while preserving the simulator's determinism
contract: a parallel run with the same seeds produces bit-identical
coverage reports and SLI histories to the serial run.

* :class:`FleetEngine` — the parallel executor: a session forks W - 1
  workers once, keeps their clusters across runs (barrier per simulated
  minute, one metric delta per worker per run) and ships them back once,
  when a caller needs the live clusters.
* :func:`plan_shards` — deterministic LPT assignment of clusters to
  workers.
* :mod:`repro.engine.bench` — the ``repro bench`` serial-vs-parallel
  throughput harness behind ``BENCH_fleet.json``.
"""

from repro.engine.parallel import (
    EngineError,
    EngineStats,
    FleetEngine,
    default_worker_count,
    fork_available,
)
from repro.engine.sharding import ShardPlan, plan_shards

__all__ = [
    "EngineError",
    "EngineStats",
    "FleetEngine",
    "ShardPlan",
    "default_worker_count",
    "fork_available",
    "plan_shards",
]
