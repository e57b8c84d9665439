"""Parallel fleet execution (the simulator's scale-out layer).

The serial :meth:`repro.cluster.wsc.WSC.run` loop walks every cluster on
one core; fleet-scale experiments (Fig. 5-7, TCO sweeps) are wall-clock
bound by that single thread.  This package shards clusters across a
fork-based worker pool while preserving the simulator's determinism
contract: a parallel run with the same seeds produces bit-identical
coverage reports and SLI histories to the serial run.

* :class:`FleetEngine` — the parallel executor: over W shards it forks
  W - 1 workers and ticks the lightest shard in the parent itself, with a
  barrier per simulated minute that merges SLI samples and trace deltas,
  and one metric delta per worker at the end of the run, when workers
  ship their clusters back without their forked metric registry.
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
