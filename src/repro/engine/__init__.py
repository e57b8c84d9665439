"""Parallel fleet execution (the simulator's scale-out layer).

The serial :meth:`repro.cluster.wsc.WSC.run` loop walks every cluster on
one core; fleet-scale experiments (Fig. 5-7, TCO sweeps) are wall-clock
bound by that single thread.  This package shards clusters across a
fork-based worker pool while preserving the simulator's determinism
contract: a parallel run with the same seeds produces bit-identical
coverage reports and SLI histories to the serial run.

* :class:`FleetEngine` — the parallel executor: a session forks W - 1
  workers once, keeps their clusters across runs (one round trip per
  worker per run of up to a simulated hour, carrying its SLI samples,
  telemetry and metric delta) and ships them back once, when a caller
  needs the live clusters.
* :func:`plan_shards` — deterministic LPT assignment of clusters to
  workers.

Serial and parallel throughput are measured by ``perfbench/run.py``
(``parallel_speedup``); serial ≡ parallel is held by the tier-1 tests
in ``tests/test_engine_parallel.py`` and ``tests/test_fleet_equivalence.py``.
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
