"""The pooled reclaim round ≡ the per-memcg walk it replaces.

:func:`~repro.kernel.machine.reclaim_machines` lists every memcg's
candidates of one page pool in LRU walk order, spends each machine's
kreclaimd budget along that walk and stores the attempted pages in one
zswap pass.  The reference is the walk it replaced,
:func:`~repro.kernel.oracle.run_kreclaimd`: machine by machine, memcg by
memcg over reference memcgs, the oracle's own candidacy and LRU order
and one store each, the budget charged per machine.  Two twin sets of
machines, each set sharing one page pool (the reference side's is
always the reference pool), take the same seeded
touches, scans, threshold changes and compactions; after every round
the pooled side and the reference side must agree on page columns,
arena stats, zswap job stats and the reclaim and compress metrics.  The
budget, the ``zswap_max_pool_fraction`` cap and huge mappings all bind
along the way, and machines add their jobs interleaved, so a pool's
segment order is not its walk order.  Each machine's payload cutoff is
its own: a compression fault lowers it on its target machines only.
"""

import numpy as np
import pytest

from repro.common.rng import SeedSequenceFactory
from repro.common.units import MIB
from repro.core.histograms import default_age_bins
from repro.kernel.compression import ContentProfile
from repro.kernel.machine import (
    FarMemoryMode,
    Machine,
    MachineConfig,
    pool_memcgs,
    reclaim_machines,
    tick_machines,
    touch_machines,
)
from repro.kernel.oracle import reclaim_candidates, run_kreclaimd
from repro.obs import MetricName, MetricRegistry, Tracer

_PROFILE = ContentProfile(incompressible_fraction=0.15, min_ratio=1.4)
_MACHINES = 3
_JOBS = 3
_PAGES = 160
_HUGE = 16
_BUDGET = 120
_ROUNDS = 30
_THRESHOLDS = (0.0, 60.0, 120.0, 240.0, float("inf"))

_RECLAIM_METRICS = {
    MetricName.KRECLAIMD_RUNS_TOTAL,
    MetricName.PAGES_RECLAIMED_TOTAL,
    MetricName.PAGES_COMPRESSED_TOTAL,
    MetricName.PAGES_REJECTED_TOTAL,
    MetricName.ZSWAP_STORED_BYTES_TOTAL,
    MetricName.ZSWAP_POOL_LIMIT_REJECTIONS_TOTAL,
    MetricName.COMPRESS_CPU_SECONDS_TOTAL,
}
_COLUMNS = ("resident", "age_scans", "state", "incompressible", "dirtied",
            "payload_bytes", "lru_active", "huge_group")


def _machines(kernel, pool_fraction=0.01):
    """Machines sharing one page pool; jobs arrive machine-interleaved,
    and every machine's first job holds two huge mappings."""
    config = MachineConfig(
        dram_bytes=16 * MIB, mode=FarMemoryMode.PROACTIVE, kernel=kernel,
        scan_period=60, kreclaimd_pages_per_run=_BUDGET,
        zswap_max_pool_fraction=pool_fraction,
    )
    registry = MetricRegistry()
    pool = config.make_pool(default_age_bins())
    machines = [
        Machine(f"m{index}", config, seeds=SeedSequenceFactory(40 + index),
                registry=registry, tracer=Tracer(), pool=pool)
        for index in range(_MACHINES)
    ]
    for job in range(_JOBS):
        for machine in machines:
            job_id = f"{machine.machine_id}-j{job}"
            memcg = machine.add_job(job_id, _PAGES, _PROFILE)
            machine.allocate(job_id, _PAGES - 8 * job)
            if job == 0:
                pool.map_huge(memcg.row, 0, _HUGE)
                pool.map_huge(memcg.row, 2 * _HUGE, _HUGE)
    return machines, registry


def candidate_pairs(machine):
    """``(memcg, candidates)`` of every memcg of ``machine`` with zswap
    enabled, in arrival order, from the oracle's per-memcg candidacy."""
    return [
        (memcg, reclaim_candidates(memcg, memcg.cold_age_threshold))
        for memcg in machine.memcgs.values() if memcg.zswap_enabled
    ]


def reference_round(machines):
    """The per-memcg walk over reference memcgs, machine by machine:
    ``run_kreclaimd`` orders each memcg's candidates as its LRU walk
    does and stores them one memcg at a time, charging the machine's
    budget."""
    for machine in machines:
        run_kreclaimd(machine.kreclaimd, candidate_pairs(machine))


def _step(machines, rng, now, drain):
    """One round's inputs, drawn from ``rng``: touches, a scan, new
    thresholds, and now and then a compaction.  A draining round faults
    every far page back and compacts, so the pool cap has room again,
    and gives each machine's first job few candidates and the others
    many, so the cap binds past the first memcg of a machine's walk."""
    pool = machines[0].pool
    reads = np.flatnonzero(rng.random(pool.used) < 0.03)
    writes = np.flatnonzero(rng.random(pool.used) < 0.01)
    if drain:
        reads = np.union1d(reads, pool.far_slots(
            [memcg.row for memcg in pool_memcgs(machines)]))
    touch_machines(machines, reads, writes)
    tick_machines(machines, now)
    for machine in machines:
        for job, memcg in enumerate(machine.memcgs.values()):
            if drain:
                memcg.zswap_enabled = True
                memcg.cold_age_threshold = 240.0 if job == 0 else 0.0
            elif rng.random() < 0.3:
                memcg.cold_age_threshold = float(rng.choice(_THRESHOLDS))
                memcg.zswap_enabled = bool(rng.random() < 0.9)
    if drain or rng.random() < 0.5:
        for machine in machines:
            machine.arena.compact()


def _huge_pages(machines):
    pool = machines[0].pool
    return sum(int((pool.row_pages(memcg.row).huge_group >= 0).sum())
               for memcg in pool_memcgs(machines))


def _state(machines, registry):
    pool = machines[0].pool
    pages = [
        (memcg.job_id, memcg.compressed_pages_total,
         memcg.rejected_pages_total,
         [np.asarray(getattr(pool.row_pages(memcg.row), column),
                     np.int64).tobytes()
          for column in _COLUMNS])
        for memcg in pool_memcgs(machines)
    ]
    zswap = [
        (machine.arena.stats(), machine.zswap.pool_limit_rejections,
         machine.kreclaimd.runs, machine.kreclaimd.pages_reclaimed,
         [(job, stats.pages_compressed, stats.pages_rejected,
           stats.compress_seconds, stats.payload_bytes_stored)
          for job, stats in machine.zswap.job_stats.items()])
        for machine in machines
    ]
    metrics = [
        record for record in registry.snapshot()
        if record["name"] in _RECLAIM_METRICS
    ]
    return pages, zswap, metrics


@pytest.mark.parametrize("kernel", ["scalar", "columnar"])
def test_pooled_round_matches_the_per_memcg_walk(kernel):
    pooled, pooled_registry = _machines(kernel)
    walked, walked_registry = _machines("scalar")
    rngs = [np.random.default_rng(5), np.random.default_rng(5)]
    for memcg in pool_memcgs(pooled) + pool_memcgs(walked):
        memcg.cold_age_threshold = 60.0
    huge_before = _huge_pages(pooled)
    budget_bound = cap_bound = multi_memcg = 0
    for round_index in range(_ROUNDS):
        now = 60 * (round_index + 1)
        drain = round_index % 3 == 2
        _step(pooled, rngs[0], now, drain)
        _step(walked, rngs[1], now, drain)

        per_machine = [
            [c.size for _m, c in candidate_pairs(machine) if c.size]
            for machine in walked
        ]
        budget_bound += any(sum(sizes) > _BUDGET for sizes in per_machine)
        multi_memcg += any(len(sizes) > 1 for sizes in per_machine)
        rejections = [m.zswap.pool_limit_rejections for m in pooled]

        reclaim_machines(pooled)
        reference_round(walked)
        assert _state(pooled, pooled_registry) == _state(
            walked, walked_registry), f"round {round_index}"
        cap_bound += any(
            m.zswap.pool_limit_rejections > before
            for m, before in zip(pooled, rejections)
        )

    # Every contract the round keeps was exercised.
    assert budget_bound and cap_bound and multi_memcg
    assert sum(m.zswap.stats_for(j).pages_rejected
               for m in pooled for j in m.memcgs) > 0
    assert _huge_pages(pooled) < huge_before


@pytest.mark.parametrize("kernel", ["scalar", "columnar"])
@pytest.mark.parametrize("pool_fraction", [0.01, 0.0])
@pytest.mark.parametrize("failed", [0, 1])
def test_each_machine_keeps_its_own_payload_cutoff(
    kernel, pool_fraction, failed
):
    """One machine's cutoff drops to 0, as a ``compression_failure``
    fault of magnitude 0 sets it, and another's is halved: each machine
    rejects by its own cutoff, first in the walk or not, capped or not."""
    pooled, pooled_registry = _machines(kernel, pool_fraction)
    walked, walked_registry = _machines("scalar", pool_fraction)
    halved = 2
    for machines in (pooled, walked):
        machines[failed].zswap.max_payload_bytes = 0
        machines[halved].zswap.max_payload_bytes //= 2
    rngs = [np.random.default_rng(7), np.random.default_rng(7)]
    for memcg in pool_memcgs(pooled) + pool_memcgs(walked):
        memcg.cold_age_threshold = 60.0
    for round_index in range(_ROUNDS // 3):
        now = 60 * (round_index + 1)
        drain = round_index % 3 == 2
        _step(pooled, rngs[0], now, drain)
        _step(walked, rngs[1], now, drain)
        reclaim_machines(pooled)
        reference_round(walked)
        assert _state(pooled, pooled_registry) == _state(
            walked, walked_registry), f"round {round_index}"

    def totals(machine):
        stats = [machine.zswap.stats_for(job) for job in machine.memcgs]
        return (sum(s.pages_compressed for s in stats),
                sum(s.pages_rejected for s in stats))

    compressed, rejected = totals(pooled[failed])
    assert compressed == 0 and rejected > 0
    for index, machine in enumerate(pooled):
        if index != failed:
            assert totals(machine)[0] > 0
