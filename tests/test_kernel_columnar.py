"""Randomized property tests: the columnar pool vs the scalar reference.

The columnar pool (:mod:`repro.kernel.columnar`) promises
*bit-equivalence* with the reference pool (:mod:`repro.kernel.oracle`):
pooled scan, pooled reclaim, promotion, huge-page propagation, churn and
compaction must all produce exactly the per-page state, histograms, and
daemon counters the scalar memcg methods produce.  These tests drive both
pools through identical randomized operation scripts — standalone
machines, and machines sharing one pool driven by the same scan and
reclaim rounds ``Cluster`` runs — and assert full-state equality along
the way.  A chaos scenario at the
engine level checks the same property end to end.

Two helper contracts promised elsewhere are property-tested here too:
``_sorted_percentile`` and its array form ``_sorted_percentile_rows``
are bit-identical to ``np.percentile`` and the
zsmalloc arena's running totals always match a fresh per-class recount.
"""

import io
import math
import pickle

import numpy as np
import pytest

from repro.cluster.wsc import quickfleet
from repro.common.rng import SeedSequenceFactory
from repro.common.units import MIB, PAGE_SIZE
from repro.core.threshold_policy import (
    _sorted_percentile,
    _sorted_percentile_rows,
)
from repro.faults import attach_scenario
from repro.kernel.columnar import _NEVER_SCANS, _PAGE_FIELDS, MachinePagePool
from repro.kernel.compression import ContentProfile
from repro.kernel.machine import (
    FarMemoryMode,
    Machine,
    MachineConfig,
    reclaim_machines,
    tick_machines,
)
from repro.kernel.memcg import PageState
from repro.kernel.zsmalloc import ZsmallocArena
from repro.obs import MetricRegistry, Tracer

SCAN_PERIOD = 120
PAGES_PER_HUGE = 8

#: Mildly incompressible, mildly compressible: exercises both the
#: incompressible-skip and the payload-resample paths.
_PROFILE = ContentProfile(incompressible_fraction=0.15, min_ratio=1.3)

_THRESHOLDS = (120.0, 240.0, 480.0, 960.0, float("inf"))

_PAGE_ATTRS = (
    "resident", "age_scans", "accessed", "state", "incompressible",
    "dirtied", "unevictable", "payload_bytes", "lru_active", "huge_group",
)


def _make_machine(kernel, index, seed, shared_pool=None, dram=64 * MIB):
    """A machine whose RNG streams depend only on (index, seed), so a
    scalar machine and its columnar twin draw identical sequences."""
    config = MachineConfig(
        dram_bytes=dram,
        mode=FarMemoryMode.PROACTIVE,
        kernel=kernel,
        scan_period=SCAN_PERIOD,
    )
    return Machine(
        f"m{index}",
        config,
        seeds=SeedSequenceFactory(seed * 1000 + index),
        registry=MetricRegistry(),
        tracer=Tracer(),
        pool=shared_pool,
    )


def _memcg_state(machine, memcg):
    """Every per-page column plus histograms and counters, as a
    comparable value.  Columns compare as int64 bytes: the pool keeps
    them narrower than the reference memcg does, by design
    (``tests/test_column_widths.py`` pins both sides' dtypes)."""
    pages = machine.pool.row_pages(memcg.row)
    arrays = tuple(
        np.asarray(getattr(pages, attr), dtype=np.int64).tobytes()
        for attr in _PAGE_ATTRS
    )
    near, far = machine.pool.tier_pages([memcg.row])[0].tolist()
    return arrays + (
        tuple(int(c) for c in memcg.cold_age_histogram.counts),
        int(memcg.cold_age_histogram.young_count),
        tuple(int(c) for c in memcg.promotion_histogram.counts),
        int(memcg.promotion_histogram.young_count),
        near + far,
        far,
        float(memcg.cold_age_threshold),
        bool(memcg.zswap_enabled),
    )


def _machine_state(machine):
    return {
        "jobs": {
            job_id: _memcg_state(machine, memcg)
            for job_id, memcg in machine.memcgs.items()
        },
        "far_pages": machine.far_pages,
        "used_bytes": machine.used_bytes,
        "pages_scanned": machine.kstaled.pages_scanned,
        "scans_completed": machine.kstaled.scans_completed,
        "reclaim_runs": machine.kreclaimd.runs,
        "pages_reclaimed": machine.kreclaimd.pages_reclaimed,
        "arena": machine.arena.stats(),
    }


class _Backend:
    """A list of standalone machines, each ticked and reclaimed on its
    own page pool."""

    def __init__(self, machines):
        self.machines = machines

    def tick(self, now):
        for machine in self.machines:
            machine.tick(now)

    def reclaim(self):
        for machine in self.machines:
            machine.run_reclaim()

    def state(self):
        return [_machine_state(machine) for machine in self.machines]


class _PooledBackend(_Backend):
    """Machines sharing one page pool, driven by the rounds ``Cluster``
    runs: one pool-wide scan booked back per machine, one pool-wide
    candidate mask sliced back to each machine's kreclaimd."""

    def tick(self, now):
        tick_machines(self.machines, now)

    def reclaim(self):
        reclaim_machines(self.machines)


def _apply_random_ops(rng, oracle, candidate, steps):
    """One random op script applied to both backends simultaneously.

    Every state-dependent draw (which pages to release, where a huge
    mapping fits) reads the *oracle's* state; because the backends are
    bit-equivalent the script is equally valid for the candidate — and
    if they ever diverge, the periodic full-state comparison fails.
    """
    fleets = (oracle, candidate)
    n_machines = len(oracle.machines)
    now = 0
    next_job = 0
    for step in range(steps):
        mi = int(rng.integers(n_machines))
        target = oracle.machines[mi]
        jobs = sorted(target.memcgs)
        op = int(rng.integers(10))
        if op == 0 or not jobs:
            cap = int(rng.integers(32, 129))
            pages = int(rng.integers(1, cap + 1))
            job = f"m{mi}-j{next_job}"
            next_job += 1
            for fleet in fleets:
                fleet.machines[mi].add_job(job, cap, _PROFILE)
                fleet.machines[mi].allocate(job, pages)
        elif op == 1:
            job = jobs[int(rng.integers(len(jobs)))]
            for fleet in fleets:
                fleet.machines[mi].remove_job(job)
        elif op == 2:
            job = jobs[int(rng.integers(len(jobs)))]
            memcg = target.memcgs[job]
            free = memcg.capacity_pages - int(
                target.pool.tier_pages([memcg.row]).sum())
            if free:
                pages = int(rng.integers(1, free + 1))
                for fleet in fleets:
                    fleet.machines[mi].allocate(job, pages)
        elif op in (3, 4):
            job = jobs[int(rng.integers(len(jobs)))]
            resident = np.flatnonzero(
                target.pool.row_pages(target.memcgs[job].row).resident)
            if resident.size:
                take = np.sort(rng.choice(
                    resident,
                    size=int(rng.integers(1, resident.size + 1)),
                    replace=False,
                ))
                if op == 3:
                    for fleet in fleets:
                        fleet.machines[mi].release(job, take)
                else:
                    write = bool(rng.integers(2))
                    for fleet in fleets:
                        fleet.machines[mi].touch(job, take, write=write)
        elif op == 5:
            job = jobs[int(rng.integers(len(jobs)))]
            threshold = float(_THRESHOLDS[int(rng.integers(len(_THRESHOLDS)))])
            for fleet in fleets:
                fleet.machines[mi].memcgs[job].cold_age_threshold = threshold
        elif op == 6:
            job = jobs[int(rng.integers(len(jobs)))]
            enabled = not target.memcgs[job].zswap_enabled
            for fleet in fleets:
                fleet.machines[mi].memcgs[job].zswap_enabled = enabled
        elif op == 7:
            job = jobs[int(rng.integers(len(jobs)))]
            memcg = target.memcgs[job]
            pages = target.pool.row_pages(memcg.row)
            starts = [
                s
                for s in range(
                    0, memcg.capacity_pages - PAGES_PER_HUGE + 1,
                    PAGES_PER_HUGE,
                )
                if pages.resident[s:s + PAGES_PER_HUGE].all()
                and (pages.state[s:s + PAGES_PER_HUGE]
                     == PageState.NEAR).all()
                and (pages.huge_group[s:s + PAGES_PER_HUGE] == -1).all()
            ]
            if starts:
                start = starts[int(rng.integers(len(starts)))]
                for fleet in fleets:
                    machine = fleet.machines[mi]
                    machine.pool.map_huge(machine.memcgs[job].row, start,
                                          PAGES_PER_HUGE)
            else:
                groups = np.unique(pages.huge_group[pages.huge_group >= 0])
                if groups.size:
                    group = int(groups[int(rng.integers(groups.size))])
                    for fleet in fleets:
                        machine = fleet.machines[mi]
                        base = machine.pool.row_base[machine.memcgs[job].row]
                        machine.pool.split_huge_at(np.array([base + group]))
        elif op == 8:
            for _ in range(int(rng.integers(1, 4))):
                now += 60
                for fleet in fleets:
                    fleet.tick(now)
        else:
            for fleet in fleets:
                fleet.reclaim()
        if step % 10 == 0:
            assert candidate.state() == oracle.state(), f"diverged at {step}"
    assert candidate.state() == oracle.state()


class TestRandomizedEquivalence:
    """Columnar == scalar over randomized operation mixes."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_machine_scope(self, seed):
        rng = np.random.default_rng(seed)
        oracle = _Backend([_make_machine("scalar", 0, seed)])
        candidate = _Backend([_make_machine("columnar", 0, seed)])
        _apply_random_ops(rng, oracle, candidate, steps=120)

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_cluster_scope(self, seed):
        rng = np.random.default_rng(seed)
        oracle = _Backend(
            [_make_machine("scalar", i, seed) for i in range(2)]
        )
        scalars = oracle.machines
        pool = MachinePagePool(scalars[0].bins, SCAN_PERIOD)
        candidate = _PooledBackend(
            [
                _make_machine("columnar", i, seed, shared_pool=pool)
                for i in range(2)
            ]
        )
        _apply_random_ops(rng, oracle, candidate, steps=100)


class TestThresholdMirroring:
    """The memcg's knob setters keep the pool's ``row_reclaim_thr`` in
    sync — the pooled reclaim mask never walks memcgs to gather gates."""

    def _machine(self):
        return _make_machine("columnar", 0, 9)

    def test_threshold_encodes_in_scans(self):
        machine = self._machine()
        memcg = machine.add_job("j", 64, _PROFILE)
        memcg.cold_age_threshold = 600.0
        row = memcg.row
        assert machine.pool.row_reclaim_thr[row] == math.ceil(
            600.0 / SCAN_PERIOD
        )

    def test_disabled_zswap_is_the_never_sentinel(self):
        machine = self._machine()
        memcg = machine.add_job("j", 64, _PROFILE)
        memcg.cold_age_threshold = 600.0
        row = memcg.row
        memcg.zswap_enabled = False
        assert machine.pool.row_reclaim_thr[row] == _NEVER_SCANS
        memcg.zswap_enabled = True
        assert machine.pool.row_reclaim_thr[row] == math.ceil(
            600.0 / SCAN_PERIOD
        )

    def test_infinite_threshold_is_the_never_sentinel(self):
        machine = self._machine()
        memcg = machine.add_job("j", 64, _PROFILE)
        memcg.cold_age_threshold = float("inf")
        assert (
            machine.pool.row_reclaim_thr[memcg.row] == _NEVER_SCANS
        )


class TestPoolCompaction:
    """Removing a memcg compacts the pool and freezes the departing
    memcg's histograms as private copies."""

    def test_remove_middle_job_compacts_and_detaches(self):
        machine = _make_machine("columnar", 0, 10)
        for job, cap in (("a", 32), ("b", 48), ("c", 16)):
            machine.add_job(job, cap, _PROFILE)
            machine.allocate(job, cap)
        machine.tick(0)
        pool = machine.pool
        departing = machine.memcgs["b"]
        machine.remove_job("b")
        assert departing._pool is None and departing.row == -1
        frozen = departing.cold_age_histogram.copy()
        assert frozen.young_count == 48
        assert pool.used == 32 + 16
        for job, cap in (("a", 32), ("c", 16)):
            row = machine.memcgs[job].row
            assert pool.row_pages(row).resident.all()
            assert pool.row_size[row] == cap
        # Later pool activity cannot disturb the frozen snapshot.
        machine.add_job("d", 64, _PROFILE)
        machine.allocate("d", 64)
        machine.tick(60)
        assert departing.cold_age_histogram.young_count == 48
        assert (departing.cold_age_histogram.counts == frozen.counts).all()


class TestChaosReplay:
    """A mixed chaos scenario replays identically on both page pools:
    same coverage report, same SLI history, sample for sample."""

    def test_mixed_scenario_identical_across_backends(self):
        snapshots = []
        for kernel in ("scalar", "columnar"):
            fleet = quickfleet(
                clusters=1,
                machines_per_cluster=3,
                jobs_per_machine=6,
                seed=11,
                machine_dram_gib=0.5,
                job_pages_range=(
                    (1 * MIB) // PAGE_SIZE, (4 * MIB) // PAGE_SIZE
                ),
                kernel=kernel,
                scan_period=60,
                churn_duration_range=(1800, 5400),
                registry=MetricRegistry(),
                tracer=Tracer(),
            )
            attach_scenario(fleet, "mixed", duration_seconds=7200, seed=7)
            fleet.run(7200)
            sli = tuple(
                (s.job_id, s.time, s.working_set_pages, s.promotions,
                 s.normalized_rate_pct_per_min, s.threshold)
                for s in fleet.sli_history
            )
            snapshots.append((fleet.coverage_report(), sli))
        assert len(snapshots[0][1]) > 0
        assert snapshots[1] == snapshots[0]


class _ArrayCensus(pickle.Pickler):
    """A pickler that records every ndarray it ships."""

    def __init__(self, file):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self.arrays = {}

    def reducer_override(self, obj):
        if isinstance(obj, np.ndarray):
            self.arrays[id(obj)] = obj
        return NotImplemented


def _census(obj):
    """``(blob, arrays)``: ``obj`` pickled, and the ndarrays it carried."""
    buffer = io.BytesIO()
    pickler = _ArrayCensus(buffer)
    pickler.dump(obj)
    return buffer.getvalue(), list(pickler.arrays.values())


class TestSharedPoolPickle:
    """The parallel engine ships clusters by pickle; page state crosses
    only inside the cluster's page pool, and the clone must continue
    bit-identically."""

    def _fleet(self):
        return quickfleet(
            clusters=1,
            machines_per_cluster=3,
            jobs_per_machine=4,
            seed=5,
            machine_dram_gib=0.5,
            scan_period=60,
            registry=MetricRegistry(),
            tracer=Tracer(),
        )

    def test_pickle_ships_page_columns_only_in_the_pool(self):
        fleet = self._fleet()
        fleet.run(1800)
        cluster = fleet.clusters[0]
        pool = cluster.pool
        blob, arrays = _census(cluster)
        columns = [getattr(pool, name) for name, _dtype, _fill in _PAGE_FIELDS]
        shipped = {id(array) for array in arrays}
        assert all(id(column) in shipped for column in columns)
        # No other page-axis array of a column's width crosses.
        widths = {column.dtype for column in columns}
        assert not [
            array for array in arrays
            if array.shape == (pool._cap,) and array.dtype in widths
            and not any(array is column for column in columns)
        ]
        # A memcg handle, shipped without its pool, its threshold grid
        # and its payload stream, carries no array.
        memcgs = [m for machine in cluster.machines
                  for m in machine.memcgs.values()]
        assert memcgs
        for memcg in memcgs:
            state = {k: v for k, v in vars(memcg).items()
                     if k not in ("_pool", "bins", "_rng")}
            assert not _census(state)[1]
        # The clone shares one pool and runs on as the original does.
        clone = pickle.loads(blob)
        assert all(machine.pool is clone.pool for machine in clone.machines)
        cluster.run(1800)
        clone.run(1800)
        for machine, twin in zip(cluster.machines, clone.machines):
            assert _machine_state(twin) == _machine_state(machine)

    def test_clone_continues_identically(self):
        fleet = self._fleet()
        fleet.run(1800)
        cluster = fleet.clusters[0]
        clone = pickle.loads(pickle.dumps(cluster))
        cluster.run(1800)
        clone.run(1800)
        for machine, twin in zip(cluster.machines, clone.machines):
            assert _machine_state(twin) == _machine_state(machine)


def _percentile_of_rows(pools, k):
    """``_sorted_percentile_rows`` over sorted pools of any sizes, laid out
    the way the batched replay lays them out: one row each, padded with
    ``+inf`` to the widest pool."""
    width = max(len(pool) for pool in pools)
    matrix = np.full((len(pools), width), np.inf)
    for i, pool in enumerate(pools):
        matrix[i, : len(pool)] = pool
    counts = np.array([len(pool) for pool in pools])
    return _sorted_percentile_rows(matrix, counts, k).tolist()


class TestSortedPercentile:
    """``_sorted_percentile`` and its array form ``_sorted_percentile_rows``
    reimplement numpy's default linear interpolation bit-identically (the
    docstrings' promise)."""

    def test_matches_numpy_on_randomized_inputs(self):
        rng = np.random.default_rng(123)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            values = np.sort(rng.uniform(-1000.0, 1000.0, n))
            k = float(rng.uniform(0.0, 100.0))
            assert _sorted_percentile(values.tolist(), k) == float(
                np.percentile(values, k)
            )
            assert _percentile_of_rows([values], k) == [
                float(np.percentile(values, k))
            ]

    @pytest.mark.parametrize("k", [0.0, 0.1, 37.3, 50.0, 98.0, 99.9, 100.0])
    def test_array_form_matches_numpy_per_row(self, k):
        """Many pools in one matrix: sizes from one to 40, ties, and the
        replay's finite sentinel for DISABLED entries, row by row."""
        rng = np.random.default_rng(7)
        sentinel = 86_400.0 * 1e9
        grid = np.array([120.0, 240.0, 480.0, 960.0, sentinel])
        pools = [np.array([42.0]), np.array([sentinel]),
                 np.array([sentinel, sentinel])]
        for _ in range(200):
            n = int(rng.integers(1, 41))
            pools.append(np.sort(rng.choice(grid, n)))  # ties, sentinels
            pools.append(np.sort(rng.uniform(0.0, 1e4, n)))
        expected = [float(np.percentile(pool, k)) for pool in pools]
        assert _percentile_of_rows(pools, k) == expected
        assert [_sorted_percentile(p.tolist(), k) for p in pools] == expected

    @pytest.mark.parametrize("k", [0.0, 25.0, 50.0, 75.0, 98.0, 100.0])
    def test_matches_numpy_at_grid_points(self, k):
        values = [1.0, 1.0, 2.0, 3.5, 3.5, 3.5, 10.0]
        assert _sorted_percentile(values, k) == float(
            np.percentile(values, k)
        )

    def test_single_element(self):
        assert _sorted_percentile([42.0], 63.0) == 42.0


class TestArenaRecount:
    """The zsmalloc arena's O(1) running totals always agree with a
    fresh per-class recount (the docstring's promise), under randomized
    store/release/compact mixes."""

    def test_running_totals_match_recount(self):
        rng = np.random.default_rng(7)
        arena = ZsmallocArena(registry=MetricRegistry(), tracer=Tracer())
        live = []
        for _ in range(200):
            op = int(rng.integers(3))
            if op == 0 or not live:
                payloads = rng.integers(
                    1, PAGE_SIZE + 1, int(rng.integers(1, 64))
                )
                arena.store(payloads)
                live.extend(int(p) for p in payloads)
            elif op == 1:
                take = rng.choice(
                    len(live),
                    size=int(rng.integers(1, len(live) + 1)),
                    replace=False,
                )
                arena.release(np.array([live[i] for i in take]))
                for i in sorted(take, reverse=True):
                    live.pop(i)
            else:
                arena.compact()
            assert arena.stats() == arena.recounted_stats()
