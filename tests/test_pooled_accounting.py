"""Segment-wise pooled accounting against a per-row ground truth.

A cluster's :class:`~repro.kernel.columnar.MachinePagePool` recounts
every cold-age histogram with one ``bincount`` per scan and counts every
row's near and far pages with one segment-wise pass per tick; the cluster
sums those rows per machine for the far-pages gauge and the over-capacity
test.  These tests pin both against counts taken one row at a time from
copies of the row's pages (``pool.row_pages``) through churn (segment
compaction and row reuse), huge pages, mlock, promotions, direct reclaim
and a pressure eviction that both page pools must handle alike.  The
same random-op harness drives every page operation through the pool
interface and holds the columnar pool to the reference
:class:`~repro.kernel.oracle.ScalarPagePool` call by call over that
whole interface, and each machine's near, free, far and cold counts
(answered from its pool rows) and the cluster's coverage samples to the
per-row counts.  They also cover the ``REPRO_CHECKS`` hook that guards
the recount, the touch of a page listed twice in one batch, and who owns
which pool.
"""

import numpy as np
import pytest

from repro.checks.invariants import (
    InvariantViolation,
    check_machine_accounting,
    check_memcg_histogram,
    set_invariants_enabled,
)
from repro.cluster.cluster import Cluster
from repro.common.rng import SeedSequenceFactory
from repro.common.units import MIB, MIN_COLD_AGE_THRESHOLD, PAGE_SIZE
from repro.kernel.columnar import MachinePagePool
from repro.kernel.compression import ContentProfile
from repro.cluster.wsc import quickfleet
from repro.kernel.machine import (
    FarMemoryMode,
    Machine,
    MachineConfig,
    machine_sums,
    touch_machines,
)
from repro.kernel.memcg import MemCg, PageState
from repro.kernel.oracle import ReferenceMemCg, ScalarPagePool
from repro.obs import MetricRegistry, Tracer
from repro.workloads.access_patterns import ZipfianPattern
from repro.workloads.job_generator import JobSpec
from tests.pool_pages import store_pages

_PROFILE = ContentProfile(incompressible_fraction=0.1, min_ratio=1.5)
_HUGE = 8


def _cluster(kernel="columnar", machines=3, dram=64 * MIB,
             overcommit=0.0, placement="best_fit"):
    config = MachineConfig(
        dram_bytes=dram, mode=FarMemoryMode.PROACTIVE, kernel=kernel,
        scan_period=60,
    )
    return Cluster(
        "c", machines, config, SeedSequenceFactory(11),
        overcommit=overcommit, placement=placement,
        registry=MetricRegistry(), tracer=Tracer(),
    )


def _pages(cluster, memcg):
    return cluster.pool.row_pages(memcg.row)


def _tiers(pages):
    """``[near, far]`` counted from a row's page copies."""
    far = int(np.count_nonzero(pages.resident & (pages.state == PageState.FAR)))
    return [int(np.count_nonzero(pages.resident)) - far, far]


def _cold(pool, pages, threshold_seconds):
    scans = int(np.ceil(threshold_seconds / pool.scan_period))
    return int(np.count_nonzero(pages.resident & (pages.age_scans >= scans)))


def _pooled_tiers(cluster):
    """Each machine's ``[near, far]`` pages, summed from the pool's rows
    the way the tick round counts them."""
    return machine_sums(cluster.machines, cluster.pool.tier_pages()).tolist()


def _exact_tiers(cluster):
    return [
        [machine.near_bytes // PAGE_SIZE, machine.far_pages]
        for machine in cluster.machines
    ]


def _assert_pool_counts(cluster, scanned):
    """Per-row and per-machine counts equal those counted row by row."""
    pool = cluster.pool
    tiers = pool.tier_pages()
    live = set()
    for machine in cluster.machines:
        for memcg in machine.memcgs.values():
            row = memcg.row
            live.add(row)
            pages = pool.row_pages(row)
            assert tiers[row].tolist() == _tiers(pages)
            if scanned:
                check_memcg_histogram(pool, memcg)  # a page-by-page recount
                assert pool.last_scan_row_pages[row] == sum(_tiers(pages))
    free = [row for row in range(len(tiers)) if row not in live]
    assert not tiers[free].any()
    if scanned:
        assert not pool.cold_counts[free].any()
        assert not pool.cold_young[free].any()
        assert not pool.last_scan_row_pages[free].any()
    assert _pooled_tiers(cluster) == _exact_tiers(cluster)
    # The cached segment table matches one rebuilt from scratch.
    rows, bases, sizes = pool.segments()
    fresh = np.flatnonzero(pool.row_size)
    fresh = fresh[np.argsort(pool.row_base[fresh])]
    assert rows.tolist() == fresh.tolist()
    assert bases.tolist() == pool.row_base[fresh].tolist()
    assert sizes.tolist() == pool.row_size[fresh].tolist()
    assert int(sizes.sum()) == pool.used


def _pool_touch(rng, cluster, record):
    """One touch round over the whole pool: random memcgs, in random
    order, read and write random slots of their segments with repeats
    (and slots holding no page), so far pages sit in the reads only, the
    writes only and both.  Records what each pool touch pass returned and
    what each machine promoted, and how many far pages the reads only,
    the writes only and both reached."""
    pool = cluster.pool
    memcgs = _live_memcgs(cluster)
    reads, writes = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    reach = np.zeros(3, dtype=np.int64)
    for i in rng.permutation(len(memcgs)).tolist():
        memcg = memcgs[i]
        if rng.random() < 0.3:
            continue
        base = int(pool.row_base[memcg.row])
        cap = memcg.capacity_pages
        read = rng.integers(0, cap, int(rng.integers(0, cap)))
        write = rng.integers(0, cap, int(rng.integers(0, cap)))
        pages = _pages(cluster, memcg)
        far = np.flatnonzero(pages.resident & (pages.state == PageState.FAR))
        in_read, in_write = np.isin(far, read), np.isin(far, write)
        reach += [(in_read & ~in_write).sum(), (in_write & ~in_read).sum(),
                  (in_read & in_write).sum()]
        reads.append(base + read)
        writes.append(base + write)
    passes = []
    real_touch = pool.touch

    def recording_touch(slots, write):
        far = real_touch(slots, write)
        passes.append((write, far.dtype.str, far.tolist()))
        return far

    pool.touch = recording_touch
    try:
        promoted = touch_machines(cluster.machines, np.concatenate(reads),
                                  np.concatenate(writes))
    finally:
        del pool.touch
    record["touch"] = (passes, promoted, reach.tolist(),
                       pool.layout_version > pool.memcg_count)


def _random_op(rng, cluster, next_job, record=None):
    """One random page operation, through the pool interface only."""
    record = record if record is not None else {}
    machine = cluster.machines[int(rng.integers(len(cluster.machines)))]
    pool = cluster.pool
    jobs = sorted(machine.memcgs)
    op = int(rng.integers(11))
    if op == 10:
        _pool_touch(rng, cluster, record)
        return next_job
    if op == 0 or not jobs:
        job = f"j{next_job}"
        machine.add_job(job, int(rng.integers(16, 97)), _PROFILE)
        machine.allocate(job, int(rng.integers(1, 17)))
        return next_job + 1
    job = jobs[int(rng.integers(len(jobs)))]
    memcg = machine.memcgs[job]
    pages = _pages(cluster, memcg)
    live = np.flatnonzero(pages.resident)
    if op == 1 and len(jobs) > 1:
        machine.remove_job(job)  # compacts the segments behind it
    elif op == 2:
        free = memcg.capacity_pages - live.size
        if free:
            machine.allocate(job, int(rng.integers(1, free + 1)))
    elif op == 3:
        if live.size > 2:
            machine.release(job, rng.choice(live, size=live.size // 3,
                                             replace=False))
    elif op == 4:
        near = np.flatnonzero(
            pages.resident & (pages.state == PageState.NEAR)
            & (pages.huge_group < 0)
        )
        if near.size:
            pick = rng.choice(near, size=max(1, near.size // 2), replace=False)
            store_pages(machine, memcg, np.sort(pick))
    elif op == 5:
        if live.size:
            # Repeated slots on purpose: each far page promotes once.
            machine.touch(job, rng.choice(live, size=live.size),
                          write=bool(rng.integers(2)))
    elif op == 6:
        near = pages.resident & (pages.state == PageState.NEAR)
        for start in range(0, memcg.capacity_pages - _HUGE + 1, _HUGE):
            window = slice(start, start + _HUGE)
            if near[window].all() and (pages.huge_group[window] < 0).all():
                pool.map_huge(memcg.row, start, _HUGE)
                break
    elif op == 7:
        # Idle scans spread the ages apart.
        memcgs = _live_memcgs(cluster)
        for _ in range(int(rng.integers(1, 30))):
            pool.scan_all(memcgs)
    elif op == 8:
        if live.size:
            pick = rng.choice(live, size=int(rng.integers(1, live.size + 1)),
                              replace=False)
            if rng.random() < 0.6:
                pool.mlock(memcg.row, pick)
            else:
                pool.munlock(memcg.row, pick)
    else:
        # Stock zswap's direct reclaim, as a reactive machine's
        # allocation under pressure runs it, soft limits in force.
        memcgs = list(machine.memcgs.values())
        for other in memcgs:
            other.soft_limit_pages = int(
                rng.integers(0, other.capacity_pages // 4 + 1))
        record["direct_reclaim"] = machine.direct_reclaim.reclaim(
            pool, memcgs, int(rng.integers(1, 64)) * PAGE_SIZE)
    return next_job


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pooled_counts_match_every_memcg(seed):
    rng = np.random.default_rng(seed)
    cluster = _cluster()
    next_job = 0
    for step in range(240):
        next_job = _random_op(rng, cluster, next_job)
        scanned = step % 6 == 5
        if scanned:
            cluster.pool.scan_all([
                memcg for machine in cluster.machines
                for memcg in machine.memcgs.values()
            ])
        _assert_pool_counts(cluster, scanned)
    assert next_job > len(cluster.pool.row_memcg) // 2  # rows were reused


def _live_memcgs(cluster):
    return [m for machine in cluster.machines for m in machine.memcgs.values()]


def _retune(rng, cluster):
    """Give one memcg a random reclaim threshold and zswap gate, so the
    candidate lists have something to disagree about."""
    memcgs = sorted(_live_memcgs(cluster), key=lambda m: m.job_id)
    if memcgs:
        memcg = memcgs[int(rng.integers(len(memcgs)))]
        memcg.cold_age_threshold = float(
            rng.choice([0.0, 60.0, 240.0, 1200.0, np.inf])
        )
        memcg.zswap_enabled = bool(rng.integers(4))


def _machine_counts(cluster):
    """Every machine's near, free, far and cold counts, which the machine
    answers from its pool rows, checked against the sums of its rows'
    counts taken one row at a time; so is the cluster's coverage sample,
    one pooled pass."""
    pool = cluster.pool
    cluster._sample_coverage(0)
    sampled = cluster.coverage_samples[-len(cluster.machines):]
    counts = []
    for machine, sample in zip(cluster.machines, sampled):
        rows = [pool.row_pages(m.row) for m in machine.memcgs.values()]
        near = sum(_tiers(pages)[0] for pages in rows) * PAGE_SIZE
        answer = (machine.near_bytes, machine.free_bytes, machine.far_pages,
                  [machine.cold_pages(t) for t in (0, 60, 300, 3600)])
        assert answer == (
            near,
            machine.config.dram_bytes - near - machine.arena.footprint_bytes,
            sum(_tiers(pages)[1] for pages in rows),
            [sum(_cold(pool, pages, t) for pages in rows)
             for t in (0, 60, 300, 3600)],
        )
        assert (sample.far_memory_pages, sample.cold_pages_at_min_threshold) == (
            answer[2],
            sum(_cold(pool, pages, MIN_COLD_AGE_THRESHOLD) for pages in rows))
        counts.append(answer)
    return counts


def _interface_answers(cluster, scan):
    """Every answer of the page-pool interface, as comparable values."""
    pool = cluster.pool
    memcgs = _live_memcgs(cluster)
    rows = np.array([m.row for m in memcgs], dtype=np.int64)
    answers = {"rows": rows.tolist()}
    if scan:
        answers["scan_all"] = pool.scan_all(memcgs)
        answers["last_scan_row_pages"] = pool.last_scan_row_pages[rows].tolist()
    answers["tier_pages"] = pool.tier_pages()[rows].tolist()
    answers["cold_pages"] = [
        pool.cold_pages(t)[rows].tolist() for t in (0, 60, 300, 3600)
    ]
    # Counting only the rows asked for gives the pool-wide pass's rows.
    assert pool.tier_pages(rows).tolist() == answers["tier_pages"]
    assert pool.cold_pages(300, rows).tolist() == answers["cold_pages"][2]
    answers["machine_counts"] = _machine_counts(cluster)
    slots, ranks = pool.reclaim_walk(memcgs)
    answers["reclaim_walk"] = (
        slots.dtype.str, slots.tolist(), ranks.dtype.str, ranks.tolist()
    )
    answers["direct_reclaim_walk"] = [
        [array.tolist() for array in pool.direct_reclaim_walk(
            [m.row for m in machine.memcgs.values()])]
        for machine in cluster.machines
    ]
    answers["far_slots"] = pool.far_slots(rows).tolist()
    answers["export_columns"] = {
        name: (column.dtype.str, column.tolist())
        for name, column in sorted(pool.export_columns(rows, 300).items())
    }
    answers["histograms"] = [
        (memcg.job_id,
         memcg.cold_age_histogram.counts.tolist(),
         memcg.cold_age_histogram.young_count,
         memcg.promotion_histogram.counts.tolist(),
         memcg.promotion_histogram.young_count)
        for memcg in memcgs
    ]
    answers["pages"] = [
        (memcg.job_id, memcg.promoted_pages_total,
         memcg.compressed_pages_total, memcg.rejected_pages_total, [
             np.asarray(column, np.int64).tobytes()
             for column in pool.row_pages(memcg.row)
         ])
        for memcg in memcgs
    ]
    answers["zswap"] = [
        (machine.arena.stats(), sorted(
            (job, stats.pages_decompressed, stats.decompress_seconds,
             tuple(stats.decompress_latencies))
            for job, stats in machine.zswap.job_stats.items()
        ))
        for machine in cluster.machines
    ]
    return answers


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_reference_and_columnar_pools_conform(seed):
    """The same op script on a reference-pool cluster and a columnar one
    (each op draws from its own copy of one seeded stream): after every
    op, every interface call answers alike."""
    clusters = [_cluster("scalar"), _cluster("columnar")]
    assert isinstance(clusters[0].pool, ScalarPagePool)
    assert isinstance(clusters[1].pool, MachinePagePool)
    rngs = [np.random.default_rng(seed), np.random.default_rng(seed)]
    next_jobs = [0, 0]
    scans = walks = reclaims = 0
    touches = []
    for step in range(240):
        scan = step % 6 == 5
        answers = []
        for i, cluster in enumerate(clusters):
            record = {}
            next_jobs[i] = _random_op(rngs[i], cluster, next_jobs[i], record)
            _retune(rngs[i], cluster)
            answers.append(_interface_answers(cluster, scan))
            answers[-1]["touch"] = record.get("touch")
            answers[-1]["direct_reclaim"] = record.get("direct_reclaim")
        assert answers[1] == answers[0], f"diverged at step {step}"
        scans += scan and answers[0]["scan_all"] > 0
        walks += len(set(answers[0]["reclaim_walk"][3])) > 1
        reclaims += bool(answers[0]["direct_reclaim"]
                         and answers[0]["direct_reclaim"][0] > 0)
        if answers[0]["touch"] is not None:
            touches.append(answers[0]["touch"])
    assert scans > 10 and walks > 10 and reclaims > 0
    assert next_jobs[0] > len(clusters[1].pool.row_memcg) // 2
    # Touch rounds reached far pages through the reads only, the writes
    # only and both, also after segments were compacted; every far page
    # was returned and promoted once.
    reach = np.sum([t[2] for t in touches if t[3]], axis=0)
    assert (reach > 0).all()
    returned = sum(len(far) for t in touches for _w, _dt, far in t[0])
    assert returned == sum(sum(t[1]) for t in touches) == sum(
        sum(t[2]) for t in touches)


class TestPagePoolOwnership:
    """One runtime kernel: every machine runs on a page pool."""

    def test_machine_pool_scope_is_rejected(self):
        with pytest.raises(ValueError, match="pool_scope='machine'.* removed"):
            quickfleet(pool_scope="machine")

    def test_every_machine_of_a_cluster_shares_its_pool(self):
        for kernel in ("scalar", "columnar"):
            cluster = _cluster(kernel)
            assert all(m.pool is cluster.pool for m in cluster.machines)
        fleet = quickfleet(clusters=2, machines_per_cluster=2,
                           jobs_per_machine=1, machine_dram_gib=0.25,
                           registry=MetricRegistry(), tracer=Tracer())
        pools = [cluster.pool for cluster in fleet.clusters]
        assert pools[0] is not pools[1]
        for cluster in fleet.clusters:
            assert isinstance(cluster.pool, MachinePagePool)
            assert all(m.pool is cluster.pool for m in cluster.machines)

    def test_standalone_machine_owns_a_pool(self):
        machines = [
            Machine(f"m{i}", MachineConfig(dram_bytes=64 * MIB),
                    registry=MetricRegistry(), tracer=Tracer())
            for i in range(2)
        ]
        assert all(isinstance(m.pool, MachinePagePool) for m in machines)
        assert machines[0].pool is not machines[1].pool
        memcg = machines[0].add_job("j", 16, _PROFILE)
        assert machines[0].pool.row_memcg[memcg.row] is memcg
        machines[0].remove_job("j")
        assert machines[0].pool is not None

    def test_scalar_kernel_builds_the_reference_pool(self):
        config = MachineConfig(dram_bytes=64 * MIB, kernel="scalar")
        machine = Machine("m", config, registry=MetricRegistry(),
                          tracer=Tracer())
        assert isinstance(machine.pool, ScalarPagePool)
        assert isinstance(machine.add_job("j", 16, _PROFILE), ReferenceMemCg)
        assert MachineConfig().kernel == "columnar"
        columnar = Machine("m", MachineConfig(dram_bytes=64 * MIB),
                           registry=MetricRegistry(), tracer=Tracer())
        assert type(columnar.add_job("j", 16, _PROFILE)) is MemCg


def _spec(job_id, pages, priority):
    return JobSpec(
        job_id=job_id, pages=pages, cpu_cores=1.0, priority=priority,
        content_profile=ContentProfile(incompressible_fraction=0.0,
                                       min_ratio=2.0),
        pattern_factory=lambda rng: ZipfianPattern(pages, 0.05),
    )


def _overloaded(kernel):
    """Two 4 MiB machines; promotions push the first over capacity."""
    cluster = _cluster(kernel, machines=2, dram=4 * MIB,
                       overcommit=1.0, placement="spread")
    first, second = cluster.machines
    cluster.submit(_spec("a0", 700, 0))  # first machine (tie)
    cluster.submit(_spec("b0", 900, 1))  # the emptier machine
    store_pages(first, first.memcgs["a0"], np.arange(650))
    cluster.submit(_spec("a1", 500, 2))  # the emptier machine again
    assert set(first.memcgs) == {"a0", "a1"}
    first.touch("a0", np.arange(700))  # every far page promotes
    assert first.free_bytes < 0 <= second.free_bytes
    return cluster


def _backend_state(cluster):
    gauges = cluster.registry.get("repro_far_pages")
    return (
        sorted(cluster.running),
        cluster.scheduler.evictions_total,
        [s.value for _labels, s in gauges.series()],
        [(m.far_pages, m.used_bytes, m.kstaled.pages_scanned)
         for m in cluster.machines],
        [sorted(
            (job, memcg.cold_age_histogram.counts.tolist(),
             memcg.cold_age_histogram.young_count,
             m.pool.row_pages(memcg.row).age_scans.astype(np.int64).tobytes())
            for job, memcg in m.memcgs.items()
        ) for m in cluster.machines],
    )


def test_over_capacity_machine_evicts_on_pooled_counts():
    states = []
    for kernel in ("scalar", "columnar"):
        cluster = _overloaded(kernel)
        assert _pooled_tiers(cluster) == _exact_tiers(cluster)
        cluster.tick()
        # The lowest-priority job on the overloaded machine went.
        assert "a0" not in cluster.running
        assert cluster.scheduler.evictions_total == 1
        assert all(m.free_bytes >= 0 for m in cluster.machines)
        if kernel == "columnar":
            _assert_pool_counts(cluster, scanned=False)
        for _ in range(5):
            cluster.tick()
        states.append(_backend_state(cluster))
    assert states[1] == states[0]


class TestRecountInvariant:
    """Under REPRO_CHECKS the pooled snapshot is checked against a real
    recount: the check reads the pool rows and writes nothing."""

    @pytest.fixture(autouse=True)
    def checks_on(self):
        set_invariants_enabled(True)
        yield
        set_invariants_enabled(None)

    def _scanned(self):
        cluster = _cluster(machines=2)
        for i, machine in enumerate(cluster.machines):
            machine.add_job(f"j{i}", 64, _PROFILE)
            machine.allocate(f"j{i}", 64)
        memcgs = [m for mc in cluster.machines for m in mc.memcgs.values()]
        for _ in range(4):
            cluster.pool.scan_all(memcgs)
        return cluster.pool, memcgs

    def test_clean_pool_passes_and_is_untouched(self):
        pool, memcgs = self._scanned()
        before = pool.cold_counts.copy(), pool.cold_young.copy()
        for memcg in memcgs:
            check_memcg_histogram(pool, memcg)
        assert np.array_equal(pool.cold_counts, before[0])
        assert np.array_equal(pool.cold_young, before[1])

    def test_corrupt_pool_row_raises(self):
        pool, memcgs = self._scanned()
        pool.cold_counts[memcgs[1].row, 1] += 1
        check_memcg_histogram(pool, memcgs[0])
        with pytest.raises(InvariantViolation, match="cold_histogram"):
            check_memcg_histogram(pool, memcgs[1])

    def test_scan_with_a_faulty_recount_raises(self, monkeypatch):
        pool, memcgs = self._scanned()
        recount = MachinePagePool._recount_cold_histograms

        def faulty(self, *args):
            recount(self, *args)
            self.cold_young[memcgs[0].row] -= 1

        monkeypatch.setattr(MachinePagePool, "_recount_cold_histograms",
                            faulty)
        with pytest.raises(InvariantViolation, match="cold_histogram"):
            pool.scan_all(memcgs)


@pytest.mark.parametrize("kernel", ["scalar", "columnar"])
def test_repeated_slot_in_one_touch_promotes_once(kernel):
    config = MachineConfig(dram_bytes=64 * MIB, kernel=kernel)
    machine = Machine("m", config, seeds=SeedSequenceFactory(3),
                      registry=MetricRegistry(), tracer=Tracer())
    memcg = machine.add_job("j", 8, ContentProfile(incompressible_fraction=0.0,
                                                   min_ratio=2.0))
    machine.allocate("j", 8)
    assert store_pages(machine, memcg, np.arange(8)) == 8

    base = machine.pool.row_base[memcg.row]
    assert machine.pool.touch(np.array([5, 3, 5, 3, 6]) + base,
                              False).tolist() == [5 + base, 3 + base, 6 + base]
    # Those three are near now; a repeated far page still faults once.
    machine.pool.mark_far(np.array([5, 3, 6]) + base)
    assert machine.touch("j", np.array([3, 3, 4, 4])) == 2
    assert machine.far_pages == machine.arena.live_objects == 6
    assert memcg.promoted_pages_total == 2
    check_machine_accounting(machine)
