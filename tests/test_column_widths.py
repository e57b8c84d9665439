"""The page pool's narrow columns, and the memory a scan may borrow.

The runtime pool keeps every per-page column only as wide as its values
(``COLUMN_CONTRACTS``): an 8-bit age that saturates at
``MAX_PAGE_AGE_SCANS`` (the paper's kstaled age, §5.1), payloads of at
most ``PAGE_SIZE`` in 16 bits, memcg-local huge-group ids in 32.  The
reference memcg keeps its own wide arrays, so the equivalence suites
hold the narrow pool to a second, wide implementation.  Narrow unsigned
columns wrap silently (``uint8(200) * 60 == 224``, ``-uint8(1) == 255``),
so these tests drive each place a wrap would show through the extreme
values, on both pools.  They also bound what one pooled scan allocates
per slot, check that a runtime memcg is a handle that builds no page
array and aliases none of the pool's, and pin direct reclaim's order.
"""

import tracemalloc

import numpy as np
import pytest

from repro.checks.invariants import set_invariants_enabled
from repro.common.units import (
    KSTALED_SCAN_PERIOD,
    MAX_PAGE_AGE_SCANS,
    MIB,
    PAGE_SIZE,
    ZSMALLOC_MAX_PAYLOAD,
)
from repro.core.histograms import default_age_bins
from repro.kernel import direct_reclaim
from repro.kernel.columnar import (
    _PAGE_FIELDS,
    COLUMN_CONTRACTS,
    MachinePagePool,
)
from repro.kernel.compression import ContentProfile
from repro.kernel.machine import FarMemoryMode, Machine, MachineConfig
from repro.kernel.memcg import PageState
from repro.kernel.oracle import ReferenceMemCg
from repro.obs import MetricRegistry, Tracer
from tests.pool_pages import store_pages, write_pages

KERNELS = ("scalar", "columnar")
_PROFILE = ContentProfile(incompressible_fraction=0.0, min_ratio=2.0)


def _machine(kernel):
    config = MachineConfig(dram_bytes=64 * MIB, mode=FarMemoryMode.PROACTIVE,
                           kernel=kernel, scan_period=KSTALED_SCAN_PERIOD)
    return Machine("m", config, registry=MetricRegistry(), tracer=Tracer())


def _job(machine, pages):
    memcg = machine.add_job("j", pages, _PROFILE)
    machine.allocate("j", pages)
    return memcg


class TestWidths:
    def test_pool_columns_are_the_contract_widths(self):
        pool = MachinePagePool(default_age_bins(), KSTALED_SCAN_PERIOD)
        for name, _dtype, _fill in _PAGE_FIELDS:
            contract = COLUMN_CONTRACTS[f"MachinePagePool.{name}"]
            assert getattr(pool, name).dtype == np.dtype(contract["dtype"])
        assert pool.age_scans.dtype == np.uint8
        assert np.iinfo(pool.age_scans.dtype).max == MAX_PAGE_AGE_SCANS
        assert np.iinfo(pool.payload_bytes.dtype).max >= PAGE_SIZE

    def test_reference_memcg_stays_wide(self, bins, rng):
        memcg = ReferenceMemCg("j", 16, _PROFILE, bins, rng)
        assert memcg.age_scans.dtype == np.int32
        assert memcg.payload_bytes.dtype == np.int32
        assert memcg.huge_group.dtype == np.int64

    def test_row_pages_carry_the_pool_widths(self):
        machine = _machine("columnar")
        pages = machine.pool.row_pages(_job(machine, 16).row)
        assert pages.age_scans.dtype == np.uint8
        assert pages.payload_bytes.dtype == np.uint16
        assert pages.huge_group.dtype == np.int32


class TestNoPrivateArrays:
    def test_runtime_memcg_is_built_without_page_arrays(self, bins, rng):
        pool = MachinePagePool(bins, KSTALED_SCAN_PERIOD)
        pool._grow_pages(1 << 17)
        tracemalloc.start()
        try:
            memcg = pool.add("j", 1 << 16, _PROFILE, rng)
            built = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The reference memcg's 64 Ki pages would take 27 B each; the
        # handle holds only its knobs and counters, and the pool's row
        # arrays grow by one row.
        assert built < 16 * 1024
        assert not any(isinstance(value, np.ndarray)
                       for value in vars(memcg).values())

    def test_handle_aliases_no_pool_storage(self, bins, rng):
        pool = MachinePagePool(bins, KSTALED_SCAN_PERIOD)
        memcg = pool.add("j", 64, _PROFILE, rng)
        pool.allocate(memcg.row, 10)
        pool.scan_all([memcg])
        storage = [getattr(pool, name) for name, _dtype, _fill in _PAGE_FIELDS]
        storage += [pool.cold_counts, pool.cold_young, pool.promo_counts,
                    pool.promo_young]
        held = list(vars(memcg).values()) + [
            memcg.cold_age_histogram.counts,
            memcg.promotion_histogram.counts,
            *pool.row_pages(memcg.row),
        ]
        for value in held:
            if isinstance(value, np.ndarray):
                assert not any(np.shares_memory(value, array)
                               for array in storage)
        # The histograms read the pool's row when accessed.
        assert memcg.cold_age_histogram.young_count == 10
        pool.scan_all([memcg])
        assert memcg.cold_age_histogram.counts.sum() == 10
        assert memcg.cold_age_histogram.young_count == 0

    def test_removed_handle_keeps_frozen_histograms(self, bins, rng):
        pool = MachinePagePool(bins, KSTALED_SCAN_PERIOD)
        memcg = pool.add("j", 64, _PROFILE, rng)
        other = pool.add("k", 64, _PROFILE, rng)
        pool.allocate(memcg.row, 10)
        pool.scan_all([memcg, other])
        cold = memcg.cold_age_histogram
        pool.remove(memcg)
        assert memcg.row == -1 and memcg._pool is None
        # The row is recycled; the departed handle still reads its own.
        pool.add("l", 64, _PROFILE, rng)
        assert memcg.cold_age_histogram.counts.tolist() == cold.counts.tolist()
        assert memcg.cold_age_histogram.young_count == cold.young_count


def _pages(machine, memcg):
    return machine.pool.row_pages(memcg.row)


@pytest.mark.parametrize("kernel", KERNELS)
class TestNoWrap:
    def test_idle_ages_saturate_at_255(self, kernel):
        machine = _machine(kernel)
        memcg = _job(machine, 8)
        for _ in range(300):
            machine.pool.scan_all([memcg])
        assert _pages(machine, memcg).age_scans.tolist() == (
            [MAX_PAGE_AGE_SCANS] * 8)
        # The snapshot puts them in the oldest bin; a wrap would have
        # sent them back through the young bucket.
        assert memcg.cold_age_histogram.counts[-1] == 8
        assert memcg.cold_age_histogram.young_count == 0
        oldest = MAX_PAGE_AGE_SCANS * KSTALED_SCAN_PERIOD
        assert machine.cold_pages(oldest) == 8

    def test_reclaim_walks_the_oldest_page_first(self, kernel):
        # Age 0 is the case a wrapped key gets wrong: -uint8(a) orders
        # ages 1..255 correctly but puts age 0 first.
        machine = _machine(kernel)
        memcg = _job(machine, 4)
        machine.pool.scan_all([memcg])
        write_pages(machine.pool, memcg, "lru_active", False)
        write_pages(machine.pool, memcg, "age_scans",
                    [1, 0, MAX_PAGE_AGE_SCANS, 1])
        memcg.cold_age_threshold = 0.0
        slots, _ranks = machine.pool.reclaim_walk([memcg])
        base = machine.pool.row_base[memcg.row]
        assert (slots - base).tolist() == [2, 0, 3, 1]

    def test_decompressed_age_255_page_lands_in_the_oldest_bin(self, kernel):
        machine = _machine(kernel)
        memcg = _job(machine, 4)
        write_pages(machine.pool, memcg, "age_scans", MAX_PAGE_AGE_SCANS)
        assert store_pages(machine, memcg, np.arange(4)) == 4
        assert (_pages(machine, memcg).state == PageState.FAR).all()
        assert machine.touch_jobs([("j", np.array([1, 3]), False)]) == 2
        promoted = memcg.promotion_histogram
        assert promoted.counts.tolist() == [0] * (len(promoted.counts) - 1) + [2]
        assert promoted.young_count == 0
        assert _pages(machine, memcg).age_scans.tolist() == [
            MAX_PAGE_AGE_SCANS, 0, MAX_PAGE_AGE_SCANS, 0]

    def test_payload_cutoff_on_full_page_and_boundary(self, kernel):
        machine = _machine(kernel)
        memcg = _job(machine, 2)
        write_pages(machine.pool, memcg, "payload_bytes",
                    [PAGE_SIZE, ZSMALLOC_MAX_PAYLOAD])
        assert _pages(machine, memcg).payload_bytes.tolist() == [
            PAGE_SIZE, ZSMALLOC_MAX_PAYLOAD]
        assert store_pages(machine, memcg, np.arange(2)) == 1
        pages = _pages(machine, memcg)
        assert pages.state.tolist() == [PageState.NEAR, PageState.FAR]
        assert pages.incompressible.tolist() == [True, False]
        assert machine.arena.payload_bytes == ZSMALLOC_MAX_PAYLOAD


def test_direct_reclaim_picks_the_same_pages_on_both_pools():
    # Many tied ages: the order is oldest first, ties by ascending slot,
    # whatever the column width and whichever sort the host dispatches.
    ages = np.arange(1000) % 5
    expected = np.concatenate([np.flatnonzero(ages == age)
                               for age in (4, 3, 2, 1, 0)])
    far = []
    for kernel in KERNELS:
        config = MachineConfig(dram_bytes=64 * MIB, kernel=kernel,
                               mode=FarMemoryMode.REACTIVE,
                               scan_period=KSTALED_SCAN_PERIOD)
        machine = Machine("m", config, registry=MetricRegistry(),
                          tracer=Tracer())
        memcg = _job(machine, 1000)
        write_pages(machine.pool, memcg, "age_scans", ages)
        slots, ranks = machine.pool.direct_reclaim_walk([memcg.row])
        base = machine.pool.row_base[memcg.row]
        assert (slots - base).tolist() == expected.tolist()
        assert ranks.tolist() == [0] * 1000
        machine.direct_reclaim.reclaim(machine.pool, [memcg], 100 * PAGE_SIZE)
        far.append((machine.pool.far_slots([memcg.row]) - base).tolist())
    # Reclaim took the first pages of that order, the same on both pools.
    assert far[0] and far[1] == far[0]
    assert far[0] == sorted(expected[: len(far[0])].tolist())


def test_direct_reclaim_reads_the_pool_once_per_pass(monkeypatch):
    config = MachineConfig(dram_bytes=64 * MIB, mode=FarMemoryMode.REACTIVE,
                           scan_period=KSTALED_SCAN_PERIOD)
    machine = Machine("m", config, registry=MetricRegistry(), tracer=Tracer())
    memcgs = []
    for job in ("a", "b", "c"):
        memcgs.append(machine.add_job(job, 64, _PROFILE))
        machine.allocate(job, 64)
    memcgs[0].soft_limit_pages = 64 - 5  # only five pages to give
    walks, stores = [], []
    walk = machine.pool.direct_reclaim_walk
    monkeypatch.setattr(machine.pool, "direct_reclaim_walk",
                        lambda rows: walks.append(list(rows)) or walk(rows))
    store = direct_reclaim.compress_rounds
    monkeypatch.setattr(
        direct_reclaim, "compress_rounds",
        lambda pool, slots, rounds: stores.append(rounds[0][1][0][0].job_id)
        or store(pool, slots, rounds))
    machine.direct_reclaim.reclaim(machine.pool, memcgs, 4 * PAGE_SIZE)
    # Each pass walks every row once; the memcgs' stores share it.  One
    # pass covers this shortfall: "a" gives its five pages and "b" the
    # rest.
    rows = [memcg.row for memcg in memcgs]
    assert walks and all(listed == rows for listed in walks)
    assert stores == ["a", "b"] and len(walks) < len(stores)
    far = machine.pool.tier_pages(rows)[:, 1].tolist()
    assert far[0] == 5 and 0 < far[1] < 64 and far[2] == 0


def test_direct_reclaim_counts_what_stored_pages_free():
    # A fresh arena grows by whole zspages on its first stores; that
    # growth is not negative progress.  Each stored page frees its page
    # less its payload, so a 4-page shortfall compresses a few pages.
    config = MachineConfig(dram_bytes=64 * MIB, mode=FarMemoryMode.REACTIVE,
                           scan_period=KSTALED_SCAN_PERIOD)
    machine = Machine("m", config, registry=MetricRegistry(), tracer=Tracer())
    memcgs = []
    for job in ("a", "b", "c"):
        memcgs.append(machine.add_job(job, 64, _PROFILE))
        machine.allocate(job, 64)
    memcgs[0].soft_limit_pages = 64 - 5
    needed = 4 * PAGE_SIZE
    freed, _stall = machine.direct_reclaim.reclaim(machine.pool, memcgs,
                                                   needed)
    stored = machine.direct_reclaim.pages_reclaimed
    payload = sum(stats.payload_bytes_stored
                  for stats in machine.zswap.job_stats.values())
    assert freed == stored * PAGE_SIZE - payload
    assert freed >= needed
    assert 4 <= stored <= 8


#: Bytes one pooled scan may allocate per pool slot, beyond what it
#: keeps.  Basis: the cold recount, the largest step, holds one intp key
#: per slot (8 B) plus an int16 bin per slot (2 B) beside ``bincount``'s
#: own bookkeeping and at most two bool masks of the pool (2 B): about
#: 13 B per slot, which is what this scenario measures.  The promotion
#: keys (an intp, an int32 row and a uint8 age per accessed page) and the
#: dirty pages' payload redraws (about 50 B per drawn page) stay under
#: that here, with about 44% of pages accessed and 17% dirty.  The
#: layout before this bound took about 22 B per slot on the same scan:
#: int32 recount keys, their intp copy, and the scan's masks and index
#: arrays still alive during the recount.
SCRATCH_BYTES_PER_SLOT = 16


def test_scan_scratch_stays_under_the_per_slot_bound():
    bins = default_age_bins()
    pool = MachinePagePool(bins, KSTALED_SCAN_PERIOD)
    rng = np.random.default_rng(5)
    memcgs = []
    for job in range(24):
        memcg = pool.add(f"j{job}", 1024, _PROFILE,
                         np.random.default_rng(job))
        pool.allocate(memcg.row, 1000)
        if job % 6 == 0:
            pool.map_huge(memcg.row, 0, pages_per_huge=512)
        memcgs.append(memcg)
    set_invariants_enabled(False)
    try:
        pool.scan_all(memcgs)
        for _ in range(3):
            used = np.arange(pool.used)
            pool.touch(rng.choice(used, pool.used // 3, replace=False), False)
            pool.touch(rng.choice(used, pool.used // 10, replace=False), True)
            tracemalloc.start()
            try:
                held = tracemalloc.get_traced_memory()[0]
                pool.scan_all(memcgs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (peak - held) / pool.used <= SCRATCH_BYTES_PER_SLOT
    finally:
        set_invariants_enabled(None)
    assert pool.used == 24 * 1024
    assert sum(getattr(pool, name).itemsize
               for name, _dtype, _fill in _PAGE_FIELDS) <= 18
