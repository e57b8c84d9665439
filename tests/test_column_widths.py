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
per slot, and check that a runtime memcg builds no page array of its own.
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
from repro.kernel.columnar import (
    _PAGE_FIELDS,
    COLUMN_CONTRACTS,
    ColumnarMemCg,
    MachinePagePool,
)
from repro.kernel.compression import ContentProfile
from repro.kernel.machine import FarMemoryMode, Machine, MachineConfig
from repro.kernel.memcg import MemCg, PageState
from repro.obs import MetricRegistry, Tracer

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
        memcg = MemCg("j", 16, _PROFILE, bins, rng)
        assert memcg.age_scans.dtype == np.int32
        assert memcg.payload_bytes.dtype == np.int32
        assert memcg.huge_group.dtype == np.int64

    def test_memcg_views_carry_the_pool_widths(self):
        memcg = _job(_machine("columnar"), 16)
        assert memcg.age_scans.dtype == np.uint8
        assert memcg.payload_bytes.dtype == np.uint16
        assert memcg.huge_group.dtype == np.int32


class TestNoPrivateArrays:
    def test_runtime_memcg_is_built_without_page_arrays(self, bins, rng):
        tracemalloc.start()
        try:
            memcg = ColumnarMemCg("j", 1 << 16, _PROFILE, bins, rng)
            built = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The reference memcg's 64 Ki pages would take 27 B each; the
        # runtime one holds only its knobs and age-to-bin table.
        assert built < 16 * 1024
        assert not hasattr(memcg, "resident")
        assert not hasattr(memcg, "cold_age_histogram")

    def test_pool_binds_views_and_histogram_rows(self, bins, rng):
        pool = MachinePagePool(bins, KSTALED_SCAN_PERIOD)
        memcg = ColumnarMemCg("j", 64, _PROFILE, bins, rng)
        pool.add(memcg)
        for name, _dtype, _fill in _PAGE_FIELDS:
            if name != "owner_row":
                assert np.shares_memory(getattr(memcg, name),
                                        getattr(pool, name))
        row = memcg._pool_row
        assert np.shares_memory(memcg.cold_age_histogram.counts,
                                pool.cold_counts[row])
        assert np.shares_memory(memcg.promotion_histogram.counts,
                                pool.promo_counts[row])
        memcg.allocate(10)
        pool.scan_all([memcg])
        assert memcg.cold_age_histogram.young_count == 10


@pytest.mark.parametrize("kernel", KERNELS)
class TestNoWrap:
    def test_idle_ages_saturate_at_255(self, kernel):
        machine = _machine(kernel)
        memcg = _job(machine, 8)
        for _ in range(300):
            machine.pool.scan_all([memcg])
        assert memcg.age_scans.tolist() == [MAX_PAGE_AGE_SCANS] * 8
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
        memcg.lru_active[:] = False
        memcg.age_scans[:] = [1, 0, MAX_PAGE_AGE_SCANS, 1]
        memcg.cold_age_threshold = 0.0
        slots, _ranks = machine.pool.reclaim_walk([memcg])
        base = machine.pool.row_base[memcg._pool_row]
        assert (slots - base).tolist() == [2, 0, 3, 1]

    def test_decompressed_age_255_page_lands_in_the_oldest_bin(self, kernel):
        machine = _machine(kernel)
        memcg = _job(machine, 4)
        memcg.age_scans[:] = MAX_PAGE_AGE_SCANS
        assert machine.zswap.compress(memcg, np.arange(4)) == 4
        assert (memcg.state == PageState.FAR).all()
        machine.zswap.decompress(memcg, np.array([1, 3]))
        promoted = memcg.promotion_histogram
        assert promoted.counts.tolist() == [0] * (len(promoted.counts) - 1) + [2]
        assert promoted.young_count == 0
        assert memcg.age_scans.tolist() == [MAX_PAGE_AGE_SCANS, 0,
                                            MAX_PAGE_AGE_SCANS, 0]

    def test_payload_cutoff_on_full_page_and_boundary(self, kernel):
        machine = _machine(kernel)
        memcg = _job(machine, 2)
        memcg.payload_bytes[:] = [PAGE_SIZE, ZSMALLOC_MAX_PAYLOAD]
        assert memcg.payload_bytes.tolist() == [PAGE_SIZE, ZSMALLOC_MAX_PAYLOAD]
        assert machine.zswap.compress(memcg, np.arange(2)) == 1
        assert memcg.state.tolist() == [PageState.NEAR, PageState.FAR]
        assert memcg.incompressible.tolist() == [True, False]
        assert machine.arena.payload_bytes == ZSMALLOC_MAX_PAYLOAD


def test_direct_reclaim_picks_the_same_pages_on_both_pools():
    # Many tied ages: numpy's default sort orders ties differently for
    # uint8 and int32 keys, and the pages reclaimed must not depend on
    # the column width.
    far = []
    for kernel in KERNELS:
        config = MachineConfig(dram_bytes=64 * MIB, kernel=kernel,
                               mode=FarMemoryMode.REACTIVE,
                               scan_period=KSTALED_SCAN_PERIOD)
        machine = Machine("m", config, registry=MetricRegistry(),
                          tracer=Tracer())
        memcg = _job(machine, 1000)
        memcg.age_scans[:] = np.arange(1000) % 5
        machine.direct_reclaim.reclaim([memcg], 100 * PAGE_SIZE)
        far.append(np.flatnonzero(memcg.far_mask()).tolist())
    assert far[0] and far[1] == far[0]


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
        memcg = ColumnarMemCg(f"j{job}", 1024, _PROFILE, bins,
                              np.random.default_rng(job))
        pool.add(memcg)
        memcg.allocate(1000)
        if job % 6 == 0:
            memcg.map_huge(0, pages_per_huge=512)
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
