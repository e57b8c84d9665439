"""Huge-page (THP) modeling: shared accessed bits and splitting."""

import numpy as np
import pytest

from repro.common.errors import SimulationError
from repro.common.rng import SeedSequenceFactory
from repro.common.units import MIB
from repro.core.histograms import default_age_bins
from repro.kernel.compression import ContentProfile
from repro.kernel.machine import Machine, MachineConfig
from repro.kernel.oracle import ReferenceMemCg, reclaim_candidates, scan_memcg
from repro.kernel.zsmalloc import ZsmallocArena
from repro.kernel.zswap import Zswap
from tests.pool_pages import compress

HUGE = 64  # use small "huge" mappings to keep tests fast


@pytest.fixture
def huge_memcg(rng):
    profile = ContentProfile(incompressible_fraction=0.0, min_ratio=1.5)
    memcg = ReferenceMemCg("job", 512, profile, default_age_bins(), rng)
    memcg.allocate(512)
    memcg.map_huge(0, pages_per_huge=HUGE)
    memcg.map_huge(HUGE, pages_per_huge=HUGE)
    scan_memcg(memcg)  # consume allocation touches
    return memcg


class TestMapping:
    def test_mapping_records_group(self, huge_memcg):
        assert (huge_memcg.huge_group[:HUGE] == 0).all()
        assert (huge_memcg.huge_group[HUGE : 2 * HUGE] == HUGE).all()
        assert (huge_memcg.huge_group[2 * HUGE :] == -1).all()

    def test_overlap_rejected(self, huge_memcg):
        with pytest.raises(SimulationError):
            huge_memcg.map_huge(HUGE // 2, pages_per_huge=HUGE)

    def test_nonresident_rejected(self, rng):
        memcg = ReferenceMemCg("j", 256, ContentProfile(), default_age_bins(), rng)
        memcg.allocate(32)  # not the full range
        with pytest.raises(SimulationError):
            memcg.map_huge(0, pages_per_huge=64)

    def test_out_of_bounds_rejected(self, huge_memcg):
        with pytest.raises(Exception):
            huge_memcg.map_huge(512 - 8, pages_per_huge=HUGE)


class TestSharedAccessedBit:
    def test_one_touch_keeps_whole_mapping_young(self, huge_memcg):
        # Touch a single page of group 0; none of group HUGE.
        huge_memcg.touch(np.array([3]))
        scan_memcg(huge_memcg)
        # All of group 0 reads as accessed -> age 0.
        assert (huge_memcg.age_scans[:HUGE] == 0).all()
        # Group HUGE aged normally.
        assert (huge_memcg.age_scans[HUGE : 2 * HUGE] == 1).all()

    def test_huge_mapping_hides_cold_pages(self, huge_memcg):
        """The fragmentation-vs-resolution trade-off: one hot page in a
        huge mapping makes 2 MiB undetectable as cold."""
        for _ in range(4):
            huge_memcg.touch(np.array([3]))  # only page 3 is really hot
            scan_memcg(huge_memcg)
        assert huge_memcg.cold_pages(120) == 512 - 2 * HUGE + HUGE
        # Base pages aged; group 0 pinned young by page 3; group HUGE cold.
        assert (huge_memcg.age_scans[:HUGE] == 0).all()

    def test_dirty_bit_shared_too(self, huge_memcg):
        huge_memcg.incompressible[:HUGE] = True
        huge_memcg.touch(np.array([5]), write=True)
        scan_memcg(huge_memcg)
        # The shared PMD dirty bit cleared incompressible for the group.
        assert not huge_memcg.incompressible[:HUGE].any()


class TestSplitting:
    def test_swap_out_splits_mapping(self, huge_memcg):
        zswap = Zswap(ZsmallocArena())
        for _ in range(3):
            scan_memcg(huge_memcg)
        candidates = reclaim_candidates(huge_memcg, 120)
        group0 = candidates[candidates < HUGE]
        assert group0.size
        compress(zswap, huge_memcg, group0[:8])
        # The partially-swapped mapping fell back to base pages.
        assert (huge_memcg.huge_group[:HUGE] == -1).all()
        # The untouched mapping survived.
        assert (huge_memcg.huge_group[HUGE : 2 * HUGE] == HUGE).all()

    @pytest.mark.parametrize("kernel", ["scalar", "columnar"])
    def test_partial_release_splits_mapping(self, kernel):
        """Freeing part of a mapping splits it, as Linux splits a THP on
        a partial unmap: reallocated slots join no mapping, a touch keeps
        only its own page young, and the range can be mapped again."""
        machine = Machine(
            "m", MachineConfig(dram_bytes=64 * MIB, kernel=kernel),
            seeds=SeedSequenceFactory(1),
        )
        row = machine.add_job("job", 1024, ContentProfile()).row
        pool = machine.pool
        machine.allocate("job", 1024)
        pool.map_huge(row, 0, pages_per_huge=512)
        machine.release("job", np.arange(256))
        assert (pool.row_pages(row).huge_group == -1).all()
        machine.allocate("job", 256)
        machine.tick(0)  # consume the allocation touches
        machine.tick(120)
        machine.touch("job", np.array([0]))
        machine.tick(240)
        ages = pool.row_pages(row).age_scans
        assert ages[0] == 0
        assert (ages[1:] == 2).all()
        pool.map_huge(row, 0, pages_per_huge=512)

    def test_explicit_split(self, huge_memcg):
        huge_memcg.split_huge_at(np.array([0]))
        assert (huge_memcg.huge_group[:HUGE] == -1).all()
        # After the split, per-page coldness is visible again.
        huge_memcg.touch(np.array([3]))
        scan_memcg(huge_memcg)
        assert huge_memcg.age_scans[3] == 0
        assert (huge_memcg.age_scans[4:HUGE] >= 1).all()


class TestColdDetectionResolution:
    @pytest.mark.parametrize("huge_fraction", [0.0, 0.5, 1.0])
    def test_more_huge_pages_less_detectable_cold(self, rng, huge_fraction):
        """Sweep: with one hot page per mapping, detectable cold memory
        shrinks as more of the job is huge-mapped."""
        profile = ContentProfile(incompressible_fraction=0.0, min_ratio=1.5)
        memcg = ReferenceMemCg("j", 512, profile, default_age_bins(), rng)
        memcg.allocate(512)
        n_groups = int(huge_fraction * 512 / HUGE)
        for g in range(n_groups):
            memcg.map_huge(g * HUGE, pages_per_huge=HUGE)
        scan_memcg(memcg)
        for _ in range(3):
            # One hot page per 64-page span, huge or not.
            memcg.touch(np.arange(0, 512, HUGE))
            scan_memcg(memcg)
        detectable = memcg.cold_pages(120)
        expected = 512 - n_groups * HUGE - (512 // HUGE - n_groups)
        assert detectable == expected
