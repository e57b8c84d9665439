"""Memcg page-state machine: allocation, touch, scan, reclaim candidacy."""

import numpy as np
import pytest

from repro.common.errors import SimulationError
from repro.common.units import MAX_PAGE_AGE_SCANS
from repro.core.threshold_policy import DISABLED
from repro.kernel.memcg import PageState
from repro.kernel.oracle import reclaim_candidates, scan_memcg


class TestAllocation:
    def test_allocate_marks_resident_and_accessed(self, memcg):
        idx = memcg.allocate(100)
        assert memcg.resident_pages == 100
        assert memcg.near_pages == 100
        assert memcg.accessed[idx].all()
        assert (memcg.age_scans[idx] == 0).all()

    def test_allocate_zero(self, memcg):
        assert memcg.allocate(0).size == 0

    def test_over_allocation_raises(self, memcg):
        with pytest.raises(SimulationError):
            memcg.allocate(memcg.capacity_pages + 1)

    def test_release_returns_far_subset(self, memcg):
        idx = memcg.allocate(10)
        memcg.state[idx[:3]] = PageState.FAR
        far = memcg.release(idx)
        assert far.size == 3
        assert memcg.resident_pages == 0

    def test_release_nonresident_raises(self, memcg):
        with pytest.raises(Exception):
            memcg.release(np.array([0]))

    def test_slots_reusable_after_release(self, memcg):
        idx = memcg.allocate(memcg.capacity_pages)
        memcg.release(idx[:500])
        again = memcg.allocate(500)
        assert again.size == 500


class TestTouch:
    def test_touch_sets_accessed(self, memcg):
        idx = memcg.allocate(10)
        memcg.accessed[idx] = False
        memcg.touch(idx[:4])
        assert memcg.accessed[idx[:4]].all()
        assert not memcg.accessed[idx[4:]].any()

    def test_touch_reports_far_pages(self, memcg):
        idx = memcg.allocate(10)
        memcg.state[idx[:2]] = PageState.FAR
        far = memcg.touch(idx[:5])
        np.testing.assert_array_equal(np.sort(far), np.sort(idx[:2]))

    def test_write_touch_dirties(self, memcg):
        idx = memcg.allocate(10)
        memcg.dirtied[idx] = False
        memcg.touch(idx[:3], write=True)
        assert memcg.dirtied[idx[:3]].all()

    def test_touch_ignores_nonresident(self, memcg):
        idx = memcg.allocate(10)
        memcg.release(idx[:5])
        far = memcg.touch(idx)  # includes released slots
        assert far.size == 0
        assert not memcg.accessed[idx[:5]].any()


class TestScan:
    def test_idle_pages_age(self, memcg):
        idx = memcg.allocate(10)
        scan_memcg(memcg)  # consumes the allocation touch
        scan_memcg(memcg)
        assert (memcg.age_scans[idx] == 1).all()

    def test_accessed_pages_reset(self, memcg):
        idx = memcg.allocate(10)
        for _ in range(3):
            scan_memcg(memcg)
        memcg.touch(idx[:2])
        scan_memcg(memcg)
        assert (memcg.age_scans[idx[:2]] == 0).all()
        assert (memcg.age_scans[idx[2:]] == 3).all()

    def test_age_saturates_at_255(self, memcg):
        idx = memcg.allocate(5)
        memcg.accessed[idx] = False
        memcg.age_scans[idx] = MAX_PAGE_AGE_SCANS
        scan_memcg(memcg)
        assert (memcg.age_scans[idx] == MAX_PAGE_AGE_SCANS).all()

    def test_promotion_histogram_records_age_at_access(self, memcg):
        idx = memcg.allocate(10)
        scan_memcg(memcg)
        # Age the pages to 2 scans (240s), then touch one.
        scan_memcg(memcg)
        scan_memcg(memcg)
        memcg.touch(idx[:1])
        scan_memcg(memcg)
        assert memcg.promotion_histogram.colder_than(240) == 1

    def test_cold_histogram_is_snapshot(self, memcg):
        memcg.allocate(10)
        scan_memcg(memcg)
        scan_memcg(memcg)
        first = memcg.cold_age_histogram.total
        scan_memcg(memcg)
        # Snapshot, not cumulative: total stays the page count.
        assert memcg.cold_age_histogram.total == first == 10

    def test_dirty_clears_incompressible(self, memcg):
        idx = memcg.allocate(10)
        memcg.incompressible[idx[:3]] = True
        memcg.dirtied[:] = False
        memcg.touch(idx[:3], write=True)
        scan_memcg(memcg)
        assert not memcg.incompressible[idx[:3]].any()

    def test_dirty_resamples_payload(self, memcg):
        idx = memcg.allocate(200)
        before = memcg.payload_bytes[idx].copy()
        memcg.dirtied[:] = False
        memcg.touch(idx, write=True)
        scan_memcg(memcg)
        # With 200 pages at least one payload must change.
        assert (memcg.payload_bytes[idx] != before).any()


class TestColdAccounting:
    def test_cold_pages_counts_by_threshold(self, memcg):
        idx = memcg.allocate(10)
        scan_memcg(memcg)
        for _ in range(2):
            scan_memcg(memcg)  # ages -> 2 scans = 240s
        assert memcg.cold_pages(120) == 10
        assert memcg.cold_pages(240) == 10
        assert memcg.cold_pages(241) == 0

    def test_far_pages_counted_as_cold(self, memcg):
        idx = memcg.allocate(10)
        scan_memcg(memcg)
        scan_memcg(memcg)
        memcg.state[idx[:4]] = PageState.FAR
        assert memcg.cold_pages(120) == 10
        assert memcg.far_pages == 4
        assert memcg.near_pages == 6


class TestReclaimCandidates:
    def _age_all(self, memcg, scans):
        scan_memcg(memcg)
        for _ in range(scans):
            scan_memcg(memcg)

    def test_only_old_enough_pages(self, memcg):
        idx = memcg.allocate(10)
        self._age_all(memcg, 2)  # 240s
        memcg.touch(idx[:3])
        scan_memcg(memcg)  # those 3 reset
        candidates = reclaim_candidates(memcg, 240)
        assert set(candidates) == set(idx[3:])

    def test_excludes_far_unevictable_incompressible(self, memcg):
        idx = memcg.allocate(10)
        self._age_all(memcg, 3)
        memcg.state[idx[0]] = PageState.FAR
        memcg.mlock(idx[1:2])
        memcg.incompressible[idx[2]] = True
        candidates = reclaim_candidates(memcg, 120)
        assert set(candidates) == set(idx[3:])

    def test_disabled_threshold_no_candidates(self, memcg):
        memcg.allocate(10)
        self._age_all(memcg, 3)
        assert reclaim_candidates(memcg, DISABLED).size == 0

    def test_munlock_restores_candidacy(self, memcg):
        idx = memcg.allocate(4)
        self._age_all(memcg, 2)
        memcg.mlock(idx)
        assert reclaim_candidates(memcg, 120).size == 0
        memcg.munlock(idx)
        assert reclaim_candidates(memcg, 120).size == 4


class TestRecordPromotions:
    def test_updates_histogram_and_counters(self, memcg):
        idx = memcg.allocate(5)
        memcg.age_scans[idx] = 4  # 480s
        memcg.record_promotions(idx[:2])
        assert memcg.promoted_pages_total == 2
        assert memcg.promotion_histogram.colder_than(480) == 2
        assert (memcg.age_scans[idx[:2]] == 0).all()
