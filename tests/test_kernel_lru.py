"""Two-list LRU maintenance and reclaim ordering."""

import numpy as np
import pytest

from repro.core.histograms import default_age_bins
from repro.kernel.compression import ContentProfile
from repro.kernel.oracle import ReferenceMemCg, reclaim_order, scan_memcg


@pytest.fixture
def lru_memcg(rng):
    profile = ContentProfile(incompressible_fraction=0.0, min_ratio=1.5)
    return ReferenceMemCg("job", 100, profile, default_age_bins(), rng)


class TestLruLists:
    def test_new_pages_start_active(self, lru_memcg):
        idx = lru_memcg.allocate(10)
        assert lru_memcg.lru_active[idx].all()

    def test_idle_scan_demotes_to_inactive(self, lru_memcg):
        idx = lru_memcg.allocate(10)
        scan_memcg(lru_memcg)  # consumes the allocation touch
        scan_memcg(lru_memcg)  # now idle: demote
        assert not lru_memcg.lru_active[idx].any()

    def test_access_reactivates(self, lru_memcg):
        idx = lru_memcg.allocate(10)
        scan_memcg(lru_memcg)
        scan_memcg(lru_memcg)
        lru_memcg.touch(idx[:3])
        scan_memcg(lru_memcg)
        assert lru_memcg.lru_active[idx[:3]].all()
        assert not lru_memcg.lru_active[idx[3:]].any()


class TestReclaimOrder:
    def test_inactive_before_active(self, lru_memcg):
        idx = lru_memcg.allocate(10)
        lru_memcg.age_scans[idx] = 5
        lru_memcg.lru_active[idx[:5]] = True
        lru_memcg.lru_active[idx[5:]] = False
        ordered = reclaim_order(lru_memcg, idx)
        # The inactive half leads.
        assert not lru_memcg.lru_active[ordered[:5]].any()
        assert lru_memcg.lru_active[ordered[5:]].all()

    def test_oldest_first_within_list(self, lru_memcg):
        idx = lru_memcg.allocate(4)
        lru_memcg.lru_active[idx] = False
        lru_memcg.age_scans[idx] = [3, 9, 1, 7]
        ordered = reclaim_order(lru_memcg, idx)
        np.testing.assert_array_equal(
            lru_memcg.age_scans[ordered], [9, 7, 3, 1]
        )

    def test_empty_input(self, lru_memcg):
        assert reclaim_order(lru_memcg, np.zeros(0, dtype=np.int64)).size == 0
