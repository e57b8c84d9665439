"""The reference scan's cold-age snapshot and per-call reclaim candidacy.

The reference kstaled scan (:func:`repro.kernel.oracle.scan_memcg`)
leaves a cold-age snapshot that must equal
:meth:`MemCg._rebuild_cold_histogram` through aging, touches, churn and
tier moves.  Candidacy (:func:`repro.kernel.oracle.reclaim_candidates`)
is computed from the live page arrays on every call, so every mutator,
and a direct write to the arrays, shows in the next call.
"""

import numpy as np

from repro.kernel.memcg import MemCg, PageState
from repro.kernel.oracle import reclaim_candidates, scan_memcg


def assert_histogram_matches_rebuild(memcg: MemCg) -> None:
    """The scan's snapshot must equal a from-scratch rebuild."""
    truth = memcg._rebuild_cold_histogram()
    np.testing.assert_array_equal(memcg.cold_age_histogram.counts, truth.counts)
    assert memcg.cold_age_histogram.young_count == truth.young_count


class TestIncrementalHistogram:
    def test_matches_rebuild_after_aging(self, memcg, rng):
        memcg.allocate(600)
        for _ in range(12):
            scan_memcg(memcg)
            assert_histogram_matches_rebuild(memcg)

    def test_matches_rebuild_with_touches(self, memcg, rng):
        slots = memcg.allocate(600)
        for scan in range(10):
            touched = rng.choice(slots, size=50, replace=False)
            memcg.touch(touched)
            scan_memcg(memcg)
            assert_histogram_matches_rebuild(memcg)

    def test_matches_rebuild_through_alloc_release_churn(self, memcg, rng):
        slots = memcg.allocate(400)
        for scan in range(8):
            scan_memcg(memcg)
            freed = rng.choice(slots, size=40, replace=False)
            memcg.release(freed)
            slots = np.setdiff1d(slots, freed)
            fresh = memcg.allocate(40)
            slots = np.concatenate([slots, fresh])
            scan_memcg(memcg)
            assert_histogram_matches_rebuild(memcg)

    def test_matches_rebuild_with_tier_moves(self, memcg, rng):
        slots = memcg.allocate(500)
        for _ in range(6):
            scan_memcg(memcg)
        memcg.mark_far(slots[:200])
        scan_memcg(memcg)
        assert_histogram_matches_rebuild(memcg)
        memcg.mark_near(slots[:100])
        memcg.touch(slots[:100])
        scan_memcg(memcg)
        assert_histogram_matches_rebuild(memcg)

    def test_young_pages_counted_in_young_bucket(self, memcg):
        slots = memcg.allocate(100)
        memcg.touch(slots)
        scan_memcg(memcg)  # all ages reset to 0 -> young bucket
        assert memcg.cold_age_histogram.young_count == 100
        assert int(memcg.cold_age_histogram.counts.sum()) == 0


class TestReclaimMaskCache:
    def test_candidates_reflect_tier_changes(self, memcg):
        slots = memcg.allocate(200)
        for _ in range(3):
            scan_memcg(memcg)
        threshold = 2 * memcg.scan_period
        before = reclaim_candidates(memcg, threshold)
        assert len(before) == 200
        memcg.mark_far(slots[:50])
        after = reclaim_candidates(memcg, threshold)
        assert len(after) == 150
        assert not np.intersect1d(after, slots[:50]).size

    def test_candidates_reflect_mlock_and_munlock(self, memcg):
        slots = memcg.allocate(100)
        for _ in range(3):
            scan_memcg(memcg)
        threshold = 2 * memcg.scan_period
        memcg.mlock(slots[:30])
        assert len(reclaim_candidates(memcg, threshold)) == 70
        memcg.munlock(slots[:30])
        assert len(reclaim_candidates(memcg, threshold)) == 100

    def test_candidates_reflect_incompressible_marks(self, memcg):
        slots = memcg.allocate(100)
        for _ in range(3):
            scan_memcg(memcg)
        memcg.mark_incompressible(slots[:25])
        assert len(reclaim_candidates(memcg, 2 * memcg.scan_period)) == 75

    def test_direct_writes_are_seen(self, memcg):
        """Code poking the arrays directly needs no invalidation call."""
        slots = memcg.allocate(80)
        for _ in range(3):
            scan_memcg(memcg)
        threshold = 2 * memcg.scan_period
        assert len(reclaim_candidates(memcg, threshold)) == 80
        memcg.state[slots[:10]] = PageState.FAR
        assert len(reclaim_candidates(memcg, threshold)) == 70

    def test_age_threshold_applied_per_call(self, memcg):
        slots = memcg.allocate(100)
        for _ in range(4):
            scan_memcg(memcg)
        memcg.touch(slots[:40])
        scan_memcg(memcg)  # 40 pages age 0, 60 pages age 5
        assert len(reclaim_candidates(memcg, 1 * memcg.scan_period)) == 60
        assert len(reclaim_candidates(memcg, 0.5 * memcg.scan_period)) == 60
        assert len(reclaim_candidates(memcg, 10 * memcg.scan_period)) == 0
