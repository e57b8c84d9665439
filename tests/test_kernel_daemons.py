"""kstaled and kreclaimd daemons."""

import pytest

from repro.core.histograms import default_age_bins
from repro.kernel.compression import ContentProfile
from repro.kernel.kreclaimd import Kreclaimd
from repro.kernel.kstaled import Kstaled
from repro.kernel.oracle import (
    ReferenceMemCg,
    reclaim_candidates,
    run_kreclaimd,
    scan_memcg,
)
from repro.kernel.zsmalloc import ZsmallocArena
from repro.kernel.zswap import Zswap


@pytest.fixture
def compressible_memcg(rng):
    profile = ContentProfile(incompressible_fraction=0.0, min_ratio=1.5)
    return ReferenceMemCg("job", 1000, profile, default_age_bins(), rng)


def _scan(memcg):
    """One reference kstaled pass; returns the pages it examined."""
    scan_memcg(memcg)
    return memcg.resident_pages


def _reclaim(reclaimd, memcg):
    """One reference kreclaimd pass over the memcg (none while its zswap
    is disabled)."""
    pairs = [(memcg, reclaim_candidates(memcg, memcg.cold_age_threshold))]
    return run_kreclaimd(reclaimd, pairs if memcg.zswap_enabled else [])


class TestKstaled:
    def test_scans_on_period_boundaries(self, compressible_memcg):
        kstaled = Kstaled(scan_period=120)
        compressible_memcg.allocate(100)
        ran = [t for t in range(0, 601, 60) if kstaled.due(t)]
        for _t in ran:
            kstaled.record_scan(_scan(compressible_memcg))
        assert ran == [0, 120, 240, 360, 480, 600]
        assert kstaled.scans_completed == 6

    def test_ages_accumulate_across_scans(self, compressible_memcg):
        kstaled = Kstaled()
        idx = compressible_memcg.allocate(10)
        for t in range(0, 601, 120):
            if kstaled.due(t):
                kstaled.record_scan(_scan(compressible_memcg))
        # First scan consumed the allocation touch; 5 further scans aged.
        assert (compressible_memcg.age_scans[idx] == 5).all()

    def test_cpu_budget_accounting(self, compressible_memcg):
        kstaled = Kstaled()
        compressible_memcg.allocate(1000)
        kstaled.record_scan(
            _scan(compressible_memcg))
        assert kstaled.pages_scanned == 1000
        assert kstaled.cpu_seconds > 0

    def test_utilization_under_paper_budget(self, rng):
        """A 256 GiB machine's scan load stays under ~11% of one core."""
        kstaled = Kstaled()
        # Model the cost arithmetic directly: 64 Mi pages per scan.
        pages = 64 * 1024 * 1024
        from repro.kernel.kstaled import SCAN_SECONDS_PER_PAGE

        per_scan_seconds = pages * SCAN_SECONDS_PER_PAGE
        utilization = per_scan_seconds / kstaled.scan_period
        assert utilization < 0.11

    def test_utilization_of_core(self, compressible_memcg):
        kstaled = Kstaled()
        compressible_memcg.allocate(500)
        kstaled.record_scan(
            _scan(compressible_memcg))
        assert kstaled.utilization_of_core(120) > 0
        assert kstaled.utilization_of_core(0) == 0.0


class TestKreclaimd:
    def _aged_memcg(self, memcg, scans=3):
        scan_memcg(memcg)
        for _ in range(scans):
            scan_memcg(memcg)
        return memcg

    def test_respects_threshold(self, compressible_memcg):
        zswap = Zswap(ZsmallocArena())
        reclaimd = Kreclaimd(zswap)
        compressible_memcg.allocate(100)
        self._aged_memcg(compressible_memcg, scans=2)  # 240s old
        compressible_memcg.cold_age_threshold = 480.0
        assert _reclaim(reclaimd, compressible_memcg) == 0
        compressible_memcg.cold_age_threshold = 240.0
        assert _reclaim(reclaimd, compressible_memcg) == 100

    def test_skips_disabled_jobs(self, compressible_memcg):
        zswap = Zswap(ZsmallocArena())
        reclaimd = Kreclaimd(zswap)
        compressible_memcg.allocate(100)
        self._aged_memcg(compressible_memcg)
        compressible_memcg.cold_age_threshold = 120.0
        compressible_memcg.zswap_enabled = False
        assert _reclaim(reclaimd, compressible_memcg) == 0

    def test_budget_bounds_work_per_run(self, compressible_memcg):
        zswap = Zswap(ZsmallocArena())
        reclaimd = Kreclaimd(zswap, pages_per_run=30)
        compressible_memcg.allocate(100)
        self._aged_memcg(compressible_memcg)
        compressible_memcg.cold_age_threshold = 120.0
        assert _reclaim(reclaimd, compressible_memcg) == 30
        assert _reclaim(reclaimd, compressible_memcg) == 30

    def test_oldest_first(self, rng):
        profile = ContentProfile(incompressible_fraction=0.0, min_ratio=1.5)
        memcg = ReferenceMemCg("job", 100, profile, default_age_bins(), rng)
        idx = memcg.allocate(20)
        scan_memcg(memcg)
        memcg.age_scans[idx[:10]] = 10  # much older
        memcg.age_scans[idx[10:]] = 2
        memcg.cold_age_threshold = 120.0
        zswap = Zswap(ZsmallocArena())
        reclaimd = Kreclaimd(zswap, pages_per_run=10)
        _reclaim(reclaimd, memcg)
        assert memcg.far_mask()[idx[:10]].all()
        assert not memcg.far_mask()[idx[10:]].any()

    def test_counters(self, compressible_memcg):
        zswap = Zswap(ZsmallocArena())
        reclaimd = Kreclaimd(zswap)
        compressible_memcg.allocate(50)
        self._aged_memcg(compressible_memcg)
        compressible_memcg.cold_age_threshold = 120.0
        _reclaim(reclaimd, compressible_memcg)
        assert reclaimd.runs == 1
        assert reclaimd.pages_reclaimed == 50
