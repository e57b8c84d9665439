"""zswap store/load paths: cutoff, state flips, CPU accounting."""

import numpy as np
import pytest

from repro.common.units import ZSMALLOC_MAX_PAYLOAD
from repro.core.histograms import default_age_bins
from repro.kernel.compression import ContentProfile
from repro.kernel.memcg import PageState
from repro.kernel.oracle import ReferenceMemCg
from repro.kernel.zsmalloc import ZsmallocArena
from repro.kernel.zswap import Zswap
from tests.pool_pages import compress, decompress


@pytest.fixture
def zswap():
    return Zswap(ZsmallocArena())


def make_memcg(profile, rng, n=100):
    return ReferenceMemCg("job", n, profile, default_age_bins(), rng)


class TestCompressPath:
    def test_compressible_pages_go_far(self, zswap, memcg):
        idx = memcg.allocate(50)
        stored = compress(zswap, memcg, idx)
        assert stored == 50
        assert memcg.far_pages == 50
        assert zswap.arena.live_objects == 50
        stats = zswap.stats_for("test-job")
        assert stats.pages_compressed == 50
        assert stats.compress_seconds > 0

    def test_incompressible_pages_rejected(self, zswap, rng):
        profile = ContentProfile(incompressible_fraction=1.0)
        memcg = make_memcg(profile, rng)
        idx = memcg.allocate(20)
        stored = compress(zswap, memcg, idx)
        assert stored == 0
        assert memcg.incompressible[idx].all()
        assert memcg.state[idx].max() == PageState.NEAR
        stats = zswap.stats_for("job")
        assert stats.pages_rejected == 20
        # Wasted cycles are still charged (the §3.2 opportunity cost).
        assert stats.compress_seconds > 0

    def test_mixed_batch_splits(self, zswap, memcg):
        idx = memcg.allocate(10)
        memcg.payload_bytes[idx[:4]] = ZSMALLOC_MAX_PAYLOAD + 10
        stored = compress(zswap, memcg, idx)
        assert stored == 6
        assert memcg.incompressible[idx[:4]].all()

    def test_cutoff_boundary_inclusive(self, zswap, memcg):
        idx = memcg.allocate(1)
        memcg.payload_bytes[idx] = ZSMALLOC_MAX_PAYLOAD
        assert compress(zswap, memcg, idx) == 1

    def test_empty_batch(self, zswap, memcg):
        assert compress(zswap, memcg, np.zeros(0, dtype=np.int64)) == 0

    def test_compress_consumes_dirty_bit(self, zswap, memcg):
        idx = memcg.allocate(5)
        memcg.dirtied[idx] = True
        compress(zswap, memcg, idx)
        assert not memcg.dirtied[idx].any()


class TestDecompressPath:
    def test_promotion_flips_state_and_accounts(self, zswap, memcg):
        idx = memcg.allocate(30)
        memcg.age_scans[idx] = 5
        compress(zswap, memcg, idx)
        total_latency = decompress(zswap, memcg, idx[:10])
        assert total_latency > 0
        assert memcg.far_pages == 20
        assert memcg.promoted_pages_total == 10
        assert zswap.arena.live_objects == 20
        stats = zswap.stats_for("test-job")
        assert stats.pages_decompressed == 10
        assert len(stats.decompress_latencies) == 10

    def test_promotion_resets_age(self, zswap, memcg):
        idx = memcg.allocate(5)
        memcg.age_scans[idx] = 7
        compress(zswap, memcg, idx)
        decompress(zswap, memcg, idx)
        assert (memcg.age_scans[idx] == 0).all()

    def test_promotion_histogram_sees_age_at_access(self, zswap, memcg):
        idx = memcg.allocate(5)
        memcg.age_scans[idx] = 8  # 960s
        compress(zswap, memcg, idx)
        decompress(zswap, memcg, idx)
        assert memcg.promotion_histogram.colder_than(960) == 5

    def test_latency_samples_capped(self, zswap, memcg):
        from repro.kernel.zswap import ZswapJobStats

        stats = zswap.stats_for("test-job")
        stats.decompress_latencies = [0.0] * ZswapJobStats.LATENCY_SAMPLE_CAP
        stats.latency_samples_seen = ZswapJobStats.LATENCY_SAMPLE_CAP
        idx = memcg.allocate(5)
        compress(zswap, memcg, idx)
        decompress(zswap, memcg, idx)
        assert (
            len(stats.decompress_latencies) == ZswapJobStats.LATENCY_SAMPLE_CAP
        )


class TestLatencyReservoir:
    """The latency buffer is a true reservoir sample (Algorithm R), not
    a keep-the-first-N window — late tail latencies must be able to
    displace early ones."""

    def test_late_samples_can_land(self, zswap):
        from repro.kernel.zswap import ZswapJobStats

        cap = ZswapJobStats.LATENCY_SAMPLE_CAP
        stats = zswap.stats_for("test-job")
        early = np.zeros(cap)
        zswap._sample_latencies(stats, early)
        assert len(stats.decompress_latencies) == cap
        assert stats.latency_samples_seen == cap
        late = np.full(cap, 99.0)
        zswap._sample_latencies(stats, late)
        assert len(stats.decompress_latencies) == cap
        assert stats.latency_samples_seen == 2 * cap
        landed = sum(1 for v in stats.decompress_latencies if v == 99.0)
        # Each late sample survives with probability cap/(i+1) ~ 1/2;
        # with 4096 draws the landed count concentrates hard around
        # cap * (1 - ln 2) ... but the exact distribution does not
        # matter here — only that the window behaviour (landed == 0)
        # is gone and the reservoir stays a genuine mixture.
        assert 0 < landed < cap

    def test_seen_counter_tracks_every_sample(self, zswap, memcg):
        idx = memcg.allocate(60)
        compress(zswap, memcg, idx)
        decompress(zswap, memcg, idx[:25])
        decompress(zswap, memcg, idx[25:60])
        stats = zswap.stats_for("test-job")
        assert stats.latency_samples_seen == 60
        assert len(stats.decompress_latencies) == 60

    def test_reservoir_is_seeded_deterministic(self):
        from repro.kernel.zsmalloc import ZsmallocArena
        from repro.kernel.zswap import ZswapJobStats

        cap = ZswapJobStats.LATENCY_SAMPLE_CAP
        samples = np.arange(3 * cap, dtype=float)

        def run():
            z = Zswap(ZsmallocArena(), rng=np.random.default_rng(77))
            stats = z.stats_for("j")
            for chunk in np.split(samples, 3):
                z._sample_latencies(stats, chunk)
            return list(stats.decompress_latencies)

        assert run() == run()


class TestCompressionRatio:
    def test_mean_ratio_near_profile_median(self, zswap, rng):
        profile = ContentProfile(
            median_ratio=3.0, sigma=0.2, incompressible_fraction=0.0
        )
        memcg = make_memcg(profile, rng, n=5000)
        idx = memcg.allocate(5000)
        compress(zswap, memcg, idx)
        ratio = zswap.stats_for("job").mean_compression_ratio
        assert 2.5 <= ratio <= 3.5

    def test_no_pages_ratio_zero(self, zswap):
        assert zswap.stats_for("nobody").mean_compression_ratio == 0.0


class TestEviction:
    def test_evict_job_releases_arena(self, zswap, memcg):
        idx = memcg.allocate(20)
        compress(zswap, memcg, idx)
        far = np.flatnonzero(memcg.far_mask())
        zswap.evict_job(memcg.payload_bytes[far])
        assert zswap.arena.live_objects == 0
        # Eviction is not promotion: no promotion stats.
        assert zswap.stats_for("test-job").pages_decompressed == 0
