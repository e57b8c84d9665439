"""The zswap pool-size cap (upstream max_pool_percent behaviour)."""

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.common.rng import SeedSequenceFactory
from repro.common.units import MIB, PAGE_SIZE
from repro.core.histograms import default_age_bins
from repro.kernel.compression import ContentProfile
from repro.kernel.machine import Machine, MachineConfig
from repro.kernel.oracle import ReferenceMemCg
from repro.kernel.zsmalloc import ZsmallocArena
from repro.kernel.zswap import Zswap
from tests.pool_pages import compress, decompress


COMPRESSIBLE = ContentProfile(incompressible_fraction=0.0, min_ratio=1.5)


def make_memcg(rng, n=2000):
    return ReferenceMemCg("job", n, COMPRESSIBLE, default_age_bins(), rng)


class TestPoolCap:
    def test_uncapped_by_default(self, rng):
        zswap = Zswap(ZsmallocArena())
        assert not zswap.pool_full()
        memcg = make_memcg(rng)
        idx = memcg.allocate(2000)
        assert compress(zswap, memcg, idx) == 2000

    def test_cap_stops_stores(self, rng):
        zswap = Zswap(ZsmallocArena(), max_pool_bytes=64 * PAGE_SIZE)
        memcg = make_memcg(rng)
        idx = memcg.allocate(2000)
        stored_total = 0
        # Feed batches until the cap bites.
        for start in range(0, 2000, 200):
            stored_total += compress(zswap, memcg, idx[start : start + 200])
        assert zswap.pool_full()
        assert stored_total < 2000
        assert zswap.pool_limit_rejections > 0
        assert zswap.arena.footprint_bytes >= 64 * PAGE_SIZE

    def test_no_cycles_charged_when_full(self, rng):
        zswap = Zswap(ZsmallocArena(), max_pool_bytes=1)
        memcg = make_memcg(rng, 100)
        idx = memcg.allocate(100)
        compress(zswap, memcg, idx[:50])  # fills past the 1-byte cap
        before = zswap.stats_for("job").compress_seconds
        assert compress(zswap, memcg, idx[50:]) == 0
        assert zswap.stats_for("job").compress_seconds == before

    def test_promotions_reopen_the_pool(self, rng):
        zswap = Zswap(ZsmallocArena(), max_pool_bytes=400 * PAGE_SIZE)
        memcg = make_memcg(rng)
        idx = memcg.allocate(2000)
        while not zswap.pool_full():
            remaining = np.flatnonzero(
                memcg.resident & (memcg.state == 0) & ~memcg.incompressible
            )
            if remaining.size == 0:
                break
            compress(zswap, memcg, remaining[:100])
        assert zswap.pool_full()
        far = np.flatnonzero(memcg.far_mask())
        decompress(zswap, memcg, far)
        # Freeing objects leaves holes; the footprint only shrinks once
        # the (agent-triggered) compaction runs.
        zswap.arena.compact()
        assert not zswap.pool_full()


class TestMachinePlumbing:
    def test_machine_config_sets_pool_bytes(self):
        machine = Machine(
            "m",
            MachineConfig(dram_bytes=100 * MIB, zswap_max_pool_fraction=0.2),
            seeds=SeedSequenceFactory(1),
        )
        assert machine.zswap.max_pool_bytes == int(0.2 * 100 * MIB)

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(zswap_max_pool_fraction=1.5)

    def test_capped_machine_limits_far_memory(self):
        config = MachineConfig(dram_bytes=64 * MIB,
                               zswap_max_pool_fraction=0.05)
        machine = Machine("m", config, seeds=SeedSequenceFactory(2))
        memcg = machine.add_job("j", 10_000, COMPRESSIBLE)
        machine.allocate("j", 10_000)
        for t in range(0, 481, 60):
            machine.tick(t)
        memcg.cold_age_threshold = 120.0
        machine.run_reclaim()
        cap = int(0.05 * 64 * MIB)
        # The arena never exceeds the cap by more than one batch overshoot.
        assert machine.arena.footprint_bytes <= cap + 64 * PAGE_SIZE * 4
        assert machine.far_pages < 10_000
