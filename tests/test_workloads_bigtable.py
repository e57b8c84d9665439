"""The Bigtable-like serving workload (Fig. 10 substrate)."""

import numpy as np
import pytest

from repro.common.rng import SeedSequenceFactory
from repro.common.units import DAY, MIB
from repro.kernel.machine import FarMemoryMode, Machine, MachineConfig
from repro.workloads.bigtable import BigtableApp, BigtableConfig
from tests.pool_pages import write_pages


def make_app(mode=FarMemoryMode.OFF, seed=1, peak_qps=500.0, **config_kwargs):
    config = BigtableConfig(
        cache_pages=4000,
        hot_index_pages=200,
        peak_qps=peak_qps,
        **config_kwargs,
    )
    machine = Machine(
        "m0",
        MachineConfig(dram_bytes=256 * MIB, mode=mode),
        seeds=SeedSequenceFactory(seed),
    )
    rng = np.random.default_rng(seed)
    return BigtableApp("bt", machine, config, rng), machine


class TestSetup:
    def test_allocates_cache_and_index(self):
        app, machine = make_app()
        assert machine.resident_pages == 4200

    def test_diurnal_qps(self):
        app, _ = make_app(diurnal_amplitude=0.6)
        assert app.qps_at(0) == pytest.approx(500.0)
        assert app.qps_at(DAY // 2) == pytest.approx(200.0)


class TestServing:
    def test_step_records_sample(self):
        app, _ = make_app()
        sample = app.step(0, 60)
        assert sample.qps > 0
        assert sample.user_ipc > 0
        assert app.samples == [sample]

    def test_skewed_cache_touches(self):
        app, machine = make_app(peak_qps=50.0, zipf_alpha=1.5)
        memcg = machine.memcgs["bt"]
        # Drop allocation touches.
        write_pages(machine.pool, memcg, "accessed", False)
        for t in range(0, 600, 60):
            app.step(t, 60)
        accessed = machine.pool.row_pages(memcg.row).accessed
        # The Zipf head was touched, the deep tail wasn't.
        head = app._cache_pages[:10]
        tail = app._cache_pages[-1000:]
        assert accessed[head].all()
        assert not accessed[tail].all()

    def test_ipc_near_baseline_without_zswap(self):
        app, _ = make_app(ipc_noise_sigma=0.01)
        samples = [app.step(t, 60) for t in range(0, 1800, 60)]
        mean_ipc = np.mean([s.user_ipc for s in samples])
        assert mean_ipc == pytest.approx(1.2, rel=0.02)

    def test_promotions_zero_without_zswap(self):
        app, _ = make_app(mode=FarMemoryMode.OFF)
        for t in range(0, 1800, 60):
            app.step(t, 60)
        assert all(s.promotions == 0 for s in app.samples)

    def test_coverage_appears_with_zswap(self):
        app, machine = make_app(mode=FarMemoryMode.PROACTIVE, seed=2)
        memcg = machine.memcgs["bt"]
        for t in range(0, 3600, 60):
            app.step(t, 60)
            machine.tick(t)
            # Drive reclaim manually (no node agent in this unit test).
            memcg.cold_age_threshold = 120.0
            machine.run_reclaim()
        assert app.samples[-1].coverage > 0
        assert machine.far_pages > 0

    def test_ipc_degrades_with_stall(self):
        """Promotions consume CPU: IPC proxy must reflect heavy stalls."""
        app, machine = make_app(mode=FarMemoryMode.PROACTIVE, seed=3,
                                ipc_noise_sigma=0.001, cpu_cores=0.05)
        memcg = machine.memcgs["bt"]
        quiet = app.step(0, 60).user_ipc
        for t in range(60, 1800, 60):
            machine.tick(t)
            memcg.cold_age_threshold = 120.0
            machine.run_reclaim()
        # Touch the whole cache: mass promotion, huge stall for 0.05 cores.
        stall_sample = app.step(1800, 60)
        assert stall_sample.promotions > 0
        assert stall_sample.user_ipc < quiet
