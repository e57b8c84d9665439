"""Machine composition: accounting, fast path, modes, OOM behaviour."""

import pytest

from repro.common.errors import OutOfMemoryError, SimulationError
from repro.common.rng import SeedSequenceFactory
from repro.common.units import MIB, PAGE_SIZE
from repro.kernel.compression import ContentProfile
from repro.kernel.machine import FarMemoryMode, Machine, MachineConfig


def make_machine(mode=FarMemoryMode.PROACTIVE, dram=1 << 30, **kwargs):
    return Machine(
        "m0",
        MachineConfig(dram_bytes=dram, mode=mode, **kwargs),
        seeds=SeedSequenceFactory(5),
    )


COMPRESSIBLE = ContentProfile(incompressible_fraction=0.0, min_ratio=1.5)


class TestAccounting:
    def test_fresh_machine_all_free(self):
        machine = make_machine()
        assert machine.used_bytes == 0
        assert machine.free_bytes == 1 << 30

    def test_allocation_consumes_near_memory(self):
        machine = make_machine()
        machine.add_job("j", 1000)
        machine.allocate("j", 500)
        assert machine.near_bytes == 500 * PAGE_SIZE
        assert machine.free_bytes == (1 << 30) - 500 * PAGE_SIZE

    def test_compression_frees_memory(self):
        machine = make_machine()
        memcg = machine.add_job("j", 1000, COMPRESSIBLE)
        machine.allocate("j", 1000)
        for t in range(0, 481, 60):
            machine.tick(t)
        memcg.cold_age_threshold = 120.0
        machine.run_reclaim()
        assert machine.far_pages == 1000
        assert machine.saved_bytes() > 0
        assert machine.used_bytes < 1000 * PAGE_SIZE

    def test_cold_pages_aggregates_jobs(self):
        machine = make_machine()
        machine.add_job("a", 100, COMPRESSIBLE)
        machine.add_job("b", 100, COMPRESSIBLE)
        machine.allocate("a", 100)
        machine.allocate("b", 50)
        for t in range(0, 361, 60):
            machine.tick(t)
        assert machine.cold_pages(120) == 150


class TestJobLifecycle:
    def test_duplicate_job_rejected(self):
        machine = make_machine()
        machine.add_job("j", 100)
        with pytest.raises(Exception):
            machine.add_job("j", 100)

    def test_remove_unknown_job(self):
        with pytest.raises(SimulationError):
            make_machine().remove_job("ghost")

    def test_remove_job_drops_far_pages(self):
        machine = make_machine()
        memcg = machine.add_job("j", 200, COMPRESSIBLE)
        machine.allocate("j", 200)
        for t in range(0, 481, 60):
            machine.tick(t)
        memcg.cold_age_threshold = 120.0
        machine.run_reclaim()
        assert machine.arena.live_objects > 0
        machine.remove_job("j")
        assert machine.arena.live_objects == 0
        assert machine.used_bytes == machine.arena.footprint_bytes

    def test_touch_promotes_far_pages(self):
        machine = make_machine()
        memcg = machine.add_job("j", 100, COMPRESSIBLE)
        idx = machine.allocate("j", 100)
        for t in range(0, 481, 60):
            machine.tick(t)
        memcg.cold_age_threshold = 120.0
        machine.run_reclaim()
        promoted = machine.touch("j", idx[:10])
        assert promoted == 10
        assert machine.pool.tier_pages([memcg.row])[0, 1] == 90


class TestOutOfMemory:
    def test_proactive_mode_fails_fast(self):
        machine = make_machine(dram=16 * MIB)
        machine.add_job("j", 10000)
        with pytest.raises(OutOfMemoryError):
            machine.allocate("j", 8000)  # > 16 MiB of pages

    def test_reactive_mode_reclaims_instead(self):
        machine = make_machine(mode=FarMemoryMode.REACTIVE, dram=32 * MIB)
        machine.add_job("cold-job", 8000, COMPRESSIBLE)
        machine.allocate("cold-job", 6000)
        for t in range(0, 481, 60):
            machine.tick(t)
        # 6000 of 8192 pages used; a 3000-page allocation forces reclaim.
        machine.add_job("new-job", 3000, COMPRESSIBLE)
        idx = machine.allocate("new-job", 3000)
        assert idx.size == 3000
        assert machine.direct_reclaim.invocations >= 1
        assert machine.direct_reclaim.stall_seconds_total > 0

    def test_reactive_mode_oom_when_nothing_reclaimable(self):
        machine = make_machine(mode=FarMemoryMode.REACTIVE, dram=16 * MIB)
        profile = ContentProfile(incompressible_fraction=1.0)
        machine.add_job("j", 5000, profile)
        machine.allocate("j", 3500)
        machine.add_job("k", 2000, profile)
        with pytest.raises(OutOfMemoryError):
            machine.allocate("k", 2000)


class TestModes:
    def test_off_mode_never_reclaims(self):
        machine = make_machine(mode=FarMemoryMode.OFF)
        memcg = machine.add_job("j", 100, COMPRESSIBLE)
        machine.allocate("j", 100)
        for t in range(0, 481, 60):
            machine.tick(t)
        memcg.cold_age_threshold = 120.0
        assert machine.run_reclaim() == 0
        assert machine.far_pages == 0

    def test_proactive_new_jobs_start_enabled(self):
        machine = make_machine(mode=FarMemoryMode.PROACTIVE)
        memcg = machine.add_job("j", 10)
        assert memcg.zswap_enabled

    def test_reactive_new_jobs_start_disabled(self):
        machine = make_machine(mode=FarMemoryMode.REACTIVE)
        memcg = machine.add_job("j", 10)
        assert not memcg.zswap_enabled


class TestTick:
    def test_time_cannot_go_backwards(self):
        machine = make_machine()
        machine.tick(120)
        with pytest.raises(Exception):
            machine.tick(60)

    def test_scan_runs_on_schedule(self):
        machine = make_machine()
        machine.add_job("j", 10)
        machine.allocate("j", 10)
        for t in range(0, 601, 60):
            machine.tick(t)
        assert machine.kstaled.scans_completed == 6
