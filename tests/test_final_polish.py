"""Last-mile edge cases across the public API."""

import pytest

from repro import __version__
from repro.agent.monitoring import SliWindow
from repro.analysis import render_table
from repro.common.rng import SeedSequenceFactory
from repro.common.units import MIB
from repro.kernel import (
    Machine,
    MachineConfig,
    RemoteMemoryPool,
)


class TestPublicApi:
    def test_version_string(self):
        assert __version__.count(".") == 2

    def test_top_level_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_kernel_exports_resolve(self):
        import repro.kernel as kernel

        for name in kernel.__all__:
            assert getattr(kernel, name) is not None


class TestEdgeCases:
    def test_machine_saved_bytes_zero_when_empty(self):
        machine = Machine(
            "m", MachineConfig(dram_bytes=16 * MIB),
            seeds=SeedSequenceFactory(1),
        )
        assert machine.saved_bytes() == 0
        assert machine.cold_pages(120) == 0

    def test_sli_window_empty_extend(self):
        window = SliWindow()
        window.extend([])
        assert len(window) == 0
        assert window.violation_fraction(0.2) == 0.0

    def test_render_table_handles_mixed_types(self):
        out = render_table(["a", "b"], [(None, 1.5), (True, "x")])
        assert "None" in out and "True" in out

    def test_remote_pool_unknown_host_rejected(self, rng):
        pool = RemoteMemoryPool(["a", "b"], rng)
        with pytest.raises(Exception):
            pool.place_far_pages("j", "ghost", 10)
