"""Huge pages under the full control plane."""

from repro.agent import NodeAgent
from repro.common.rng import SeedSequenceFactory
from repro.core import ThresholdPolicyConfig
from repro.kernel import ContentProfile, Machine, MachineConfig


COMPRESSIBLE = ContentProfile(incompressible_fraction=0.0, min_ratio=1.5)


def drive(machine, agent, seconds, touch=None):
    start = machine.now
    for t in range(start, start + seconds, 60):
        if touch is not None:
            touch(t)
        machine.tick(t)
        agent.maybe_control(t)


class TestHugePagesEndToEnd:
    def test_idle_huge_mappings_get_compressed(self):
        """A fully idle huge mapping turns cold and is swapped out (the
        split happens automatically on swap-out)."""
        machine = Machine(
            "m", MachineConfig(dram_bytes=1 << 30),
            seeds=SeedSequenceFactory(3),
        )
        agent = NodeAgent(
            machine, ThresholdPolicyConfig(percentile_k=95, warmup_seconds=60)
        )
        row = machine.add_job("j", 2048, COMPRESSIBLE).row
        machine.allocate("j", 2048)
        machine.pool.map_huge(row, 0, pages_per_huge=512)
        drive(machine, agent, 1800)
        assert machine.far_pages > 0
        # The idle mapping was split on swap-out.
        assert (machine.pool.row_pages(row).huge_group[:512] == -1).all()

    def test_hot_huge_mapping_stays_near(self):
        machine = Machine(
            "m", MachineConfig(dram_bytes=1 << 30),
            seeds=SeedSequenceFactory(4),
        )
        agent = NodeAgent(
            machine, ThresholdPolicyConfig(percentile_k=95, warmup_seconds=60)
        )
        row = machine.add_job("j", 2048, COMPRESSIBLE).row
        idx = machine.allocate("j", 2048)
        machine.pool.map_huge(row, 0, pages_per_huge=512)

        def touch(t):
            machine.touch("j", idx[:1])  # one hot page pins the mapping

        drive(machine, agent, 1800, touch)
        # The whole 512-page mapping stayed uncompressed and mapped.
        pages = machine.pool.row_pages(row)
        assert (pages.huge_group[:512] == 0).all()
        assert (pages.state[:512] == 0).all()
        # Base pages elsewhere were compressed normally.
        assert machine.far_pages > 0
