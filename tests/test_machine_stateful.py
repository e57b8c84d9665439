"""Stateful property testing: random op sequences against a Machine.

Hypothesis drives arbitrary interleavings of job lifecycle, page access,
scans, reclaim, and compaction, checking the accounting invariants that
must hold after *every* operation:

* conservation: ``used = near + arena footprint`` and ``free >= 0``;
* every far page is backed by exactly one arena object;
* arena footprint always covers its payload bytes;
* far pages are never unevictable or incompressible;
* the cold-age histogram snapshot counts exactly the resident pages.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.common.errors import OutOfMemoryError
from repro.common.rng import SeedSequenceFactory
from repro.common.units import MIB
from repro.kernel.compression import ContentProfile
from repro.kernel.machine import FarMemoryMode, Machine, MachineConfig


class MachineStateMachine(RuleBasedStateMachine):
    """Random walks over the Machine API."""

    def __init__(self):
        super().__init__()
        self.machine = None
        self.pages = {}  # job_id -> allocated indices
        self.job_counter = 0
        self.time = 0

    @initialize(
        mode=st.sampled_from([FarMemoryMode.PROACTIVE, FarMemoryMode.REACTIVE]),
        pool_fraction=st.sampled_from([0.0, 0.2]),
    )
    def setup(self, mode, pool_fraction):
        self.machine = Machine(
            "fuzz",
            MachineConfig(
                dram_bytes=32 * MIB,
                mode=mode,
                zswap_max_pool_fraction=pool_fraction,
            ),
            seeds=SeedSequenceFactory(99),
        )

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------

    @rule(
        pages=st.integers(min_value=1, max_value=1500),
        incompressible=st.floats(min_value=0.0, max_value=1.0),
    )
    def add_job(self, pages, incompressible):
        job_id = f"job{self.job_counter}"
        self.job_counter += 1
        profile = ContentProfile(incompressible_fraction=incompressible)
        self.machine.add_job(job_id, pages, profile)
        try:
            self.pages[job_id] = self.machine.allocate(job_id, pages)
        except OutOfMemoryError:
            self.machine.remove_job(job_id)

    @precondition(lambda self: self.pages)
    @rule(data=st.data())
    def remove_job(self, data):
        job_id = data.draw(st.sampled_from(sorted(self.pages)))
        self.machine.remove_job(job_id)
        del self.pages[job_id]

    @precondition(lambda self: self.pages)
    @rule(data=st.data(), fraction=st.floats(min_value=0.0, max_value=1.0),
          write=st.booleans())
    def touch(self, data, fraction, write):
        job_id = data.draw(st.sampled_from(sorted(self.pages)))
        indices = self.pages[job_id]
        count = int(fraction * indices.size)
        if count:
            self.machine.touch(job_id, indices[:count], write=write)

    @precondition(lambda self: self.pages)
    @rule(data=st.data())
    def release_half(self, data):
        job_id = data.draw(st.sampled_from(sorted(self.pages)))
        indices = self.pages[job_id]
        if indices.size < 2:
            return
        half = indices[: indices.size // 2]
        self.machine.release(job_id, half)
        self.pages[job_id] = indices[indices.size // 2 :]

    @rule(ticks=st.integers(min_value=1, max_value=5))
    def advance_time(self, ticks):
        for _ in range(ticks):
            self.time += 60
            self.machine.tick(self.time)

    @precondition(lambda self: self.pages)
    @rule(data=st.data(),
          threshold=st.sampled_from([120.0, 480.0, 3840.0, float("inf")]))
    def set_threshold_and_reclaim(self, data, threshold):
        job_id = data.draw(st.sampled_from(sorted(self.pages)))
        self.machine.memcgs[job_id].cold_age_threshold = threshold
        self.machine.run_reclaim()

    @rule()
    def compact(self):
        self.machine.arena.compact()

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------

    @invariant()
    def accounting_conserved(self):
        if self.machine is None:
            return
        machine = self.machine
        assert machine.used_bytes == (
            machine.near_bytes + machine.arena.footprint_bytes
        )
        assert machine.free_bytes >= 0

    @invariant()
    def far_pages_backed_by_arena(self):
        if self.machine is None:
            return
        assert self.machine.far_pages == self.machine.arena.live_objects

    @invariant()
    def arena_covers_payload(self):
        if self.machine is None:
            return
        stats = self.machine.arena.stats()
        assert stats.footprint_bytes >= stats.payload_bytes
        assert stats.payload_bytes >= 0

    @invariant()
    def far_page_state_sane(self):
        if self.machine is None:
            return
        for memcg in self.machine.memcgs.values():
            pages = self.machine.pool.row_pages(memcg.row)
            far = pages.state == 1
            assert pages.resident[far].all()
            assert not pages.incompressible[far].any()
            assert (
                pages.payload_bytes[far] <= self.machine.zswap.max_payload_bytes
            ).all()


MachineStateMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestMachineStateful = MachineStateMachine.TestCase
