"""zsmalloc arena invariants, including property-based accounting checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SimulationError
from repro.common.units import PAGE_SIZE
from repro.kernel.zsmalloc import (
    OBJECT_METADATA_BYTES,
    SIZE_CLASS_STEP,
    ArenaStats,
    ZsmallocArena,
)


class TestSizeClasses:
    def test_class_rounding(self):
        arena = ZsmallocArena()
        # 100B payload + 16B metadata = 116 -> class 128.
        assert arena.class_bytes_for(100) == 128
        # Exactly on a boundary stays there.
        assert arena.class_bytes_for(SIZE_CLASS_STEP - OBJECT_METADATA_BYTES) == 32

    def test_zero_payload_rejected(self):
        with pytest.raises(Exception):
            ZsmallocArena().class_bytes_for(0)


class TestStoreRelease:
    def test_store_accounts_payload(self):
        arena = ZsmallocArena()
        arena.store(np.array([1000, 1000, 2000]))
        assert arena.live_objects == 3
        assert arena.payload_bytes == 4000
        assert arena.footprint_bytes >= arena.payload_bytes

    def test_release_decrements(self):
        arena = ZsmallocArena()
        arena.store(np.array([1000, 2000]))
        arena.release(np.array([1000]))
        assert arena.live_objects == 1
        assert arena.payload_bytes == 2000

    def test_release_unknown_class_raises(self):
        arena = ZsmallocArena()
        arena.store(np.array([1000]))
        with pytest.raises(SimulationError):
            arena.release(np.array([3000]))

    def test_release_more_than_live_raises(self):
        arena = ZsmallocArena()
        arena.store(np.array([1000]))
        with pytest.raises(SimulationError):
            arena.release(np.array([1000, 1000]))

    def test_holes_reused_by_store(self):
        arena = ZsmallocArena()
        arena.store(np.array([1000] * 10))
        footprint = arena.footprint_bytes
        arena.release(np.array([1000] * 5))
        arena.store(np.array([1000] * 5))
        # Freed slots absorbed the new objects: footprint unchanged.
        assert arena.footprint_bytes == footprint
        assert arena.stats().external_fragmentation_bytes == 0


class TestCompaction:
    def test_compact_releases_hole_bytes(self):
        arena = ZsmallocArena()
        payloads = np.full(200, 1000)
        arena.store(payloads)
        arena.release(payloads[:190])
        stats_before = arena.stats()
        assert stats_before.external_fragmentation_bytes > 0
        released = arena.compact()
        assert released >= 0
        assert arena.stats().external_fragmentation_bytes == 0
        assert arena.compactions == 1

    def test_compact_preserves_live_objects(self):
        arena = ZsmallocArena()
        arena.store(np.array([500] * 50))
        arena.release(np.array([500] * 20))
        arena.compact()
        assert arena.live_objects == 30
        assert arena.payload_bytes == 30 * 500


class TestStats:
    def test_internal_fragmentation(self):
        arena = ZsmallocArena()
        arena.store(np.array([100]))  # class 128: 28B of rounding+metadata
        stats = arena.stats()
        assert stats.internal_fragmentation_bytes == 28
        assert stats.live_objects == 1

    def test_empty_arena(self):
        stats = ZsmallocArena().stats()
        assert stats == ArenaStats(0, 0, 0, 0, 0)


@settings(max_examples=40, deadline=None)
@given(
    payloads=st.lists(
        st.integers(min_value=1, max_value=PAGE_SIZE), min_size=1, max_size=100
    ),
    release_count=st.integers(min_value=0, max_value=100),
)
def test_arena_accounting_invariants(payloads, release_count):
    """Properties that must hold for any store/release sequence:

    * footprint >= payload bytes (compression can't create space),
    * live objects and payload bytes track exactly,
    * full release then compact returns the arena to empty.
    """
    arena = ZsmallocArena()
    payloads = np.array(payloads)
    arena.store(payloads)
    assert arena.live_objects == payloads.size
    assert arena.payload_bytes == payloads.sum()
    assert arena.footprint_bytes >= arena.payload_bytes

    release_count = min(release_count, payloads.size)
    arena.release(payloads[:release_count])
    assert arena.live_objects == payloads.size - release_count
    assert arena.footprint_bytes >= arena.payload_bytes

    arena.release(payloads[release_count:])
    arena.compact()
    assert arena.footprint_bytes == 0
    assert arena.payload_bytes == 0


@settings(max_examples=40, deadline=None)
@given(
    payloads=st.lists(
        st.integers(min_value=1, max_value=PAGE_SIZE), min_size=1, max_size=60
    )
)
def test_compaction_never_loses_data(payloads):
    """Property: compaction changes footprint, never contents."""
    arena = ZsmallocArena()
    payloads = np.array(payloads)
    arena.store(payloads)
    arena.release(payloads[::2])
    live_before = arena.live_objects
    payload_before = arena.payload_bytes
    arena.compact()
    assert arena.live_objects == live_before
    assert arena.payload_bytes == payload_before
