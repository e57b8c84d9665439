"""Cross-module property tests: roundtrips and conservation laws."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.histograms import AgeHistogram, default_age_bins
from repro.kernel.compression import ContentProfile
from repro.kernel.memcg import PageState
from repro.kernel.oracle import ReferenceMemCg, scan_memcg
from repro.kernel.zsmalloc import ZsmallocArena
from repro.kernel.zswap import Zswap
from repro.model.trace import JobTrace, TraceEntry
from tests.pool_pages import compress, decompress


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_pages=st.integers(min_value=1, max_value=300),
    compress_count=st.integers(min_value=0, max_value=300),
)
def test_zswap_compress_decompress_roundtrip(seed, n_pages, compress_count):
    """Property: compress-then-decompress restores exact page state and
    leaves the arena empty, for any page count and subset size."""
    rng = np.random.default_rng(seed)
    memcg = ReferenceMemCg(
        "j", n_pages,
        ContentProfile(incompressible_fraction=0.0, min_ratio=1.5),
        default_age_bins(), rng,
    )
    idx = memcg.allocate(n_pages)
    zswap = Zswap(ZsmallocArena())

    subset = idx[: min(compress_count, n_pages)]
    stored = compress(zswap, memcg, subset)
    far = np.flatnonzero(memcg.far_mask())
    assert far.size == stored

    decompress(zswap, memcg, far)
    assert memcg.far_pages == 0
    assert zswap.arena.live_objects == 0
    assert (memcg.state[idx] == PageState.NEAR).all()
    # Promotion accounting saw exactly the stored pages.
    assert memcg.promoted_pages_total == stored


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    scans=st.integers(min_value=0, max_value=10),
    touch_fraction=st.floats(min_value=0.0, max_value=1.0),
)
def test_scan_conserves_histogram_totals(seed, scans, touch_fraction):
    """Property: after any scan/touch interleaving, the cold-age snapshot
    counts exactly the resident pages and ages stay within the 8-bit cap."""
    rng = np.random.default_rng(seed)
    memcg = ReferenceMemCg("j", 200, ContentProfile(), default_age_bins(), rng)
    idx = memcg.allocate(150)
    for _ in range(scans):
        touched = idx[rng.random(idx.size) < touch_fraction]
        memcg.touch(touched)
        scan_memcg(memcg)
    if scans:
        assert memcg.cold_age_histogram.total == memcg.resident_pages
    assert memcg.age_scans.max() <= 255
    assert (memcg.age_scans >= 0).all()


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_entries=st.integers(min_value=1, max_value=10),
    wss=st.integers(min_value=0, max_value=10_000),
    cpu=st.floats(min_value=0.1, max_value=64.0),
)
def test_trace_entry_roundtrip_property(seed, n_entries, wss, cpu):
    """Property: serialize/deserialize preserves every trace field for
    arbitrary histogram contents."""
    rng = np.random.default_rng(seed)
    bins = default_age_bins()
    trace = JobTrace("job")
    for i in range(n_entries):
        promo = AgeHistogram(bins)
        promo.add_ages(rng.uniform(0, 40_000, size=int(rng.integers(0, 50))))
        cold = AgeHistogram(bins)
        cold.add_ages(rng.uniform(0, 40_000, size=int(rng.integers(0, 200))))
        trace.append(
            TraceEntry(
                job_id="job",
                machine_id=f"m{i}",
                time=i * 300,
                working_set_pages=wss,
                promotion_histogram=promo,
                cold_age_histogram=cold,
                resident_pages=cold.total,
                cpu_cores=cpu,
            )
        )
    rebuilt = JobTrace.from_dicts("job", trace.to_dicts())
    assert len(rebuilt) == len(trace)
    for original, restored in zip(trace.entries, rebuilt.entries):
        assert restored.time == original.time
        assert restored.machine_id == original.machine_id
        assert restored.working_set_pages == original.working_set_pages
        assert restored.cpu_cores == pytest.approx(original.cpu_cores)
        np.testing.assert_array_equal(
            restored.promotion_histogram.counts,
            original.promotion_histogram.counts,
        )
        np.testing.assert_array_equal(
            restored.cold_age_histogram.counts,
            original.cold_age_histogram.counts,
        )


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    incompressible=st.floats(min_value=0.0, max_value=1.0),
)
def test_compression_never_expands_accounting(seed, incompressible):
    """Property: for any compressibility mix, stored payload bytes never
    exceed the uncompressed size of the stored pages."""
    rng = np.random.default_rng(seed)
    memcg = ReferenceMemCg(
        "j", 200,
        ContentProfile(incompressible_fraction=incompressible),
        default_age_bins(), rng,
    )
    idx = memcg.allocate(200)
    zswap = Zswap(ZsmallocArena())
    stored = compress(zswap, memcg, idx)
    assert zswap.arena.payload_bytes <= stored * 4096
    stats = zswap.stats_for("j")
    assert stats.pages_compressed + stats.pages_rejected == 200
    if stored:
        assert stats.mean_compression_ratio > 1.0
