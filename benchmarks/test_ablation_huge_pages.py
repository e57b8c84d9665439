"""Ablation (§7): cold-detection resolution under huge-page mappings.

The paper notes its promotion-histogram technique "covers both huge and
regular pages (critical for production systems where fragmentation can
limit huge pages)" — unlike Thermostat, which only handles 2 MiB mappings.
The flip side of huge pages is resolution: one hot byte pins an entire
2 MiB mapping hot, hiding its cold remainder.  This bench sweeps the
huge-mapped share of a job and measures how much cold memory remains
*detectable* (and therefore compressible).
"""

from __future__ import annotations

import numpy as np

from repro.analysis import render_table
from repro.core.histograms import default_age_bins
from repro.kernel.compression import ContentProfile
from repro.kernel.oracle import ReferenceMemCg, scan_memcg

PAGES = 8192
HUGE = 512  # 2 MiB mappings
HOT_PAGES_PER_MAPPING = 1


def detectable_cold(huge_fraction: float, seed: int = 5) -> int:
    """Pages idle >= 120 s after 6 scans with one hot page per 2 MiB."""
    rng = np.random.default_rng(seed)
    memcg = ReferenceMemCg(
        "j", PAGES,
        ContentProfile(incompressible_fraction=0.0, min_ratio=1.5),
        default_age_bins(), rng,
    )
    memcg.allocate(PAGES)
    n_groups = int(round(huge_fraction * PAGES / HUGE))
    for g in range(n_groups):
        memcg.map_huge(g * HUGE, pages_per_huge=HUGE)
    scan_memcg(memcg)
    hot = np.arange(0, PAGES, HUGE // HOT_PAGES_PER_MAPPING)
    for _ in range(6):
        memcg.touch(hot)
        scan_memcg(memcg)
    return memcg.cold_pages(120)


def test_ablation_huge_page_resolution(benchmark, save_result):
    fractions = [0.0, 0.25, 0.5, 0.75, 1.0]
    cold_by_fraction = benchmark(
        lambda: [detectable_cold(f) for f in fractions]
    )

    # Detectable cold memory shrinks monotonically as more of the job is
    # huge-mapped; fully-huge jobs with a hot page per mapping expose none.
    assert all(
        a >= b for a, b in zip(cold_by_fraction, cold_by_fraction[1:])
    )
    assert cold_by_fraction[0] > 0.9 * PAGES * (1 - len(
        range(0, PAGES, HUGE)
    ) / PAGES)
    assert cold_by_fraction[-1] == 0

    save_result(
        "ablation_huge_pages",
        render_table(
            ["huge-mapped share", "detectable cold pages",
             "% of job detectable"],
            [
                (f"{f:.0%}", cold,
                 f"{100 * cold / PAGES:.1f}%")
                for f, cold in zip(fractions, cold_by_fraction)
            ],
            title="§7 ablation — huge-page mappings hide cold memory "
            "(one hot page per 2 MiB mapping)",
        ),
    )
