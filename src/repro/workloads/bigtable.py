"""A Bigtable-like serving workload for the Fig. 10 case study.

The paper's application case study A/B-tests zswap on Bigtable: a
petabyte-scale storage system whose serving path keeps an in-memory block
cache and serves millions of ops/s with diurnal load.  The metrics compared
are *cold memory coverage* and *user-level IPC* (instructions per cycle,
excluding kernel work so zswap's own cycles don't pollute the comparison).

:class:`BigtableApp` reproduces the memory-visible behaviour: a block cache
touched by a Zipf-distributed query stream with a strong diurnal swing, plus
a small always-hot index/memtable region, all driven through the standard
:class:`~repro.kernel.machine.Machine` API.  Its user-IPC proxy degrades the
baseline IPC by the fraction of wall time queries spend stalled on zswap
promotions, plus machine-level noise — so if the control plane keeps the
promotion rate at SLO, the A/B IPC delta lands in the noise, as the paper
found.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.common.units import DAY, MIB, PAGE_SIZE
from repro.common.validation import check_fraction, check_positive
from repro.kernel.compression import ContentProfile
from repro.kernel.machine import Machine
from repro.workloads.content import CONTENT_PROFILES

__all__ = ["BigtableConfig", "BigtableMetricSample", "BigtableApp"]


@dataclass(frozen=True)
class BigtableConfig:
    """Parameters of one Bigtable serving instance.

    Attributes:
        cache_pages: block-cache size in pages.
        hot_index_pages: always-hot index/memtable region.
        peak_qps: peak queries per second.
        pages_per_query: cache blocks a query touches.
        zipf_alpha: query-key skew.
        diurnal_amplitude: day/night load swing (0..1).
        write_fraction: queries that dirty a block (compactions, inserts).
        base_ipc: user-level IPC with zswap off.
        ipc_noise_sigma: machine-to-machine IPC noise (relative).
        cpu_cores: serving CPU usage for overhead normalization.
    """

    cache_pages: int = (512 * MIB) // PAGE_SIZE
    hot_index_pages: int = (32 * MIB) // PAGE_SIZE
    peak_qps: float = 1000.0
    pages_per_query: int = 2
    zipf_alpha: float = 1.4
    diurnal_amplitude: float = 0.6
    write_fraction: float = 0.05
    base_ipc: float = 1.2
    ipc_noise_sigma: float = 0.02
    cpu_cores: float = 8.0

    def __post_init__(self) -> None:
        check_positive(self.cache_pages, "cache_pages")
        check_positive(self.hot_index_pages, "hot_index_pages")
        check_positive(self.peak_qps, "peak_qps")
        check_positive(self.pages_per_query, "pages_per_query")
        check_positive(self.zipf_alpha, "zipf_alpha")
        check_fraction(self.diurnal_amplitude, "diurnal_amplitude")
        check_fraction(self.write_fraction, "write_fraction")
        check_positive(self.base_ipc, "base_ipc")
        check_positive(self.cpu_cores, "cpu_cores")


@dataclass(frozen=True)
class BigtableMetricSample:
    """One measurement-interval observation (a point in Fig. 10).

    Attributes:
        time: interval start.
        qps: queries served per second.
        user_ipc: the user-level IPC proxy.
        promotions: zswap promotions during the interval.
        coverage: this instance's cold-memory coverage.
    """

    time: int
    qps: float
    user_ipc: float
    promotions: int
    coverage: float


class BigtableApp:
    """One Bigtable serving instance bound to a machine.

    Args:
        job_id: the job name under which the cache is allocated.
        machine: host machine (zswap on or off per its config).
        config: workload parameters.
        rng: this instance's random stream.
        content_profile: cache-block compressibility (Bigtable blocks are
            mixed application data; defaults to the "mixed" preset).
    """

    def __init__(
        self,
        job_id: str,
        machine: Machine,
        config: BigtableConfig,
        rng: np.random.Generator,
        content_profile: Optional[ContentProfile] = None,
    ):
        self.job_id = job_id
        self.machine = machine
        self.config = config
        self._rng = rng
        profile = (
            content_profile
            if content_profile is not None
            else CONTENT_PROFILES["mixed"]
        )
        total_pages = config.cache_pages + config.hot_index_pages
        machine.add_job(job_id, capacity_pages=total_pages, content_profile=profile)
        indices = machine.allocate(job_id, total_pages)
        self._index_pages = indices[: config.hot_index_pages]
        self._cache_pages = indices[config.hot_index_pages :]
        weights = 1.0 / np.power(
            np.arange(1, self._cache_pages.size + 1, dtype=np.float64),
            config.zipf_alpha,
        )
        self._cdf = np.cumsum(weights / weights.sum())
        self.samples: List[BigtableMetricSample] = []
        self._last_decompress_seconds = 0.0
        self._last_promotions = 0

    def qps_at(self, now: int) -> float:
        """Diurnal query rate at a given time."""
        angle = 2.0 * math.pi * (now % DAY) / DAY
        level = 1.0 - self.config.diurnal_amplitude * 0.5 * (1.0 - math.cos(angle))
        return self.config.peak_qps * level

    def step(self, now: int, interval_seconds: int) -> BigtableMetricSample:
        """Serve one interval of queries and record a metric sample."""
        qps = self.qps_at(now)
        n_queries = int(self._rng.poisson(qps * interval_seconds))
        n_block_reads = n_queries * self.config.pages_per_query
        # Cap raw draws: past ~4x the cache size additional draws only re-touch
        # pages whose accessed bit is already set.
        n_draw = int(min(n_block_reads, 4 * self._cache_pages.size))
        if n_draw > 0:
            picks = np.searchsorted(self._cdf, self._rng.random(n_draw))
            touched = self._cache_pages[np.unique(picks)]
        else:
            touched = np.zeros(0, dtype=np.int64)
        writes = self._rng.random(touched.size) < self.config.write_fraction
        self.machine.touch(self.job_id, touched[~writes], write=False)
        self.machine.touch(self.job_id, touched[writes], write=True)
        # The index/memtable region is on every query's path.
        self.machine.touch(self.job_id, self._index_pages, write=False)

        stats = self.machine.zswap.stats_for(self.job_id)
        stall = stats.decompress_seconds - self._last_decompress_seconds
        self._last_decompress_seconds = stats.decompress_seconds
        promotions = stats.pages_decompressed - self._last_promotions
        self._last_promotions = stats.pages_decompressed

        busy_seconds = interval_seconds * self.config.cpu_cores
        stall_fraction = min(1.0, stall / busy_seconds) if busy_seconds else 0.0
        noise = self._rng.normal(0.0, self.config.ipc_noise_sigma)
        user_ipc = self.config.base_ipc * (1.0 - stall_fraction) * (1.0 + noise)

        rows, pool = [self.machine.memcgs[self.job_id].row], self.machine.pool
        cold = int(pool.cold_pages(self.machine.bins.min_threshold, rows)[0])
        coverage = (int(pool.tier_pages(rows)[0, 1]) / cold) if cold else 0.0

        sample = BigtableMetricSample(
            time=now,
            qps=(n_queries / interval_seconds) if interval_seconds else 0.0,
            user_ipc=user_ipc,
            promotions=promotions,
            coverage=min(1.0, coverage),
        )
        self.samples.append(sample)
        return sample
