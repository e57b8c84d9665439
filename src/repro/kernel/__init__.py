"""Simulated Linux kernel substrate: memcg, kstaled, kreclaimd, zswap,
zsmalloc, direct reclaim, and the machine that composes them (paper §5.1)."""

from repro.kernel.columnar import MachinePagePool
from repro.kernel.compression import (
    DEFAULT_LATENCY_MODEL,
    CompressionLatencyModel,
    ContentProfile,
)
from repro.kernel.direct_reclaim import DirectReclaim
from repro.kernel.kreclaimd import Kreclaimd
from repro.kernel.kstaled import Kstaled
from repro.kernel.machine import FarMemoryMode, Machine, MachineConfig
from repro.kernel.memcg import MemCg, PageState
from repro.kernel.oracle import ScalarPagePool
from repro.kernel.remote import RemoteAccessModel, RemoteMemoryPool
from repro.kernel.zsmalloc import ArenaStats
from repro.kernel.zswap import Zswap, ZswapJobStats

__all__ = [
    "ArenaStats",
    "RemoteAccessModel",
    "RemoteMemoryPool",
    "CompressionLatencyModel",
    "ContentProfile",
    "DEFAULT_LATENCY_MODEL",
    "DirectReclaim",
    "MachinePagePool",
    "FarMemoryMode",
    "Kreclaimd",
    "Kstaled",
    "Machine",
    "MachineConfig",
    "MemCg",
    "PageState",
    "ScalarPagePool",
    "Zswap",
    "ZswapJobStats",
]
