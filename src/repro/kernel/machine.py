"""One WSC machine: DRAM + memcgs + kernel daemons (paper §5.1, Fig. 4).

A :class:`Machine` composes the kernel substrate — memcgs, kstaled,
kreclaimd, zswap over a global zsmalloc arena, and reactive direct reclaim
— behind the API the node agent and cluster scheduler use:

* job lifecycle (:meth:`add_job` / :meth:`remove_job`),
* the memory fast path (:meth:`touch`/:meth:`touch_jobs`,
  :meth:`allocate`, :meth:`release`),
* a per-tick :meth:`tick` that runs whichever daemons are due.

Page state lives in a page pool (``MachineConfig.kernel`` picks its
class): a standalone machine owns one, and every machine of a cluster
shares the cluster's.  A pool is swept whole, so the touch, tick, scan
and reclaim are *rounds* over the machines sharing it
(:func:`touch_machines`, :func:`tick_machines`, :func:`scan_machines`,
:func:`reclaim_machines`); a standalone machine, or one job's touch,
runs them on a list of one.

The far-memory *mode* selects the paper's system (``PROACTIVE``), the Linux
default baseline (``REACTIVE``), or no far memory at all (``OFF``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.checks.invariants import check_machine_accounting, invariants_enabled
from repro.common.errors import OutOfMemoryError, SimulationError
from repro.common.events import EventKind, EventLog
from repro.common.rng import SeedSequenceFactory, seed_index
from repro.common.units import KSTALED_SCAN_PERIOD, PAGE_SIZE
from repro.common.validation import check_positive, require
from repro.core.histograms import AgeBins, default_age_bins
from repro.kernel.compression import (
    DEFAULT_LATENCY_MODEL,
    CompressionLatencyModel,
    ContentProfile,
)
from repro.kernel.columnar import MachinePagePool
from repro.kernel.direct_reclaim import DirectReclaim
from repro.kernel.kreclaimd import Kreclaimd, walk_rounds
from repro.kernel.kstaled import Kstaled
from repro.kernel.memcg import MemCg
from repro.kernel.oracle import ScalarPagePool
from repro.kernel.zsmalloc import ZsmallocArena
from repro.kernel.zswap import (
    Zswap,
    ZswapJobStats,
    compress_rounds,
    decompress_rounds,
)
from repro.obs import (
    MetricName,
    MetricRegistry,
    Tracer,
    get_registry,
    get_tracer,
)

__all__ = [
    "FarMemoryMode",
    "MachineConfig",
    "Machine",
    "reclaim_machines",
    "scan_machines",
    "tick_machines",
    "touch_machines",
]

#: ``MachineConfig.kernel`` -> page-pool class.
_POOL_CLASSES = {"columnar": MachinePagePool, "scalar": ScalarPagePool}


class FarMemoryMode(enum.Enum):
    """Which far-memory control plane a machine runs."""

    PROACTIVE = "proactive"  #: the paper's system: kreclaimd + node agent
    REACTIVE = "reactive"  #: stock Linux zswap: direct reclaim only
    OFF = "off"  #: no far memory (control group in A/B tests)


@dataclass(frozen=True)
class MachineConfig:
    """Static machine parameters.

    Attributes:
        dram_bytes: installed DRAM capacity.
        mode: far-memory control plane (see :class:`FarMemoryMode`).
        scan_period: kstaled period in seconds.
        reclaim_watermark_fraction: free-memory fraction below which
            reactive direct reclaim triggers on allocation.
        kreclaimd_pages_per_run: slack-cycle budget per kreclaimd pass.
        latency_model: compression cost model.
        zswap_max_pool_fraction: cap on the arena footprint as a fraction
            of DRAM (0 = uncapped; upstream zswap defaults to 20 %).
        kernel: page-pool class — ``"columnar"`` (pooled arrays, see
            :mod:`repro.kernel.columnar`) or ``"scalar"`` (the reference
            pool of :mod:`repro.kernel.oracle`, for equivalence checks).
            Bit-equivalent by contract.
    """

    dram_bytes: int = 256 << 30
    mode: FarMemoryMode = FarMemoryMode.PROACTIVE
    scan_period: int = KSTALED_SCAN_PERIOD
    reclaim_watermark_fraction: float = 0.02
    kreclaimd_pages_per_run: Optional[int] = None
    latency_model: CompressionLatencyModel = DEFAULT_LATENCY_MODEL
    zswap_max_pool_fraction: float = 0.0
    kernel: str = "columnar"

    def __post_init__(self) -> None:
        check_positive(self.dram_bytes, "dram_bytes")
        check_positive(self.scan_period, "scan_period")
        require(
            self.kernel in _POOL_CLASSES,
            f'kernel must be "scalar" or "columnar", got {self.kernel!r}',
        )
        require(
            0.0 <= self.reclaim_watermark_fraction < 1.0,
            "reclaim_watermark_fraction must be in [0, 1)",
        )
        require(
            0.0 <= self.zswap_max_pool_fraction <= 1.0,
            "zswap_max_pool_fraction must be in [0, 1]",
        )

    def make_pool(self, bins: AgeBins) -> MachinePagePool:
        """A fresh, empty page pool of this config's kernel."""
        return _POOL_CLASSES[self.kernel](bins, self.scan_period)


class Machine:
    """A single server with software-defined far memory.

    Args:
        machine_id: fleet-unique identifier.
        config: static parameters.
        bins: fleet-wide candidate threshold grid.
        seeds: RNG factory (forked per job for payload sampling).
        events: optional shared event log.
        registry: metrics registry, threaded through to the kernel daemons
            with this machine's id as the ``machine`` label (defaults to
            the process-global registry).
        tracer: span tracer for the daemons (defaults to the global one).
        pool: the cluster's page pool, shared by all of its machines;
            omitted, the machine owns a fresh one of ``config.kernel``.
    """

    def __init__(
        self,
        machine_id: str,
        config: MachineConfig,
        bins: Optional[AgeBins] = None,
        seeds: Optional[SeedSequenceFactory] = None,
        events: Optional[EventLog] = None,
        registry: Optional[MetricRegistry] = None,
        tracer: Optional[Tracer] = None,
        pool: Optional[MachinePagePool] = None,
    ):
        self.machine_id = machine_id
        self.config = config
        self.bins = bins if bins is not None else default_age_bins()
        self._seeds = seeds if seeds is not None else SeedSequenceFactory(0)
        self.events = events if events is not None else EventLog(max_events=100_000)
        self.registry = registry if registry is not None else get_registry()
        self.tracer = tracer if tracer is not None else get_tracer()

        self.memcgs: Dict[str, MemCg] = {}
        #: The page pool holding this machine's memcgs (and, in a
        #: cluster, every other machine's).
        self.pool = pool if pool is not None else config.make_pool(self.bins)
        self.arena = ZsmallocArena(machine_id=machine_id,
                                   registry=self.registry,
                                   tracer=self.tracer)
        self.zswap = Zswap(
            self.arena,
            config.latency_model,
            max_pool_bytes=int(
                config.zswap_max_pool_fraction * config.dram_bytes
            ),
            machine_id=machine_id,
            rng=self._seeds.stream("zswap_reservoir"),
            registry=self.registry,
            tracer=self.tracer,
        )
        self.kstaled = Kstaled(config.scan_period, machine_id=machine_id,
                               registry=self.registry)
        self.kreclaimd = Kreclaimd(self.zswap, config.kreclaimd_pages_per_run,
                                   machine_id=machine_id,
                                   registry=self.registry, tracer=self.tracer)
        self.direct_reclaim = DirectReclaim(self.zswap)
        self.now = 0
        self._bind_metrics()

    def _bind_metrics(self) -> None:
        machine_id = self.machine_id
        self._m_promoted = self.registry.counter(
            MetricName.PAGES_PROMOTED_TOTAL,
            "Far pages faulted back to DRAM (promotions).", ("machine",)
        ).labels(machine=machine_id)
        self._g_arena = self.registry.gauge(
            MetricName.ARENA_FOOTPRINT_BYTES,
            "DRAM pinned by the zsmalloc arena.", ("machine",)
        ).labels(machine=machine_id)
        self._g_far = self.registry.gauge(
            MetricName.FAR_PAGES,
            "Pages currently stored compressed.", ("machine",)
        ).labels(machine=machine_id)

    def rebind_observability(self, registry: MetricRegistry,
                             tracer: Tracer) -> None:
        """Re-point this machine (and its daemons) at a new registry/tracer.

        The parallel engine ships clusters across processes by pickle;
        unpickled machines carry their own forked registry copies, so the
        parent re-binds every metric handle to its live registry and
        re-injects the machine-labelled promotion counter into each memcg.
        """
        self.registry = registry
        self.tracer = tracer
        self._bind_metrics()
        for memcg in self.memcgs.values():
            memcg.promoted_counter = self._m_promoted
        self.arena.rebind_observability(registry, tracer)
        self.zswap.rebind_observability(registry, tracer)
        self.kstaled.rebind_observability(registry)
        self.kreclaimd.rebind_observability(registry, tracer)

    # ------------------------------------------------------------------
    # Memory accounting
    # ------------------------------------------------------------------

    def _rows(self) -> List[int]:
        """This machine's pool rows, in job-arrival order."""
        return [m.row for m in pool_memcgs([self])]

    @property
    def near_bytes(self) -> int:
        """DRAM used by uncompressed pages."""
        near = self.pool.tier_pages(self._rows())[:, 0].sum()
        return int(near) * PAGE_SIZE

    @property
    def used_bytes(self) -> int:
        """Total DRAM in use (near pages + arena footprint)."""
        return self.near_bytes + self.arena.footprint_bytes

    @property
    def free_bytes(self) -> int:
        """Uncommitted DRAM."""
        return self.config.dram_bytes - self.used_bytes

    @property
    def far_pages(self) -> int:
        """Pages currently stored compressed, machine-wide."""
        return int(self.pool.tier_pages(self._rows())[:, 1].sum())

    @property
    def resident_pages(self) -> int:
        """Pages resident near or far, machine-wide."""
        return int(self.pool.tier_pages(self._rows()).sum())

    def saved_bytes(self) -> int:
        """DRAM reclaimed by compression: far bytes minus arena footprint."""
        return self.far_pages * PAGE_SIZE - self.arena.footprint_bytes

    def cold_pages(self, threshold_seconds: float) -> int:
        """Machine-wide pages idle at least ``threshold_seconds``."""
        return int(self.pool.cold_pages(threshold_seconds, self._rows()).sum())

    # ------------------------------------------------------------------
    # Job lifecycle
    # ------------------------------------------------------------------

    def add_job(
        self,
        job_id: str,
        capacity_pages: int,
        content_profile: Optional[ContentProfile] = None,
    ) -> MemCg:
        """Create a memcg for a newly scheduled job."""
        require(job_id not in self.memcgs, f"job {job_id} already on machine")
        profile = content_profile if content_profile is not None else ContentProfile()
        memcg = self.pool.add(
            job_id, capacity_pages, profile,
            self._seeds.stream("payload",
                               machine=seed_index(self.machine_id, 16),
                               job=seed_index(job_id, 24)),
        )
        memcg.promoted_counter = self._m_promoted
        # Proactive mode: zswap is enabled per job after warm-up by the node
        # agent; reactive/off modes never run kreclaimd so the flag is moot.
        memcg.zswap_enabled = self.config.mode is FarMemoryMode.PROACTIVE
        self.memcgs[job_id] = memcg
        self.events.record(self.now, EventKind.MACHINE_JOB_ADDED, job=job_id,
                           machine=self.machine_id)
        return memcg

    def remove_job(self, job_id: str) -> ZswapJobStats:
        """Tear down a job's memcg, dropping its far pages from the arena."""
        memcg = self.memcgs.pop(job_id, None)
        if memcg is None:
            raise SimulationError(f"job {job_id} not on machine {self.machine_id}")
        self.zswap.evict_job(
            self.pool.payloads(self.pool.far_slots([memcg.row]))
        )
        self.pool.remove(memcg)
        self.events.record(self.now, EventKind.MACHINE_JOB_REMOVED, job=job_id,
                           machine=self.machine_id)
        return self.zswap.stats_for(job_id)

    # ------------------------------------------------------------------
    # Memory fast path
    # ------------------------------------------------------------------

    def allocate(self, job_id: str, n_pages: int) -> np.ndarray:
        """Allocate pages for a job, reclaiming under pressure.

        In REACTIVE mode a shortfall triggers synchronous direct reclaim
        (the stock-Linux behaviour).  In PROACTIVE mode the paper instead
        prefers failing fast: an unserviceable allocation raises
        :class:`OutOfMemoryError` so the scheduler can evict/reschedule.
        """
        memcg = self._memcg(job_id)
        needed = n_pages * PAGE_SIZE
        watermark = int(
            self.config.dram_bytes * self.config.reclaim_watermark_fraction
        )
        # Compaction moves no page between tiers: near bytes hold until
        # a direct reclaim, and the arena's footprint is a plain read.
        near = self.near_bytes
        free = self.config.dram_bytes - near - self.arena.footprint_bytes
        if free - needed < watermark:
            self.arena.compact()
            free = self.config.dram_bytes - near - self.arena.footprint_bytes
        if (
            free - needed < watermark
            and self.config.mode is FarMemoryMode.REACTIVE
        ):
            freed, stall = self.direct_reclaim.stall(
                self.pool, list(self.memcgs.values()),
                lambda: needed + watermark - self.free_bytes,
            )
            self.events.record(
                self.now, EventKind.MACHINE_DIRECT_RECLAIM, job=job_id,
                freed_bytes=freed, stall_seconds=stall,
            )
            free = self.free_bytes
        if free < needed:
            raise OutOfMemoryError(
                f"machine {self.machine_id}: {n_pages} pages requested, "
                f"{free // PAGE_SIZE} free"
            )
        return self.pool.allocate(memcg.row, n_pages)

    def release(self, job_id: str, indices: np.ndarray) -> None:
        """Free pages, dropping any compressed copies from the arena."""
        far = self.pool.release(self._memcg(job_id).row, indices)
        self.zswap.evict_job(self.pool.payloads(far))

    def touch(self, job_id: str, indices: np.ndarray, write: bool = False) -> int:
        """Access one job's pages; a one-item :meth:`touch_jobs`.

        Returns the number of promotions performed.
        """
        return self.touch_jobs([(job_id, indices, write)])

    def touch_jobs(
        self, touches: Sequence[Tuple[str, np.ndarray, bool]]
    ) -> int:
        """Run page accesses; faults on far pages promote them (a
        :func:`touch_machines` round on a list of one).

        Every read runs before every write, so each job's reads come
        before its writes: a far page faults in the first touch that
        reaches it and is NEAR for every later one.

        Args:
            touches: ``(job_id, page slots, is_write)`` triples.

        Returns:
            The number of promotions performed.
        """
        reads: List[np.ndarray] = []
        writes: List[np.ndarray] = []
        for job_id, indices, write in touches:
            base = int(self.pool.row_base[self._memcg(job_id).row])
            (writes if write else reads).append(
                np.asarray(indices, dtype=np.int64) + base
            )
        return touch_machines([self], _joined(reads), _joined(writes))[0]

    # ------------------------------------------------------------------
    # Daemons
    # ------------------------------------------------------------------

    def tick(self, now: int) -> None:
        """Advance machine time: run kstaled (if due) and set the gauges
        (a :func:`tick_machines` round on a list of one)."""
        tick_machines([self], now)

    def run_reclaim(self) -> int:
        """One kreclaimd pass (proactive mode only); returns pages moved
        (a :func:`reclaim_machines` round on a list of one)."""
        if self.config.mode is not FarMemoryMode.PROACTIVE:
            return 0
        return reclaim_machines([self])[0]

    def _memcg(self, job_id: str) -> MemCg:
        memcg = self.memcgs.get(job_id)
        if memcg is None:
            raise SimulationError(
                f"job {job_id} not on machine {self.machine_id}"
            )
        return memcg


# ----------------------------------------------------------------------
# Kernel rounds over the machines sharing one page pool
# ----------------------------------------------------------------------


def pool_memcgs(machines: Sequence[Machine]) -> List[MemCg]:
    """Every memcg of ``machines``, machine by machine in job-arrival
    order (the order reclaim spends budgets in).  Dicts keep insertion
    order and a cluster crosses the engine whole, so no merge reorders
    it."""
    return [m for mc in machines for m in mc.memcgs.values()]  # repro: noqa[DET003]


def machine_sums(machines: Sequence[Machine],
                 per_row: np.ndarray) -> np.ndarray:
    """Sum a per-pool-row array (1-D or 2-D) over each machine's memcgs:
    one gather in machine-major order, one prefix sum."""
    rows = [m.row for m in pool_memcgs(machines)]
    sizes = [len(machine.memcgs) for machine in machines]
    ends = np.cumsum(sizes)
    prefix = np.zeros((len(rows) + 1,) + per_row.shape[1:], dtype=np.int64)
    np.cumsum(per_row[rows], axis=0, out=prefix[1:])
    return prefix[ends] - prefix[ends - sizes]


def tick_machines(machines: Sequence[Machine],
                  now: int) -> List[List[int]]:
    """Advance every machine of one page pool to ``now``: the kstaled
    round (:func:`scan_machines`), then each machine's gauges.  Returns
    each machine's ``[near, far]`` pages from one pass over the pool; a
    scan moves no page between tiers, so they hold until an eviction."""
    for machine in machines:
        require(now >= machine.now, "time went backwards")
        machine.now = now
    scan_machines(machines, now)
    tiers = machine_sums(machines, machines[0].pool.tier_pages()).tolist()
    checked = invariants_enabled()
    for machine, (_near, far) in zip(machines, tiers):
        machine._g_arena.set(machine.arena.footprint_bytes)
        machine._g_far.set(far)
        if checked:
            check_machine_accounting(machine)
    return tiers


def scan_machines(machines: Sequence[Machine], now: int) -> None:
    """One kstaled round over every machine of one page pool, if due.

    The machines' schedules fall due together (one period, one clock),
    and one ``scan_all`` over all their memcgs equals each machine
    scanning alone: segments are disjoint and each memcg draws from its
    own RNG stream.  Each machine's kstaled books its own pages.
    """
    if not machines[0].kstaled.due(now):
        return
    pool = machines[0].pool
    memcgs = pool_memcgs(machines)
    require(
        all([machine.kstaled.due(now) for machine in machines[1:]])
        and len(memcgs) == pool.memcg_count,
        "a scan round covers every machine of its page pool",
    )
    with machines[0].tracer.span("kstaled.scan", sim_time=now):
        pool.scan_all(memcgs)
    pages = machine_sums(machines, pool.last_scan_row_pages).tolist()
    for machine, scanned in zip(machines, pages):
        machine.kstaled.record_scan(scanned)


def reclaim_machines(machines: Sequence[Machine]) -> List[int]:
    """One kreclaimd round for machines of one page pool; returns the
    pages each machine moved.

    One pooled pass: the pool lists every memcg's candidates in LRU walk
    order (one mask, one ``lexsort``), kreclaimd spends each machine's
    budget along the walk (:func:`~repro.kernel.kreclaimd.walk_rounds`),
    and zswap stores the attempted pages
    (:func:`~repro.kernel.zswap.compress_rounds`).  Per-job stats and
    budgets stay per machine, in walk order; each machine's kreclaimd
    books its own pass.
    """
    if not machines:
        return []
    pool = machines[0].pool
    memcgs = pool_memcgs(machines)
    moved = [0] * len(machines)
    with machines[0].tracer.span("kreclaimd.run"):
        slots, ranks = pool.reclaim_walk(memcgs)
        if slots.size:
            machine_of = np.repeat(np.arange(len(machines)),
                                   [len(machine.memcgs) for machine in machines])
            slots, rounds = walk_rounds(
                [machine.kreclaimd for machine in machines], memcgs,
                machine_of, slots, ranks,
            )
            stored = compress_rounds(pool, slots, [
                (machines[index].zswap, runs) for index, runs in rounds
            ])
            for (index, _runs), pages in zip(rounds, stored):
                moved[index] = pages
    for machine, pages in zip(machines, moved):
        machine.kreclaimd.record(pages)
    return moved


def _joined(parts: List[np.ndarray]) -> np.ndarray:
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


def touch_machines(machines: Sequence[Machine], reads: np.ndarray,
                   writes: np.ndarray) -> List[int]:
    """One tick's page accesses for machines of one page pool; faults on
    far pages promote them.  Returns the pages each machine promoted.

    ``reads`` and ``writes`` are pool slots.  One pool touch pass runs
    every read, then one every write; segments are disjoint, so this is
    each job reading, then writing, on its own.  The faults are grouped
    by ``owner_row`` into ``(memcg, touch)`` pairs -- machine by machine,
    memcgs in arrival order, reads before writes -- and promoted in one
    pass: one payload gather, one pool ``promote``, and zswap's
    accounting (:func:`~repro.kernel.zswap.decompress_rounds`).
    """
    pool = machines[0].pool
    read_far = pool.touch(reads, False)
    far = np.concatenate([read_far, pool.touch(writes, True)])
    promoted = [0] * len(machines)
    if far.size == 0:
        return promoted
    memcgs = pool_memcgs(machines)
    machine_of = np.repeat(np.arange(len(machines)),
                           [len(machine.memcgs) for machine in machines])
    # Pair key: twice the memcg's rank, plus one for writes.
    rank = np.zeros(len(pool.row_memcg), dtype=np.int64)
    rank[[memcg.row for memcg in memcgs]] = np.arange(
        0, 2 * len(memcgs), 2
    )
    key = rank[pool.owner_row[far]]
    key[read_far.size :] += 1
    order = np.argsort(key, kind="stable")
    far = far[order]
    key = key[order]
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    owners = (key[starts] // 2).tolist()
    counts = np.diff(np.append(starts, key.size)).tolist()
    pairs = [(memcgs[owner], count) for owner, count in zip(owners, counts)]

    payloads = pool.payloads(far)
    pool.promote(far, pairs)
    rounds: List[Tuple[Zswap, list]] = []
    for pair, index in zip(pairs, machine_of[owners].tolist()):
        zswap = machines[index].zswap
        if not rounds or rounds[-1][0] is not zswap:
            rounds.append((zswap, []))
        rounds[-1][1].append(pair)
        promoted[index] += pair[1]
    decompress_rounds(rounds, payloads)
    return promoted
