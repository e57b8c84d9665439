"""The batched job step: one touch batch and one promotion pass per
machine per tick, bit-identical to stepping jobs one at a time.

``Cluster.tick`` draws every job's accesses first, then hands each
machine its jobs' touches as one :meth:`Machine.touch_jobs` batch.  The
contract is the old per-job sequence — per job, touch the reads, promote
their far pages, touch the writes, promote theirs — so a page a job's
read promotes is NEAR when its write is evaluated and is promoted once.
The access pattern here writes pages it does not read, so far pages sit
in the reads only, the writes only, and both.
"""

import dataclasses

import numpy as np
import pytest

from repro.cluster.wsc import quickfleet
from repro.common.rng import SeedSequenceFactory
from repro.common.units import MIB, PAGE_SIZE
from repro.core.histograms import default_age_bins
from repro.kernel.columnar import MachinePagePool
from repro.kernel.compression import ContentProfile
from repro.kernel.machine import FarMemoryMode, Machine, MachineConfig
from repro.kernel.memcg import PageState
from repro.kernel.zswap import ZswapJobStats
from repro.obs import MetricRegistry, Tracer
from repro.workloads.access_patterns import AccessPattern
from repro.workloads.job_generator import FleetMixGenerator
from tests.pool_pages import store_pages, write_pages

_PROFILE = ContentProfile(incompressible_fraction=0.1, min_ratio=1.3)
_JOB_PAGES = 96


class OverlappingWritesPattern(AccessPattern):
    """Independent read and write draws: writes are not a subset of reads.

    A hot head is read almost every tick; every other page is read or
    written rarely, so it turns cold, gets reclaimed, and faults back in
    through either kind of access.
    """

    def step(self, now, interval_seconds, rng):
        n = self.n_pages
        read_prob = np.full(n, 0.03)
        read_prob[: n // 8] = 0.9
        reads = np.flatnonzero(rng.random(n) < read_prob)
        writes = np.flatnonzero(rng.random(n) < 0.03)
        return reads, writes


def _machine(kernel, seed, pool=None, name="m0"):
    config = MachineConfig(
        dram_bytes=64 * MIB, mode=FarMemoryMode.PROACTIVE, kernel=kernel,
        scan_period=60,
    )
    return Machine(name, config, seeds=SeedSequenceFactory(seed),
                   registry=MetricRegistry(), tracer=Tracer(), pool=pool)


def _populate(machine, n_jobs, rng):
    """Jobs with a random share of their pages pushed to far memory."""
    for j in range(n_jobs):
        job = f"job-{j}"
        machine.add_job(job, _JOB_PAGES, _PROFILE)
        slots = machine.allocate(job, _JOB_PAGES)
        memcg = machine.memcgs[job]
        write_pages(machine.pool, memcg, "age_scans",
                    rng.integers(0, 40, slots.size), slots)
        far = np.sort(rng.choice(slots, size=_JOB_PAGES // 2, replace=False))
        store_pages(machine, memcg, far)


def _touches(rng, n_jobs):
    """One tick of accesses per job: reads, then writes that overlap the
    reads only partly."""
    touches = []
    for j in range(n_jobs):
        reads = np.sort(rng.choice(_JOB_PAGES, size=40, replace=False))
        writes = np.sort(np.concatenate([
            reads[:10],
            rng.choice(np.setdiff1d(np.arange(_JOB_PAGES), reads), size=10,
                       replace=False),
        ]))
        touches += [(f"job-{j}", reads, False), (f"job-{j}", writes, True)]
    return touches


def _far(machine, memcg):
    """A memcg's far-page mask, read from its pool row."""
    pages = machine.pool.row_pages(memcg.row)
    return pages.resident & (pages.state == PageState.FAR)


def _per_job_sequence(machine, touches):
    """The pre-batching step on the scalar kernel: touch, then decompress
    (arena release, tier flip, promotion record, latency accounting), one
    touch at a time."""
    zswap = machine.zswap
    for job_id, slots, write in touches:
        memcg = machine.memcgs[job_id]
        far = memcg.touch(slots, write=write)
        if not far.size:
            continue
        payloads = memcg.payload_bytes[far]
        zswap.arena.release(payloads)
        memcg.mark_near(far)
        memcg.record_promotions(far)
        latencies = zswap.latency_model.decompress_seconds(payloads)
        stats = zswap.stats_for(job_id)
        stats.pages_decompressed += int(far.size)
        total = float(latencies.sum())
        stats.decompress_seconds += total
        zswap._m_decompress_cpu.inc(total)
        zswap._sample_latencies(stats, latencies)


def _state(machine):
    jobs = {}
    for job_id, memcg in machine.memcgs.items():
        stats = machine.zswap.stats_for(job_id)
        pages = machine.pool.row_pages(memcg.row)
        jobs[job_id] = (
            tuple(np.asarray(getattr(pages, attr), np.int64).tobytes()
                  for attr in ("resident", "age_scans", "accessed", "state",
                               "dirtied", "payload_bytes", "lru_active")),
            memcg.promotion_histogram.counts.tobytes(),
            memcg.promotion_histogram.young_count,
            memcg.promoted_pages_total,
            stats.pages_decompressed,
            stats.decompress_seconds,
            tuple(stats.decompress_latencies),
            stats.latency_samples_seen,
        )
    registry = machine.registry
    return (
        jobs,
        machine.arena.stats(),
        machine.zswap._rng.bit_generator.state["state"],
        registry.value("repro_pages_promoted_total"),
        registry.value("repro_decompress_cpu_seconds_total"),
    )


@pytest.fixture
def small_reservoir(monkeypatch):
    """Cap the latency reservoirs low so the RNG replacement path runs."""
    monkeypatch.setattr(ZswapJobStats, "LATENCY_SAMPLE_CAP", 16)


@pytest.mark.usefixtures("small_reservoir")
class TestBatchEqualsPerJobSequence:
    N_JOBS = 4

    def _pair(self, kernel, shared):
        """The machine under test and its scalar twin (same seeds, same
        jobs, same far pages)."""
        pool = MachinePagePool(default_age_bins(), 60) if shared else None
        batched = _machine(kernel, 1, pool)
        if pool is None:
            _populate(batched, self.N_JOBS, np.random.default_rng(1))
        else:
            # A second machine on the shared pool owns the segments before
            # and after this machine's.
            other = _machine(kernel, 9, pool, "other")
            _populate(other, 2, np.random.default_rng(9))
            _populate(batched, self.N_JOBS, np.random.default_rng(1))
            other.add_job("tail", _JOB_PAGES, _PROFILE)
            other.allocate("tail", _JOB_PAGES)
        sequential = _machine("scalar", 1)
        _populate(sequential, self.N_JOBS, np.random.default_rng(1))
        return batched, sequential

    @pytest.mark.parametrize("kernel, shared", [
        ("scalar", False), ("columnar", False), ("columnar", True),
    ])
    def test_batched_touches_match_the_per_job_sequence(self, kernel, shared):
        batched, sequential = self._pair(kernel, shared)
        rng = np.random.default_rng(7)
        for _ in range(5):
            touches = _touches(rng, self.N_JOBS)
            far_before = {
                job: _far(batched, memcg)
                for job, memcg in batched.memcgs.items()
            }
            promoted = batched.touch_jobs(touches)
            _per_job_sequence(sequential, touches)
            assert _state(batched) == _state(sequential)

            # Every far page touched is promoted exactly once.
            left_far = sum(
                int((far_before[job] & ~_far(batched, memcg)).sum())
                for job, memcg in batched.memcgs.items()
            )
            assert promoted == left_far > 0
            for job_id, slots, _write in touches:
                assert not _far(batched, batched.memcgs[job_id])[slots].any()
            # Re-compress some pages so the next round faults again.
            for job, memcg in batched.memcgs.items():
                pages = batched.pool.row_pages(memcg.row)
                near = np.flatnonzero(
                    pages.resident & (pages.state == PageState.NEAR)
                    & ~pages.incompressible
                )[::3]
                store_pages(batched, memcg, near)
                store_pages(sequential, sequential.memcgs[job], near)

    def test_read_and_write_of_one_far_page_promote_it_once(self):
        machine = _machine("columnar", 3)
        _populate(machine, 1, np.random.default_rng(3))
        memcg = machine.memcgs["job-0"]
        far = np.flatnonzero(_far(machine, memcg))[:4]
        promoted = machine.touch_jobs(
            [("job-0", far, False), ("job-0", far[::-1], True)]
        )
        assert promoted == far.size
        assert memcg.promoted_pages_total == far.size
        assert machine.zswap.stats_for("job-0").pages_decompressed == far.size
        assert machine.pool.row_pages(memcg.row).dirtied[far].all()


def _fleet(kernel):
    fleet = quickfleet(
        clusters=1, machines_per_cluster=2, jobs_per_machine=3, seed=5,
        machine_dram_gib=0.25,
        job_pages_range=((1 * MIB) // PAGE_SIZE, (2 * MIB) // PAGE_SIZE),
        kernel=kernel, scan_period=60,
        churn_duration_range=(1800, 5400),
        registry=MetricRegistry(), tracer=Tracer(),
    )
    cluster = fleet.clusters[0]
    for job in cluster.running.values():
        job.pattern = OverlappingWritesPattern(job.pattern.n_pages)
    generator = FleetMixGenerator(
        seeds=SeedSequenceFactory(6), min_pages=(1 * MIB) // PAGE_SIZE,
        max_pages=(2 * MIB) // PAGE_SIZE, duration_range=(1800, 5400),
        name_prefix="churn",
    )

    def next_job():
        spec = generator.next_job()
        return dataclasses.replace(
            spec,
            pattern_factory=lambda rng: OverlappingWritesPattern(spec.pages),
        )

    cluster.enable_churn(next_job, len(cluster.running))
    return fleet


def test_backends_agree_over_a_churning_run(monkeypatch):
    # The pools are compared only with each other below, so a job-step
    # fault common to both would pass that; the per-job oracle also
    # holds every tick of both runs to stepping each job alone.
    from tests.test_job_step_rounds import _Oracle

    oracle = _Oracle(monkeypatch)
    snapshots = []
    ticks = 0
    for kernel in ("scalar", "columnar"):
        fleet = _fleet(kernel)
        fleet.run(7200)
        ticks += 7200 // fleet.clusters[0].clock.tick_seconds
        machines = fleet.clusters[0].machines
        snapshots.append((
            fleet.coverage_report(),
            [(s.job_id, s.time, s.promotions, s.threshold)
             for s in fleet.sli_history],
            [sorted(
                (job, stats.pages_decompressed, stats.decompress_seconds,
                 tuple(stats.decompress_latencies))
                for job, stats in machine.zswap.job_stats.items()
            ) for machine in machines],
            [machine.arena.stats() for machine in machines],
            [sorted(
                (job, *[
                    getattr(machine.pool.row_pages(memcg.row), column)
                    .astype(np.int64).tobytes()
                    for column in ("age_scans", "state", "payload_bytes")
                ],
                 memcg.promotion_histogram.counts.tobytes(),
                 memcg.promotion_histogram.young_count,
                 memcg.cold_age_histogram.counts.tobytes(),
                 memcg.cold_age_histogram.young_count,
                 memcg.promoted_pages_total)
                for job, memcg in machine.memcgs.items()
            ) for machine in machines],
            [(machine.kstaled.pages_scanned, machine.registry.get(
                "repro_far_pages").labels(machine=machine.machine_id).value)
             for machine in machines],
        ))
    assert sum(
        memcg[-1] for machine in snapshots[0][4] for memcg in machine
    ) > 0
    assert any(job.startswith("churn") for job, *_ in snapshots[0][2][0])
    assert any(far for _scanned, far in snapshots[0][5])
    assert oracle.ticks == ticks
    assert snapshots[1] == snapshots[0]
