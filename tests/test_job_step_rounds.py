"""The job step as two cluster rounds, held to stepping each job alone.

``Cluster._step_jobs`` draws every job's accesses in one round
(:class:`~repro.cluster.job.StepPlan`: every Poisson job into one
pool-slot mask, every other job through its own ``step``) and touches
them in one round (:func:`~repro.kernel.machine.touch_machines`).  The
RNG contract: each job's reads and writes, as memcg slots, and its drive
stream's state after the tick equal those of ``pattern.step`` run alone
on a copy of the job's pattern and stream.  Here that oracle runs on
every tick of a mixed job set, and of a run whose pool layout keeps
changing (churn, a machine failure and repair, a pressure eviction), so
a stale plan would show.
"""

import copy
import dataclasses

import numpy as np
import pytest

import repro.cluster.cluster as cluster_module
from repro.cluster.cluster import Cluster
from repro.common.rng import SeedSequenceFactory
from repro.common.units import MIB
from repro.kernel.compression import ContentProfile
from repro.kernel.machine import FarMemoryMode, MachineConfig
from repro.obs import MetricRegistry, Tracer
from repro.workloads.access_patterns import (
    DiurnalModulation,
    HeterogeneousPoissonPattern,
    PhasedPattern,
    ScanPattern,
    ZipfianPattern,
    make_rates_for_cold_fraction,
)
from repro.workloads.job_generator import JobSpec
from tests.pool_pages import store_pages
from tests.test_batched_job_step import OverlappingWritesPattern

_PROFILE = ContentProfile(incompressible_fraction=0.1, min_ratio=2.0)


def _poisson(pages, rng):
    return HeterogeneousPoissonPattern(
        make_rates_for_cold_fraction(pages, 0.4, rng)
    )


#: Pattern styles; the diurnal phase puts every tick of these runs below
#: full activity, and a zero amplitude holds it at exactly full.
STYLES = ("poisson", "diurnal-full", "diurnal", "zipf", "phased", "scan",
          "overlapping")


@dataclasses.dataclass(frozen=True)
class _Factory:
    """A picklable pattern factory for one style."""

    style: str
    pages: int

    def __call__(self, rng):
        pages = self.pages
        if self.style == "diurnal-full":
            return DiurnalModulation(_poisson(pages, rng), amplitude=0.0)
        if self.style == "diurnal":
            return DiurnalModulation(_poisson(pages, rng), amplitude=0.6,
                                     phase_seconds=6 * 3600)
        if self.style == "zipf":
            return ZipfianPattern(pages, pages / 100.0)
        if self.style == "phased":
            return PhasedPattern(pages, phase_seconds=600)
        if self.style == "scan":
            return ScanPattern(pages, 600, 120)
        if self.style == "overlapping":
            return OverlappingWritesPattern(pages)
        return _poisson(pages, rng)


def _spec(job_id, pages, priority=1, duration=None):
    """A job whose style is its id up to the ``#``."""
    return JobSpec(
        job_id=job_id, pages=pages, cpu_cores=1.0, priority=priority,
        content_profile=_PROFILE,
        pattern_factory=_Factory(job_id.split("#")[0], pages),
        duration_seconds=duration,
    )


def _cluster(machines, dram, overcommit=0.0, placement="best_fit"):
    config = MachineConfig(dram_bytes=dram, mode=FarMemoryMode.PROACTIVE,
                           scan_period=120)
    return Cluster("c", machines, config, SeedSequenceFactory(21),
                   overcommit=overcommit, placement=placement,
                   registry=MetricRegistry(), tracer=Tracer())


def _poisson_step_by_hand(pattern, now, interval, rng, level=1.0):
    """The Poisson step before the rounds: ``random(n)`` for the touches,
    then one ``random(2k)`` for the write and keep splits."""
    while isinstance(pattern, DiurnalModulation):
        level *= pattern.activity_level(now)
        pattern = pattern.inner
    prob = -np.expm1(-pattern.rates * interval)
    touched = np.flatnonzero(rng.random(pattern.n_pages) < prob)
    k = touched.size
    if level >= 1.0:
        return touched, touched[rng.random(k) < pattern.write_fraction]
    draws = rng.random(2 * k)
    keep = draws[k:] < level
    return touched[keep], touched[(draws[:k] < pattern.write_fraction) & keep]


class _Oracle:
    """Checks every job step of a cluster against stepping each job alone.

    Wraps ``Cluster._step_jobs``: before it runs, copies every running
    job's pattern and drive stream; after, steps each copy alone and
    compares its slots (picked out of the round's pool-slot arrays by the
    job's segment) and its stream state.
    """

    def __init__(self, monkeypatch):
        self.ticks = 0
        self.plans = 0
        self.styles = set()
        real_step = Cluster._step_jobs
        real_touch = cluster_module.touch_machines
        captured = {}

        def spy_touch(machines, reads, writes):
            captured["slots"] = reads.copy(), writes.copy()
            return real_touch(machines, reads, writes)

        def checked_step(cluster, now):
            before = {
                job_id: copy.deepcopy((job.pattern, job._drive_rng))
                for job_id, job in cluster.running.items()
            }
            plan = cluster._step_plan
            real_step(cluster, now)
            self.plans += cluster._step_plan is not plan
            self._check(cluster, now, before, captured.pop("slots"))

        monkeypatch.setattr(cluster_module, "touch_machines", spy_touch)
        monkeypatch.setattr(Cluster, "_step_jobs", checked_step)

    def _check(self, cluster, now, before, slots):
        interval = cluster.clock.tick_seconds
        for job_id, job in cluster.running.items():
            pattern, rng = before[job_id]
            hand = None
            if isinstance(pattern, (DiurnalModulation,
                                    HeterogeneousPoissonPattern)):
                hand = _poisson_step_by_hand(
                    copy.deepcopy(pattern), now, interval,
                    copy.deepcopy(rng))
            alone = pattern.step(now, interval, rng)
            if hand is not None:
                assert [a.tolist() for a in hand] == [
                    a.tolist() for a in alone]
            memcg = job.machine.memcgs[job_id]
            base = int(cluster.pool.row_base[memcg.row])
            for got, want in zip(slots, alone):
                mine = got[(got >= base) & (got < base + memcg.capacity_pages)]
                if job.page_map is not None:
                    want = job.page_map[want]
                assert (mine - base).tolist() == want.tolist(), (
                    f"{job_id} at t={now}")
            assert (job._drive_rng.bit_generator.state
                    == rng.bit_generator.state), f"{job_id} at t={now}"
            self.styles.add(job_id.split("#")[0])
        self.ticks += 1


def test_round_draws_equal_each_job_stepped_alone(monkeypatch):
    oracle = _Oracle(monkeypatch)
    cluster = _cluster(machines=3, dram=64 * MIB, placement="spread")
    styles = STYLES + ("poisson-remapped",)
    for i, style in enumerate(styles):
        cluster.submit(_spec(f"{style}#{i}", pages=96 + 8 * i))
    # Only the remapped job keeps a page map, and a non-identity one
    # sends a Poisson job down the step path.
    assert all(job.page_map is None for job in cluster.running.values())
    remapped = cluster.running[f"poisson-remapped#{len(STYLES)}"]
    remapped.page_map = np.arange(remapped.spec.pages)[::-1].copy()
    assert len({job.machine for job in cluster.running.values()}) == 3

    cluster.run(40 * 60)
    assert oracle.ticks == 40
    assert oracle.styles == set(styles)
    assert oracle.plans == 1
    assert sorted(job.job_id for job, _base in cluster._step_plan.others) == (
        sorted(f"{style}#{i}" for i, style in enumerate(styles)
               if style in ("zipf", "phased", "scan", "overlapping",
                            "poisson-remapped"))
    )
    promoted = cluster.registry.get("repro_pages_promoted_total")
    assert sum(s.value for _labels, s in promoted.series()) > 0


def test_plan_follows_every_layout_change(monkeypatch):
    """Churn, a machine failure and repair, and a pressure eviction each
    move segments; every tick after them still matches the oracle."""
    oracle = _Oracle(monkeypatch)
    cluster = _cluster(machines=3, dram=4 * MIB, overcommit=1.0,
                       placement="spread")
    styles = ["poisson", "diurnal", "zipf", "poisson", "overlapping"]
    counter = iter(range(10**6))

    def next_job():
        i = next(counter)
        return _spec(f"{styles[i % len(styles)]}#{i}",
                     pages=64 + 16 * (i % 4), priority=1 + i % 3,
                     duration=240 + 60 * (i % 5))

    cluster.enable_churn(next_job, 6)
    cluster.run(10 * 60)
    layouts = [cluster.pool.layout_version]

    victim = cluster.machines[1].machine_id
    assert cluster.scheduler.jobs_on(victim)
    cluster.fail_machine(victim)
    cluster.run(5 * 60)
    cluster.repair_machine(victim)
    cluster.run(5 * 60)
    layouts.append(cluster.pool.layout_version)

    # Overload one machine: empty it, place a job and push most of its
    # pages far, admit another on the room that frees, then fault every
    # far page back in.  The other machines are closed meanwhile, so
    # both land here.
    machine = cluster.machines[0]
    others = [m.machine_id for m in cluster.machines[1:]]
    for job_id in list(cluster.scheduler.jobs_on(machine.machine_id)):
        cluster.finish(job_id)
    for machine_id in others:
        cluster.scheduler.mark_offline(machine_id)
    cluster.submit(_spec("poisson#big", 700, priority=0))
    store_pages(machine, machine.memcgs["poisson#big"], np.arange(650))
    cluster.submit(_spec("zipf#filler", 500, priority=5))
    for machine_id in others:
        cluster.scheduler.mark_online(machine_id)
    assert {"poisson#big", "zipf#filler"} <= set(machine.memcgs)
    machine.touch("poisson#big", np.arange(700))
    assert machine.free_bytes < 0
    evictions = cluster.scheduler.evictions_total
    cluster.run(10 * 60)
    assert cluster.scheduler.evictions_total > evictions
    assert "poisson#big" not in cluster.running
    layouts.append(cluster.pool.layout_version)

    assert oracle.ticks == 30
    assert layouts[0] < layouts[1] < layouts[2]
    assert oracle.plans > 5
    assert {"poisson", "diurnal", "zipf", "overlapping"} <= oracle.styles


@pytest.mark.parametrize("kernel", ["scalar", "columnar"])
def test_step_plan_is_dropped_on_pickle(kernel):
    import pickle

    config = MachineConfig(dram_bytes=64 * MIB, kernel=kernel)
    cluster = Cluster("c", 2, config, SeedSequenceFactory(3),
                      registry=MetricRegistry(), tracer=Tracer())
    for i in range(3):
        cluster.submit(_spec(f"poisson#{i}", 64))
    cluster.run(120)
    assert cluster._step_plan is not None
    shipped = pickle.loads(pickle.dumps(cluster))
    assert shipped._step_plan is None
    assert cluster._step_plan is not None
    shipped.run(120)
    cluster.run(120)
    assert shipped.machines[0].kstaled.pages_scanned == (
        cluster.machines[0].kstaled.pages_scanned)
    assert [
        (m.far_pages, [m.pool.row_pages(c.row).accessed.tobytes()
                       for c in m.memcgs.values()])
        for m in shipped.machines
    ] == [
        (m.far_pages, [m.pool.row_pages(c.row).accessed.tobytes()
                       for c in m.memcgs.values()])
        for m in cluster.machines
    ]
