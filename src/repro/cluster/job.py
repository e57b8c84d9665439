"""A job instance running on a machine, and a cluster's job-step plan.

:class:`RunningJob` binds a :class:`~repro.workloads.job_generator.JobSpec`
to a machine: it allocates the job's pages (its whole memcg, so its page
map is the identity, and it keeps none) and instantiates its access
pattern.
:class:`StepPlan` draws one tick of every job's accesses as slots of
their page pool: every Poisson job in one
:class:`~repro.workloads.access_patterns.PoissonDraw`, every other job
through its pattern's own ``step``, offset into the pool.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.common.rng import SeedSequenceFactory, seed_index
from repro.kernel.machine import Machine
from repro.workloads.access_patterns import PoissonDraw, poisson_parts
from repro.workloads.job_generator import JobSpec

__all__ = ["RunningJob", "StepPlan"]


class RunningJob:
    """One placed, running job.

    Args:
        spec: the job description.
        machine: host machine (the memcg must not exist yet).
        seeds: RNG factory; the job uses streams keyed by its id.
        start_time: placement time in seconds.
    """

    def __init__(
        self,
        spec: JobSpec,
        machine: Machine,
        seeds: SeedSequenceFactory,
        start_time: int = 0,
    ):
        self.spec = spec
        self.machine = machine
        self.start_time = int(start_time)
        job_index = seed_index(spec.job_id, 31, absolute=True)
        self._pattern_rng = seeds.stream("pattern", job=job_index)
        self._drive_rng = seeds.stream("drive", job=job_index)
        self.pattern = spec.pattern_factory(self._pattern_rng)

        machine.add_job(
            spec.job_id,
            capacity_pages=spec.pages,
            content_profile=spec.content_profile,
        )
        slots = machine.allocate(spec.job_id, spec.pages)
        #: The memcg slot of each of the job's pages, or None when that is
        #: the identity, as it is for every job placed on a fresh memcg
        #: (the slots ascend, so the last one tells).
        self.page_map: Optional[np.ndarray] = (
            None if slots[-1] == spec.pages - 1 else slots
        )

    @property
    def job_id(self) -> str:
        """The job's fleet-unique name."""
        return self.spec.job_id

    def expired(self, now: int) -> bool:
        """True once the job's lifetime has elapsed."""
        duration = self.spec.duration_seconds
        return duration is not None and now - self.start_time >= duration

    def stop(self) -> None:
        """Tear the job down on its machine."""
        self.machine.remove_job(self.job_id)


class StepPlan:
    """One cluster's job step, cached between ticks.

    Splits the running jobs into *Poisson jobs* -- a
    :class:`~repro.workloads.access_patterns.HeterogeneousPoissonPattern`,
    bare or under diurnal modulation, that keeps no page map --
    which draw together in one :class:`PoissonDraw` over the pool's
    slots, and the rest, which step alone.  It holds each job's drive RNG,
    pattern and segment base, so it is valid for one pool layout and one
    tick interval (:meth:`fits`).

    Args:
        jobs: the running jobs, in ``running`` order.
        pool: their page pool.
        interval_seconds: the tick length.
    """

    def __init__(self, jobs: Iterable[RunningJob], pool,
                 interval_seconds: int):
        self.layout_version = pool.layout_version
        self.interval_seconds = interval_seconds
        poisson = []
        #: ``(job, segment base)`` of every job that steps alone.
        self.others: List[Tuple[RunningJob, int]] = []
        for job in jobs:
            memcg = job.machine.memcgs[job.job_id]
            base = int(pool.row_base[memcg.row])
            parts = poisson_parts(job.pattern)
            if (parts is not None and job.page_map is None
                    and parts[0].n_pages == job.spec.pages):
                poisson.append((job._drive_rng, parts[0], base, parts[1]))
            else:
                self.others.append((job, base))
        self.poisson = PoissonDraw(poisson, interval_seconds)

    def fits(self, pool, interval_seconds: int) -> bool:
        """True while the pool layout and tick interval are the plan's."""
        return (pool.layout_version == self.layout_version
                and interval_seconds == self.interval_seconds)

    def draw(self, now: int, size: int) -> Tuple[np.ndarray, np.ndarray]:
        """Every job's ``(reads, writes)`` for this tick, as pool slots
        (``size`` is the pool's slots in use).  Each job draws on its own
        RNG and never reads memory state, so the order jobs draw in does
        not matter."""
        reads, writes = self.poisson.draw(size, now)
        if not self.others:
            return reads, writes
        read_parts, write_parts = [reads], [writes]
        for job, base in self.others:
            job_reads, job_writes = job.pattern.step(
                now, self.interval_seconds, job._drive_rng
            )
            if job.page_map is not None:
                job_reads = job.page_map[job_reads]
                job_writes = job.page_map[job_writes]
            read_parts.append(job_reads + base)
            write_parts.append(job_writes + base)
        return np.concatenate(read_parts), np.concatenate(write_parts)
