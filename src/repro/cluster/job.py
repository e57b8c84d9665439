"""A job instance running on a machine.

Binds a :class:`~repro.workloads.job_generator.JobSpec` to a machine:
allocates the job's pages, instantiates its access pattern, and translates
pattern-space page indices into memcg slot indices on every tick.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.common.rng import SeedSequenceFactory, seed_index
from repro.kernel.machine import Machine
from repro.workloads.job_generator import JobSpec

__all__ = ["RunningJob"]


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
        self.page_map = machine.allocate(spec.job_id, spec.pages)

    @property
    def job_id(self) -> str:
        """The job's fleet-unique name."""
        return self.spec.job_id

    def expired(self, now: int) -> bool:
        """True once the job's lifetime has elapsed."""
        duration = self.spec.duration_seconds
        return duration is not None and now - self.start_time >= duration

    def accesses(
        self, now: int, interval_seconds: int
    ) -> List[Tuple[str, np.ndarray, bool]]:
        """Draw one tick of the access pattern as machine touches.

        Returns ``(job_id, memcg slots, is_write)`` triples for
        :meth:`Machine.touch_jobs`, reads before writes.  The draw uses
        only the job's own RNG and never reads memory state, so a cluster
        may draw every job before any touch runs.
        """
        reads, writes = self.pattern.step(now, interval_seconds, self._drive_rng)
        touches = []
        if reads.size:
            touches.append((self.job_id, self.page_map[reads], False))
        if writes.size:
            touches.append((self.job_id, self.page_map[writes], True))
        return touches

    def stop(self) -> None:
        """Tear the job down on its machine."""
        self.machine.remove_job(self.job_id)
