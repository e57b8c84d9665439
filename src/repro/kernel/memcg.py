"""Memory cgroups: the per-job handle on a page pool row (paper §5.1).

Jobs are isolated in memcgs.  A job's pages live in its machine's page
pool (:mod:`repro.kernel.columnar`), one *row* per memcg: a segment of
page slots whose per-page columns (:class:`PageColumns`) are the
simulator's ``struct page``.  The pool owns and mutates every page;
page operations address it by row (``pool.allocate(memcg.row, n)``) or
by pool slot.  :class:`MemCg` is what the layers above see of one row,
the kernel's memcg interface: the job id, capacity, content profile and
payload stream, the knobs the node agent sets (cold-age threshold,
zswap gate, soft limit), the SLI counters, and the two kernel-exported
histograms, read from the pool's rows when accessed.  It holds no
per-page state.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Optional, Tuple

import numpy as np

from repro.common.validation import check_positive
from repro.core.histograms import AgeBins, AgeHistogram
from repro.core.threshold_policy import DISABLED
from repro.kernel.compression import ContentProfile

__all__ = ["PageState", "MemCg", "PageColumns"]


class PageState(enum.IntEnum):
    """Tier a page currently occupies."""

    NEAR = 0  #: uncompressed in DRAM
    FAR = 1  #: compressed in the zswap arena


# Plain-int copies for the accounting hot paths: ``PageState.NEAR`` goes
# through ``EnumType.__getattr__`` on every lookup, which is measurable
# when every machine reads tier counts every tick.  Values are identical
# (IntEnum), so numpy comparisons are unchanged.
_NEAR = int(PageState.NEAR)
_FAR = int(PageState.FAR)

#: One (job, touch) pair's promotions: ``(memcg, pages faulted)``.
Promotion = Tuple["MemCg", int]


class PageColumns(NamedTuple):
    """Copies of one memcg's per-page columns by memcg-local slot (what
    ``pool.row_pages(row)`` returns).  Ages count kstaled scans and
    saturate at 255 (the paper's 8-bit age); ``incompressible`` marks a
    page zswap's cutoff rejected until the scan sees it dirtied;
    ``unevictable`` is mlock; ``lru_active`` is the two-list LRU's active
    bit; ``huge_group`` is the start slot of the page's THP mapping, or
    -1 (a mapping shares one accessed/dirty bit, the resolution loss the
    paper contrasts with Thermostat's huge-page-only design)."""

    resident: np.ndarray
    age_scans: np.ndarray
    accessed: np.ndarray
    state: np.ndarray
    incompressible: np.ndarray
    dirtied: np.ndarray
    unevictable: np.ndarray
    payload_bytes: np.ndarray
    lru_active: np.ndarray
    huge_group: np.ndarray


def touch_pages(pages, indices: np.ndarray, write: bool) -> np.ndarray:
    """The MMU over one set of page columns (a memcg's, or a pool's).

    Marks the resident ``indices`` accessed (and dirtied for a write) and
    returns the touched far pages, each once, in first-occurrence order.
    ``pages`` needs ``resident``, ``accessed``, ``dirtied`` and ``state``.
    """
    live = indices[pages.resident[indices]]
    pages.accessed[live] = True
    if write:
        pages.dirtied[live] = True
    far = live[pages.state[live] == _FAR]
    if far.size > 1 and not (far[1:] > far[:-1]).all():
        # A slot repeated in one touch faults once, where it first occurs.
        far = far[np.sort(np.unique(far, return_index=True)[1])]
    return far


class MemCg:
    """One job's memory cgroup: a handle on one row of a page pool,
    built by ``pool.add`` (the reference pool's memcgs extend it with
    page arrays of their own).

    Args:
        job_id: identifier of the owning job.
        capacity_pages: maximum resident pages (the memcg limit).
        content_profile: compressibility distribution of this job's data.
        bins: candidate cold-age threshold grid shared fleet-wide.
        rng: random stream for payload sampling.
    """

    #: The pool whose row holds this memcg's pages and histograms; None
    #: once removed (and for a reference memcg, which holds its own).
    _pool = None
    #: Histograms the memcg holds itself, ``(cold-age, promotion)``: a
    #: reference memcg's own, or a removed handle's final copies.
    _own_histograms: Optional[Tuple[AgeHistogram, AgeHistogram]] = None

    def __init__(
        self,
        job_id: str,
        capacity_pages: int,
        content_profile: ContentProfile,
        bins: AgeBins,
        rng: np.random.Generator,
    ):
        check_positive(capacity_pages, "capacity_pages")
        self.job_id = job_id
        self.capacity_pages = int(capacity_pages)
        self.content_profile = content_profile
        self.bins = bins
        self._rng = rng
        #: Row in the owning page pool's per-memcg arrays; -1 while the
        #: memcg belongs to none.
        self.row = -1

        #: Node-agent-controlled knobs.
        self.cold_age_threshold: float = DISABLED
        self.soft_limit_pages: int = 0
        self.zswap_enabled: bool = True

        #: Fault flag: set (by fault injection, or a kernel detecting its
        #: own accounting damage) when the promotion/cold-age histograms
        #: can no longer be trusted.  The node agent consumes the flag on
        #: its next control round by disabling zswap and restarting the
        #: job's warm-up; the histogram *data* is left intact.
        self.histograms_corrupt: bool = False

        #: SLI counters (monotonic; readers keep their own last-seen copy).
        self.promoted_pages_total = 0
        self.compressed_pages_total = 0
        self.rejected_pages_total = 0

        #: Optional bound metric series (e.g. a machine-labelled
        #: ``repro_pages_promoted_total`` counter); the owning machine
        #: injects it at :meth:`Machine.add_job` time so memcgs stay
        #: constructible without any observability context.
        self.promoted_counter = None

    # The reclaim threshold and zswap gate are written by the node agent
    # once per control round but *read* by the pooled reclaim mask for
    # every page on the machine.  The setters tell the pool, which keeps
    # them encoded per row so its walk gathers them with one indexed load.

    @property
    def cold_age_threshold(self) -> float:
        return self._cold_age_threshold

    @cold_age_threshold.setter
    def cold_age_threshold(self, value: float) -> None:
        self._cold_age_threshold = value
        if self._pool is not None:
            self._pool.refresh_row_threshold(self)

    @property
    def zswap_enabled(self) -> bool:
        return self._zswap_enabled

    @zswap_enabled.setter
    def zswap_enabled(self, value: bool) -> None:
        self._zswap_enabled = value
        if self._pool is not None:
            self._pool.refresh_row_threshold(self)

    # Kernel-exported histograms (§5.1): the cold-age histogram is a
    # snapshot updated each scan; the promotion histogram accumulates
    # from job start and is diffed by the node agent.

    @property
    def cold_age_histogram(self) -> AgeHistogram:
        """The cold-age snapshot of the latest scan."""
        if self._pool is None:
            return self._own_histograms[0]
        return self._pool.row_histogram(self.row, promotion=False)

    @property
    def promotion_histogram(self) -> AgeHistogram:
        """Promotions since job start, by the page's age at the fault."""
        if self._pool is None:
            return self._own_histograms[1]
        return self._pool.row_histogram(self.row, promotion=True)

    def _detach(self) -> None:
        """Leave the pool, keeping final copies of the histograms."""
        self._own_histograms = (self.cold_age_histogram,
                                self.promotion_histogram)
        self._pool = None
        self.row = -1
