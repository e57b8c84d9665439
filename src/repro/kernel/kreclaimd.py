"""kreclaimd: the proactive reclaim daemon (paper §5.1).

Once the node agent publishes a per-job cold-age threshold, kreclaimd walks
each memcg's LRU, finds pages whose age meets or exceeds that job's
threshold, and hands them to zswap for compression.  The page pool lists
the candidates in LRU walk order for every machine sharing it
(``reclaim_walk``); :func:`walk_rounds` spends each machine's budget
along that walk, and zswap stores the result in one pass.
:func:`repro.kernel.oracle.run_kreclaimd` is the same walk one memcg at
a time, the reference the round is held to.

kreclaimd runs as a background task in slack cycles; a per-invocation
page budget models the "unobtrusive background task" behaviour (it never
stalls allocations the way reactive direct reclaim does — that contrast
is the §3.2 ablation).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.common.validation import check_positive
from repro.kernel.memcg import MemCg
from repro.kernel.zswap import StoreRun, Zswap
from repro.obs import (
    MetricName,
    MetricRegistry,
    Tracer,
    get_registry,
    get_tracer,
)

__all__ = ["Kreclaimd", "walk_rounds"]


class Kreclaimd:
    """Background compressor of cold pages.

    Args:
        zswap: the machine's zswap instance.
        pages_per_run: optional cap on pages compressed per invocation,
            modelling the bounded slack-cycle budget; ``None`` = unbounded.
        machine_id: label value for exported metrics ("" standalone).
        registry: metrics registry (defaults to the process-global one).
        tracer: span tracer (defaults to the process-global one).
    """

    def __init__(
        self,
        zswap: Zswap,
        pages_per_run: Optional[int] = None,
        machine_id: str = "",
        registry: Optional[MetricRegistry] = None,
        tracer: Optional[Tracer] = None,
    ):
        if pages_per_run is not None:
            check_positive(pages_per_run, "pages_per_run")
        self.zswap = zswap
        self.pages_per_run = pages_per_run
        self.machine_id = machine_id
        self.runs = 0
        self.pages_reclaimed = 0

        registry = registry if registry is not None else get_registry()
        self._tracer = tracer if tracer is not None else get_tracer()
        self._bind_metrics(registry)

    def _bind_metrics(self, registry: MetricRegistry) -> None:
        self._m_runs = registry.counter(
            MetricName.KRECLAIMD_RUNS_TOTAL,
            "Completed kreclaimd reclaim passes.", ("machine",)
        ).labels(machine=self.machine_id)
        self._m_pages = registry.counter(
            MetricName.PAGES_RECLAIMED_TOTAL,
            "Pages moved to far memory by proactive reclaim.", ("machine",)
        ).labels(machine=self.machine_id)

    def rebind_observability(self, registry: MetricRegistry,
                             tracer: Tracer) -> None:
        """Re-point metric handles and tracer after a cross-process move."""
        self._tracer = tracer
        self._bind_metrics(registry)

    def record(self, moved: int) -> None:
        """Book one completed pass that moved ``moved`` pages."""
        self.runs += 1
        self.pages_reclaimed += moved
        self._m_runs.inc()
        self._m_pages.inc(moved)


def walk_rounds(
    daemons: Sequence[Kreclaimd], memcgs: Sequence[MemCg],
    machine_of: np.ndarray, slots: np.ndarray, ranks: np.ndarray,
) -> Tuple[np.ndarray, List[Tuple[int, List[StoreRun]]]]:
    """Spend each machine's kreclaimd budget along one pool's reclaim walk.

    ``slots`` and ``ranks`` are a page pool's ``reclaim_walk(memcgs)``,
    and ``machine_of[rank]`` is the index in ``daemons`` of the memcg's
    machine (non-decreasing in rank).  A budget counts attempted pages,
    stored or not, so each machine attempts the first ``pages_per_run``
    pages of its own walk, and a memcg that starts past them is not
    visited at all: what :func:`repro.kernel.oracle.run_kreclaimd` does
    memcg by memcg.

    Returns:
        The attempted slots, and ``(daemon index, runs)`` per machine
        with any, in walk order: the runs ``(memcg, lo, hi)`` tile the
        attempted slots (:func:`~repro.kernel.zswap.compress_rounds`).
    """
    bounds = np.flatnonzero(np.r_[True, ranks[1:] != ranks[:-1], True])
    owners = ranks[bounds[:-1]].tolist()
    left = [daemon.pages_per_run for daemon in daemons]
    budgeted = any(budget is not None for budget in left)
    attempted = []
    rounds: List[Tuple[int, List[StoreRun]]] = []
    end = 0
    for owner, machine, lo, hi in zip(
        owners, machine_of[owners].tolist(),
        bounds[:-1].tolist(), bounds[1:].tolist(),
    ):
        budget = left[machine]
        if budget is not None:
            if budget <= 0:
                continue
            hi = min(hi, lo + budget)
            left[machine] = budget - (hi - lo)
        if budgeted:
            attempted.append(slots[lo:hi])
        if not rounds or rounds[-1][0] != machine:
            rounds.append((machine, []))
        rounds[-1][1].append((memcgs[owner], end, end + hi - lo))
        end += hi - lo
    return (np.concatenate(attempted) if budgeted else slots), rounds
