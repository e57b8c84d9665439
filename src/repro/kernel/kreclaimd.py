"""kreclaimd: the proactive reclaim daemon (paper §5.1).

Once the node agent publishes a per-job cold-age threshold, kreclaimd walks
each memcg's LRU, finds pages whose age meets or exceeds that job's
threshold, and hands them to zswap for compression.  The page pool lists
the candidates (``reclaim_pairs``); the daemon walks them in LRU order.
It runs as a background task in slack cycles; a per-invocation page
budget models the "unobtrusive background task" behaviour (it never
stalls allocations the way reactive direct reclaim does — that contrast
is the §3.2 ablation).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.common.validation import check_positive
from repro.kernel.memcg import MemCg
from repro.kernel.zswap import Zswap
from repro.obs import (
    MetricName,
    MetricRegistry,
    Tracer,
    get_registry,
    get_tracer,
)

__all__ = ["Kreclaimd"]


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

    def run(self, pairs: Sequence[Tuple[MemCg, np.ndarray]]) -> int:
        """One reclaim pass; returns pages moved to far memory.

        ``pairs`` are the pass's ``(memcg, candidates)`` in walk order, as
        the page pool's ``reclaim_pairs`` lists them (zswap-disabled
        memcgs and empty candidate sets already left out).  Per memcg:
        order the candidates the way the LRU walk visits them, oldest
        first, and compress within the remaining budget.
        """
        if not pairs:
            # Nothing eligible this pass.  Book the run without paying
            # for the span — in a cluster most machines hit this every
            # round.
            self.runs += 1
            self._m_runs.inc()
            return 0
        budget = self.pages_per_run
        moved = 0
        with self._tracer.span("kreclaimd.run"):
            for memcg, candidates in pairs:
                # LRU walk order: inactive list first, oldest first.
                candidates = memcg.reclaim_order(candidates)
                if budget is not None:
                    if budget <= 0:
                        break
                    candidates = candidates[:budget]
                stored = self.zswap.compress(memcg, candidates)
                moved += stored
                if budget is not None:
                    # Attempted pages consume budget whether or not they
                    # stored: cycles were spent either way.
                    budget -= int(candidates.size)
        self.runs += 1
        self.pages_reclaimed += moved
        self._m_runs.inc()
        self._m_pages.inc(moved)
        return moved
