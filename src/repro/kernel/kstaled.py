"""kstaled: the page-age scanner daemon (paper §5.1).

kstaled walks page tables every ``scan_period`` (120 s), reads and clears
PTE accessed bits, maintains the 8-bit per-page ages, and updates the two
per-job histograms the control plane consumes.  The page pool's
``scan_all`` does the sweep, run by the scan round
:func:`repro.kernel.machine.scan_machines`; this daemon keeps each
machine's scan schedule, tracks its CPU cost (the paper budgets <11 % of
one logical core), and exposes scan counters for tests and monitoring.
"""

from __future__ import annotations

from typing import Optional

from repro.common.simtime import PeriodicSchedule
from repro.common.units import KSTALED_SCAN_PERIOD
from repro.common.validation import check_positive
from repro.obs import MetricName, MetricRegistry, get_registry

__all__ = ["Kstaled"]

#: Modelled cost of examining one page's PTEs during a scan.  ~20 ns/page
#: keeps a 256 GiB machine (64 M pages) around 10 % of one core at a 120 s
#: period, matching the paper's measured budget.
SCAN_SECONDS_PER_PAGE = 20e-9


class Kstaled:
    """Machine-wide scanner over all memcgs.

    Args:
        scan_period: seconds between scans of each memcg (120 s).
        machine_id: label value for exported metrics ("" standalone).
        registry: metrics registry (defaults to the process-global one).
    """

    def __init__(
        self,
        scan_period: int = KSTALED_SCAN_PERIOD,
        machine_id: str = "",
        registry: Optional[MetricRegistry] = None,
    ):
        check_positive(scan_period, "scan_period")
        self.scan_period = int(scan_period)
        self.machine_id = machine_id
        self._schedule = PeriodicSchedule(self.scan_period)
        self.scans_completed = 0
        self.pages_scanned = 0
        self.cpu_seconds = 0.0

        self._bind_metrics(registry if registry is not None else get_registry())

    def _bind_metrics(self, registry: MetricRegistry) -> None:
        machine_id = self.machine_id
        self._m_pages = registry.counter(
            MetricName.PAGES_SCANNED_TOTAL,
            "Pages examined by kstaled accessed-bit scans.", ("machine",)
        ).labels(machine=machine_id)
        self._m_scans = registry.counter(
            MetricName.KSTALED_SCANS_TOTAL,
            "Completed machine-wide kstaled scan rounds.", ("machine",)
        ).labels(machine=machine_id)
        self._m_cpu = registry.counter(
            MetricName.KSTALED_CPU_SECONDS_TOTAL,
            "Modelled kstaled CPU seconds (paper budget: <11% of a core).",
            ("machine",)
        ).labels(machine=machine_id)

    def rebind_observability(self, registry: MetricRegistry) -> None:
        """Re-point metric handles after a cross-process move."""
        self._bind_metrics(registry)

    def due(self, now: int) -> bool:
        """True (once) when ``now`` crossed a scan-period boundary."""
        return self._schedule.due(now)

    def record_scan(self, pages: int) -> None:
        """Book one completed scan of ``pages`` resident pages (a pool's
        ``scan_all`` sweeps every machine sharing it at once; each
        machine's kstaled books its own share)."""
        self.pages_scanned += pages
        self.cpu_seconds += pages * SCAN_SECONDS_PER_PAGE
        self.scans_completed += 1
        self._m_pages.inc(pages)
        self._m_cpu.inc(pages * SCAN_SECONDS_PER_PAGE)
        self._m_scans.inc()

    def utilization_of_core(self, elapsed_seconds: float) -> float:
        """Fraction of one logical core consumed so far."""
        if elapsed_seconds <= 0:
            return 0.0
        return self.cpu_seconds / elapsed_seconds
