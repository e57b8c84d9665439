"""Runtime invariant checks, toggled by ``REPRO_CHECKS=1``.

The static rules in ``repro.checks`` catch hazards that are visible in
the source; this module catches the ones that are only visible in live
state.  Each check asserts an accounting identity the simulator's
correctness story depends on:

* **machine accounting** — the zswap/zsmalloc view of far memory and
  the page pool's view of the machine's rows must agree
  (``arena.live_objects == Σ far_pages``,
  ``arena.payload_bytes == Σ payload_bytes[far]``) and compression can
  never *grow* memory (``footprint >= payload``).
* **memcg histogram** — the cold-age histogram the pooled scan leaves
  in each row must match a from-scratch recount of the row's page ages
  (the ground truth the K-th percentile threshold policy reads).
* **delta merge** — metric deltas shipped across the fork boundary must
  conserve mass: counter increments are non-negative and a histogram
  record's ``count`` equals the sum of its bucket increments.

All checks are free when disabled: call sites guard with
:func:`invariants_enabled`, which is a cached environment read.  Enable
with ``REPRO_CHECKS=1`` (any of ``1/true/yes/on``) or, in tests, with
:func:`set_invariants_enabled`.

This module deliberately imports nothing from ``kernel``/``engine``
(they import *us*); checks duck-type their arguments.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Iterable, List, Optional

import numpy as np

from repro.common.errors import ReproError
from repro.core.histograms import AgeHistogram

__all__ = [
    "InvariantViolation",
    "check_machine_accounting",
    "check_memcg_histogram",
    "check_merge_delta",
    "invariants_enabled",
    "set_invariants_enabled",
]

#: Environment variable that switches the checks on.
ENV_VAR = "REPRO_CHECKS"

_TRUTHY = frozenset({"1", "true", "yes", "on"})

#: Tri-state override: None -> consult the environment (cached).
_override: Optional[bool] = None
_env_cache: Optional[bool] = None


class InvariantViolation(ReproError):
    """A runtime accounting identity does not hold."""


def invariants_enabled() -> bool:
    """Whether runtime invariant checks are on (cheap: cached env read)."""
    global _env_cache
    if _override is not None:
        return _override
    if _env_cache is None:
        _env_cache = os.environ.get(ENV_VAR, "").strip().lower() in _TRUTHY
    return _env_cache


def set_invariants_enabled(flag: Optional[bool]) -> None:
    """Force checks on/off (tests), or ``None`` to re-read the environment."""
    global _override, _env_cache
    _override = flag
    _env_cache = None


def _violation(name: str, detail: str) -> "InvariantViolation":
    return InvariantViolation(f"invariant {name!r} violated: {detail}")


def check_machine_accounting(machine: Any) -> None:
    """Zswap pool-size accounting: arena totals == Σ per-memcg far state.

    Reads the machine's pool rows in one ``tier_pages`` pass and one
    gather of their far pages' payloads.

    Args:
        machine: a :class:`repro.kernel.machine.Machine` (duck-typed:
            needs ``arena``, ``pool`` and ``memcgs``).
    """
    arena = machine.arena
    pool = machine.pool
    rows = [memcg.row for memcg in machine.memcgs.values()]
    far_pages = int(pool.tier_pages(rows)[:, 1].sum())
    if int(arena.live_objects) != far_pages:
        raise _violation(
            "machine.far_pages",
            f"arena holds {arena.live_objects} objects but memcgs report "
            f"{far_pages} far pages (machine={machine.machine_id!r})",
        )
    payload = int(pool.payloads(pool.far_slots(rows)).sum(dtype=np.int64))
    if int(arena.payload_bytes) != payload:
        raise _violation(
            "machine.payload_bytes",
            f"arena payload {arena.payload_bytes}B != Σ memcg far payload "
            f"{payload}B (machine={machine.machine_id!r})",
        )
    if int(arena.footprint_bytes) < int(arena.payload_bytes):
        raise _violation(
            "machine.footprint",
            f"arena footprint {arena.footprint_bytes}B is below its payload "
            f"{arena.payload_bytes}B — zspage accounting lost mass "
            f"(machine={machine.machine_id!r})",
        )


def check_memcg_histogram(pool: Any, memcg: Any) -> None:
    """Cold-age snapshot == a from-scratch recount of live page ages.

    The recount bins the row's resident ages one page at a time
    (``AgeHistogram.add_ages``), independently of the pooled scan's
    keyed ``bincount``, and leaves the pool untouched.

    Args:
        pool: the page pool holding ``memcg`` (duck-typed: needs
            ``row_pages`` and ``scan_period``).
        memcg: a :class:`repro.kernel.memcg.MemCg` (duck-typed: needs
            ``row``, ``bins`` and ``cold_age_histogram``).
    """
    snapshot = memcg.cold_age_histogram
    pages = pool.row_pages(memcg.row)
    truth = AgeHistogram(memcg.bins)
    truth.add_ages(np.multiply(
        pages.age_scans[pages.resident], pool.scan_period, dtype=np.int64
    ))
    if (
        snapshot.young_count != truth.young_count
        or not np.array_equal(snapshot.counts, truth.counts)
    ):
        raise _violation(
            "memcg.cold_histogram",
            f"snapshot {snapshot!r} != recount {truth!r} "
            f"(job={getattr(memcg, 'job_id', '?')!r})",
        )


def check_merge_delta(records: Iterable[Dict[str, object]]) -> None:
    """Delta-merge conservation for fork-boundary metric shipments.

    Args:
        records: the record list produced by ``MetricRegistry.delta``.
    """
    for record in records:
        name = record.get("name", "?")
        kind = record.get("kind")
        if kind == "counter":
            value = float(record["value"])  # type: ignore[arg-type]
            if value < 0:
                raise _violation(
                    "merge.counter_monotonic",
                    f"counter {name!r} shipped a negative increment "
                    f"({value}); counters only go up",
                )
        elif kind == "histogram":
            buckets: List[Dict[str, object]] = record["buckets"]  # type: ignore[assignment]
            bucket_total = sum(int(b["count"]) for b in buckets)  # type: ignore[arg-type]
            count = int(record["count"])  # type: ignore[arg-type]
            if bucket_total != count:
                raise _violation(
                    "merge.histogram_mass",
                    f"histogram {name!r} delta count {count} != Σ bucket "
                    f"increments {bucket_total}; mass was lost in transit",
                )
            if count < 0 or any(int(b["count"]) < 0 for b in buckets):  # type: ignore[arg-type]
                raise _violation(
                    "merge.histogram_monotonic",
                    f"histogram {name!r} shipped negative increments",
                )
