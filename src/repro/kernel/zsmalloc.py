"""zsmalloc: the machine-global compressed-data arena (paper §5.1).

zsmalloc packs variable-size compressed payloads into fixed *size classes*;
objects of one class are stored in multi-page "zspages".  The paper keeps
**one global arena per machine** (per-memcg arenas fragmented badly with
tens of jobs per machine) with **an explicit compaction interface** driven
by the node agent.

The model tracks, per size class, live objects and free slots (holes left
by freed objects).  A class's DRAM footprint is the zspages needed to hold
``live + holes`` slots; compaction migrates objects to squeeze the holes
out.  This reproduces the phenomena that mattered in the paper: internal
fragmentation (class rounding), external fragmentation (holes), and the
accounting identity ``footprint >= payload bytes``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.common.errors import SimulationError
from repro.common.units import PAGE_SIZE
from repro.common.validation import check_positive, require
from repro.obs import (
    MetricName,
    MetricRegistry,
    Tracer,
    get_registry,
    get_tracer,
)

__all__ = ["ZsmallocArena", "ArenaStats", "size_classes"]

#: Granularity of size classes, matching Linux zsmalloc's step.
SIZE_CLASS_STEP = 32

#: Pages per zspage (Linux uses up to 4).
ZSPAGE_PAGES = 4
ZSPAGE_BYTES = ZSPAGE_PAGES * PAGE_SIZE

#: Per-object metadata overhead (handle + zspage bookkeeping share).
OBJECT_METADATA_BYTES = 16


#: One arena's share of a batch, by size class in ascending order: the
#: class sizes, the object counts and the payload bytes, as three lists.
ClassGroups = Tuple[List[int], List[int], List[int]]


def size_classes(
    payload_bytes: np.ndarray,
    owners: Union[int, np.ndarray] = 0,
    n_owners: int = 1,
    step: int = SIZE_CLASS_STEP,
) -> List[ClassGroups]:
    """Group payloads by size class, for many arenas in one pass.

    Payloads never exceed a page, so the class *indices* live in a
    small dense range, and two ``np.bincount`` calls keyed by
    ``(owner, class)`` replace a sort per arena.

    Args:
        payload_bytes: the payload sizes (all positive).
        owners: the index of each payload's arena, in ``[0, n_owners)``.
        n_owners: the number of arenas.
        step: the arenas' size-class granularity.

    Returns:
        For each owner, its :data:`ClassGroups` (what
        :meth:`ZsmallocArena.store_grouped` and
        :meth:`ZsmallocArena.release_grouped` take).
    """
    payloads = np.asarray(payload_bytes, dtype=np.int64)
    if payloads.size == 0:
        return [([], [], []) for _ in range(n_owners)]
    require(bool((payloads > 0).all()), "payloads must be positive")
    class_index = (payloads + (OBJECT_METADATA_BYTES + step - 1)) // step
    width = int(class_index.max()) + 1
    keys = class_index + np.asarray(owners, dtype=np.int64) * width
    counts = np.bincount(keys, minlength=n_owners * width)
    sums = np.bincount(keys, weights=payloads, minlength=n_owners * width)
    present = np.flatnonzero(counts)
    groups = (((present % width) * step).tolist(), counts[present].tolist(),
              sums[present].astype(np.int64).tolist())
    if n_owners == 1:
        return [groups]
    bounds = np.searchsorted(present, np.arange(n_owners + 1) * width).tolist()
    return [
        tuple(column[lo:hi] for column in groups)
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


@dataclass(frozen=True)
class ArenaStats:
    """Point-in-time arena accounting.

    Attributes:
        live_objects: stored payloads.
        payload_bytes: sum of stored payload sizes.
        footprint_bytes: DRAM actually consumed (zspages).
        internal_fragmentation_bytes: class rounding + metadata waste.
        external_fragmentation_bytes: bytes held by free holes.
    """

    live_objects: int
    payload_bytes: int
    footprint_bytes: int
    internal_fragmentation_bytes: int
    external_fragmentation_bytes: int


class _SizeClass:
    """Bookkeeping for one object size class."""

    __slots__ = ("class_bytes", "objects_per_zspage", "live", "holes",
                 "payload_bytes")

    def __init__(self, class_bytes: int):
        self.class_bytes = class_bytes
        self.objects_per_zspage = max(1, ZSPAGE_BYTES // class_bytes)
        self.live = 0
        self.holes = 0
        self.payload_bytes = 0

    @property
    def zspages(self) -> int:
        slots = self.live + self.holes
        return math.ceil(slots / self.objects_per_zspage)

    @property
    def footprint_bytes(self) -> int:
        return self.zspages * ZSPAGE_BYTES

    def compact(self) -> int:
        """Squeeze out holes; returns bytes released."""
        before = self.footprint_bytes
        self.holes = 0
        return before - self.footprint_bytes


class ZsmallocArena:
    """Machine-global compressed-payload store.

    Payload sizes are mapped to size classes by rounding
    ``payload + metadata`` up to the next :data:`SIZE_CLASS_STEP` multiple.

    Args:
        step: size-class granularity in bytes.
        machine_id: label value for exported metrics ("" standalone).
        registry: metrics registry (defaults to the process-global one).
        tracer: span tracer (defaults to the process-global one).
    """

    def __init__(
        self,
        step: int = SIZE_CLASS_STEP,
        machine_id: str = "",
        registry: Optional[MetricRegistry] = None,
        tracer: Optional[Tracer] = None,
    ):
        check_positive(step, "step")
        self._step = int(step)
        self._classes: Dict[int, _SizeClass] = {}
        self.machine_id = machine_id
        self.compactions = 0
        # Running accounting totals, updated on every store/release/compact.
        # ``Machine.tick`` reads ``footprint_bytes`` (and the node agent
        # reads ``stats()``) every tick, so summing over all size classes
        # per read would put an O(classes) Python loop on the tick path.
        self._live_total = 0
        self._payload_total = 0
        self._footprint_total = 0
        self._internal_total = 0
        self._external_total = 0

        registry = registry if registry is not None else get_registry()
        self._tracer = tracer if tracer is not None else get_tracer()
        self._bind_metrics(registry)

    def _bind_metrics(self, registry: MetricRegistry) -> None:
        self._m_compactions = registry.counter(
            MetricName.ARENA_COMPACTIONS_TOTAL,
            "Explicit zsmalloc arena compactions.", ("machine",)
        ).labels(machine=self.machine_id)
        self._m_compaction_bytes = registry.counter(
            MetricName.ARENA_COMPACTION_RELEASED_BYTES_TOTAL,
            "Bytes released by arena compaction.", ("machine",)
        ).labels(machine=self.machine_id)

    def rebind_observability(self, registry: MetricRegistry,
                             tracer: Tracer) -> None:
        """Re-point metric handles and tracer after a cross-process move."""
        self._tracer = tracer
        self._bind_metrics(registry)

    def class_bytes_for(self, payload_bytes: int) -> int:
        """The size class a payload of this size lands in."""
        require(payload_bytes > 0, f"payload must be positive, got {payload_bytes}")
        gross = payload_bytes + OBJECT_METADATA_BYTES
        return self._step * math.ceil(gross / self._step)

    # ------------------------------------------------------------------
    # Allocation API (batch-oriented: kreclaimd compresses pages in bulk)
    # ------------------------------------------------------------------

    @property
    def step(self) -> int:
        """Size-class granularity in bytes."""
        return self._step

    def store(self, payload_bytes: np.ndarray) -> None:
        """Store one object per entry of ``payload_bytes``."""
        self.store_grouped(size_classes(payload_bytes, step=self._step)[0])

    def store_grouped(self, groups: ClassGroups) -> None:
        """:meth:`store`, from payloads already grouped by
        :func:`size_classes` with this arena's step."""
        classes = self._classes
        live = payload = zspages = internal = reused_bytes = 0
        for class_bytes, count, payload_sum in zip(*groups):
            cls = classes.get(class_bytes)
            if cls is None:
                cls = classes[class_bytes] = _SizeClass(class_bytes)
            per_zspage = cls.objects_per_zspage
            slots = cls.live + cls.holes
            reused = min(cls.holes, count)
            cls.holes -= reused
            cls.live += count
            cls.payload_bytes += payload_sum
            # The class's zspages after the store minus before (ceilings).
            zspages += (-(-(slots + count - reused) // per_zspage)
                        - -(-slots // per_zspage))
            live += count
            payload += payload_sum
            internal += count * class_bytes - payload_sum
            reused_bytes += reused * class_bytes
        self._footprint_total += zspages * ZSPAGE_BYTES
        self._live_total += live
        self._payload_total += payload
        self._internal_total += internal
        self._external_total -= reused_bytes

    def release(self, payload_bytes: np.ndarray) -> None:
        """Free the objects previously stored with these payload sizes.

        Freeing turns live slots into holes, so the zspage count (and the
        footprint) is unchanged until compaction squeezes the holes out.
        """
        self.release_grouped(size_classes(payload_bytes, step=self._step)[0])

    def release_grouped(self, groups: ClassGroups) -> None:
        """:meth:`release`, from payloads already grouped by
        :func:`size_classes` with this arena's step."""
        classes = self._classes
        live = payload = internal = freed_bytes = 0
        for class_bytes, count, payload_sum in zip(*groups):
            cls = classes.get(class_bytes)
            if cls is None or cls.live < count:
                raise SimulationError(
                    f"release of {count} objects from size class {class_bytes} "
                    f"with only {0 if cls is None else cls.live} live"
                )
            cls.live -= count
            cls.holes += count
            cls.payload_bytes -= payload_sum
            live += count
            payload += payload_sum
            internal += count * class_bytes - payload_sum
            freed_bytes += count * class_bytes
        self._live_total -= live
        self._payload_total -= payload
        self._internal_total -= internal
        self._external_total += freed_bytes

    def compact(self) -> int:
        """Explicit compaction (node-agent triggered); returns bytes freed."""
        with self._tracer.span("zsmalloc.compact"):
            released = 0
            for cls in self._classes.values():
                self._external_total -= cls.holes * cls.class_bytes
                released += cls.compact()
            self._footprint_total -= released
        self.compactions += 1
        self._m_compactions.inc()
        self._m_compaction_bytes.inc(released)
        return released

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    @property
    def footprint_bytes(self) -> int:
        """DRAM the arena currently pins."""
        return self._footprint_total

    @property
    def payload_bytes(self) -> int:
        """Logical bytes stored (sum of payload sizes)."""
        return self._payload_total

    @property
    def live_objects(self) -> int:
        """Number of stored objects."""
        return self._live_total

    @property
    def external_fragmentation_bytes(self) -> int:
        """Bytes held by free holes (compaction would release them)."""
        return self._external_total

    def stats(self) -> ArenaStats:
        """Full accounting snapshot (O(1) — from the running totals)."""
        return ArenaStats(
            live_objects=self._live_total,
            payload_bytes=self._payload_total,
            footprint_bytes=self._footprint_total,
            internal_fragmentation_bytes=self._internal_total,
            external_fragmentation_bytes=self._external_total,
        )

    def recounted_stats(self) -> ArenaStats:
        """Recompute :meth:`stats` from per-class state (test oracle).

        The running totals must always agree with a fresh per-class sweep;
        the property tests assert this after randomized operation mixes.
        """
        live = payload = footprint = internal = external = 0
        for cls in self._classes.values():
            live += cls.live
            payload += cls.payload_bytes
            footprint += cls.footprint_bytes
            internal += cls.live * cls.class_bytes - cls.payload_bytes
            external += cls.holes * cls.class_bytes
        return ArenaStats(
            live_objects=live,
            payload_bytes=payload,
            footprint_bytes=footprint,
            internal_fragmentation_bytes=internal,
            external_fragmentation_bytes=external,
        )
