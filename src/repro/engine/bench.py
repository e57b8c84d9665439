"""The ``repro bench`` throughput harness behind ``BENCH_fleet.json``.

Four sections, all produced by :func:`run_bench`:

* **tick_path** — the same machines ticked through one kstaled/kreclaimd
  cycle per simulated minute, once on the reference scalar page pool and
  once on the columnar one.  This is the number the columnar pool
  exists for: ticks/sec on the online tick path, with the speedup
  recorded as ``speedup_columnar``.
* **equivalence** — a full churning simulation run on both page pools
  (the scalar reference and the columnar one); ``equivalent`` is true
  only when coverage reports, complete SLI histories, cold-age
  histograms and far-pages gauges are identical.
* **serial / parallel** — a hundreds-of-machines fleet timed through the
  serial :meth:`WSC.run` loop and again under :class:`FleetEngine`.
  When the host cannot give the parallel run more than one physical
  core, ``speedup`` is ``null`` and ``note`` says why — a 1-core
  "speedup" is noise, not signal.
* **thousand_machine_hour** — one simulated hour over a 1,000-machine
  fleet on a single core via the columnar page pool,
  compared against the wall time of the legacy 8-machine scalar bench.

``docs/performance.md`` explains how to read the output.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from repro.cluster.wsc import quickfleet
from repro.common.units import HOUR, MIB, PAGE_SIZE
from repro.common.validation import check_positive
from repro.engine.parallel import FleetEngine, default_worker_count
from repro.kernel.machine import reclaim_machines, tick_machines
from repro.obs import MetricName, MetricRegistry, Tracer

__all__ = [
    "columnar_equivalence",
    "run_bench",
    "thousand_machine_hour",
    "tick_path_bench",
    "zero_copy_equivalence",
]

#: Fleet shape of the original serial-vs-parallel bench; its scalar wall
#: time is the budget the thousand-machine hour must beat.
_LEGACY_SHAPE = {"clusters": 4, "machines": 2, "jobs": 3, "hours": 2.0}


def _build_fleet(clusters: int, machines: int, jobs: int, seed: int):
    """The legacy bench workload: 8 GiB machines, 16-64 MiB jobs, churn,
    on the scalar reference pool."""
    return quickfleet(
        clusters=clusters,
        machines_per_cluster=machines,
        jobs_per_machine=jobs,
        seed=seed,
        machine_dram_gib=8.0,
        mean_cold_fraction=0.20,
        job_pages_range=((16 * MIB) // PAGE_SIZE, (64 * MIB) // PAGE_SIZE),
        churn_duration_range=(2 * HOUR, 12 * HOUR),
        kernel="scalar",
        registry=MetricRegistry(),
        tracer=Tracer(),
    )


def _build_dense_fleet(clusters: int, machines: int, jobs: int, seed: int):
    """The dense fleet workload: many small machines, mostly-cold jobs.

    This is the shape the columnar page pool targets — hundreds to
    thousands of machines per core — so both the serial-vs-parallel
    section and the thousand-machine hour use it.  The tracer is
    disabled and the kstaled/agent periods are stretched (240 s scans,
    5-minute control rounds): at this scale span bookkeeping and
    per-minute control dispatch would dominate the numbers for both
    kernels without telling us anything about either.
    """
    return quickfleet(
        clusters=clusters,
        machines_per_cluster=machines,
        jobs_per_machine=jobs,
        seed=seed,
        machine_dram_gib=0.25,
        mean_cold_fraction=0.90,
        job_pages_range=(16, 64),
        scan_period=240,
        control_period=300,
        registry=MetricRegistry(),
        tracer=Tracer(enabled=False),
    )


def _pages_scanned(fleet) -> float:
    total = 0.0
    for (name, _labels), value in fleet.registry.baseline().items():
        if name == MetricName.PAGES_SCANNED_TOTAL:
            total += value
    return total


def tick_path_bench(machines: int = 20, jobs: int = 384, ticks: int = 10,
                    seed: int = 42) -> Dict:
    """Scalar vs columnar throughput on the machine tick path.

    Ticks every machine through ``ticks`` simulated minutes of
    kstaled/kreclaimd rounds (no job stepping, no node agents — just the
    per-minute kernel path the columnar pool vectorizes) and reports
    ticks/sec for each page pool plus the columnar speedup.  The default
    shape is many small memcgs per machine — the regime warehouse-scale
    machines actually run in, and the one where the scalar reference's
    cost is per-memcg dispatch rather than per-page work.  As a cheap
    equivalence check the total pages scanned and pages in far memory
    must match bit-for-bit between the two pools.
    """
    sections: Dict[str, Dict] = {}
    state = {}
    for kernel in ("scalar", "columnar"):
        fleet = quickfleet(
            clusters=1,
            machines_per_cluster=machines,
            jobs_per_machine=jobs,
            seed=seed,
            machine_dram_gib=0.25,
            mean_cold_fraction=0.90,
            job_pages_range=(4, 16),
            kernel=kernel,
            scan_period=60,
            registry=MetricRegistry(),
            tracer=Tracer(enabled=False),
        )
        cluster = fleet.clusters[0]
        start = time.perf_counter()
        now = 0
        for _ in range(ticks):
            tick_machines(cluster.machines, now)
            reclaim_machines(cluster.machines)
            now += 60
        wall = time.perf_counter() - start
        state[kernel] = (
            sum(m.kstaled.pages_scanned for m in cluster.machines),
            sum(m.far_pages for m in cluster.machines),
        )
        sections[kernel] = {
            "wall_seconds": round(wall, 3),
            "ticks_per_second": round(ticks / wall, 2),
        }
    speedup = (sections["scalar"]["wall_seconds"]
               / max(sections["columnar"]["wall_seconds"], 1e-9))
    return {
        "machines": machines,
        "jobs_per_machine": jobs,
        "ticks": ticks,
        "seed": seed,
        "scalar": sections["scalar"],
        "columnar": sections["columnar"],
        "speedup_columnar": round(speedup, 2),
        "pages_scanned": state["scalar"][0],
        "equivalent": state["scalar"] == state["columnar"],
    }


def columnar_equivalence(clusters: int = 2, machines: int = 4,
                         jobs: int = 12, hours: float = 1.0,
                         seed: int = 77) -> Dict:
    """Full-simulation equivalence of the two page pools.

    Runs the same churning fleet — job arrivals, node agents, telemetry,
    the lot — on the reference scalar pool and on the columnar pool.
    ``equivalent`` is true only when both produce identical coverage
    reports, identical SLI histories (sample by sample), the same
    cold-age histogram (counts and young) for every live memcg, the
    same ``repro_far_pages`` gauge and arena stats for every machine, the
    same zswap stats for every job (compressed, rejected, decompressed,
    payload bytes) and the same ``repro_pages_reclaimed_total`` series.
    """
    check_positive(hours, "hours")
    seconds = int(hours * HOUR)
    walls: Dict[str, float] = {}
    snapshots = []
    for kernel in ("scalar", "columnar"):
        registry = MetricRegistry()
        fleet = quickfleet(
            clusters=clusters,
            machines_per_cluster=machines,
            jobs_per_machine=jobs,
            seed=seed,
            machine_dram_gib=1.0,
            job_pages_range=((1 * MIB) // PAGE_SIZE,
                             (4 * MIB) // PAGE_SIZE),
            kernel=kernel,
            scan_period=60,
            churn_duration_range=(1800, 7200),
            registry=registry,
            tracer=Tracer(),
        )
        start = time.perf_counter()
        fleet.run(seconds)
        walls[kernel] = round(time.perf_counter() - start, 3)
        sli = tuple(
            (s.job_id, s.time, s.working_set_pages, s.promotions,
             s.normalized_rate_pct_per_min, s.threshold)
            for s in fleet.sli_history
        )
        cold = tuple(
            (job_id, tuple(memcg.cold_age_histogram.counts.tolist()),
             memcg.cold_age_histogram.young_count)
            for machine in fleet.machines
            for job_id, memcg in sorted(machine.memcgs.items())
        )
        far_gauges = [
            s.value for _l, s in registry.get(MetricName.FAR_PAGES).series()
        ]
        # What the pooled reclaim round writes: arenas, per-job zswap
        # stats (departed jobs' included) and the reclaim counters.
        arenas = tuple(machine.arena.stats() for machine in fleet.machines)
        zswap = tuple(
            (machine.machine_id, job_id, stats.pages_compressed,
             stats.pages_rejected, stats.pages_decompressed,
             stats.payload_bytes_stored)
            for machine in fleet.machines
            for job_id, stats in sorted(machine.zswap.job_stats.items())
        )
        reclaimed = [
            (labels, s.value) for labels, s in
            registry.get(MetricName.PAGES_RECLAIMED_TOTAL).series()
        ]
        snapshots.append((fleet.coverage_report(), sli, cold, far_gauges,
                          arenas, zswap, reclaimed))
    return {
        "clusters": clusters,
        "machines_per_cluster": machines,
        "jobs_per_machine": jobs,
        "simulated_hours": hours,
        "seed": seed,
        "wall_seconds": walls,
        "sli_samples": len(snapshots[0][1]),
        "equivalent": all(s == snapshots[0] for s in snapshots[1:]),
    }


def _store_bytes(root: Path) -> Dict[str, bytes]:
    """Every file in a trace-store directory, name -> content."""
    return {
        path.name: path.read_bytes() for path in sorted(root.iterdir())
    }


def _compiled_equal(left, right) -> bool:
    """Tensor-level equality of two compiled-trace sets.

    Keyed by job: serial and parallel runs intern jobs in different
    first-seen orders (per-machine export order vs canonical barrier
    order), which is fine — the replay unit is the per-job trace.
    """
    if len(left) != len(right):
        return False
    left = sorted(left, key=lambda c: c.job_id)
    right = sorted(right, key=lambda c: c.job_id)
    for a, b in zip(left, right):
        if a.job_id != b.job_id or a.bins != b.bins:
            return False
        for attr in ("cold_suffix_sums", "promotion_suffix_sums",
                     "working_set_pages", "times", "resident_pages",
                     "cpu_cores"):
            if not np.array_equal(getattr(a, attr), getattr(b, attr)):
                return False
    return True


def zero_copy_equivalence(clusters: int = 2, machines: int = 3,
                          jobs: int = 6, hours: float = 0.5,
                          seed: int = 99, workers: int = 2) -> Dict:
    """Zero-copy telemetry ≡ object telemetry, serial and parallel.

    Runs the same seeded columnar fleet four times against an on-disk
    :class:`~repro.tracestore.database.ColumnarTraceDatabase`: serial
    and parallel, each once over the block fast path (pool columns →
    ``add_block`` → segments; blocks shipped across barriers) and once
    over the per-entry object oracle (``prefer_blocks`` off on every
    exporter, entry shipping pinned in the engine).  Within each mode
    the two stores must come out **byte-identical** — same segment
    files, same manifest (hence same window aggregates) — and the
    compiled replay tensors must match across all four runs.

    Every cluster's middle machine (never its first) loses its sink for
    the middle third of the run, so each export round splits its shared
    block around that machine, and its spill must replay in full.
    """
    check_positive(hours, "hours")
    from repro.common.rng import SeedSequenceFactory
    from repro.faults import FaultEvent, FaultInjector, FaultKind, FaultPlan
    from repro.tracestore.database import ColumnarTraceDatabase

    seconds = int(hours * HOUR)
    outage = FaultPlan(events=(
        FaultEvent(time=seconds // 3, kind=FaultKind.SINK_OUTAGE,
                   duration=seconds // 3, target=machines // 2),
    ))
    results: Dict[str, Dict] = {}
    with tempfile.TemporaryDirectory(prefix="repro-zerocopy-") as tmp:
        for mode in ("serial", "parallel"):
            for path in ("block", "entry"):
                root = Path(tmp) / f"{mode}-{path}"
                registry = MetricRegistry()
                db = ColumnarTraceDatabase(
                    root, buffer_rows=256, registry=registry
                )
                fleet = quickfleet(
                    clusters=clusters,
                    machines_per_cluster=machines,
                    jobs_per_machine=jobs,
                    seed=seed,
                    machine_dram_gib=1.0,
                    job_pages_range=((1 * MIB) // PAGE_SIZE,
                                     (4 * MIB) // PAGE_SIZE),
                    scan_period=60,
                    churn_duration_range=(1800, 7200),
                    registry=registry,
                    tracer=Tracer(),
                    trace_db=db,
                )
                for index, cluster in enumerate(fleet.clusters):
                    cluster.attach_fault_injector(
                        FaultInjector(outage, SeedSequenceFactory(index))
                    )
                    for exporter in cluster.exporters.values():
                        exporter.prefer_blocks = path == "block"
                start = time.perf_counter()
                if mode == "serial":
                    fleet.run(seconds)
                else:
                    with FleetEngine(fleet, workers=workers,
                                     ship_blocks=(path == "block")) as engine:
                        engine.run(seconds)
                wall = time.perf_counter() - start
                db.flush()
                results[f"{mode}/{path}"] = {
                    "wall_seconds": round(wall, 3),
                    "rows": db.store.rows_total,
                    "segments": len(db.store.segments),
                    "files": _store_bytes(root),
                    "compiled": db.compiled_traces(),
                    "replayed_all": registry.value(
                        MetricName.TELEMETRY_REPLAYED_ENTRIES_TOTAL
                    ) == registry.value(
                        MetricName.TELEMETRY_SPILLED_ENTRIES_TOTAL) > 0,
                }

    byte_identical = all(
        results[f"{mode}/block"]["files"] == results[f"{mode}/entry"]["files"]
        for mode in ("serial", "parallel")
    )
    compiled = [results[key]["compiled"] for key in sorted(results)]
    tensors_identical = all(
        _compiled_equal(compiled[0], other) for other in compiled[1:]
    )
    outage_replayed = all(r["replayed_all"] for r in results.values())
    return {
        "clusters": clusters,
        "machines_per_cluster": machines,
        "jobs_per_machine": jobs,
        "simulated_hours": hours,
        "seed": seed,
        "workers": workers,
        "rows": results["serial/block"]["rows"],
        "segments": results["serial/block"]["segments"],
        "wall_seconds": {
            key: value["wall_seconds"] for key, value in results.items()
        },
        "stores_byte_identical": byte_identical,
        "compiled_tensors_identical": tensors_identical,
        "outage_replayed": outage_replayed,
        "equivalent": byte_identical and tensors_identical and outage_replayed,
    }


def thousand_machine_hour(machines: int = 1000, seed: int = 42,
                          budget_seconds: Optional[float] = None) -> Dict:
    """One simulated hour, ``machines`` machines, one core, columnar.

    Each 100-machine cluster keeps its page state in one columnar pool,
    so its scan and reclaim run as a handful of array sweeps instead of
    hundreds of per-machine calls.  When
    ``budget_seconds`` is given (the legacy 8-machine scalar bench
    wall), ``under_scalar_8_machine_bench`` records whether the
    thousand-machine hour beat it.
    """
    check_positive(machines, "machines")
    clusters = max(1, machines // 100)
    fleet = _build_dense_fleet(clusters, machines // clusters, 1, seed)
    start = time.perf_counter()
    fleet.run(HOUR, collect_sli=False)
    wall = time.perf_counter() - start
    report = {
        "machines": clusters * (machines // clusters),
        "jobs_per_machine": 1,
        "simulated_hours": 1.0,
        "kernel": "columnar",
        "scan_period_seconds": 240,
        "control_period_seconds": 300,
        "workers": 1,
        "seed": seed,
        "wall_seconds": round(wall, 3),
        "ticks_per_second": round((HOUR // 60) / wall, 2),
    }
    if budget_seconds is not None:
        report["scalar_8_machine_wall_seconds"] = round(budget_seconds, 3)
        report["under_scalar_8_machine_bench"] = wall < budget_seconds
    return report


def run_bench(
    hours: float = 1.0,
    clusters: int = 4,
    machines: int = 50,
    jobs: int = 1,
    seed: int = 42,
    workers: Optional[int] = None,
    barrier_seconds: int = 60,
    tick_machines: int = 20,
    tick_jobs: int = 384,
    tick_ticks: int = 10,
    equivalence_hours: float = 1.0,
    thousand_machines: int = 1000,
    output: Optional[Union[str, Path]] = None,
) -> Dict:
    """Run the full fleet benchmark and assemble the report.

    Args:
        hours: simulated hours for the serial-vs-parallel section.
        clusters / machines / jobs: serial-vs-parallel fleet shape
            (machines and jobs are per-cluster and per-machine); the
            defaults give a 200-machine dense fleet.
        seed: root seed for every section.
        workers: parallel worker count (default: usable CPUs capped
            at 4).
        barrier_seconds: engine barrier interval.
        tick_machines / tick_jobs / tick_ticks: tick-path section shape.
        equivalence_hours: simulated hours for the two-pool equivalence
            section.
        thousand_machines: machine count for the thousand-machine-hour
            section; 0 skips it (and the legacy reference run it is
            compared against).
        output: when given, the report is also written there as JSON
            (conventionally ``BENCH_fleet.json``).

    Returns:
        The report dict described in the module docstring.  The
        top-level ``equivalent`` is the conjunction of every section's
        equivalence check.
    """
    check_positive(hours, "hours")
    if workers is None:
        workers = min(4, default_worker_count())

    seconds = int(hours * HOUR)

    tick_path = tick_path_bench(tick_machines, tick_jobs, tick_ticks, seed)
    equivalence = columnar_equivalence(hours=equivalence_hours, seed=seed + 35)

    # Serial vs parallel on the dense hundreds-of-machines fleet, both on
    # the columnar pool.
    serial_fleet = _build_dense_fleet(clusters, machines, jobs, seed)
    start = time.perf_counter()
    serial_fleet.run(seconds)
    serial_wall = time.perf_counter() - start

    parallel_fleet = _build_dense_fleet(clusters, machines, jobs, seed)
    engine = FleetEngine(parallel_fleet, workers=workers,
                         barrier_seconds=barrier_seconds)
    start = time.perf_counter()
    with engine:  # one run is one session: time its close too
        stats = engine.run(seconds)
    parallel_wall = time.perf_counter() - start

    parallel_equivalent = (
        serial_fleet.coverage_report() == parallel_fleet.coverage_report()
        and serial_fleet.sli_history == parallel_fleet.sli_history
    )
    pages = _pages_scanned(serial_fleet)

    host_cores = os.cpu_count() or 1
    # A parallel "speedup" only means something when the engine actually
    # had more than one physical core to spread workers across.
    if stats.workers > 1 and stats.workers <= host_cores:
        speedup = round(serial_wall / parallel_wall, 3)
        note = None
    else:
        speedup = None
        note = (f"parallel ran with {stats.workers} worker(s) on "
                f"{host_cores} physical core(s); workers cannot exceed "
                f"physical cores, so no speedup is measurable")

    thousand = None
    if thousand_machines:
        reference = _build_fleet(_LEGACY_SHAPE["clusters"],
                                 _LEGACY_SHAPE["machines"],
                                 _LEGACY_SHAPE["jobs"], seed)
        start = time.perf_counter()
        reference.run(int(_LEGACY_SHAPE["hours"] * HOUR))
        reference_wall = time.perf_counter() - start
        thousand = thousand_machine_hour(thousand_machines, seed,
                                         budget_seconds=reference_wall)

    report = {
        "fleet": {
            "clusters": clusters,
            "machines_per_cluster": machines,
            "jobs_per_machine": jobs,
            "simulated_hours": hours,
            "seed": seed,
            "kernel": "columnar",
        },
        "host": {
            "physical_cores": host_cores,
            "usable_cpus": default_worker_count(),
        },
        "barrier_seconds": barrier_seconds,
        "ticks": stats.ticks,
        "tick_path": tick_path,
        "equivalence": equivalence,
        "serial": {
            "wall_seconds": round(serial_wall, 3),
            "ticks_per_second": round(stats.ticks / serial_wall, 2),
            "pages_scanned_per_second": round(pages / serial_wall, 0),
        },
        "parallel": {
            "mode": stats.mode,
            "workers": stats.workers,
            "barriers": stats.barriers,
            "fallback_reason": stats.fallback_reason,
            "wall_seconds": round(parallel_wall, 3),
            "ticks_per_second": round(stats.ticks / parallel_wall, 2),
            "pages_scanned_per_second": round(pages / parallel_wall, 0),
        },
        "speedup": speedup,
        "note": note,
        "thousand_machine_hour": thousand,
        "equivalent": (tick_path["equivalent"]
                       and equivalence["equivalent"]
                       and parallel_equivalent),
    }
    if output is not None:
        Path(output).write_text(
            json.dumps(report, indent=2) + "\n", encoding="utf-8"
        )
    return report
