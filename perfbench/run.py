"""End-to-end benchmark of the far-memory control loop, layer by layer.

One *loop* is the paper's full control cycle on a freshly built, seeded
fleet:

1. **simulate** -- ``WSC.run`` over the simulated window: job access,
   kstaled scans, kreclaimd reclaim into zswap, node-agent control and
   telemetry export.  Telemetry leaves each machine as a column block and
   lands in a columnar ``TraceStore`` as it streams.
2. **seal** -- the store's write buffer is sealed into a segment.
3. **compile** -- ``CompiledTrace`` replay tensors straight from the
   store's columns.
4. **evaluate** -- ``FarMemoryModel.evaluate_many`` over a batch of
   candidate policy configurations (the fast far-memory model).
5. **canary** -- one ``FleetController.canary`` round of the model's best
   candidate: staged rollout, soak, SLO verdict, promote or roll back.

Building the fleet (placing every job) is *set-up* and is timed on its
own.  The benchmark repeats set-up + loop on fresh fleets for
``--seconds`` seconds and reports medians of the wall times.  Fleets
come in pairs: pair ``i`` of a run builds fleet ``--seed * 1000 + i``
twice and runs the loop on it once serially and once through the
parallel ``FleetEngine`` (``ENGINE_WORKERS`` forked workers for both the
simulation and the canary soak), so the two engines see the same inputs
and the same host conditions.  A run's inputs depend only on ``--seed``,
and the median over many fleets keeps the figures steady from seed to
seed.

The host this runs on is shared, and its speed drifts by tens of percent
over minutes; the loop's CPU time drifts with its wall time, so the
drift is in the host, not in waiting.  ``loop_s`` and ``setup_s`` are
therefore *normalized* seconds: a fixed calibration kernel is timed once
before every loop, and the run's median wall times are divided by the
median kernel time over its nominal ``REFERENCE_SECONDS``.  They read as
seconds on a host where the kernel takes exactly that long.  The kernel
never changes with the program, so a faster program still reads faster.
``parallel_speedup`` is a ratio of two back-to-back wall times and needs
no correction.

With ``--trace 0`` every tracer is off and the end-to-end metrics are
printed.  With ``--trace 1`` the tracer is on and the per-layer table is
printed: the self time of each span subsystem
(``repro.obs.profiling.subsystem_table``) per serial loop, which adds up
to the loop's wall time, plus per-layer throughput and the parent's
``fleet`` self time under the parallel engine (worker spans stay in the
workers).  Spans the program does not emit itself (store append and
seal, compile, evaluate, and the glue around ``WSC.run``) are opened
here, around the calls into those layers.

Correctness: every loop is checked (rows ingested, one replay report per
candidate, a canary verdict backed by SLI evidence, memory actually
reclaimed, the parallel engine really ran in parallel), and the serial
and parallel loops of every pair must produce the same digest bit for
bit.  Before the timed window fleet 0 is run untimed on both engines,
and its serial store is replayed through the object path (``TraceEntry`` ->
``JobTrace.compile``), which must give the same fleet reports as the
columnar path; after it, fleet 0 is run serially once more under
``tracemalloc``.  Both must reproduce the timed digest.

Usage, from the repository root::

    python3 perfbench/run.py --workload loop --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench-work"

#: ``Cluster`` seeds each job's RNG from ``hash(job_id)``, so a run is only
#: reproducible under a fixed string-hash seed.
HASH_SEED = "0"

#: Every fleet has this many clusters (the parallel engine shards by
#: cluster, one per worker).
CLUSTERS = 2
#: Forked workers of the parallel engine.
ENGINE_WORKERS = 2
#: Simulated seconds of the loop's ``WSC.run``.
SIM_SECONDS = 1800
#: Simulated soak seconds of each of the canary's two stages.
SOAK_SECONDS = 300


@dataclass(frozen=True)
class Workload:
    """One fleet shape."""

    name: str
    machines: int  # per cluster
    jobs: int  # per machine
    dram_gib: float
    job_pages: Tuple[int, int]
    cold_fraction: float


# Job sizes are drawn lognormal around 512 MiB and clipped to
# ``job_pages``, so with these small ranges nearly every job sits at the
# upper clip: fleets differ from seed to seed in access patterns, cold
# fractions and lifetimes, not in size.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # Every layer of the loop does real work.
        Workload("loop", machines=4, jobs=6, dram_gib=1.0,
                 job_pages=(256, 1024), cold_fraction=0.32),
        # Many small machines with one tiny job each: per-machine
        # dispatch of ticks, agents and exporters dominates, and the
        # parallel engine ships one block per machine at every barrier.
        Workload("dense", machines=24, jobs=1, dram_gib=0.25,
                 job_pages=(16, 64), cold_fraction=0.90),
    )
}

#: Nominal duration of one :func:`_reference_kernel` call (see the module
#: docstring on normalized seconds).
REFERENCE_SECONDS = 0.01

#: Span subsystems reported per layer; anything else lands in ``other``.
LAYERS = ("fleet", "cluster", "kstaled", "kreclaimd", "zswap", "zsmalloc",
          "agent", "telemetry", "tracestore", "compile", "model", "canary")


def _reference_kernel() -> float:
    """Run a fixed mix of the simulator's kinds of work -- interpreted
    loops over small objects, numpy sweeps, gathers and scatter-adds on
    page-sized arrays -- and return its wall time.  It never changes with
    the program, so its time tracks only the host's momentary speed."""
    import numpy as np

    start = time.perf_counter()
    rng = np.random.default_rng(0)
    pages = rng.integers(0, 255, 20_000).astype(np.int32)
    table: Dict[int, float] = {}
    for i in range(4_000):
        table[i % 97] = table.get(i % 97, 0.0) + i * 0.5
    for _ in range(20):
        idle = pages > 100
        pages[idle] += 1
        pages[~idle] = 0
        np.bincount(pages, minlength=256)
        order = np.argsort(pages[::7], kind="stable")
        pages[order] ^= 1
    return time.perf_counter() - start


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program() -> None:
    """Import the package from ``src/`` of the checkout this file is in."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        _fail(f"no program sources under {src}")
    sys.path.insert(0, str(src))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        _fail(f"cannot import the program: {exc}")


# ----------------------------------------------------------------------
# One loop
# ----------------------------------------------------------------------


def _timed_database(root: Path, tracer, registry):
    """A columnar trace database whose ingest calls open spans."""
    from repro.tracestore import ColumnarTraceDatabase

    class TimedDatabase(ColumnarTraceDatabase):
        rows_appended = 0

        def add(self, entry):
            with tracer.span("tracestore.append"):
                super().add(entry)
            self.rows_appended += 1

        def add_batch(self, entries):
            with tracer.span("tracestore.append"):
                super().add_batch(entries)
            self.rows_appended += len(entries)

        def add_block(self, block):
            with tracer.span("tracestore.append"):
                super().add_block(block)
            self.rows_appended += block.n_rows

        def flush(self):
            with tracer.span("tracestore.seal"):
                return super().flush()

    return TimedDatabase(root, registry=registry)


def candidate_configs():
    """A fixed batch of eight configs across the autotuner's search space
    (K, S, spike reaction)."""
    from repro.core.threshold_policy import ThresholdPolicyConfig

    ks = (90.0, 95.0, 98.0, 99.0)
    warmups = (600, 1800)
    return [
        ThresholdPolicyConfig(
            percentile_k=ks[i % len(ks)],
            warmup_seconds=warmups[i // len(ks)],
            spike_reaction=(i % 5) != 4,
        )
        for i in range(len(ks) * len(warmups))
    ]


@dataclass
class LoopResult:
    setup_seconds: float
    loop_seconds: float
    peak_bytes: int
    digest: str
    errors: List[str]
    pages_scanned: float
    rows: int
    configs: int


def _pages_scanned(registry) -> float:
    from repro.obs import MetricName

    return sum(
        value
        for (name, _labels), value in registry.baseline().items()
        if name == MetricName.PAGES_SCANNED_TOTAL
    )


def _digest(fleet, compiled, reports, decision) -> str:
    """A hash of everything the loop produced."""
    h = hashlib.sha256()
    h.update(repr(sorted(fleet.coverage_report().items())).encode())
    for s in fleet.sli_history:
        h.update(repr((s.job_id, s.time, s.working_set_pages, s.promotions,
                       s.normalized_rate_pct_per_min,
                       s.threshold)).encode())
    for trace in compiled:
        h.update(trace.job_id.encode())
        for attr in ("cold_suffix_sums", "promotion_suffix_sums",
                     "working_set_pages", "times", "resident_pages",
                     "cpu_cores"):
            h.update(getattr(trace, attr).tobytes())
    for r in reports:
        h.update(repr((r.total_cold_pages, r.promotion_rate_p98)).encode())
    h.update(repr(decision.signature()).encode())
    return h.hexdigest()


def _pick_candidate(reports):
    """The tuner's choice: most cold memory among SLO-feasible configs,
    else the config with the lowest promotion rate."""
    feasible = [r for r in reports if r.meets_slo]
    if feasible:
        return max(feasible, key=lambda r: r.total_cold_pages)
    return min(reports, key=lambda r: r.promotion_rate_p98)


def run_loop(work: Workload, seed: int, tracer, store_dir: Path,
             parallel: bool, check_oracle: bool = False) -> LoopResult:
    """Set up one fleet and run the loop on it once, serially or through
    the parallel engine.  Under ``tracemalloc`` the peak is reset after
    set-up, so ``peak_bytes`` is the highest traced memory while the loop
    runs (the fleet it holds included)."""
    from repro.autotuner.controller import FleetController
    from repro.autotuner.deployment import DeploymentStage
    from repro.cluster.wsc import quickfleet
    from repro.core.slo import PromotionRateSlo
    from repro.core.threshold_policy import PaperPolicy
    from repro.engine import FleetEngine
    from repro.model.replay import FarMemoryModel
    from repro.obs import MetricRegistry, set_registry, set_tracer

    registry = MetricRegistry()
    set_registry(registry)
    set_tracer(tracer)
    configs = candidate_configs()
    slo = PromotionRateSlo()
    stages = (
        DeploymentStage("qualification", 0.5, SOAK_SECONDS),
        DeploymentStage("production", 1.0, SOAK_SECONDS),
    )

    start = time.perf_counter()
    db = _timed_database(store_dir, tracer, registry)
    fleet = quickfleet(
        clusters=CLUSTERS,
        machines_per_cluster=work.machines,
        jobs_per_machine=work.jobs,
        seed=seed,
        machine_dram_gib=work.dram_gib,
        job_pages_range=work.job_pages,
        mean_cold_fraction=work.cold_fraction,
        kernel="columnar",
        pool_scope="cluster",
        churn_duration_range=(1800, 7200),
        registry=registry,
        tracer=tracer,
        trace_db=db,
    )
    engine = FleetEngine(fleet, workers=ENGINE_WORKERS) if parallel else None
    setup = time.perf_counter() - start
    tracer.reset()
    if tracemalloc.is_tracing():
        tracemalloc.reset_peak()

    start = time.perf_counter()
    with tracer.span("fleet.run"):
        fleet.run(SIM_SECONDS, engine=engine)
    mode = engine.last_stats.mode if engine else "serial"
    db.flush()
    with tracer.span("compile.columns"):
        # Sorted by job: the parallel engine interns jobs in another order,
        # and the model's fleet sums depend on the order of their terms.
        compiled = sorted(db.compiled_traces(), key=lambda c: c.job_id)
    # The canary soak appends more telemetry; checks compare against the
    # store as the model saw it.
    jobs_seen = len(db.job_ids)
    compiled_end = 1 + max(int(c.times[-1]) for c in compiled if c.intervals)
    with tracer.span("model.evaluate"):
        with FarMemoryModel(compiled, slo, registry=registry,
                            tracer=tracer) as model:
            reports = model.evaluate_many(configs)
    with tracer.span("canary.decide"):
        chosen = _pick_candidate(reports)
        controller = FleetController(
            fleet, stages=stages, registry=registry, tracer=tracer,
            engine=engine,
        )
        decision = controller.canary(PaperPolicy(chosen.config))
    elapsed = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1] if tracemalloc.is_tracing() else 0

    errors = []
    if parallel and mode != "parallel":
        errors.append("the parallel engine fell back to a serial run: "
                      f"{engine.last_stats.fallback_reason}")
    rows = db.store.rows_total
    if rows == 0 or rows != db.rows_appended:
        errors.append(f"store holds {rows} rows, {db.rows_appended} appended")
    if len(compiled) != jobs_seen:
        errors.append(f"{len(compiled)} compiled traces for {jobs_seen} jobs")
    if len(reports) != len(configs) or not all(
        math.isfinite(r.promotion_rate_p98) and r.total_cold_pages >= 0
        for r in reports
    ):
        errors.append("replay reports missing or not finite")
    if decision.reason == "insufficient-coverage":
        errors.append("canary failed closed: no SLI evidence")
    if any(o.unattributed_samples for o in decision.outcomes):
        errors.append("canary lost SLI samples to attribution")
    if decision.far_pages <= 0:
        errors.append("no memory was reclaimed to far memory")
    if check_oracle:
        traces = sorted(db.traces(end=compiled_end), key=lambda t: t.job_id)
        with FarMemoryModel(traces, slo, registry=registry,
                            tracer=tracer) as oracle:
            # repr, not ==: reports carry NaN rates for zero-WSS intervals.
            if repr(oracle.evaluate_many(configs)) != repr(reports):
                errors.append("columnar replay differs from the object path")

    return LoopResult(
        setup_seconds=setup,
        loop_seconds=elapsed,
        peak_bytes=peak,
        digest=_digest(fleet, compiled, reports, decision),
        errors=errors,
        pages_scanned=_pages_scanned(registry),
        rows=rows,
        configs=len(configs),
    )


# ----------------------------------------------------------------------
# A run
# ----------------------------------------------------------------------


def _median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _layer_metrics(tables: List[Tuple[Dict[str, float], Dict[str, float]]],
                   pairs: List[Tuple[LoopResult, LoopResult]]) -> Dict[str, Dict]:
    """Per-layer medians over the traced serial loops, plus the parent's
    ``fleet`` self time under the parallel engine."""
    serial = [t for t, _ in tables]
    results = [r for r, _ in pairs]
    metrics: Dict[str, Dict] = {}
    for layer in LAYERS:
        metrics[f"{layer}_self_s"] = {
            "value": _median([t.get(layer, 0.0) for t in serial]),
            "unit": "s",
        }
    metrics["other_self_s"] = {
        "value": _median([
            sum(v for k, v in t.items() if k not in LAYERS) for t in serial
        ]),
        "unit": "s",
    }
    metrics["attributed_share"] = {
        "value": _median([
            sum(t.values()) / r.loop_seconds for t, r in zip(serial, results)
        ]),
        "unit": "ratio",
    }
    metrics["parallel_fleet_self_s"] = {
        "value": _median([t.get("fleet", 0.0) for _, t in tables]),
        "unit": "s",
    }

    def rate(name, layer, work_of):
        metrics[name] = {
            "value": _median([
                work_of(r) / t[layer]
                for t, r in zip(serial, results) if t.get(layer, 0.0) > 0
            ]),
            "unit": "1/s",
        }

    rate("kstaled_pages_per_s", "kstaled", lambda r: r.pages_scanned)
    rate("tracestore_rows_per_s", "tracestore", lambda r: r.rows)
    rate("model_configs_per_s", "model", lambda r: r.configs)
    return metrics


def run(work: Workload, seed: int, seconds: float, trace: bool) -> Dict:
    from repro.obs import Tracer, subsystem_table

    WORK_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    pairs: List[Tuple[LoopResult, LoopResult]] = []
    tables: List[Tuple[Dict[str, float], Dict[str, float]]] = []
    kernel_seconds: List[float] = []
    failed = 0
    try:
        # Untimed warm-up pair on fleet 0: finishes lazy imports and the
        # first fork before timing, and checks the columnar replay against
        # the object-path oracle.
        warmup = [
            run_loop(work, seed * 1000, Tracer(enabled=False),
                     scratch / f"warmup-{int(parallel)}", parallel,
                     check_oracle=not parallel)
            for parallel in (False, True)
        ]

        deadline = time.perf_counter() + seconds
        while not pairs or time.perf_counter() < deadline:
            index = len(pairs)
            pair, pair_tables = [], []
            for parallel in (False, True):
                gc.collect()
                kernel_seconds.append(_reference_kernel())
                tracer = Tracer(enabled=trace, max_records=0)
                store_dir = scratch / f"store-{index}-{int(parallel)}"
                pair.append(run_loop(work, seed * 1000 + index, tracer,
                                     store_dir, parallel))
                shutil.rmtree(store_dir, ignore_errors=True)
                pair_tables.append({s.name: s.self_seconds
                                    for s in subsystem_table(tracer)})
            serial, parallel_ = pair
            errors = serial.errors + parallel_.errors
            if serial.digest != parallel_.digest:
                errors.append("serial and parallel engines differ")
            if errors:
                failed += 1
                for error in errors:
                    print(f"pair {index}: {error}", file=sys.stderr)
            pairs.append((serial, parallel_))
            tables.append((pair_tables[0], pair_tables[1]))

        # Untimed: fleet 0 once more, serially, under tracemalloc for the
        # loop's peak memory.
        gc.collect()
        tracemalloc.start()
        try:
            final = run_loop(work, seed * 1000, Tracer(enabled=False),
                             scratch / "final", parallel=False)
        finally:
            tracemalloc.stop()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    errors = warmup[0].errors + warmup[1].errors + final.errors
    digests = {r.digest for r in (*warmup, *pairs[0], final)}
    if len(digests) != 1:
        errors.append("fleet 0 did not reproduce bit for bit")
    for error in errors:
        print(f"check: {error}", file=sys.stderr)

    if trace:
        metrics = _layer_metrics(tables, pairs)
    else:
        slowdown = _median(kernel_seconds) / REFERENCE_SECONDS
        metrics = {
            "loop_s": {
                "value": _median([s.loop_seconds for s, _ in pairs]) / slowdown,
                "unit": "s",
            },
            # Serial over parallel wall time of the same fleet, run back to
            # back: the engine's speed-up (below 1 where it costs more than
            # it saves), with the host's drift between pairs cancelled.
            "parallel_speedup": {
                "value": _median([s.loop_seconds / p.loop_seconds
                                  for s, p in pairs]),
                "unit": "ratio",
            },
            "peak_mib": {"value": final.peak_bytes / 2**20, "unit": "MiB"},
            "setup_s": {
                "value": _median([r.setup_seconds
                                  for pair in pairs for r in pair]) / slowdown,
                "unit": "s",
            },
        }
    return {
        "correct": failed == 0 and not errors,
        "attempted": len(pairs),
        "failed": failed,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the far-memory control loop."
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        _fail("--seed must be >= 0 and --seconds > 0")

    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Re-execute in place (no child process) with a fixed hash seed and
        # without the test suite's runtime invariant checks.
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        env.pop("REPRO_CHECKS", None)
        os.execve(sys.executable, [sys.executable] + sys.argv, env)

    _import_program()
    report = run(WORKLOADS[args.workload], args.seed, args.seconds,
                 bool(args.trace))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
