"""Whole-fleet equivalence gates: every fast path against its reference.

* **Reference pool ≡ columnar pool.**  The same seeded churning fleet —
  job arrivals, node agents, telemetry, the lot — runs on the reference
  :class:`~repro.kernel.oracle.ScalarPagePool` and on the columnar pool,
  and must produce identical coverage reports, SLI histories (sample by
  sample), cold-age histograms of every live memcg, ``repro_far_pages``
  gauges, arena stats, per-job zswap stats and
  ``repro_pages_reclaimed_total`` series.
* **Block telemetry ≡ per-entry telemetry, serial and parallel.**  The
  same seeded columnar fleet runs four times against an on-disk
  :class:`~repro.tracestore.database.ColumnarTraceDatabase`: serially and
  under the parallel engine, each once with the blocks the exporters
  gather from pool columns and once with blocks built from per-job
  entries (:mod:`tests.telemetry_oracle`, in the workers too).  Within
  each mode the two stores must be byte-identical (segments and
  manifest), the compiled replay tensors must match across all four
  runs, and every cluster's middle machine loses its sink for the middle
  third of the run, so its spill must replay in full.

The scalar ≡ vectorized replay gate is
``tests/test_model_replay.py::TestFleetBatchEquivalence``; object ≡
columnar store replay is
``tests/test_tracestore.py::TestColumnarTraceDatabase::test_model_replays_from_columns``
and row-by-row ≡ windowed ≡ shuffled block ingest
``tests/test_tracestore_blocks.py::TestBlockEntryEquivalence``.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.cluster.wsc import quickfleet
from repro.common.rng import SeedSequenceFactory
from repro.common.units import MIB, PAGE_SIZE
from repro.engine import FleetEngine, fork_available
from repro.faults import FaultEvent, FaultInjector, FaultKind, FaultPlan
from repro.obs import MetricName, MetricRegistry, Tracer
from repro.tracestore.database import ColumnarTraceDatabase
from tests.telemetry_oracle import route_exports_through_oracle

#: The churning fleet both gates run: 1-4 MiB jobs on 1 GiB machines,
#: per-minute scans, jobs that leave and are replaced within the run.
FLEET = dict(
    machine_dram_gib=1.0,
    job_pages_range=((1 * MIB) // PAGE_SIZE, (4 * MIB) // PAGE_SIZE),
    scan_period=60,
    churn_duration_range=(1800, 7200),
)


def _pool_snapshot(kernel):
    """Everything the reference ≡ columnar gate compares, by name."""
    registry = MetricRegistry()
    fleet = quickfleet(clusters=2, machines_per_cluster=3,
                       jobs_per_machine=6, seed=77, kernel=kernel,
                       registry=registry, tracer=Tracer(), **FLEET)
    fleet.run(3600)
    return {
        "coverage": fleet.coverage_report(),
        "sli": [
            (s.job_id, s.time, s.working_set_pages, s.promotions,
             s.normalized_rate_pct_per_min, s.threshold)
            for s in fleet.sli_history
        ],
        "cold_age": [
            (job_id, memcg.cold_age_histogram.counts.tolist(),
             memcg.cold_age_histogram.young_count)
            for machine in fleet.machines
            for job_id, memcg in sorted(machine.memcgs.items())
        ],
        "far_pages": [
            (labels, s.value)
            for labels, s in registry.get(MetricName.FAR_PAGES).series()
        ],
        # What the pooled reclaim round writes: arenas, per-job zswap
        # stats (departed jobs' included) and the reclaim counters.
        "arenas": [machine.arena.stats() for machine in fleet.machines],
        "zswap": [
            (machine.machine_id, job_id, stats.pages_compressed,
             stats.pages_rejected, stats.pages_decompressed,
             stats.payload_bytes_stored)
            for machine in fleet.machines
            for job_id, stats in sorted(machine.zswap.job_stats.items())
        ],
        "reclaimed": [
            (labels, s.value) for labels, s in
            registry.get(MetricName.PAGES_RECLAIMED_TOTAL).series()
        ],
    }


class TestReferenceAndColumnarPools:
    @pytest.fixture(scope="class")
    def runs(self):
        return _pool_snapshot("scalar"), _pool_snapshot("columnar")

    def test_the_run_exercises_churn_reclaim_and_far_memory(self, runs):
        reference, _ = runs
        assert reference["sli"]
        assert any(job.startswith("churn") for _m, job, *_ in
                   reference["zswap"])
        assert any(value > 0 for _labels, value in reference["far_pages"])
        assert any(value > 0 for _labels, value in reference["reclaimed"])

    @pytest.mark.parametrize("output", [
        "coverage", "sli", "cold_age", "far_pages", "arenas", "zswap",
        "reclaimed",
    ])
    def test_pools_agree(self, runs, output):
        reference, columnar = runs
        assert columnar[output] == reference[output]


def _store_run(root: Path, parallel: bool):
    """One run of the gate's fleet; returns what the gate compares."""
    seconds = 1800
    outage = FaultPlan(events=(
        FaultEvent(time=seconds // 3, kind=FaultKind.SINK_OUTAGE,
                   duration=seconds // 3, target=1),
    ))
    registry = MetricRegistry()
    db = ColumnarTraceDatabase(root, buffer_rows=256, registry=registry)
    fleet = quickfleet(clusters=2, machines_per_cluster=3,
                       jobs_per_machine=6, seed=99, registry=registry,
                       tracer=Tracer(), trace_db=db, **FLEET)
    for index, cluster in enumerate(fleet.clusters):
        cluster.attach_fault_injector(
            FaultInjector(outage, SeedSequenceFactory(index))
        )
    mode = "serial"
    if parallel:
        with FleetEngine(fleet, workers=2) as engine:
            mode = engine.run(seconds).mode
    else:
        fleet.run(seconds)
    db.flush()
    return {
        "mode": mode,
        "files": {p.name: p.read_bytes() for p in sorted(root.iterdir())},
        # Keyed by job: serial and parallel runs intern jobs in different
        # first-seen orders; the replay unit is the per-job trace.
        "compiled": sorted(db.compiled_traces(), key=lambda c: c.job_id),
        "spilled": registry.value(
            MetricName.TELEMETRY_SPILLED_ENTRIES_TOTAL),
        "replayed": registry.value(
            MetricName.TELEMETRY_REPLAYED_ENTRIES_TOTAL),
    }


RUNS = [(mode, path) for mode in ("serial", "parallel")
        for path in ("block", "entry")]


class TestBlockAndEntryTelemetry:
    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("zero-copy")
        runs = {}
        for mode, path in RUNS:
            with pytest.MonkeyPatch.context() as patch:
                if path == "entry":
                    route_exports_through_oracle(patch)
                runs[mode, path] = _store_run(root / f"{mode}-{path}",
                                              parallel=mode == "parallel")
        return runs

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_parallel_runs_take_the_parallel_path(self, runs):
        assert runs["parallel", "block"]["mode"] == "parallel"
        assert runs["parallel", "entry"]["mode"] == "parallel"

    @pytest.mark.parametrize("mode", ["serial", "parallel"])
    def test_stores_are_byte_identical(self, runs, mode):
        block, entry = runs[mode, "block"], runs[mode, "entry"]
        assert block["files"] == entry["files"]

    @pytest.mark.parametrize("run", RUNS[1:], ids="/".join)
    def test_compiled_tensors_are_equal(self, runs, run):
        expected = runs["serial", "block"]["compiled"]
        actual = runs[run]["compiled"]
        assert expected
        assert [c.job_id for c in actual] == [c.job_id for c in expected]
        for a, b in zip(actual, expected):
            assert a.bins == b.bins
            for column in ("cold_suffix_sums", "promotion_suffix_sums",
                           "working_set_pages", "times", "resident_pages",
                           "cpu_cores"):
                np.testing.assert_array_equal(getattr(a, column),
                                              getattr(b, column))

    @pytest.mark.parametrize("run", RUNS, ids="/".join)
    def test_sink_outage_spill_replays_in_full(self, runs, run):
        assert runs[run]["spilled"] > 0
        assert runs[run]["replayed"] == runs[run]["spilled"]
