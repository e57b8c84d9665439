"""The parallel fleet engine: sharding, delta merge, serial equivalence."""

import gc
import io
import multiprocessing as mp
import pickle
import time

import pytest

from repro.autotuner import DeploymentStage, FleetController
from repro.cluster import quickfleet
from repro.common.errors import ConfigurationError
from repro.common.units import HOUR
from repro.core.threshold_policy import PaperPolicy
from repro.engine import (
    FleetEngine,
    ShardPlan,
    fork_available,
    plan_shards,
)
from repro.obs import MetricName, MetricRegistry, Tracer

#: Integer-valued counters that merge exactly across engines.
INTEGER_COUNTERS = (
    "repro_pages_scanned_total",
    "repro_pages_promoted_total",
    "repro_pages_compressed_total",
)


def _series(fleet, names):
    """Raw registry values of every series in the named families."""
    return {
        key: value
        for key, value in fleet.registry.baseline().items()
        if key[0] in names
    }


def _churn_fleet(seed=7, clusters=3):
    """A small churning fleet with private observability objects."""
    return quickfleet(
        clusters=clusters,
        machines_per_cluster=2,
        jobs_per_machine=3,
        seed=seed,
        churn_duration_range=(1800, 7200),
        registry=MetricRegistry(),
        tracer=Tracer(),
    )


#: A two-stage canary ladder with short soaks: each soak is one more
#: engine run of the session.
SESSION_STAGES = (
    DeploymentStage("qualification", 0.5, 600),
    DeploymentStage("production", 1.0, 600),
)


def _cluster_name(cluster):
    return cluster.name


def _far_pages(cluster):
    return sum(m.far_pages for m in cluster.machines)


def _spy_forks(monkeypatch):
    """Record every forked worker process started from now on."""
    import multiprocessing.context as mpc

    started = []
    real_start = mpc.ForkProcess.start

    def spy(proc):
        started.append(proc)
        real_start(proc)

    monkeypatch.setattr(mpc.ForkProcess, "start", spy)
    return started


class TestShardPlanning:
    def test_balanced_lpt_assignment(self):
        plans = plan_shards([8, 1, 1, 1, 1, 4], workers=2)
        assert len(plans) == 2
        # LPT: the size-8 cluster alone, the rest together (8 vs 8).
        weights = sorted(p.weight for p in plans)
        assert weights == [8.0, 8.0]

    def test_indices_ascending_and_plans_ordered(self):
        plans = plan_shards([3, 5, 2, 5, 1], workers=3)
        for plan in plans:
            assert list(plan.cluster_indices) == sorted(plan.cluster_indices)
        firsts = [p.cluster_indices[0] for p in plans]
        assert firsts == sorted(firsts)

    def test_every_cluster_assigned_exactly_once(self):
        plans = plan_shards([2, 2, 2, 2, 2, 2, 2], workers=3)
        assigned = [i for p in plans for i in p.cluster_indices]
        assert sorted(assigned) == list(range(7))

    def test_more_workers_than_clusters_drops_empty_shards(self):
        plans = plan_shards([1, 1], workers=8)
        assert len(plans) == 2

    def test_deterministic(self):
        a = plan_shards([5, 3, 3, 2, 8], workers=3)
        b = plan_shards([5, 3, 3, 2, 8], workers=3)
        assert a == b

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ConfigurationError):
            plan_shards([], workers=2)
        with pytest.raises(ConfigurationError):
            plan_shards([1, 2], workers=0)


class TestRegistryDeltaMerge:
    def test_counter_delta_ships_increment_only(self):
        reg = MetricRegistry()
        c = reg.counter("repro_pages_total", "Pages.", ("machine",))
        c.labels(machine="m0").inc(5)
        base = reg.mark()
        c.labels(machine="m0").inc(3)
        c.labels(machine="m1").inc(2)
        delta = reg.delta(base)
        by_label = {
            tuple(sorted(r["labels"].items())): r["value"] for r in delta
        }
        assert by_label[(("machine", "m0"),)] == 3
        assert by_label[(("machine", "m1"),)] == 2

    def test_merge_reconstructs_totals(self):
        parent = MetricRegistry()
        parent.counter(
            "repro_pages_total", "Pages.", ("machine",)
        ).labels(machine="m0").inc(5)

        shard = MetricRegistry()
        c = shard.counter("repro_pages_total", "Pages.", ("machine",))
        c.labels(machine="m0").inc(5)  # fork-time copy
        base = shard.mark()
        c.labels(machine="m0").inc(7)
        parent.merge(shard.delta(base))
        assert parent.value("repro_pages_total") == 12

    def test_merge_histogram_buckets_and_sum(self):
        parent = MetricRegistry()
        shard = MetricRegistry()
        h = shard.histogram("repro_lat_seconds", "Latency.",
                            buckets=(0.1, 1.0))
        base = shard.mark()
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)
        parent.merge(shard.delta(base))
        merged = parent.histogram("repro_lat_seconds")
        assert merged.count == 3
        assert merged.sum == pytest.approx(5.55)

    def test_merge_gauge_takes_absolute_value(self):
        parent = MetricRegistry()
        parent.gauge("repro_g").set(1.0)
        shard = MetricRegistry()
        base = shard.mark()
        shard.gauge("repro_g").set(42.0)
        parent.merge(shard.delta(base))
        assert parent.gauge("repro_g").value == 42.0

    def test_unchanged_series_not_shipped(self):
        reg = MetricRegistry()
        reg.counter("repro_c_total").inc(4)
        reg.gauge("repro_g").set(2.0)
        base = reg.mark()
        assert reg.delta(base) == []


class TestTracerMerge:
    def test_span_stats_fold_in(self):
        parent = Tracer()
        with parent.span("cluster.tick"):
            pass
        shard = Tracer()
        for _ in range(3):
            with shard.span("cluster.tick"):
                pass
        with shard.span("kstaled.scan"):
            pass
        parent.merge(shard.stats())
        stats = parent.stats()
        assert stats["cluster.tick"].calls == 4
        assert stats["kstaled.scan"].calls == 1


class TestFallbacks:
    def test_single_cluster_runs_serially(self):
        fleet = _churn_fleet(clusters=1)
        engine = FleetEngine(fleet, workers=4)
        stats = engine.run(600)
        assert stats.mode == "serial"
        assert stats.fallback_reason == "fewer than 2 clusters"

    def test_single_worker_runs_serially(self):
        fleet = _churn_fleet()
        stats = FleetEngine(fleet, workers=1).run(600)
        assert stats.mode == "serial"

    def test_shared_churn_source_detected(self):
        fleet = _churn_fleet()
        # Rewire every cluster to one shared generator method, the
        # configuration the engine must refuse to shard.
        source = fleet.clusters[0]._job_source
        for cluster in fleet.clusters:
            cluster._job_source = source
        engine = FleetEngine(fleet, workers=2)
        ok, reason = engine.parallelizable()
        assert not ok
        assert "churn" in reason

    def test_serial_fallback_matches_wsc_run(self):
        a = _churn_fleet()
        b = _churn_fleet()
        a.run(1 * HOUR)
        stats = FleetEngine(b, workers=1).run(1 * HOUR)
        assert stats.mode == "serial"
        assert a.coverage_report() == b.coverage_report()
        assert a.sli_history == b.sli_history


class TestClusterPickling:
    def test_cluster_roundtrips_through_pickle(self):
        fleet = _churn_fleet()
        fleet.run(600)
        cluster = fleet.clusters[0]
        clone = pickle.loads(pickle.dumps(cluster))
        assert clone.name == cluster.name
        assert set(clone.running) == set(cluster.running)
        # Event subscribers are dropped by EventLog.__getstate__ (they
        # close over unpicklable runtime objects) and re-wired on rebind.
        assert clone.events._subscribers == []


@pytest.mark.skipif(not fork_available(), reason="needs fork start method")
class TestParallelEquivalence:
    #: Processes that tick shards, the parent included.
    WORKERS = 2

    @pytest.fixture(scope="class")
    def pair(self):
        """One serial and one engine-driven run of the same fleet."""
        serial = _churn_fleet()
        parallel = _churn_fleet()
        serial.run(2 * HOUR)
        engine = FleetEngine(parallel, workers=self.WORKERS)
        stats = engine.run(2 * HOUR)
        return serial, parallel, stats

    def test_parallel_path_taken(self, pair):
        _, parallel, stats = pair
        assert stats.mode == "parallel"
        assert stats.workers == self.WORKERS
        assert stats.advances == 2  # one per simulated hour
        assert stats.shard_fallbacks == 0
        assert parallel.registry.value(
            MetricName.ENGINE_SHARD_FALLBACKS_TOTAL) == 0

    def test_coverage_reports_identical(self, pair):
        serial, parallel, _ = pair
        assert serial.coverage_report() == parallel.coverage_report()

    def test_sli_histories_identical(self, pair):
        serial, parallel, _ = pair
        assert len(serial.sli_history) > 0
        assert serial.sli_history == parallel.sli_history

    def test_traces_identical_per_job(self, pair):
        serial, parallel, _ = pair
        assert serial.trace_db.job_ids == parallel.trace_db.job_ids
        for job_id in serial.trace_db.job_ids:
            a = [e.to_dict()
                 for e in serial.trace_db.trace_for(job_id).entries]
            b = [e.to_dict()
                 for e in parallel.trace_db.trace_for(job_id).entries]
            assert a == b

    def test_integer_counters_identical(self, pair):
        serial, parallel, _ = pair
        pick = lambda fleet: {
            key: value
            for key, value in fleet.registry.baseline().items()
            if key[0] in ("repro_pages_scanned_total",
                          "repro_pages_promoted_total",
                          "repro_pages_compressed_total")
        }
        a, b = pick(serial), pick(parallel)
        assert a and a == b

    def test_tracer_span_calls_identical(self, pair):
        serial, parallel, _ = pair
        a = {k: v.calls for k, v in serial.tracer.stats().items()}
        b = {k: v.calls for k, v in parallel.tracer.stats().items()}
        assert a and a == b

    def test_fleet_continues_identically_after_engine_run(self, pair):
        serial, parallel, _ = pair
        serial.run(30 * 60)
        parallel.run(30 * 60)  # plain serial WSC.run on rebound state
        assert serial.coverage_report() == parallel.coverage_report()
        assert serial.sli_history == parallel.sli_history
        # Every cluster exports into the fleet's database again.
        assert serial.trace_db.job_ids == parallel.trace_db.job_ids
        for job_id in serial.trace_db.job_ids:
            a = [e.to_dict()
                 for e in serial.trace_db.trace_for(job_id).entries]
            b = [e.to_dict()
                 for e in parallel.trace_db.trace_for(job_id).entries]
            assert a == b


class TestParentShardBesideTwoWorkers(TestParallelEquivalence):
    """3 clusters on 3 workers: every cluster is a shard of its own, and
    the parent ticks one of them beside two forked workers."""

    WORKERS = 3


class _DieOn:
    """A worker's pipe end that reads as closed at ``command``.

    The first ``serve`` occurrences of ``command`` pass through; the next
    one raises ``EOFError``, so the worker exits without replying, exactly
    as if it had died at that point of the protocol.  With ``hang`` the
    worker instead stops answering there, until the parent kills it.
    """

    def __init__(self, conn, command, serve=0, hang=False):
        self._conn = conn
        self._command = command
        self._serve = serve
        self._hang = hang

    def recv(self):
        msg = self._conn.recv()
        if msg[0] == self._command:
            if self._serve == 0:
                if self._hang:
                    time.sleep(600)  # never replies; parent terminates us
                raise EOFError
            self._serve -= 1
        return msg

    def __getattr__(self, name):
        return getattr(self._conn, name)


@pytest.mark.skipif(not fork_available(), reason="needs fork start method")
class TestWorkerFailureFallback:
    """A hung or dead worker degrades to an in-parent serial re-execution
    of its shard — the run completes with serial-identical results.

    Runs use 2 workers, so exactly one shard is forked (the parent ticks
    the other itself) and the patched worker loop fails that one.

    Span-profile equality is deliberately not asserted here: the failed
    worker never reports its tracer stats, so profiling under
    degradation is best-effort by design.
    """

    def run_degraded(self, monkeypatch, patched_worker, seconds=1 * HOUR):
        import repro.engine.parallel as par

        serial = _churn_fleet(seed=13)
        degraded = _churn_fleet(seed=13)
        serial.run(seconds)
        monkeypatch.setattr(par, "_worker_main", patched_worker)
        engine = FleetEngine(degraded, workers=2, recv_timeout_seconds=2.0)
        stats = engine.run(seconds)
        return serial, degraded, stats

    def test_hung_worker_finishes_via_serial_fallback(self, monkeypatch):
        import repro.engine.parallel as par

        real = par._worker_main

        def hang_worker(conn, fleet, cluster_indices, *args):
            time.sleep(600)  # never replies; parent terminates us
            real(conn, fleet, cluster_indices, *args)

        serial, degraded, stats = self.run_degraded(
            monkeypatch, hang_worker
        )
        assert stats.mode == "parallel"
        assert stats.shard_fallbacks == 1
        assert degraded.registry.value(
            "repro_engine_shard_fallbacks_total") == 1
        assert serial.sli_history == degraded.sli_history
        assert serial.coverage_report() == degraded.coverage_report()
        for job_id in serial.trace_db.job_ids:
            a = [e.to_dict()
                 for e in serial.trace_db.trace_for(job_id).entries]
            b = [e.to_dict()
                 for e in degraded.trace_db.trace_for(job_id).entries]
            assert a == b

    @pytest.mark.parametrize(
        "seconds, serve, advances",
        [(2 * HOUR + 30 * 60, 1, 3), (1 * HOUR, 0, 1)],
        ids=["after-first-advance", "on-final-reply"],
    )
    def test_worker_death_counts_metrics_once(self, monkeypatch, seconds,
                                              serve, advances):
        """Exactly-once metrics under worker failure: the taken-over
        shard's counters, SLI samples and coverage match serial whether
        the worker dies mid-run, after one merged advance (the catch-up
        replay counts into a scratch registry, and the parent ticks the
        shard for the rest of the run), or on the run's final reply (its
        SLI samples, telemetry and metric delta all lost with it)."""
        import repro.engine.parallel as par

        real = par._worker_main

        def die_on_command(conn, fleet, cluster_indices, *args):
            real(_DieOn(conn, "advance", serve), fleet, cluster_indices,
                 *args)

        serial, degraded, stats = self.run_degraded(
            monkeypatch, die_on_command, seconds
        )
        assert stats.mode == "parallel"
        assert stats.advances == advances
        assert stats.shard_fallbacks == 1
        assert degraded.registry.value(
            MetricName.ENGINE_SHARD_FALLBACKS_TOTAL) == 1
        a = _series(serial, INTEGER_COUNTERS)
        b = _series(degraded, INTEGER_COUNTERS)
        assert a and a == b
        assert serial.sli_history == degraded.sli_history
        assert serial.coverage_report() == degraded.coverage_report()

    def test_dead_worker_finishes_via_serial_fallback(self, monkeypatch):
        import repro.engine.parallel as par

        real = par._worker_main

        def die_at_start(conn, fleet, cluster_indices, *args):
            conn.close()  # silent death: EOF at the parent

        serial, degraded, stats = self.run_degraded(
            monkeypatch, die_at_start
        )
        assert stats.mode == "parallel"
        assert stats.shard_fallbacks == 1
        assert serial.sli_history == degraded.sli_history
        assert serial.coverage_report() == degraded.coverage_report()

    def test_reported_worker_error_still_raises(self, monkeypatch):
        from repro.engine.parallel import EngineError

        import repro.engine.parallel as par

        def report_error(conn, fleet, cluster_indices, *args):
            # Follow the protocol (wait for a command) before replying,
            # otherwise the parent's send may hit a broken pipe and be
            # treated as a recoverable worker loss instead.
            conn.recv()
            conn.send(("error", "synthetic worker crash"))
            conn.close()

        monkeypatch.setattr(par, "_worker_main", report_error)
        fleet = _churn_fleet(seed=13)
        engine = FleetEngine(fleet, workers=2, recv_timeout_seconds=5.0)
        with pytest.raises(EngineError, match="synthetic worker crash"):
            engine.run(600)
        # The shard the parent ticked still exports into the fleet.
        for cluster in fleet.clusters:
            assert cluster.trace_db is fleet.trace_db
            for exporter in cluster.exporters.values():
                assert exporter.sink is fleet.trace_db

    def test_rejects_nonpositive_timeout(self):
        from repro.common.errors import ConfigurationError

        fleet = _churn_fleet(seed=13)
        with pytest.raises(ConfigurationError):
            FleetEngine(fleet, workers=2, recv_timeout_seconds=0)


@pytest.mark.skipif(not fork_available(), reason="needs fork start method")
def test_wsc_run_delegates_to_engine():
    serial = _churn_fleet(seed=11)
    parallel = _churn_fleet(seed=11)
    serial.run(1 * HOUR)
    engine = FleetEngine(parallel, workers=2)
    parallel.run(1 * HOUR, engine=engine)
    assert engine.last_stats is not None
    assert engine.last_stats.mode == "parallel"
    assert serial.coverage_report() == parallel.coverage_report()


@pytest.mark.skipif(not fork_available(), reason="needs fork start method")
class TestMetricShipping:
    """Metrics cross the fork boundary once per advance (one per run of
    up to a simulated hour), not per tick."""

    def test_merge_called_once_per_shard_per_run(self, monkeypatch):
        """One merge per *forked* shard: the parent's own shard counts
        into the live registry and has no delta to merge."""
        merged = []
        real_merge = MetricRegistry.merge

        def spy(registry, source):
            merged.append(source)
            real_merge(registry, source)

        monkeypatch.setattr(MetricRegistry, "merge", spy)
        fleet = _churn_fleet(seed=5)
        stats = FleetEngine(fleet, workers=2).run(30 * 60)
        assert stats.mode == "parallel" and stats.advances == 1
        assert len(merged) == stats.workers - 1
        assert all(isinstance(delta, list) and delta for delta in merged)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_healthy_run_forks_one_worker_fewer(self, monkeypatch, workers):
        """W - 1 forks per *session*: none in the constructor, none for a
        second run or a canary's soaks, and none until the close."""
        started = _spy_forks(monkeypatch)
        fleet = _churn_fleet(seed=5)
        engine = FleetEngine(fleet, workers=workers)
        assert started == []
        for _ in range(2):
            stats = engine.run(10 * 60)
            assert stats.mode == "parallel" and stats.workers == workers
            assert stats.shard_fallbacks == 0
        decision = FleetController(
            fleet, stages=SESSION_STAGES, registry=fleet.registry,
            tracer=fleet.tracer, engine=engine,
        ).canary(PaperPolicy())
        assert len(decision.outcomes) >= 1
        assert fleet._session is not None  # the session is still open
        assert len(started) == workers - 1
        engine.close()
        assert len(started) == workers - 1

    def test_parent_gc_untouched(self):
        """Workers freeze their inherited heap; the parent's collector
        keeps its state."""
        assert gc.isenabled() and gc.get_freeze_count() == 0
        fleet = _churn_fleet(seed=5)
        assert FleetEngine(fleet, workers=2).run(10 * 60).mode == "parallel"
        assert gc.isenabled()
        assert gc.get_freeze_count() == 0

    def test_advance_reply_ships_the_interval(self):
        """Drive the worker loop in-process: an ``advance`` reply holds the
        interval's tagged SLI batches, one trace delta per tick, the span
        stats and one metric delta since the previous reply; ``close``
        ships the clusters, which carry no metric series, and ends the
        loop."""
        import threading

        from repro.engine.parallel import _worker_main
        from repro.obs.metrics import (
            _CounterSeries,
            _GaugeSeries,
            _HistogramSeries,
        )

        fleet = _churn_fleet(seed=5, clusters=2)
        scanned_before = fleet.registry.value(MetricName.PAGES_SCANNED_TOTAL)
        parent, child = mp.Pipe()
        worker = threading.Thread(
            target=_worker_main, args=(child, fleet, (0,))
        )
        worker.start()
        try:
            parent.send(("advance", 6))
            status, batches, telemetry, stats, delta = parent.recv()
            assert status == "ok"
            assert batches and {ci for _, ci, _ in batches} == {0}
            assert {seq for seq, _, _ in batches} <= set(range(6))
            assert len(telemetry) == 6  # one trace delta per tick
            assert any(telemetry)
            machines = {m.machine_id for m in fleet._clusters[0].machines}
            assert all(e.machine_id in machines
                       for tick in telemetry for e in tick)
            assert stats["cluster.tick"].calls == 6
            assert {r["name"] for r in delta} >= {
                MetricName.PAGES_SCANNED_TOTAL
            }
            parent.send(("advance", 1))
            *_, stats, second_delta = parent.recv()
            assert stats["cluster.tick"].calls == 1
            parent.send(("close",))
            _, clusters, _, last_delta = parent.recv()
            assert len(clusters) == 1
            # Each delta holds only what followed the previous reply (the
            # thread shares this process's registry, so they add up to its
            # growth).
            scanned = lambda records: sum(
                r["value"] for r in records
                if r["name"] == MetricName.PAGES_SCANNED_TOTAL
            )
            assert scanned(second_delta) > 0
            assert (scanned(delta) + scanned(second_delta)
                    + scanned(last_delta)) == fleet.registry.value(
                MetricName.PAGES_SCANNED_TOTAL) - scanned_before
        finally:
            worker.join(timeout=30)
            assert not worker.is_alive()
            # The worker loop froze this process's heap, as it does in a
            # forked worker; give the test process its collector back.
            gc.unfreeze()

        pickled = {}

        class CountingPickler(pickle.Pickler):
            def reducer_override(self, obj):
                name = type(obj).__name__
                pickled[name] = pickled.get(name, 0) + 1
                return NotImplemented

        CountingPickler(io.BytesIO()).dump(clusters)
        assert pickled.get("Machine")  # the walk reached the machines
        series = (_CounterSeries, _GaugeSeries, _HistogramSeries)
        assert not {cls.__name__ for cls in series} & set(pickled)

        # The parent's rebind restores every handle: a machine's counter
        # increments land in the live registry again.
        (cluster,) = clusters
        cluster.rebind_runtime(fleet.registry, fleet.tracer, fleet.trace_db)
        machine = cluster.machines[0]
        before = fleet.registry.value(MetricName.PAGES_PROMOTED_TOTAL)
        machine._m_promoted.inc(3)
        assert fleet.registry.value(
            MetricName.PAGES_PROMOTED_TOTAL) == before + 3

    def test_phase_seconds_recorded(self):
        fleet = _churn_fleet(seed=5)
        with FleetEngine(fleet, workers=2) as engine:
            engine.run(10 * 60)
            fleet.map_clusters(_cluster_name)
        phases = {
            labels: value
            for (name, labels), value in fleet.registry.baseline().items()
            if name == MetricName.ENGINE_PHASE_SECONDS_TOTAL
        }
        assert sorted(dict(labels)["phase"] for labels in phases) == [
            "call", "close", "local", "merge", "start", "wait",
        ]
        assert all(value >= 0.0 for value in phases.values())


@pytest.mark.skipif(not fork_available(), reason="needs fork start method")
class TestColumnarBlockPath:
    """Serial ≡ parallel on the configuration the benchmark runs: the
    columnar kernel with cluster-scoped pools, feeding a columnar trace
    store, so workers ship zero-copy telemetry blocks."""

    @pytest.fixture(scope="class")
    def pair(self, tmp_path_factory):
        from repro.tracestore import ColumnarTraceDatabase

        class RecordingDatabase(ColumnarTraceDatabase):
            """Remembers the export periods of every appended block."""

            def __init__(self, root):
                super().__init__(root)
                self.appended_periods = []

            def add_block(self, block):
                self.appended_periods.append(sorted(set(block.time.tolist())))
                super().add_block(block)

        def build(name):
            return quickfleet(
                clusters=2,
                machines_per_cluster=3,
                jobs_per_machine=2,
                seed=21,
                machine_dram_gib=1.0,
                kernel="columnar",
                churn_duration_range=(1800, 7200),
                registry=MetricRegistry(),
                tracer=Tracer(),
                trace_db=RecordingDatabase(
                    tmp_path_factory.mktemp(name) / "store"
                ),
            )

        serial, parallel = build("serial"), build("parallel")
        serial.run(1 * HOUR)
        engine = FleetEngine(parallel, workers=2)
        stats = engine.run(1 * HOUR)
        assert engine.ship_blocks
        assert stats.mode == "parallel"
        for fleet in (serial, parallel):
            fleet.trace_db.flush()
        return serial, parallel

    def test_integer_counters_identical(self, pair):
        serial, parallel = pair
        a = _series(serial, INTEGER_COUNTERS)
        b = _series(parallel, INTEGER_COUNTERS)
        assert a and a == b

    def test_store_takes_one_chunk_per_tick(self, pair):
        """The run is one advance, folded in tick by tick: each append
        holds the rows of one export period, in time order, so the store
        seals segments where one merge per tick would."""
        serial, parallel = pair
        periods = parallel.trace_db.appended_periods
        assert len(periods) > 1
        assert all(len(tick) == 1 for tick in periods)
        assert periods == sorted(periods)
        assert {t for tick in periods for t in tick} == {
            t for tick in serial.trace_db.appended_periods for t in tick}

    def test_per_machine_gauges_identical(self, pair):
        serial, parallel = pair
        names = (MetricName.FAR_PAGES, MetricName.ARENA_FOOTPRINT_BYTES)
        a, b = _series(serial, names), _series(parallel, names)
        assert len(a) == 2 * len(serial.machines)
        assert a == b
        assert any(value > 0 for value in a.values())

    def test_sli_and_coverage_identical(self, pair):
        serial, parallel = pair
        assert serial.sli_history and serial.sli_history == parallel.sli_history
        assert serial.coverage_report() == parallel.coverage_report()

    def test_replay_reports_identical_without_sorting(self, pair):
        """Stores fed by either engine replay to the same fleet reports,
        last bits included: trace reads come back in job-id order."""
        from repro.core.threshold_policy import ThresholdPolicyConfig
        from repro.model.replay import FarMemoryModel

        configs = [
            ThresholdPolicyConfig(percentile_k=k, warmup_seconds=w)
            for k in (90.0, 98.0)
            for w in (600, 1800)
        ]

        def reports(traces):
            with FarMemoryModel(traces) as model:
                return repr(model.evaluate_many(configs))

        serial, parallel = pair
        for read in ("compiled_traces", "traces"):
            a = getattr(serial.trace_db, read)()
            b = getattr(parallel.trace_db, read)()
            assert [t.job_id for t in a] == sorted(t.job_id for t in a)
            assert reports(a) == reports(b)


def _session_round(fleet, engine):
    """One session's worth of control-plane work: a run, then a canary
    round (prior snapshot, deploys, two soak runs, placement scans, far
    pages), then a second run.  Serial when ``engine`` is None."""
    fleet.run(10 * 60, engine=engine)
    decision = FleetController(
        fleet, stages=SESSION_STAGES, registry=fleet.registry,
        tracer=fleet.tracer, engine=engine,
    ).canary(PaperPolicy())
    fleet.run(5 * 60, engine=engine)
    return decision


@pytest.mark.skipif(not fork_available(), reason="needs fork start method")
class TestSessionLifecycle:
    """The engine forks once per session and never leaks a worker."""

    def test_constructor_does_not_fork(self, monkeypatch):
        started = _spy_forks(monkeypatch)
        FleetEngine(_churn_fleet(seed=5), workers=3)
        assert started == []

    def test_no_workers_after_close(self):
        fleet = _churn_fleet(seed=5)
        engine = FleetEngine(fleet, workers=3)
        engine.run(5 * 60)
        assert len(mp.active_children()) == 2
        engine.close()
        assert mp.active_children() == []
        engine.close()  # idempotent

    def test_no_workers_after_clusters_read(self):
        fleet = _churn_fleet(seed=5)
        FleetEngine(fleet, workers=2).run(5 * 60)
        assert mp.active_children()
        assert len(fleet.clusters) == 3
        assert mp.active_children() == []
        assert fleet._session is None

    def test_no_workers_after_fleet_and_engine_are_dropped(self):
        fleet = _churn_fleet(seed=5)
        engine = FleetEngine(fleet, workers=2)
        engine.run(5 * 60)
        assert mp.active_children()
        del fleet, engine
        gc.collect()
        assert mp.active_children() == []

    def test_with_block_closes(self):
        fleet = _churn_fleet(seed=5)
        with FleetEngine(fleet, workers=2) as engine:
            engine.run(5 * 60)
        assert mp.active_children() == []
        assert fleet._session is None

    def test_routed_reads_keep_the_session_open(self):
        serial = _churn_fleet(seed=5)
        parallel = _churn_fleet(seed=5)
        serial.run(10 * 60)
        engine = FleetEngine(parallel, workers=3)
        engine.run(10 * 60)
        assert parallel.now == serial.now
        assert parallel.map_clusters(_far_pages) == serial.map_clusters(
            _far_pages)
        assert parallel.map_clusters(_cluster_name, indices=[2, 0]) == [
            "cluster-02", "cluster-00",
        ]
        assert parallel._session is not None
        engine.close()
        assert parallel.now == serial.now

    def test_deploy_policy_is_routed(self):
        from repro.core.threshold_policy import FixedThresholdPolicy

        policy = FixedThresholdPolicy(threshold_seconds=600.0)
        fleet = _churn_fleet(seed=5)
        engine = FleetEngine(fleet, workers=2)
        engine.run(5 * 60)
        fleet.deploy_policy(policy)
        assert fleet._session is not None
        engine.run(5 * 60)
        assert all(c.policy == policy for c in fleet.clusters)

    def test_session_matches_serial(self):
        serial = _churn_fleet(seed=13)
        parallel = _churn_fleet(seed=13)
        a = _session_round(serial, None)
        with FleetEngine(parallel, workers=2) as engine:
            b = _session_round(parallel, engine)
            assert engine.last_stats.mode == "parallel"
        _assert_session_matches(serial, a, parallel, b)


def _assert_session_matches(serial, a, parallel, b):
    """Serial ≡ parallel on everything a session produced."""
    assert a.signature() == b.signature()
    names = INTEGER_COUNTERS + (MetricName.EVENTS_TOTAL,)
    assert _series(serial, names) and _series(serial, names) == _series(
        parallel, names)
    assert serial.sli_history and serial.sli_history == parallel.sli_history
    assert serial.coverage_report() == parallel.coverage_report()
    assert serial.trace_db.job_ids == parallel.trace_db.job_ids
    for job_id in serial.trace_db.job_ids:
        x = [e.to_dict() for e in serial.trace_db.trace_for(job_id).entries]
        y = [e.to_dict() for e in parallel.trace_db.trace_for(job_id).entries]
        assert x == y


@pytest.mark.skipif(not fork_available(), reason="needs fork start method")
class TestSessionFailures:
    """A worker lost in the middle of a session is replayed from the
    parent's session-start copy of its shard: every counter exactly once,
    and every output (SLI history, coverage, per-job traces, the canary
    decision) as if it had run serially.

    3 clusters on 2 workers: the forked worker owns two clusters, so the
    canary's routed calls reach it.  The session makes these commands:
    one ``advance`` per run (the first run, the two soaks and the last
    run), the canary's calls between them, and the ``close``.
    """

    @pytest.fixture(scope="class")
    def serial(self):
        fleet = _churn_fleet(seed=13)
        return fleet, _session_round(fleet, None)

    @pytest.mark.parametrize(
        "command, serve, hang",
        [
            ("advance", 1, False),
            ("call", 1, False),
            ("close", 0, False),
            ("call", 3, True),
        ],
        ids=["second-run-advance", "second-call", "on-close",
             "hung-mid-session"],
    )
    def test_lost_worker_matches_serial(self, monkeypatch, serial, command,
                                        serve, hang):
        import repro.engine.parallel as par

        real = par._worker_main

        def failing(conn, fleet, cluster_indices, *args):
            real(_DieOn(conn, command, serve, hang), fleet, cluster_indices,
                 *args)

        monkeypatch.setattr(par, "_worker_main", failing)
        fleet = _churn_fleet(seed=13)
        engine = FleetEngine(fleet, workers=2, recv_timeout_seconds=2.0)
        decision = _session_round(fleet, engine)
        engine.close()
        assert fleet.registry.value(
            MetricName.ENGINE_SHARD_FALLBACKS_TOTAL) == 1
        assert mp.active_children() == []
        _assert_session_matches(*serial, fleet, decision)
