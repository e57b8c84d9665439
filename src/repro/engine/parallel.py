"""The parallel fleet engine: sharded cluster ticks with exact merge.

Design (and why it is deterministic):

* **Fork, not spawn.**  A run over W shards forks W - 1 workers per
  :meth:`FleetEngine.run` call; each inherits a copy-on-write image of
  the fleet — including every in-flight numpy RNG state and the process
  hash salt that :meth:`Cluster._job_index` depends on.  A cluster
  therefore draws exactly the random stream it would have drawn
  serially; the per-cluster ``SeedSequenceFactory`` forks
  (``seeds.fork("cluster", index=c)``) make those streams independent of
  shard assignment by construction.

* **The parent is one of the W processes.**  It ticks the shard with the
  fewest machines itself (it also merges), between sending a barrier's
  ``advance`` and collecting the workers' replies.  That shard's
  telemetry stages in a small sink the barrier drains, so it merges
  exactly like a worker's delta; a shard the parent takes over from a
  failed worker joins it there.

* **Barrier per simulated minute.**  Every shard ticks its clusters
  through a barrier chunk (default: one 60 s tick); workers then ship
  the interval's deltas — SLI samples tagged ``(tick, cluster)`` and new
  trace entries (or one trace block) — to the parent, which folds them
  in with its own shard's before releasing the next chunk.

* **Metrics once per run.**  Nothing reads the parent's registry while
  the run is in flight, so metrics do not ride the barriers: each worker
  takes one registry baseline right after the fork and ships a single
  delta against it at finalize.  Every series a worker touched therefore
  reaches the parent exactly once per run; the parent's own shard counts
  into the live registry directly, and so does the replay of a shard it
  takes over (none of that worker's metrics were ever merged).

* **Exact SLI order.**  The serial loop drains samples per tick in
  cluster order; every shard tags each drained batch with its (tick,
  cluster index) so the parent reconstructs precisely that interleaving,
  making ``WSC.sli_history`` bit-identical to a serial run.

* **State reunification.**  At the end of the run each worker detaches
  its clusters from its forked registry, tracer and trace database
  (metric series are dead weight once the delta is taken) and pickles
  them back with its span stats and metric delta.  The parent merges the
  delta, swaps the clusters into the fleet and calls
  :meth:`Cluster.rebind_runtime` so metric handles, tracer spans, event
  subscriptions, and telemetry sinks all point at the parent's live
  objects again.  The clusters the parent ticked itself never left; only
  their sinks are pointed back at the fleet's trace database.  The fleet
  can keep running serially (or under a new engine) afterwards.

Trace-entry ordering across *different* jobs is canonicalized by
``(time, job_id)`` rather than by serial append order; per-job traces —
the unit every consumer reads — are byte-identical to serial.

The engine falls back to the serial loop (same results, one process)
when parallelism cannot help or would break determinism: a single
cluster, one worker, no ``fork`` support, or clusters sharing a mutable
churn job source.
"""

from __future__ import annotations

import gc
import math
import multiprocessing as mp
import os
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.checks.invariants import check_merge_delta, invariants_enabled
from repro.common.errors import ReproError, TraceError
from repro.common.validation import check_positive, require
from repro.engine.sharding import ShardPlan, plan_shards
from repro.obs import MetricName, MetricRegistry, Stopwatch, Tracer

__all__ = [
    "EngineError",
    "EngineStats",
    "FleetEngine",
    "default_worker_count",
    "fork_available",
]


class EngineError(ReproError):
    """The parallel engine failed (worker crash or protocol violation)."""


class _WorkerUnavailable(Exception):
    """A shard worker hung past the poll timeout or died silently.

    Internal signal, never raised to callers: the engine reacts by
    re-executing the failed shard serially in the parent (see
    :meth:`FleetEngine._fall_back_shard`).  A worker that *reports* an
    error keeps raising :class:`EngineError` instead — a deterministic
    crash would reproduce under the serial fallback too, so retrying it
    locally would only hide the bug.
    """


def fork_available() -> bool:
    """True when this platform supports fork-based multiprocessing."""
    return "fork" in mp.get_all_start_methods()


def default_worker_count() -> int:
    """Usable CPU count (affinity-aware where the OS exposes it)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class EngineStats:
    """What one :meth:`FleetEngine.run` call actually did.

    Attributes:
        mode: ``"parallel"`` or ``"serial"`` (the fallback path).
        workers: processes that ticked shards, the parent included (it
            ticks one shard itself and forks ``workers - 1``); 1 for
            serial.
        ticks: simulated ticks executed.
        barriers: barrier synchronizations performed (0 for serial).
        fallback_reason: why the serial path ran, if it did.
        shard_fallbacks: forked shards whose worker hung or died mid-run
            and were re-executed serially in the parent (degraded mode;
            the run still completes with serial-identical results).  The
            parent's own shard is never counted.
    """

    mode: str
    workers: int
    ticks: int
    barriers: int
    fallback_reason: Optional[str] = None
    shard_fallbacks: int = 0


class _EntryStaging:
    """Telemetry sink of the clusters the parent ticks itself.

    Holds what they export between two barriers, so each barrier merges
    the parent's rows with the workers' through the canonical sorted
    path.  This flavour has no ``add_block``: it mirrors a fleet
    database without the block protocol, so the parent's exporters take
    the same delivery rung a worker's take, and a barrier drains entries.
    """

    def __init__(self) -> None:
        self._staged: list = []

    def add(self, entry) -> None:
        self._staged.append(entry)

    def add_batch(self, entries) -> None:
        self._staged.extend(entries)

    def drain(self):
        """Everything staged since the last drain (a list of entries)."""
        staged, self._staged = self._staged, []
        return staged


class _BlockStaging(_EntryStaging):
    """Block-protocol staging: a barrier drains one concatenated block.

    Exporters deliver blocks through ``add_block``; entries (per-entry
    exporters, spill replays) stage as blocks of their own, in arrival
    order, so every job's rows keep their order.
    """

    def add(self, entry) -> None:
        self.add_batch([entry])

    def add_batch(self, entries) -> None:
        if entries:
            from repro.model.trace import TelemetryBlock

            self._staged.append(TelemetryBlock.from_entries(entries))

    def add_block(self, block) -> None:
        if block.n_rows:
            self._staged.append(block)

    def drain(self):
        """One :class:`TelemetryBlock` of everything staged since the last
        drain, or an empty list when nothing was."""
        from repro.model.trace import TelemetryBlock

        blocks = super().drain()
        return TelemetryBlock.concat(blocks) if blocks else []


def _point_sinks(clusters, sink) -> None:
    """Point the clusters' telemetry (their exporters) at ``sink``."""
    for cluster in clusters:
        cluster.trace_db = sink
        for exporter in cluster.exporters.values():
            exporter.sink = sink


def _tick_chunk(clusters, cluster_indices: Sequence[int], ticks: int,
                collect_sli: bool) -> List[Tuple[int, int, list]]:
    """Tick the indexed clusters ``ticks`` times, in cluster order.

    Returns the SLI batches drained on the way, each tagged ``(tick_seq,
    cluster_index)`` so the parent can rebuild the serial drain order.
    """
    sli_batches: List[Tuple[int, int, list]] = []
    for tick_seq in range(ticks):
        for ci in cluster_indices:
            clusters[ci].tick()
        if collect_sli:
            for ci in cluster_indices:
                samples = clusters[ci].drain_sli_samples()
                if samples:
                    sli_batches.append((tick_seq, ci, samples))
    return sli_batches


def _worker_main(conn, fleet, cluster_indices: Tuple[int, ...],
                 ship_blocks: bool = False) -> None:
    """Worker loop: tick owned clusters between barriers, ship deltas.

    Each ``advance`` reply carries the chunk's SLI batches and trace
    delta only.  The ``finalize`` reply carries the owned clusters, this
    worker's span stats and one metric delta against the registry as
    forked, so each series the shard touched ships exactly once per run.
    The clusters travel detached from every forked sink and series; the
    parent's :meth:`Cluster.rebind_runtime` restores each handle.

    With ``ship_blocks`` (a fleet whose trace database speaks the
    zero-copy block protocol), each barrier's trace delta travels as one
    :class:`TelemetryBlock` of pending column rows instead of a list of
    re-materialized entries — the columns the forked store buffered are
    exactly the delta, because a worker never seals segments.
    """
    # The inherited heap is the parent's, alive for the whole run: keep
    # this process's collections off it (an O(1) move to the permanent
    # generation).  The parent's own collector is never touched.
    gc.freeze()
    clusters = fleet.clusters
    registry = fleet.registry
    trace_db = fleet.trace_db
    tracer = fleet.tracer
    # The fork copied the parent's span history and metric values; the
    # stats and delta this worker reports at finalize are purely its own.
    tracer.reset()
    metric_base = registry.baseline()
    try:
        while True:
            msg = conn.recv()
            cmd = msg[0]
            if cmd == "advance":
                _, ticks, collect_sli = msg
                trace_mark = (
                    trace_db.block_marker() if ship_blocks
                    else trace_db.mark()
                )
                sli_batches = _tick_chunk(clusters, cluster_indices, ticks,
                                          collect_sli)
                conn.send((
                    "ok",
                    sli_batches,
                    (trace_db.block_since(trace_mark) if ship_blocks
                     else trace_db.entries_since(trace_mark)),
                ))
            elif cmd == "finalize":
                from repro.cluster.trace_db import TraceDatabase

                span_stats = tracer.stats()
                metric_delta = registry.delta(metric_base)
                # Ship the clusters bare: the forked registry (every
                # series of the fleet) and the fleet-wide trace database
                # would otherwise be pickled into the reply, only for the
                # parent's rebind to drop them.
                owned = [clusters[ci] for ci in cluster_indices]
                bare_registry = MetricRegistry(enabled=False)
                bare_tracer = Tracer(enabled=False)
                empty_db = TraceDatabase()
                for cluster in owned:
                    cluster.rebind_runtime(bare_registry, bare_tracer,
                                           empty_db)
                conn.send(("clusters", owned, span_stats, metric_delta))
            elif cmd == "exit":
                break
            else:  # pragma: no cover - protocol misuse
                conn.send(("error", f"unknown command {cmd!r}"))
                break
    except (EOFError, KeyboardInterrupt):  # parent went away
        pass
    except Exception:  # surface worker crashes to the parent
        try:
            conn.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):
            pass
    finally:
        conn.close()


@dataclass
class _Run:
    """One parallel run's bookkeeping: who ticks which shard.

    Attributes:
        shards: the shard plan.
        collect_sli: whether SLI samples are drained and merged.
        staging: the sink every cluster the parent ticks exports into.
        local: indices of the clusters the parent ticks — its own shard
            plus any shard it took over — ascending.
        conns: pipe ends of the live forked workers, by shard index.
        procs: every forked worker process, by shard index.
    """

    shards: Sequence[ShardPlan]
    collect_sli: bool
    staging: _EntryStaging
    local: List[int]
    conns: Dict[int, object] = field(default_factory=dict)
    procs: Dict[int, object] = field(default_factory=dict)


class FleetEngine:
    """Parallel executor for one :class:`repro.cluster.wsc.WSC` fleet.

    Args:
        fleet: the fleet to drive.  The engine mutates it in place; after
            :meth:`run` returns, the fleet holds the advanced state exactly
            as if :meth:`WSC.run` had run serially.
        workers: processes that tick shards, the parent included
            (default: usable CPUs, clamped to the cluster count); a run
            forks one fewer.
        barrier_seconds: simulated seconds per barrier chunk; the default
            of 60 synchronizes every simulated minute.
        recv_timeout_seconds: how long (wall-clock) to wait for a worker's
            barrier reply before declaring it hung and re-executing its
            shard serially in the parent; ``None`` waits forever (the
            pre-timeout behavior).
        ship_blocks: ship each barrier's trace delta as one zero-copy
            :class:`TelemetryBlock` instead of a list of entries.
            Defaults to auto-detection: on when the fleet's trace
            database speaks the block protocol (``block_since`` +
            ``add_block``, i.e. :class:`ColumnarTraceDatabase`).  Results
            are bit-identical either way; tests pin it False to run the
            entry-shipping oracle.
    """

    def __init__(self, fleet, workers: Optional[int] = None,
                 barrier_seconds: int = 60,
                 recv_timeout_seconds: Optional[float] = 300.0,
                 ship_blocks: Optional[bool] = None):
        check_positive(barrier_seconds, "barrier_seconds")
        self.fleet = fleet
        if workers is None:
            workers = default_worker_count()
        check_positive(workers, "workers")
        if recv_timeout_seconds is not None:
            check_positive(recv_timeout_seconds, "recv_timeout_seconds")
        self.workers = min(int(workers), len(fleet.clusters))
        self.barrier_seconds = int(barrier_seconds)
        self.recv_timeout_seconds = recv_timeout_seconds
        if ship_blocks is None:
            ship_blocks = hasattr(fleet.trace_db, "block_since") and hasattr(
                fleet.trace_db, "add_block"
            )
        self.ship_blocks = bool(ship_blocks)
        self.last_stats: Optional[EngineStats] = None

    # ------------------------------------------------------------------
    # Parallelizability
    # ------------------------------------------------------------------

    def parallelizable(self) -> Tuple[bool, Optional[str]]:
        """Whether a run would take the parallel path, and if not, why."""
        if len(self.fleet.clusters) < 2:
            return False, "fewer than 2 clusters"
        if self.workers < 2:
            return False, "fewer than 2 workers"
        if not fork_available():
            return False, "platform lacks fork start method"
        if self._has_shared_churn_source():
            return False, "clusters share a mutable churn job source"
        return True, None

    def _has_shared_churn_source(self) -> bool:
        """Detect one mutable job generator feeding several clusters.

        Cluster churn draws specs from ``cluster._job_source`` (usually a
        bound ``FleetMixGenerator.next_job``).  A generator shared by two
        clusters sequences its draws by global tick interleaving, which a
        sharded run cannot reproduce — so such fleets run serially.
        """
        owners = []
        for cluster in self.fleet.clusters:
            source = getattr(cluster, "_job_source", None)
            if source is None:
                continue
            # Identity only detects aliasing within THIS process; the
            # result never reaches simulation state.
            owners.append(id(getattr(source, "__self__", source)))  # repro: noqa[FLOW001]
        return len(owners) != len(set(owners))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, seconds: int, collect_sli: bool = True) -> EngineStats:
        """Advance the fleet by ``seconds``; returns what was executed."""
        check_positive(seconds, "seconds")
        tick_seconds = self.fleet.clusters[0].clock.tick_seconds
        total_ticks = math.ceil(seconds / tick_seconds)
        ok, reason = self.parallelizable()
        if not ok:
            self._run_serial(total_ticks, collect_sli)
            self.last_stats = EngineStats(
                mode="serial", workers=1, ticks=total_ticks, barriers=0,
                fallback_reason=reason,
            )
            return self.last_stats

        barrier_ticks = max(1, self.barrier_seconds // tick_seconds)
        shards = plan_shards(
            [len(c.machines) for c in self.fleet.clusters], self.workers
        )
        barriers, shard_fallbacks = self._run_parallel(
            shards, total_ticks, barrier_ticks, collect_sli
        )
        self.last_stats = EngineStats(
            mode="parallel", workers=len(shards), ticks=total_ticks,
            barriers=barriers, shard_fallbacks=shard_fallbacks,
        )
        return self.last_stats

    def _run_serial(self, total_ticks: int, collect_sli: bool) -> None:
        """The exact serial loop (shared fallback path)."""
        fleet = self.fleet
        for _ in range(total_ticks):
            for cluster in fleet.clusters:
                cluster.tick()
            if collect_sli:
                for cluster in fleet.clusters:
                    fleet.sli_history.extend(cluster.drain_sli_samples())

    def _run_parallel(self, shards: Sequence[ShardPlan], total_ticks: int,
                      barrier_ticks: int,
                      collect_sli: bool) -> Tuple[int, int]:
        fleet = self.fleet
        ctx = mp.get_context("fork")
        # The parent ticks the lightest shard itself: it also merges.
        own = min(range(len(shards)), key=lambda si: shards[si].weight)
        run = _Run(
            shards=shards,
            collect_sli=collect_sli,
            staging=_BlockStaging() if self.ship_blocks else _EntryStaging(),
            local=list(shards[own].cluster_indices),
        )
        try:
            with Stopwatch() as start:
                for si, shard in enumerate(shards):
                    if si == own:
                        continue
                    parent_conn, child_conn = ctx.Pipe()
                    proc = ctx.Process(
                        target=_worker_main,
                        args=(child_conn, fleet, shard.cluster_indices,
                              self.ship_blocks),
                        daemon=True,
                    )
                    proc.start()
                    child_conn.close()
                    run.conns[si] = parent_conn
                    run.procs[si] = proc
                # Only after the last fork: the workers must inherit the
                # fleet's own sinks.
                _point_sinks([fleet.clusters[ci] for ci in run.local],
                             run.staging)

            barriers = 0
            ticks_done = 0
            local_seconds = wait_seconds = merge_seconds = 0.0
            remaining = total_ticks
            while remaining > 0:
                chunk = min(barrier_ticks, remaining)
                for si in list(run.conns):
                    try:
                        run.conns[si].send(("advance", chunk, collect_sli))
                    except (BrokenPipeError, OSError):
                        self._fall_back_shard(
                            run, si, ticks_done,
                            "worker pipe broke at barrier send",
                        )
                # The parent ticks its clusters while the workers tick
                # theirs.
                with Stopwatch() as local:
                    results = [self._advance_local(run, run.local, chunk)]
                with Stopwatch() as wait:
                    self._collect_barrier(run, chunk, ticks_done, results)
                with Stopwatch() as merge:
                    self._merge_barrier(results, collect_sli)
                local_seconds += local.seconds
                wait_seconds += wait.seconds
                merge_seconds += merge.seconds
                remaining -= chunk
                ticks_done += chunk
                barriers += 1

            with Stopwatch() as finalize:
                self._finalize(run, total_ticks)
                for conn in run.conns.values():
                    try:
                        conn.send(("exit",))
                    except (BrokenPipeError, OSError):
                        pass
                for proc in run.procs.values():
                    if proc.is_alive():
                        proc.join(timeout=30)
            phases = fleet.registry.counter(
                MetricName.ENGINE_PHASE_SECONDS_TOTAL,
                "Parent wall seconds in each parallel-engine phase.",
                ("phase",),
            )
            phases.labels(phase="start").inc(start.seconds)
            phases.labels(phase="local").inc(local_seconds)
            phases.labels(phase="wait").inc(wait_seconds)
            phases.labels(phase="merge").inc(merge_seconds)
            phases.labels(phase="finalize").inc(finalize.seconds)
            # Shards the parent took over: every forked one that is gone.
            return barriers, len(run.procs) - len(run.conns)
        finally:
            # The clusters the parent ticked never left the fleet: point
            # their telemetry back at it, whether or not the run finished.
            _point_sinks([fleet.clusters[ci] for ci in run.local],
                         fleet.trace_db)
            for conn in run.conns.values():
                conn.close()
            for proc in run.procs.values():
                if proc.is_alive():
                    proc.terminate()
                    proc.join()

    def _recv(self, conn):
        """One protocol reply, or :class:`_WorkerUnavailable` on hang/death.

        A hung worker would otherwise block ``conn.recv()`` forever and
        take the whole run with it; polling with a timeout turns that
        into a recoverable degradation.  Workers that *report* a failure
        stay fatal (:class:`EngineError`) — see :class:`_WorkerUnavailable`.
        """
        try:
            if self.recv_timeout_seconds is not None and not conn.poll(
                self.recv_timeout_seconds
            ):
                raise _WorkerUnavailable(
                    f"no reply within {self.recv_timeout_seconds:g}s"
                )
            reply = conn.recv()
        except (EOFError, OSError) as exc:
            # A clean close raises EOFError; an abrupt worker death can
            # surface as ConnectionResetError (an OSError) instead.
            raise _WorkerUnavailable("worker died mid-run") from exc
        if reply[0] == "error":
            raise EngineError(f"engine worker failed:\n{reply[1]}")
        return reply

    # ------------------------------------------------------------------
    # Shard fallback (degraded mode)
    # ------------------------------------------------------------------

    def _fall_back_shard(self, run: _Run, si: int, ticks_done: int,
                         reason: str) -> None:
        """Take over a shard whose worker hung or died.

        The worker is terminated and the shard's clusters — the parent's
        own copies, still at their pre-run state thanks to fork
        copy-on-write — are replayed up to the last fully-merged barrier
        (see :meth:`_catch_up_shard`), then join the clusters the parent
        ticks for the rest of the run.  Replay is deterministic, so the
        final state is identical to what the healthy worker would have
        produced.
        """
        proc = run.procs[si]
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5)
        run.conns.pop(si).close()
        indices = run.shards[si].cluster_indices
        self._catch_up_shard(indices, ticks_done, run.collect_sli,
                             run.staging)
        run.local = sorted(run.local + list(indices))
        self.fleet.registry.counter(
            MetricName.ENGINE_SHARD_FALLBACKS_TOTAL,
            "Shards re-executed serially after their worker hung or died.",
        ).inc()

    def _catch_up_shard(self, cluster_indices: Tuple[int, ...],
                        ticks_done: int, collect_sli: bool,
                        staging: _EntryStaging) -> None:
        """Replay a shard to ``ticks_done`` and re-wire it for live use.

        The replayed ticks' SLI samples and trace entries were already
        merged at their barriers, so they go to a scratch trace database
        and are drained and discarded; spans go to a scratch tracer.
        Metrics count into the live registry: a worker ships its metric
        delta only at finalize, so none of the failed worker's counts
        ever reached the parent and the replay supplies them exactly once.
        From then on the shard exports into ``staging``, beside the
        parent's own shard.
        """
        from repro.cluster.trace_db import TraceDatabase

        fleet = self.fleet
        clusters = [fleet.clusters[ci] for ci in cluster_indices]
        scratch_tracer = Tracer(enabled=False)
        scratch_db = TraceDatabase()
        for cluster in clusters:
            cluster.rebind_runtime(fleet.registry, scratch_tracer,
                                   scratch_db)
        for _ in range(ticks_done):
            for cluster in clusters:
                cluster.tick()
            if collect_sli:
                for cluster in clusters:
                    cluster.drain_sli_samples()  # already merged; discard
        for cluster in clusters:
            cluster.rebind_runtime(fleet.registry, fleet.tracer, staging)

    def _advance_local(self, run: _Run, cluster_indices: Sequence[int],
                       chunk: int) -> Tuple[list, object]:
        """Run one barrier chunk of clusters the parent ticks itself.

        Mirrors the worker protocol: SLI batches come back tagged
        ``(tick_seq, cluster_index)`` and the trace delta is what the
        staging sink drains, so :meth:`_merge_barrier` interleaves them
        with the workers' output exactly as for another worker.
        """
        sli_batches = _tick_chunk(self.fleet.clusters, cluster_indices,
                                  chunk, run.collect_sli)
        return sli_batches, run.staging.drain()

    # ------------------------------------------------------------------
    # Barrier merge & finalize
    # ------------------------------------------------------------------

    def _collect_barrier(self, run: _Run, chunk: int, ticks_done: int,
                         results: List[Tuple[list, object]]) -> None:
        """Append every worker's reply for one barrier to ``results``.

        Replies are collected (and failures handled) *before* anything is
        folded in, so a mid-barrier failure never leaves the fleet holding
        half a barrier.  A worker that fails here is fallen back exactly
        like one that failed at send time: its shard is caught up to
        ``ticks_done`` and the current chunk is re-executed in-parent,
        joining this barrier's merge.
        """
        for si in list(run.conns):
            try:
                _, batches, trace_delta = self._recv(run.conns[si])
            except _WorkerUnavailable as exc:
                self._fall_back_shard(run, si, ticks_done, str(exc))
                results.append(self._advance_local(
                    run, run.shards[si].cluster_indices, chunk
                ))
                continue
            results.append((batches, trace_delta))

    def _merge_barrier(self, results: List[Tuple[list, object]],
                       collect_sli: bool) -> None:
        """Fold one barrier interval's SLI and trace deltas into the fleet.

        ``results`` holds one ``(sli_batches, trace_delta)`` pair per
        shard; a trace delta is a list of entries or one
        :class:`TelemetryBlock`.
        """
        # Imported here, not at module top: repro.model's package init
        # pulls in the model bench, which imports this module back.
        from repro.model.trace import TelemetryBlock

        fleet = self.fleet
        sli_batches: List[Tuple[int, int, list]] = []
        trace_entries = []
        trace_blocks: List[TelemetryBlock] = []
        for batches, trace_delta in results:
            sli_batches.extend(batches)
            if isinstance(trace_delta, TelemetryBlock):
                trace_blocks.append(trace_delta)
            elif trace_delta:
                trace_entries.extend(trace_delta)
        if collect_sli:
            # Reconstruct the serial drain order: per tick, cluster order.
            sli_batches.sort(key=lambda batch: (batch[0], batch[1]))
            for _, _, samples in sli_batches:
                fleet.sli_history.extend(samples)
        # Canonical cross-job order; per-job order is already serial-exact
        # because every job lives on exactly one shard.  When every shard
        # shipped a block and the parent database speaks blocks, the whole
        # barrier folds in as one concatenated, lexsorted block — no entry
        # objects anywhere.  Blocks on mixed threshold grids degrade to the
        # entry path for exactly that barrier; both folds commit one chunk
        # per barrier, so the sealed segments come out identical either
        # way.
        if trace_blocks and not trace_entries and hasattr(
            fleet.trace_db, "add_block"
        ):
            try:
                merged = TelemetryBlock.concat(
                    trace_blocks
                ).sorted_by_time_job()
            except TraceError:
                # Mixed threshold grids across shards: legal for the
                # per-entry store path, so fall through to it.
                for block in trace_blocks:
                    trace_entries.extend(block.entries())
            else:
                fleet.trace_db.add_block(merged)
                return
        else:
            for block in trace_blocks:
                trace_entries.extend(block.entries())
        trace_entries.sort(key=lambda e: (e.time, e.job_id))
        if not trace_entries:
            return
        if hasattr(fleet.trace_db, "add_batch"):
            fleet.trace_db.add_batch(trace_entries)
        else:
            for entry in trace_entries:
                fleet.trace_db.add(entry)

    def _finalize(self, run: _Run, total_ticks: int) -> None:
        """Merge each worker's metric delta and swap its clusters in.

        Each worker's single per-run metric delta is checked and merged
        here, as its clusters are swapped in.  The clusters the parent
        ticked itself stay put (:meth:`_run_parallel` points their sinks
        back at the fleet's trace database); a worker that hangs *here*
        is recovered by replaying its whole run (every barrier's SLI and trace delta
        was merged, so the replay supplies only the end state and the
        shard's metrics).
        """
        fleet = self.fleet
        for si in list(run.conns):
            try:
                run.conns[si].send(("finalize",))
            except (BrokenPipeError, OSError):
                self._fall_back_shard(run, si, total_ticks,
                                      "worker pipe broke at finalize")
        new_clusters = list(fleet.clusters)
        swapped = []
        for si in list(run.conns):
            shard = run.shards[si]
            try:
                _, shard_clusters, span_stats, metric_delta = self._recv(
                    run.conns[si]
                )
            except _WorkerUnavailable as exc:
                self._fall_back_shard(run, si, total_ticks, str(exc))
                continue
            require(
                len(shard_clusters) == len(shard.cluster_indices),
                "worker returned wrong cluster count",
            )
            for ci, cluster in zip(shard.cluster_indices, shard_clusters):
                new_clusters[ci] = cluster
                swapped.append(cluster)
            fleet.tracer.merge(span_stats)
            if invariants_enabled():
                check_merge_delta(metric_delta)
            fleet.registry.merge(metric_delta)
        fleet.clusters = new_clusters  # setter invalidates machine cache
        for cluster in swapped:
            cluster.rebind_runtime(fleet.registry, fleet.tracer,
                                   fleet.trace_db)
