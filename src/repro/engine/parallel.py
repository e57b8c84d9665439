"""The parallel fleet engine: sharded cluster ticks with exact merge.

Design (and why it is deterministic):

* **Fork, not spawn.**  Workers are forked per :meth:`FleetEngine.run`
  call, so each worker inherits a copy-on-write image of the fleet —
  including every in-flight numpy RNG state and the process hash salt
  that :meth:`Cluster._job_index` depends on.  A cluster therefore draws
  exactly the random stream it would have drawn serially; the per-cluster
  ``SeedSequenceFactory`` forks (``seeds.fork("cluster", index=c)``) make
  those streams independent of shard assignment by construction.

* **Barrier per simulated minute.**  Workers tick their clusters through
  a barrier chunk (default: one 60 s tick), then ship the interval's
  deltas — SLI samples tagged ``(tick, cluster)`` and new trace entries
  (or one trace block) — to the parent, which folds them in before
  releasing the next chunk.

* **Metrics once per run.**  Nothing reads the parent's registry while
  the run is in flight, so metrics do not ride the barriers: each worker
  takes one registry baseline right after the fork and ships a single
  delta against it with its clusters at finalize.  Every series a worker
  touched therefore reaches the parent exactly once per run, and a shard
  the parent takes over replays into the live registry (none of its
  worker's metrics were ever merged).

* **Exact SLI order.**  The serial loop drains samples per tick in
  cluster order; workers tag each drained batch with its (tick, cluster
  index) so the parent reconstructs precisely that interleaving, making
  ``WSC.sli_history`` bit-identical to a serial run.

* **State reunification.**  At the end of the run each worker pickles its
  clusters back to the parent (with its span stats and metric delta),
  which merges the delta, swaps the clusters into the fleet and calls
  :meth:`Cluster.rebind_runtime` so metric handles, tracer spans, event
  subscriptions, and telemetry sinks all point at the parent's live
  objects again.  The fleet can keep running serially (or under a new
  engine) afterwards.

Trace-entry ordering across *different* jobs is canonicalized by
``(time, job_id)`` rather than by serial append order; per-job traces —
the unit every consumer reads — are byte-identical to serial.

The engine falls back to the serial loop (same results, one process)
when parallelism cannot help or would break determinism: a single
cluster, one worker, no ``fork`` support, or clusters sharing a mutable
churn job source.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import os
import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.checks.invariants import check_merge_delta, invariants_enabled
from repro.common.errors import ReproError, TraceError
from repro.common.validation import check_positive, require
from repro.engine.sharding import ShardPlan, plan_shards
from repro.obs import MetricName, Stopwatch

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
        workers: worker processes used (1 for serial).
        ticks: simulated ticks executed.
        barriers: barrier synchronizations performed (0 for serial).
        fallback_reason: why the serial path ran, if it did.
        shard_fallbacks: shards whose worker hung or died mid-run and
            were re-executed serially in the parent (degraded mode; the
            run still completes with serial-identical results).
    """

    mode: str
    workers: int
    ticks: int
    barriers: int
    fallback_reason: Optional[str] = None
    shard_fallbacks: int = 0


@dataclass
class _LocalShard:
    """A shard the parent took over after its worker went unresponsive.

    The shard's clusters (the parent's own, never-ticked copies) are
    caught up behind a scratch tracer and trace database — their
    already-merged barriers must not be folded in twice — while counting
    into the live registry, which never saw the worker's metrics.  They
    then run in-parent for the rest of the run, staging trace entries so
    each barrier still merges through the canonical sorted path.
    """

    cluster_indices: Tuple[int, ...]
    staging_db: object
    reason: str = ""


def _worker_main(conn, fleet, cluster_indices: Tuple[int, ...],
                 ship_blocks: bool = False) -> None:
    """Worker loop: tick owned clusters between barriers, ship deltas.

    Each ``advance`` reply carries the chunk's SLI batches and trace
    delta only.  The ``finalize`` reply carries the owned clusters, this
    worker's span stats and one metric delta against the registry as
    forked, so each series the shard touched ships exactly once per run.

    With ``ship_blocks`` (a fleet whose trace database speaks the
    zero-copy block protocol), each barrier's trace delta travels as one
    :class:`TelemetryBlock` of pending column rows instead of a list of
    re-materialized entries — the columns the forked store buffered are
    exactly the delta, because a worker never seals segments.
    """
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
                sli_batches: List[Tuple[int, int, list]] = []
                for tick_seq in range(ticks):
                    for ci in cluster_indices:
                        clusters[ci].tick()
                    if collect_sli:
                        for ci in cluster_indices:
                            samples = clusters[ci].drain_sli_samples()
                            if samples:
                                sli_batches.append((tick_seq, ci, samples))
                conn.send((
                    "ok",
                    sli_batches,
                    (trace_db.block_since(trace_mark) if ship_blocks
                     else trace_db.entries_since(trace_mark)),
                ))
            elif cmd == "finalize":
                # Detach the shared sinks before pickling: the parent
                # re-attaches its own via Cluster.rebind_runtime, and the
                # fleet-wide trace database would otherwise be duplicated
                # into every returned cluster.
                from repro.cluster.trace_db import TraceDatabase

                empty_db = TraceDatabase()
                owned = [clusters[ci] for ci in cluster_indices]
                for cluster in owned:
                    cluster.trace_db = empty_db
                    for exporter in cluster.exporters.values():
                        exporter.sink = empty_db
                conn.send(("clusters", owned, tracer.stats(),
                           registry.delta(metric_base)))
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


class FleetEngine:
    """Parallel executor for one :class:`repro.cluster.wsc.WSC` fleet.

    Args:
        fleet: the fleet to drive.  The engine mutates it in place; after
            :meth:`run` returns, the fleet holds the advanced state exactly
            as if :meth:`WSC.run` had run serially.
        workers: worker processes (default: usable CPUs, clamped to the
            cluster count).
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
        conns: List[Optional[object]] = []
        procs = []
        local_shards: Dict[int, _LocalShard] = {}
        try:
            for shard in shards:
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=_worker_main,
                    args=(child_conn, fleet, shard.cluster_indices,
                          self.ship_blocks),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                conns.append(parent_conn)
                procs.append(proc)

            barriers = 0
            ticks_done = 0
            wait_seconds = merge_seconds = 0.0
            remaining = total_ticks
            while remaining > 0:
                chunk = min(barrier_ticks, remaining)
                for si, conn in enumerate(conns):
                    if si in local_shards:
                        continue
                    try:
                        conn.send(("advance", chunk, collect_sli))
                    except (BrokenPipeError, OSError):
                        self._fall_back_shard(
                            si, shards, conns, procs, local_shards,
                            ticks_done, collect_sli,
                            "worker pipe broke at barrier send",
                        )
                # Shards already running in-parent execute their chunk
                # while the workers tick theirs.
                results = [
                    self._advance_local(local_shards[si], chunk, collect_sli)
                    for si in sorted(local_shards)
                ]
                with Stopwatch() as wait:
                    self._collect_barrier(
                        shards, conns, procs, local_shards, collect_sli,
                        chunk, ticks_done, results,
                    )
                with Stopwatch() as merge:
                    self._merge_barrier(results, collect_sli)
                wait_seconds += wait.seconds
                merge_seconds += merge.seconds
                remaining -= chunk
                ticks_done += chunk
                barriers += 1

            with Stopwatch() as finalize:
                self._finalize(shards, conns, procs, local_shards,
                               total_ticks, collect_sli)
            phases = fleet.registry.counter(
                MetricName.ENGINE_PHASE_SECONDS_TOTAL,
                "Parent wall seconds in each parallel-engine phase.",
                ("phase",),
            )
            phases.labels(phase="wait").inc(wait_seconds)
            phases.labels(phase="merge").inc(merge_seconds)
            phases.labels(phase="finalize").inc(finalize.seconds)
            for si, conn in enumerate(conns):
                if si in local_shards or conn is None:
                    continue
                try:
                    conn.send(("exit",))
                except (BrokenPipeError, OSError):
                    pass
            for proc in procs:
                if proc.is_alive():
                    proc.join(timeout=30)
            return barriers, len(local_shards)
        finally:
            for conn in conns:
                if conn is not None:
                    conn.close()
            for proc in procs:
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

    def _fall_back_shard(self, si: int, shards, conns, procs, local_shards,
                         ticks_done: int, collect_sli: bool,
                         reason: str) -> _LocalShard:
        """Take over a shard whose worker hung or died.

        The worker is terminated and the shard's clusters — the parent's
        own copies, still at their pre-run state thanks to fork
        copy-on-write — are replayed up to the last fully-merged barrier
        (see :meth:`_catch_up_shard`), then re-bound to the live fleet for
        the rest of the run.  Replay is deterministic, so the final state
        is identical to what the healthy worker would have produced.
        """
        proc = procs[si]
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5)
        conn = conns[si]
        if conn is not None:
            conn.close()
            conns[si] = None
        local_shard = self._catch_up_shard(
            shards[si].cluster_indices, ticks_done, collect_sli, reason
        )
        local_shards[si] = local_shard
        self.fleet.registry.counter(
            MetricName.ENGINE_SHARD_FALLBACKS_TOTAL,
            "Shards re-executed serially after their worker hung or died.",
        ).inc()
        return local_shard

    def _catch_up_shard(self, cluster_indices: Tuple[int, ...],
                        ticks_done: int, collect_sli: bool,
                        reason: str) -> _LocalShard:
        """Replay a shard to ``ticks_done`` and re-wire it for live use.

        The replayed ticks' SLI samples and trace entries were already
        merged at their barriers, so they go to a scratch trace database
        and are drained and discarded; spans go to a scratch tracer.
        Metrics count into the live registry: a worker ships its metric
        delta only at finalize, so none of the failed worker's counts
        ever reached the parent and the replay supplies them exactly once.
        """
        from repro.cluster.trace_db import TraceDatabase
        from repro.obs import Tracer

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
        # From here on the shard runs against the real fleet; trace
        # entries stage in a private database so each barrier can still
        # merge them through the canonical sorted path.
        staging_db = TraceDatabase()
        for cluster in clusters:
            cluster.rebind_runtime(fleet.registry, fleet.tracer, staging_db)
        return _LocalShard(
            cluster_indices=tuple(cluster_indices),
            staging_db=staging_db,
            reason=reason,
        )

    def _advance_local(self, local_shard: _LocalShard, chunk: int,
                       collect_sli: bool) -> Tuple[list, list]:
        """Run one barrier chunk of a taken-over shard in the parent.

        Mirrors the worker protocol: SLI batches come back tagged
        ``(tick_seq, cluster_index)`` and trace entries as the staging
        database's delta, so :meth:`_merge_barrier` interleaves them with
        the surviving workers' output exactly as a healthy run would.
        """
        fleet = self.fleet
        mark = local_shard.staging_db.mark()
        sli_batches: List[Tuple[int, int, list]] = []
        for tick_seq in range(chunk):
            for ci in local_shard.cluster_indices:
                fleet.clusters[ci].tick()
            if collect_sli:
                for ci in local_shard.cluster_indices:
                    samples = fleet.clusters[ci].drain_sli_samples()
                    if samples:
                        sli_batches.append((tick_seq, ci, samples))
        return sli_batches, local_shard.staging_db.entries_since(mark)

    # ------------------------------------------------------------------
    # Barrier merge & finalize
    # ------------------------------------------------------------------

    def _collect_barrier(self, shards, conns, procs, local_shards,
                         collect_sli: bool, chunk: int, ticks_done: int,
                         results: List[Tuple[list, object]]) -> None:
        """Append every worker's reply for one barrier to ``results``.

        Replies are collected (and failures handled) *before* anything is
        folded in, so a mid-barrier failure never leaves the fleet holding
        half a barrier.  A worker that fails here is fallen back exactly
        like one that failed at send time: its shard is caught up to
        ``ticks_done`` and the current chunk is re-executed in-parent,
        joining this barrier's merge.
        """
        for si, conn in enumerate(conns):
            if si in local_shards:
                continue
            try:
                _, batches, trace_delta = self._recv(conn)
            except _WorkerUnavailable as exc:
                self._fall_back_shard(
                    si, shards, conns, procs, local_shards,
                    ticks_done, collect_sli, str(exc),
                )
                results.append(self._advance_local(
                    local_shards[si], chunk, collect_sli
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
        # objects anywhere.  A mixed barrier (e.g. a fallback shard staging
        # into an in-memory database, or a fault scenario downgrading a
        # worker's sink) degrades to the entry path for exactly that
        # barrier; both folds commit one chunk per barrier, so the sealed
        # segments come out identical either way.
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

    def _finalize(self, shards: Sequence[ShardPlan], conns, procs,
                  local_shards: Dict[int, _LocalShard], total_ticks: int,
                  collect_sli: bool) -> None:
        """Merge each worker's metric delta and swap its clusters in.

        Each worker's single per-run metric delta is checked and merged
        here, as its clusters are swapped in.  Shards the parent already
        took over are re-pointed from their staging database to the
        fleet's; a worker that hangs *here* is recovered by replaying its
        whole run (every barrier's SLI and trace delta was merged, so the
        replay supplies only the end state and the shard's metrics).
        """
        fleet = self.fleet
        for si, conn in enumerate(conns):
            if si in local_shards:
                continue
            try:
                conn.send(("finalize",))
            except (BrokenPipeError, OSError):
                self._fall_back_shard(
                    si, shards, conns, procs, local_shards,
                    total_ticks, collect_sli,
                    "worker pipe broke at finalize",
                )
        new_clusters = list(fleet.clusters)
        swapped = []
        for si, (shard, conn) in enumerate(zip(shards, conns)):
            if si in local_shards:
                continue
            try:
                _, shard_clusters, span_stats, metric_delta = self._recv(conn)
            except _WorkerUnavailable as exc:
                self._fall_back_shard(
                    si, shards, conns, procs, local_shards,
                    total_ticks, collect_sli, str(exc),
                )
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
        # Taken-over shards hold the parent's own (already advanced)
        # clusters; just point their telemetry back at the fleet.
        for si in sorted(local_shards):
            for ci in local_shards[si].cluster_indices:
                fleet.clusters[ci].rebind_runtime(
                    fleet.registry, fleet.tracer, fleet.trace_db
                )
