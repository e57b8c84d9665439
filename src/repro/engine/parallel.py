"""The parallel fleet engine: sharded cluster ticks with exact merge.

Design (and why it is deterministic):

* **Fork, not spawn, once per session.**  The first parallel
  :meth:`FleetEngine.run` over W shards forks W - 1 workers; later runs
  reuse them, and each keeps its clusters between runs.  A worker
  inherits a copy-on-write image of the fleet — every in-flight numpy
  RNG state and the process hash salt :meth:`Cluster._job_index`
  depends on — so a cluster draws exactly its serial random stream
  (per-cluster ``seeds.fork("cluster", index=c)`` streams make that
  independent of shard assignment).  The parent's copies of the forked
  shards stay at their session-start state, untouched.

* **The parent is one of the W processes.**  It ticks the shard with the
  fewest machines (it also merges) between sending an ``advance`` and
  collecting the replies.  That shard stays live all session.

* **One advance per run.**  Clusters never read each other inside a run,
  so a run is one ``advance`` per worker (one per :data:`SHIP_SECONDS`
  of a longer run, which bounds a worker's buffer).  Every process
  stages its shard's telemetry in a sink drained after each tick; a
  worker's one reply carries its SLI batches, tagged ``(tick,
  cluster)``, those per-tick trace deltas, its span stats and one metric
  delta since its previous reply.  The parent then folds every shard's
  interval in tick by tick: SLI back in the serial drain order (making
  ``WSC.sli_history`` bit-identical to a serial run) and one trace chunk
  per tick, so the store seals segments at the same rows.  Nothing reads
  the fleet's registry, SLI history or store mid-run (cluster events and
  fault injectors act on their own cluster only), and every metric
  series reaches the parent exactly once.

* **One seam between runs.**  :meth:`WSC.map_clusters` sends a
  module-level function to the shard owning each cluster as one
  ``call``; the canary's reads and deploys use it, never a stale copy.

* **Close: state reunification.**  Reading ``WSC.clusters`` or
  ``WSC.machines``, a serial ``WSC.run`` or :meth:`FleetEngine.close`
  ships the clusters back once, bare of their forked registry, tracer
  and trace database; the parent merges the last deltas, swaps the
  clusters in and :meth:`Cluster.rebind_runtime` points every handle at
  its live objects again.

* **Death recovery by log replay.**  The parent logs every ``advance``
  and ``call`` it sends a forked shard.  A shard whose worker hangs or
  dies is replayed from the parent's session-start copy; the control
  plane uses no wall clock and no RNG, so the replay gives the same bits
  (see :meth:`_Session._take_over`).

Trace rows of *different* jobs merge in ``(time, job_id)`` order, not
serial append order; per-job traces — the unit every consumer reads —
are byte-identical to serial.  The engine falls back to the serial loop
(same results, one process) for a single cluster, one worker, no
``fork`` support, or clusters sharing a mutable churn job source.
"""

from __future__ import annotations

import gc
import math
import multiprocessing as mp
import os
import traceback
import weakref
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.checks.invariants import check_merge_delta, invariants_enabled
from repro.common.errors import ReproError
from repro.common.validation import check_positive, require
from repro.engine.sharding import plan_shards
from repro.model.trace import TelemetryBlock
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

    Internal: the parent replays the shard instead (see
    :meth:`_Session._take_over`).  A worker that *reports* an error
    raises :class:`EngineError` — a deterministic crash would reproduce
    in the replay too.
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
        workers: processes that ticked shards, the parent included (its
            session forks ``workers - 1``); 1 for serial.
        ticks: simulated ticks executed.
        advances: ``advance`` round trips made (0 for serial).
        fallback_reason: why the serial path ran, if it did.
        shard_fallbacks: forked shards whose worker hung or died during
            this run and were replayed in the parent (the run still
            gives serial-identical results).
    """

    mode: str
    workers: int
    ticks: int
    advances: int
    fallback_reason: Optional[str] = None
    shard_fallbacks: int = 0


#: Simulated seconds one ``advance`` covers at most: a run ships its
#: telemetry, SLI samples and metrics at least this often.
SHIP_SECONDS = 3600


class _Staging:
    """Telemetry sink of the clusters a process ticks for the engine.

    Holds the blocks they export in one tick, so the parent merges every
    shard's rows of that tick into the fleet database as one block.
    """

    def __init__(self) -> None:
        self._blocks: List[TelemetryBlock] = []

    def add_block(self, block: TelemetryBlock) -> None:
        if block.n_rows:
            self._blocks.append(block)

    def drain(self) -> Optional[TelemetryBlock]:
        """One block of everything staged since the last drain, or None
        when nothing was."""
        blocks, self._blocks = self._blocks, []
        return TelemetryBlock.concat(blocks) if blocks else None


def _point_sinks(clusters, sink) -> None:
    """Point the clusters' telemetry (their exporters) at ``sink``."""
    for cluster in clusters:
        cluster.trace_db = sink
        for exporter in cluster.exporters.values():
            exporter.sink = sink


def _tick_chunk(clusters, cluster_indices: Sequence[int], ticks: int,
                staging: _Staging) -> Tuple[list, list]:
    """Tick the indexed clusters ``ticks`` times, in cluster order.

    Returns the SLI batches drained on the way, each tagged ``(tick_seq,
    cluster_index)`` so the parent can rebuild the serial drain order,
    and what ``staging`` (their telemetry sink) held after each tick.
    """
    sli_batches: List[Tuple[int, int, list]] = []
    telemetry = []
    for tick_seq in range(ticks):
        for ci in cluster_indices:
            clusters[ci].tick()
        for ci in cluster_indices:
            samples = clusters[ci].drain_sli_samples()
            if samples:
                sli_batches.append((tick_seq, ci, samples))
        telemetry.append(staging.drain())
    return sli_batches, telemetry


def _worker_main(conn, fleet, cluster_indices: Tuple[int, ...]) -> None:
    """Worker loop: own a shard's clusters for a whole engine session.

    * ``advance``: tick an interval; reply with its SLI batches, its
      per-tick trace deltas (each one :class:`TelemetryBlock` or None),
      the span stats and one metric delta since the previous reply.
    * ``call``: reply with ``fn(cluster, *args)`` per indexed cluster.
    * ``close``: reply with the owned clusters, the span stats and the
      last metric delta, then exit.
    """
    # The inherited heap is the parent's, alive for the whole session:
    # keep this process's collections off it (an O(1) move to the
    # permanent generation).  The parent's own collector is never touched.
    gc.freeze()
    clusters, registry, tracer = fleet._clusters, fleet.registry, fleet.tracer
    staging = _Staging()
    _point_sinks([clusters[ci] for ci in cluster_indices], staging)
    # The fork copied the parent's span history and metric values; the
    # stats and deltas this worker reports are purely its own.
    tracer.reset()
    metric_mark = registry.mark()
    try:
        while True:
            msg = conn.recv()
            cmd = msg[0]
            if cmd == "advance":
                conn.send(("ok",
                           *_tick_chunk(clusters, cluster_indices, msg[1],
                                        staging),
                           tracer.stats(), registry.delta(metric_mark)))
                # Off the parent's critical path: it has its reply.
                tracer.reset()
                metric_mark = registry.mark()
            elif cmd == "call":
                _, fn, args, indices = msg
                conn.send(("ok", [fn(clusters[ci], *args) for ci in indices]))
            elif cmd == "close":
                reply = ("clusters", [clusters[ci] for ci in cluster_indices],
                         tracer.stats(), registry.delta(metric_mark))
                # Ship the clusters bare: the forked registry (every
                # series of the fleet) would otherwise be pickled, only
                # for the parent's rebind to drop it.
                for cluster in reply[1]:
                    cluster.rebind_runtime(MetricRegistry(enabled=False),
                                           Tracer(enabled=False), staging)
                conn.send(reply)
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


def _stop_workers(conns: Dict[int, object], procs: Dict[int, object]) -> None:
    """Close the pipes and reap every worker still running."""
    for conn in conns.values():
        conn.close()
    for proc in procs.values():
        if proc.is_alive():
            proc.terminate()
        proc.join()


def _count_phases(fleet, **seconds: float) -> None:
    phases = fleet.registry.counter(
        MetricName.ENGINE_PHASE_SECONDS_TOTAL,
        "Parent wall seconds in each parallel-engine phase.",
        ("phase",),
    )
    for phase, value in seconds.items():
        phases.labels(phase=phase).inc(value)


class _Session:
    """Forked workers that own their shards' clusters across runs.

    The fleet holds the open session (``WSC._session``), as does the
    engine that opened it; it refers to neither, so dropping both frees
    the fleet and the reaper stops the workers.

    Attributes:
        shards: the shard plan, fixed for the session.
        local: indices of the clusters the parent ticks — its own shard
            (the lightest) plus any shard it took over — ascending.
        staging: the sink every cluster the parent ticks exports into.
        conns: pipe ends of the live forked workers, by shard index.
        procs: every forked worker process, by shard index.
        logs: every ``advance`` and ``call`` sent to each live forked
            shard since the fork — its replay script.
        merged: per live forked shard, the length of its log whose
            metric deltas the parent's registry already holds.
        reaper: stops the workers if the fleet is collected first.
    """

    def __init__(self, fleet, workers: int, recv_timeout: Optional[float]):
        self.shards = plan_shards(
            [len(c.machines) for c in fleet._clusters], workers
        )
        self.recv_timeout = recv_timeout
        own = min(range(len(self.shards)),
                  key=lambda si: self.shards[si].weight)
        self.local = list(self.shards[own].cluster_indices)
        self.staging = _Staging()
        self.conns, self.procs, self.logs, self.merged = {}, {}, {}, {}
        ctx = mp.get_context("fork")
        try:
            for si, shard in enumerate(self.shards):
                if si == own:
                    continue
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=_worker_main,
                    args=(child_conn, fleet, shard.cluster_indices),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                self.conns[si], self.procs[si] = parent_conn, proc
                self.logs[si], self.merged[si] = [], 0
        except BaseException:
            _stop_workers(self.conns, self.procs)
            raise
        # Only after the last fork: the workers inherit the fleet's own
        # sinks, and no session.
        self.reaper = weakref.finalize(fleet, _stop_workers, self.conns,
                                       self.procs)
        _point_sinks([fleet._clusters[ci] for ci in self.local],
                     self.staging)
        fleet._session = self

    def now(self, fleet) -> int:
        """Fleet time: a cluster the parent ticks is always current."""
        return fleet._clusters[self.local[0]].clock.now

    def run(self, fleet, total_ticks: int,
            ship_ticks: int) -> Tuple[int, int]:
        """Advance every shard ``total_ticks``, ``ship_ticks`` per
        ``advance``; returns the advances made and the forked shards taken
        over on the way."""
        live = len(self.conns)
        advances = ticks_done = 0
        local_seconds = wait_seconds = merge_seconds = 0.0
        try:
            while ticks_done < total_ticks:
                chunk = min(ship_ticks, total_ticks - ticks_done)
                command = ("advance", chunk)
                self._send(fleet, command)
                # The parent ticks its clusters while the workers tick
                # theirs.
                with Stopwatch() as local:
                    results = [self._advance_local(fleet, self.local, chunk)]
                # Replies are collected (and failures handled) *before*
                # anything is folded in, so a failure never leaves the
                # fleet holding half an interval.
                with Stopwatch() as wait:
                    waiting = list(self.conns)
                    replies = self._replies(fleet)
                    for si in waiting:
                        if si in replies:
                            self.logs[si].append(command)
                            results.append(replies[si][1:3])
                        else:  # taken over: this chunk runs in the parent
                            results.append(self._advance_local(
                                fleet, self.shards[si].cluster_indices, chunk,
                            ))
                with Stopwatch() as merge:
                    _merge_interval(fleet, results, chunk)
                    for si, reply in replies.items():
                        _merge_shipment(fleet, *reply[3:])
                        self.merged[si] = len(self.logs[si])
                local_seconds += local.seconds
                wait_seconds += wait.seconds
                merge_seconds += merge.seconds
                ticks_done += chunk
                advances += 1
        except BaseException:
            self._end(fleet)
            raise
        _count_phases(fleet, local=local_seconds, wait=wait_seconds,
                      merge=merge_seconds)
        return advances, live - len(self.conns)

    def call(self, fleet, fn: Callable, args: tuple,
             indices: Sequence[int]) -> list:
        """``fn(cluster, *args)`` per indexed cluster (see
        :meth:`WSC.map_clusters`): one logged ``call`` per forked shard
        involved, while the parent serves its own clusters."""
        wanted, local = set(indices), set(self.local)
        # Decided before any take-over: a replayed shard's results come
        # from its replay.
        local = [ci for ci in indices if ci in local]
        results = {}
        try:
            with Stopwatch() as call:
                sent = []
                for si in list(self.conns):
                    mine = tuple(ci for ci in self.shards[si].cluster_indices
                                 if ci in wanted)
                    if not mine:
                        continue
                    command = ("call", fn, args, mine)
                    self.logs[si].append(command)
                    try:
                        self.conns[si].send(command)
                        sent.append((si, mine))
                    except (BrokenPipeError, OSError):
                        results.update(zip(mine, self._take_over(fleet, si)))
                for ci in local:
                    results[ci] = fn(fleet._clusters[ci], *args)
                for si, mine in sent:
                    try:
                        values = self._recv(self.conns[si])[1]
                    except _WorkerUnavailable:
                        values = self._take_over(fleet, si)
                    results.update(zip(mine, values))
        except BaseException:
            self._end(fleet)
            raise
        _count_phases(fleet, call=call.seconds)
        return [results[ci] for ci in indices]

    def close(self, fleet) -> None:
        """Ship every forked shard's clusters home (with the last metric
        delta), swap them into the fleet and rebind them to its registry,
        tracer and trace database.  A no-op once the session ended."""
        if fleet._session is not self:
            return
        with Stopwatch() as close:
            try:
                self._send(fleet, ("close",))
                replies = self._replies(fleet)
                for si, (_, clusters, stats, delta) in replies.items():
                    indices = self.shards[si].cluster_indices
                    require(len(clusters) == len(indices),
                            "worker returned wrong cluster count")
                    _merge_shipment(fleet, stats, delta)
                    for ci, cluster in zip(indices, clusters):
                        fleet._clusters[ci] = cluster
                        cluster.rebind_runtime(fleet.registry, fleet.tracer,
                                               fleet.trace_db)
                fleet.invalidate_caches()
            finally:
                self._end(fleet)
        _count_phases(fleet, close=close.seconds)

    def _send(self, fleet, command: tuple) -> None:
        """Send ``command`` to every live worker; a worker whose pipe broke
        is taken over."""
        for si in list(self.conns):
            try:
                self.conns[si].send(command)
            except (BrokenPipeError, OSError):
                self._take_over(fleet, si)

    def _replies(self, fleet) -> Dict[int, tuple]:
        """Every live worker's reply, by shard; a worker that hung or died
        is taken over and has none."""
        replies = {}
        for si in list(self.conns):
            try:
                replies[si] = self._recv(self.conns[si])
            except _WorkerUnavailable:
                self._take_over(fleet, si)
        return replies

    def _end(self, fleet) -> None:
        """Stop the workers and give the fleet back its sinks.

        After an error mid-command the forked shards' clusters are lost:
        the fleet keeps the parent's session-start copies of them.
        """
        if fleet._session is self:
            fleet._session = None
            _point_sinks([fleet._clusters[ci] for ci in self.local],
                         fleet.trace_db)
        self.reaper()

    def _recv(self, conn):
        """One protocol reply, or :class:`_WorkerUnavailable` on hang or
        death (polling with a timeout, so a hung worker cannot block the
        session forever)."""
        try:
            if self.recv_timeout is not None and not conn.poll(
                self.recv_timeout
            ):
                raise EOFError("no reply in time")  # hung: as good as dead
            reply = conn.recv()
        except (EOFError, OSError) as exc:
            # A clean close raises EOFError; an abrupt worker death can
            # surface as ConnectionResetError (an OSError) instead.
            raise _WorkerUnavailable(str(exc)) from exc
        if reply[0] == "error":
            raise EngineError(f"engine worker failed:\n{reply[1]}")
        return reply

    def _take_over(self, fleet, si: int) -> Optional[list]:
        """Replay a shard whose worker hung or died; it turns local.

        The worker is terminated and the parent's session-start copies of
        its clusters replay the shard's log.  Entries whose metric deltas
        were merged count into a scratch registry, the rest into the live
        one, so every series arrives exactly once; replayed SLI samples
        and trace rows were merged with their advances and are discarded.
        Returns the replayed results of the log's last entry when it is a
        ``call`` (the call in flight), else None.
        """
        _stop_workers({si: self.conns.pop(si)}, {si: self.procs[si]})
        log, merged = self.logs.pop(si), self.merged.pop(si)
        indices = self.shards[si].cluster_indices
        clusters = [fleet._clusters[ci] for ci in indices]
        scratch_tracer = Tracer(enabled=False)
        scratch_sink = _Staging()
        result = None
        for position, entry in enumerate(log):
            if position in (0, merged):
                registry = (fleet.registry if position >= merged
                            else MetricRegistry(enabled=False))
                for cluster in clusters:
                    cluster.rebind_runtime(registry, scratch_tracer,
                                           scratch_sink)
            if entry[0] == "advance":
                # Already merged with its advance; discard.
                _tick_chunk(fleet._clusters, indices, entry[1], scratch_sink)
                result = None
            else:
                _, fn, args, call_indices = entry
                result = [fn(fleet._clusters[ci], *args)
                          for ci in call_indices]
        for cluster in clusters:
            cluster.rebind_runtime(fleet.registry, fleet.tracer, self.staging)
        self.local = sorted(self.local + list(indices))
        fleet.registry.counter(
            MetricName.ENGINE_SHARD_FALLBACKS_TOTAL,
            "Shards re-executed serially after their worker hung or died.",
        ).inc()
        return result

    def _advance_local(self, fleet, cluster_indices: Sequence[int],
                       chunk: int) -> Tuple[list, list]:
        """One interval of clusters the parent ticks: the SLI batches and
        per-tick trace deltas of a worker's ``advance`` reply."""
        return _tick_chunk(fleet._clusters, cluster_indices, chunk,
                           self.staging)


def _merge_shipment(fleet, span_stats, metric_delta) -> None:
    fleet.tracer.merge(span_stats)
    if invariants_enabled():
        check_merge_delta(metric_delta)
    fleet.registry.merge(metric_delta)


def _merge_interval(fleet, results: List[Tuple[list, list]],
                    ticks: int) -> None:
    """Fold one interval's SLI and trace deltas into the fleet.

    ``results`` holds one ``(sli_batches, trace_deltas)`` pair per
    shard, with one trace delta per tick.
    """
    sli_batches: List[Tuple[int, int, list]] = []
    for batches, _ in results:
        sli_batches.extend(batches)
    # Reconstruct the serial drain order: per tick, cluster order.
    sli_batches.sort(key=lambda batch: (batch[0], batch[1]))
    for _, _, samples in sli_batches:
        fleet.sli_history.extend(samples)
    for tick_seq in range(ticks):
        _merge_tick(fleet, [deltas[tick_seq] for _, deltas in results])


def _merge_tick(fleet, trace_deltas: List[Optional[TelemetryBlock]]) -> None:
    """Fold one tick's trace deltas, one block (or None) per shard, into
    the fleet database as one block in canonical cross-job order; per-job
    order is already serial-exact because every job lives on exactly one
    shard."""
    blocks = [block for block in trace_deltas if block is not None]
    if blocks:
        fleet.trace_db.add_block(
            TelemetryBlock.concat(blocks).sorted_by_time_job())


class FleetEngine:
    """Parallel executor for one :class:`repro.cluster.wsc.WSC` fleet.

    Runs share one worker session (see the module docstring): the first
    parallel :meth:`run` forks, later runs reuse the workers, and the
    session closes when a caller needs the live clusters, on
    :meth:`close`, or on leaving a ``with FleetEngine(fleet) as
    engine:`` block.  The fleet holds the open session, so a dropped
    engine's workers stop with its fleet.

    Args:
        fleet: the fleet to drive.  The engine mutates it in place; after
            :meth:`run` returns, the fleet reads exactly as if
            :meth:`WSC.run` had run serially.
        workers: processes that tick shards, the parent included
            (default: usable CPUs, clamped to the cluster count); a
            session forks one fewer.
        recv_timeout_seconds: how long (wall-clock) to wait for a worker's
            reply before declaring it hung and replaying its shard in the
            parent; ``None`` waits forever.
    """

    def __init__(self, fleet, workers: Optional[int] = None,
                 recv_timeout_seconds: Optional[float] = 300.0):
        self.fleet = fleet
        if workers is None:
            workers = default_worker_count()
        check_positive(workers, "workers")
        if recv_timeout_seconds is not None:
            check_positive(recv_timeout_seconds, "recv_timeout_seconds")
        self.workers = min(int(workers), len(fleet._clusters))
        self.recv_timeout_seconds = recv_timeout_seconds
        self.last_stats: Optional[EngineStats] = None
        self._session: Optional[_Session] = None

    def __enter__(self) -> "FleetEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """End this engine's session, shipping the clusters home.
        Idempotent; a no-op without an open session."""
        if self._session is not None:
            self._session.close(self.fleet)
            self._session = None

    def parallelizable(self) -> Tuple[bool, Optional[str]]:
        """Whether a run would take the parallel path, and if not, why."""
        if len(self.fleet._clusters) < 2:
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
        for cluster in self.fleet._clusters:
            source = getattr(cluster, "_job_source", None)
            if source is None:
                continue
            # Identity only detects aliasing within THIS process; the
            # result never reaches simulation state.
            owners.append(id(getattr(source, "__self__", source)))  # repro: noqa[FLOW001]
        return len(owners) != len(set(owners))

    def run(self, seconds: int) -> EngineStats:
        """Advance the fleet by ``seconds``; returns what was executed."""
        check_positive(seconds, "seconds")
        fleet = self.fleet
        tick_seconds = fleet._clusters[0].clock.tick_seconds
        total_ticks = math.ceil(seconds / tick_seconds)
        ok, reason = self.parallelizable()
        if not ok:
            fleet.run(seconds)
            self.last_stats = EngineStats(
                mode="serial", workers=1, ticks=total_ticks, advances=0,
                fallback_reason=reason,
            )
            return self.last_stats

        if fleet._session is not self._session:
            fleet._close_session()  # another engine's
        with Stopwatch() as start:
            if fleet._session is None:
                self._session = _Session(fleet, self.workers,
                                         self.recv_timeout_seconds)
        _count_phases(fleet, start=start.seconds)
        advances, taken_over = self._session.run(
            fleet, total_ticks, max(1, SHIP_SECONDS // tick_seconds),
        )
        self.last_stats = EngineStats(
            mode="parallel", workers=len(self._session.shards),
            ticks=total_ticks, advances=advances, shard_fallbacks=taken_over,
        )
        return self.last_stats
