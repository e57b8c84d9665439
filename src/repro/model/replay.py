"""The fast far memory model: offline what-if replay (paper §5.3).

Given recorded per-job traces (working set size, promotion histogram, and
cold-age histogram per 5-minute period) and a candidate parameter
configuration ``(K, S)``, the model re-runs the §4.3 control algorithm over
each trace and estimates, interval by interval, what the fleet would have
done under that configuration:

* the **size of cold memory captured** — pages whose age exceeded the
  replayed threshold (the memory that would have been in far memory), and
* the **promotion rate** — accesses that would have hit far memory,
  normalized by the working set.

The report's two headline numbers mirror the autotuner's problem
formulation: total cold memory captured (the objective) and the fleet-wide
98th-percentile normalized promotion rate (the constraint).

Replay of different jobs is independent, so the model runs as a MapReduce
pipeline (:mod:`repro.model.mapreduce`) and scales linearly with workers.
Three optimizations multiply on this path:

1. **Vectorized replay** — each trace compiles once into dense suffix-sum
   tensors (:class:`repro.model.trace.CompiledTrace`) and the §4.3 policy
   is replayed over arrays (:func:`replay_compiled`).  The scalar
   interval-by-interval loop (:func:`replay_reference`) is the semantic
   reference the tests hold it to; both produce bit-identical results.
2. **Batched evaluation, across configs and across traces** —
   :meth:`FarMemoryModel.evaluate_many` replays a whole batch of candidate
   configurations in *one* MapReduce, and each map task is a range of
   whole traces replayed as one array program: their rows are
   concatenated, the per-interval best thresholds (config-independent)
   are computed in one pass, and every row's history pool is sorted once
   per distinct ``history_length`` — so per config only a percentile
   gather, grid snapping and the histogram lookups remain, each one
   whole-array operation over every row of the task.  A task's pools are
   capped at :data:`MAX_TASK_POOL_CELLS` cells, so fleets of week-long
   traces split into several tasks instead of one large matrix.
3. **Persistent pool** — the MapReduce pool outlives individual runs and
   an initializer ships the compiled traces to each worker once per model,
   so successive autotuner batches pay no per-batch serialization of the
   fleet traces.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.units import MINUTE
from repro.core.slo import PromotionRateSlo, normalized_promotion_rate
from repro.core.threshold_policy import (
    ColdAgeThresholdPolicy,
    ThresholdPolicyConfig,
    best_thresholds_vectorized,
    replay_threshold_batch,
)
from repro.model.mapreduce import MapReduce
from repro.model.trace import (
    TRACE_PERIOD_SECONDS,
    CompiledTrace,
    JobTrace,
    suffix_columns,
)
from repro.obs import MetricName, get_registry, get_tracer, Stopwatch

__all__ = [
    "JobReplayResult",
    "FleetReplayReport",
    "FarMemoryModel",
    "replay_compiled",
    "replay_reference",
]


@dataclass
class JobReplayResult:
    """Replay outcome for one job under one configuration.

    Attributes:
        job_id: the replayed job.
        cold_pages_captured: per-interval pages the replayed threshold
            would have put in far memory.
        normalized_rates: per-interval promotion rate, % of WSS per minute.
        thresholds: per-interval threshold the policy chose (inf=disabled).
        intervals: number of trace intervals replayed.
    """

    job_id: str
    cold_pages_captured: List[float] = field(default_factory=list)
    normalized_rates: List[float] = field(default_factory=list)
    thresholds: List[float] = field(default_factory=list)

    @property
    def intervals(self) -> int:
        return len(self.thresholds)

    @property
    def mean_cold_pages(self) -> float:
        """Average far-memory size this job would have sustained."""
        if not self.cold_pages_captured:
            return 0.0
        return float(np.mean(self.cold_pages_captured))


@dataclass
class FleetReplayReport:
    """Fleet aggregation of per-job replay results.

    Attributes:
        config: the configuration replayed.
        total_cold_pages: mean-over-time, summed-over-jobs far memory size
            (the autotuner's objective).
        promotion_rate_p98: fleet-wide 98th percentile of per-job,
            per-interval normalized promotion rates (the constraint).
        slo_target: the SLO the constraint is checked against.
        job_results: per-job detail.
    """

    config: ThresholdPolicyConfig
    total_cold_pages: float
    promotion_rate_p98: float
    slo_target: float
    job_results: List[JobReplayResult]

    @property
    def meets_slo(self) -> bool:
        """True when the replayed p98 promotion rate is within the SLO."""
        return self.promotion_rate_p98 <= self.slo_target


def replay_reference(
    trace: JobTrace,
    config: ThresholdPolicyConfig,
    slo: PromotionRateSlo,
) -> JobReplayResult:
    """Replay the control algorithm over one job's trace, interval by
    interval, through the online :class:`ColdAgeThresholdPolicy`.

    For each interval the threshold chosen from history *before* observing
    the interval governs it — exactly the online ordering, where the agent
    publishes a threshold and the next minute runs under it.  This is the
    test-only reference :func:`replay_compiled` (and so
    :class:`FarMemoryModel`) is proven bit-identical against; nothing in
    the runtime calls it.
    """
    result = JobReplayResult(job_id=trace.job_id)
    if not trace.entries:
        return result
    bins = trace.entries[0].bins
    policy = ColdAgeThresholdPolicy(config, bins, slo)
    for entry in trace.entries:
        threshold = policy.threshold()
        result.thresholds.append(threshold)

        if np.isfinite(threshold):
            captured = entry.cold_age_histogram.colder_than(threshold)
            promoted = entry.promotion_histogram.colder_than(threshold)
        else:
            captured = 0
            promoted = 0
        per_min = promoted * (MINUTE / TRACE_PERIOD_SECONDS)
        result.cold_pages_captured.append(float(captured))
        result.normalized_rates.append(
            normalized_promotion_rate(per_min, entry.working_set_pages)
        )
        policy.observe(
            entry.promotion_histogram,
            entry.working_set_pages,
            TRACE_PERIOD_SECONDS,
        )
    return result


#: Cap on the history-pool cells (rows × window) one map task holds.  The
#: batched replay sorts a ``(rows, min(longest trace - 1, history_length))``
#: float matrix per distinct ``history_length``; a week of 5-minute
#: intervals (2016 rows, H = 120) is about 240k cells, so without a cap one
#: task over a large fleet of such traces would hold hundreds of MiB.  At
#: 2**20 cells the matrix stays at 8 MiB; a trace larger than the cap gets
#: a task of its own.
MAX_TASK_POOL_CELLS = 1 << 20


def replay_compiled(
    compiled: Sequence[CompiledTrace],
    configs: Sequence[ThresholdPolicyConfig],
    slo: PromotionRateSlo,
) -> List[List[JobReplayResult]]:
    """Vectorized replay of compiled traces under a batch of configs.

    Returns ``results[i][j]``: trace ``compiled[i]`` under ``configs[j]``.
    Traces that share a grid and an interval length replay as one array
    program: their rows are concatenated, the per-interval *best*
    thresholds (which depend only on the trace and the SLO, never on
    ``(K, S)``) are computed in one pass, each row's history pool is built
    and sorted once per distinct ``history_length``
    (:func:`~repro.core.threshold_policy.replay_threshold_batch`), and
    only the percentile decode and the histogram lookups are per-config —
    whole-array operations over every row.  Every arithmetic step mirrors
    :func:`replay_reference` operation for operation, so results are
    bit-identical to the scalar reference.
    """
    groups: Dict[Tuple[Tuple[int, ...], int], List[int]] = {}
    for index, trace in enumerate(compiled):
        if trace.intervals and trace.bins is not None:
            key = (trace.bins.thresholds, trace.interval_seconds)
            groups.setdefault(key, []).append(index)
    replayed: Dict[int, List[JobReplayResult]] = {}
    for members in groups.values():
        traces = [compiled[i] for i in members]
        replayed.update(zip(members, _replay_group(traces, configs, slo)))
    return [
        replayed[index] if index in replayed
        else [JobReplayResult(job_id=trace.job_id) for _ in configs]
        for index, trace in enumerate(compiled)
    ]


def _replay_group(
    traces: List[CompiledTrace],
    configs: Sequence[ThresholdPolicyConfig],
    slo: PromotionRateSlo,
) -> List[List[JobReplayResult]]:
    """:func:`replay_compiled` over non-empty traces on one grid and one
    interval length."""
    bins = traces[0].bins
    assert bins is not None
    interval = traces[0].interval_seconds
    lengths = np.array([trace.intervals for trace in traces])
    ends = np.cumsum(lengths)
    starts = ends - lengths
    rows = int(ends[-1])
    cold = np.concatenate([trace.cold_suffix_sums for trace in traces])
    promo = np.concatenate([trace.promotion_suffix_sums for trace in traces])
    wss_pages = np.concatenate([trace.working_set_pages for trace in traces])
    position = np.arange(rows) - np.repeat(starts, lengths)
    best = best_thresholds_vectorized(
        promo[:, :-1], wss_pages, bins, slo, interval
    )
    wss = wss_pages.astype(float)
    row = np.arange(rows)
    bounds = list(zip(starts.tolist(), ends.tolist()))
    per_trace: List[List[JobReplayResult]] = [[] for _ in traces]
    for thresholds in replay_threshold_batch(
        best, position, configs, bins, interval
    ):
        column = suffix_columns(bins, thresholds)
        captured = cold[row, column].astype(float).tolist()
        per_min = promo[row, column] * (MINUTE / interval)
        with np.errstate(divide="ignore", invalid="ignore"):
            rates = np.where(
                wss > 0.0,
                (100.0 * per_min) / wss,
                np.where(per_min <= 0.0, 0.0, float("inf")),
            ).tolist()
        chosen = thresholds.tolist()
        for trace, out, (a, b) in zip(traces, per_trace, bounds):
            out.append(
                JobReplayResult(
                    job_id=trace.job_id,
                    cold_pages_captured=captured[a:b],
                    normalized_rates=rates[a:b],
                    thresholds=chosen[a:b],
                )
            )
    return per_trace


def _plan_tasks(
    lengths: Sequence[int], window: int, workers: int
) -> List[Tuple[int, int]]:
    """Split the fleet into contiguous trace ranges, one map task each.

    A range ends before the trace that would push its history-pool matrix
    (rows × ``min(longest - 1, window)``) past
    :data:`MAX_TASK_POOL_CELLS`, and, with several workers, before the
    trace that would push its rows past an even share, so the ranges
    spread over the pool.  A small fleet on one worker is one task.
    """
    share = math.ceil(sum(lengths) / workers) if workers > 1 else math.inf
    ranges: List[Tuple[int, int]] = []
    start = rows = longest = 0
    for index, length in enumerate(lengths):
        grown, tallest = rows + length, max(longest, length)
        cells = grown * min(max(tallest - 1, 0), window)
        if index > start and (cells > MAX_TASK_POOL_CELLS or grown > share):
            ranges.append((start, index))
            start, grown, tallest = index, length, length
        rows, longest = grown, tallest
    if lengths:
        ranges.append((start, len(lengths)))
    return ranges


# ----------------------------------------------------------------------
# Worker-side state for the persistent pool
# ----------------------------------------------------------------------
#
# The pool initializer runs once per worker process and parks the model's
# compiled traces in this module-global dict, keyed by a per-model token so several models
# sharing one process (workers=1 runs in-process) never clobber each
# other.  Map tasks then carry only ``(start, stop, configs)``: a range of
# whole traces (see :func:`_plan_tasks`) and the config batch.

_WORKER_STATE: Dict[str, Tuple[List[CompiledTrace], PromotionRateSlo]] = {}
_MODEL_TOKENS = itertools.count()


def _init_model_worker(
    token: str, compiled: List[CompiledTrace], slo: PromotionRateSlo
) -> None:
    """Pool initializer: receive the compiled traces once per worker."""
    _WORKER_STATE[token] = (compiled, slo)


def _replay_batch_task(
    task: Tuple[int, int, List[ThresholdPolicyConfig]],
    token: str,
) -> List[List[JobReplayResult]]:
    """One map task: replay the whole config batch against a range of
    traces; ``result[i][j]`` is trace ``start + i`` under config ``j``."""
    start, stop, configs = task
    compiled, slo = _WORKER_STATE[token]
    return replay_compiled(compiled[start:stop], configs, slo)


def _collect(
    mapped: List[List[List[JobReplayResult]]],
) -> List[List[JobReplayResult]]:
    """Concatenate the tasks' per-trace results in fleet order; the fleet
    reduction is per-config, done by the model."""
    return [per_config for chunk in mapped for per_config in chunk]


class FarMemoryModel:
    """Replays fleet traces under candidate configurations.

    Traces compile lazily on first evaluation; the MapReduce pool (when
    ``workers > 1``) starts lazily, persists across evaluations, and ships
    the compiled traces to each worker once via the pool initializer.
    Call :meth:`close` (or use the model as a context manager) to tear the
    pool down.

    Args:
        traces: per-job traces (e.g. ``trace_db.traces()``), or
            already-compiled :class:`CompiledTrace` tensors (e.g. a
            columnar store's ``compiled_traces()``) — the latter skip
            object materialization entirely.
        slo: the promotion-rate SLO used both inside the policy and as the
            fleet constraint.
        workers: MapReduce worker processes (1 = in-process).
        registry: metrics registry (defaults to the process registry).
        tracer: span tracer (defaults to the process tracer).
    """

    def __init__(
        self,
        traces: Sequence[Union[JobTrace, CompiledTrace]],
        slo: Optional[PromotionRateSlo] = None,
        workers: int = 1,
        registry=None,
        tracer=None,
    ):
        items = list(traces)
        precompiled = [t for t in items if isinstance(t, CompiledTrace)]
        if precompiled and len(precompiled) != len(items):
            raise ConfigurationError(
                "traces must be all JobTrace or all CompiledTrace, not a mix"
            )
        self.traces = [] if precompiled else items
        self.slo = slo if slo is not None else PromotionRateSlo()
        self.workers = workers
        registry = registry if registry is not None else get_registry()
        self._tracer = tracer if tracer is not None else get_tracer()
        self._m_configs = registry.counter(
            MetricName.MODEL_CONFIGS_EVALUATED_TOTAL,
            "Candidate configurations evaluated by the fast model.",
        )
        self._m_seconds = registry.histogram(
            MetricName.MODEL_EVALUATION_SECONDS,
            "Wall seconds per evaluate_many batch.",
        )
        self._m_compiled = registry.counter(
            MetricName.MODEL_TRACES_COMPILED_TOTAL,
            "Job traces compiled into replay tensors.",
        )
        self._compiled: Optional[List[CompiledTrace]] = (
            precompiled if precompiled else None
        )
        self._pipeline: Optional[MapReduce] = None
        self._token: Optional[str] = None

    # ------------------------------------------------------------------
    # Lazy compilation & pool lifecycle
    # ------------------------------------------------------------------

    @property
    def compiled_traces(self) -> List[CompiledTrace]:
        """The traces as replay tensors (compiled once, cached)."""
        if self._compiled is None:
            with self._tracer.span("model.compile"):
                self._compiled = [trace.compile() for trace in self.traces]
            self._m_compiled.inc(len(self._compiled))
        return self._compiled

    def _ensure_pipeline(self) -> MapReduce:
        if self._pipeline is None:
            self._token = f"model-{next(_MODEL_TOKENS)}"
            self._pipeline = MapReduce(
                mapper=functools.partial(_replay_batch_task,
                                         token=self._token),
                reducer=_collect,
                workers=self.workers,
                initializer=_init_model_worker,
                initargs=(self._token, self.compiled_traces, self.slo),
            )
        return self._pipeline

    def close(self) -> None:
        """Shut the worker pool down and drop in-process worker state."""
        if self._pipeline is not None:
            self._pipeline.close()
            self._pipeline = None
        if self._token is not None:
            _WORKER_STATE.pop(self._token, None)
            self._token = None

    def __enter__(self) -> "FarMemoryModel":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def evaluate(self, config: ThresholdPolicyConfig) -> FleetReplayReport:
        """What-if analysis of one configuration over the whole fleet."""
        return self.evaluate_many([config])[0]

    def evaluate_many(
        self, configs: Sequence[ThresholdPolicyConfig]
    ) -> List[FleetReplayReport]:
        """Evaluate a batch of configurations in one MapReduce.

        Each map task replays the *entire* batch against a range of whole
        traces (:func:`_plan_tasks`), so the best-threshold pass and the
        sorted history pools amortize across the batch.  A small fleet on
        one worker is one task, whatever the batch size.  Reports come back
        in ``configs`` order.
        """
        configs = list(configs)
        if not configs:
            return []
        pipeline = self._ensure_pipeline()
        lengths = [trace.intervals for trace in self.compiled_traces]
        n_traces = len(lengths)
        window = max(config.history_length for config in configs)
        tasks = [
            (start, stop, configs)
            for start, stop in _plan_tasks(lengths, window, self.workers)
        ]
        with self._tracer.span("model.evaluate_many", batch=len(configs)):
            with Stopwatch() as watch:
                per_trace = pipeline.run(tasks)
        self._m_configs.inc(len(configs))
        self._m_seconds.observe(watch.seconds)
        reports = []
        for j, config in enumerate(configs):
            results = [per_trace[i][j] for i in range(n_traces)]
            reports.append(_reduce_fleet(results, config=config, slo=self.slo))
        return reports


def _reduce_fleet(
    results: List[JobReplayResult],
    config: ThresholdPolicyConfig,
    slo: PromotionRateSlo,
) -> FleetReplayReport:
    """Combine per-job replays into the fleet report."""
    total_cold = sum(r.mean_cold_pages for r in results)
    rates = np.concatenate(
        [np.asarray(r.normalized_rates) for r in results if r.normalized_rates]
        or [np.zeros(0)]
    )
    finite = rates[np.isfinite(rates)]
    p98 = float(np.percentile(finite, 98.0)) if finite.size else 0.0
    return FleetReplayReport(
        config=config,
        total_cold_pages=total_cold,
        promotion_rate_p98=p98,
        slo_target=slo.target_pct_per_min,
        job_results=results,
    )
