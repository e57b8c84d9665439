"""Typed metrics registry (the repro analogue of the paper's monitoring).

The paper's control plane only ships because it is wrapped in "rigorous
monitoring" (§5.2-5.3): per-job telemetry feeds the autotuner and SLO
alerts gate every rollout.  This module is the reproduction's unified
metrics layer:

* :class:`Counter` — monotonically increasing totals (pages scanned,
  pages compressed, ...);
* :class:`Gauge` — point-in-time values (arena footprint, coverage);
* :class:`Histogram` — bucketed distributions with percentile estimation
  (promotion-rate SLI, chosen thresholds);
* :class:`MetricRegistry` — owns the metrics, renders Prometheus-style
  text exposition and JSONL snapshots.

Every metric supports labels (``.labels(machine="m0").inc()``); series
are created lazily and capped per metric so a label-cardinality bug
fails loudly instead of eating memory.  A registry can be constructed
disabled, in which case every metric handle is a shared no-op — the hot
paths stay instrumented while tests and benchmarks that want zero
observability cost pass ``MetricRegistry(enabled=False)`` (or
:data:`NULL_REGISTRY`).

The module is dependency-free by design: components default to the
process-global registry (:func:`get_registry`), and anything that wants
isolation injects its own.
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common.errors import ReproError

__all__ = [
    "MetricError",
    "CardinalityError",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricName",
    "MetricRegistry",
    "NULL_REGISTRY",
    "KNOWN_METRIC_NAMES",
    "get_registry",
    "set_registry",
    "DEFAULT_BUCKETS",
]


class MetricName:
    """Canonical metric names (the OBS001 source of truth).

    Every ``counter()``/``gauge()``/``histogram()`` registration must use
    one of these constants (or a literal equal to one — ``repro lint``
    flags anything else), so exposition names cannot drift from what
    dashboards, ``docs/observability.md``, and tests expect.
    """

    # Kernel (per machine; paper §5.1)
    PAGES_SCANNED_TOTAL = "repro_pages_scanned_total"
    KSTALED_SCANS_TOTAL = "repro_kstaled_scans_total"
    KSTALED_CPU_SECONDS_TOTAL = "repro_kstaled_cpu_seconds_total"
    KRECLAIMD_RUNS_TOTAL = "repro_kreclaimd_runs_total"
    PAGES_RECLAIMED_TOTAL = "repro_pages_reclaimed_total"
    PAGES_COMPRESSED_TOTAL = "repro_pages_compressed_total"
    PAGES_REJECTED_TOTAL = "repro_pages_rejected_total"
    PAGES_PROMOTED_TOTAL = "repro_pages_promoted_total"
    ZSWAP_STORED_BYTES_TOTAL = "repro_zswap_stored_bytes_total"
    ZSWAP_POOL_LIMIT_REJECTIONS_TOTAL = (
        "repro_zswap_pool_limit_rejections_total"
    )
    COMPRESS_CPU_SECONDS_TOTAL = "repro_compress_cpu_seconds_total"
    DECOMPRESS_CPU_SECONDS_TOTAL = "repro_decompress_cpu_seconds_total"
    ARENA_COMPACTIONS_TOTAL = "repro_arena_compactions_total"
    ARENA_COMPACTION_RELEASED_BYTES_TOTAL = (
        "repro_arena_compaction_released_bytes_total"
    )
    ARENA_FOOTPRINT_BYTES = "repro_arena_footprint_bytes"
    FAR_PAGES = "repro_far_pages"

    # Node agent & telemetry (paper §5.2)
    AGENT_ROUNDS_TOTAL = "repro_agent_rounds_total"
    THRESHOLD_UPDATES_TOTAL = "repro_threshold_updates_total"
    THRESHOLD_SECONDS = "repro_threshold_seconds"
    PROMOTION_RATE_PCT_PER_MIN = "repro_promotion_rate_pct_per_min"
    TELEMETRY_EXPORTS_TOTAL = "repro_telemetry_exports_total"
    TELEMETRY_ENTRIES_TOTAL = "repro_telemetry_entries_total"
    TELEMETRY_HISTOGRAM_RESETS_TOTAL = (
        "repro_telemetry_histogram_resets_total"
    )
    TELEMETRY_SINK_OUTAGES_TOTAL = "repro_telemetry_sink_outages_total"
    TELEMETRY_SPILLED_ENTRIES_TOTAL = "repro_telemetry_spilled_entries_total"
    TELEMETRY_REPLAYED_ENTRIES_TOTAL = (
        "repro_telemetry_replayed_entries_total"
    )
    TELEMETRY_DROPPED_ENTRIES_TOTAL = "repro_telemetry_dropped_entries_total"
    AGENT_HISTOGRAM_REWARMS_TOTAL = "repro_agent_histogram_rewarms_total"

    # Fault injection & graceful degradation (repro.faults)
    FAULTS_INJECTED_TOTAL = "repro_faults_injected_total"
    DEGRADED_MODE = "repro_degraded_mode"
    ENGINE_SHARD_FALLBACKS_TOTAL = "repro_engine_shard_fallbacks_total"

    # Parallel fleet engine (repro.engine)
    ENGINE_PHASE_SECONDS_TOTAL = "repro_engine_phase_seconds_total"

    # Columnar trace store (repro.tracestore)
    TRACESTORE_ROWS_TOTAL = "repro_tracestore_rows_total"
    TRACESTORE_SEGMENTS_TOTAL = "repro_tracestore_segments_total"
    TRACESTORE_BYTES_WRITTEN_TOTAL = "repro_tracestore_bytes_written_total"
    TRACESTORE_FLUSH_SECONDS = "repro_tracestore_flush_seconds"
    TRACESTORE_BUFFER_ROWS = "repro_tracestore_buffer_rows"
    TRACESTORE_ROWS_DOWNSAMPLED_TOTAL = (
        "repro_tracestore_rows_downsampled_total"
    )
    TRACESTORE_BLOCKS_TOTAL = "repro_tracestore_blocks_total"
    TRACESTORE_BLOCK_ROWS_TOTAL = "repro_tracestore_block_rows_total"

    # Fast far memory model (paper §5.3)
    MODEL_CONFIGS_EVALUATED_TOTAL = "repro_model_configs_evaluated_total"
    MODEL_EVALUATION_SECONDS = "repro_model_evaluation_seconds"
    MODEL_TRACES_COMPILED_TOTAL = "repro_model_traces_compiled_total"

    # Autotuner (paper §5.3)
    BANDIT_SUGGESTIONS_TOTAL = "repro_bandit_suggestions_total"
    BANDIT_OBSERVATIONS_TOTAL = "repro_bandit_observations_total"
    AUTOTUNER_TRIALS_TOTAL = "repro_autotuner_trials_total"
    AUTOTUNER_FEASIBLE_TRIALS_TOTAL = "repro_autotuner_feasible_trials_total"
    AUTOTUNER_BEST_OBJECTIVE_COLD_PAGES = (
        "repro_autotuner_best_objective_cold_pages"
    )

    # Canary controller (paper §5.3 staged rollout, run online)
    CANARY_STAGES_ADVANCED_TOTAL = "repro_canary_stages_advanced_total"
    CANARY_STAGES_ROLLED_BACK_TOTAL = "repro_canary_stages_rolled_back_total"
    CANARY_STAGES_FAILED_CLOSED_TOTAL = (
        "repro_canary_stages_failed_closed_total"
    )
    CANARY_SLICE_COVERAGE = "repro_canary_slice_coverage"
    CANARY_ROUNDS_TOTAL = "repro_canary_rounds_total"

    # Cluster & fleet
    EVENTS_TOTAL = "repro_events_total"
    FLEET_COVERAGE = "repro_fleet_coverage"
    FLEET_COLD_FRACTION = "repro_fleet_cold_fraction"
    FLEET_COMPRESSION_RATIO = "repro_fleet_compression_ratio"
    FLEET_INCOMPRESSIBLE_FRACTION = "repro_fleet_incompressible_fraction"
    FLEET_PROMOTION_RATE_P50_PCT_PER_MIN = (
        "repro_fleet_promotion_rate_p50_pct_per_min"
    )
    FLEET_PROMOTION_RATE_P90_PCT_PER_MIN = (
        "repro_fleet_promotion_rate_p90_pct_per_min"
    )
    FLEET_PROMOTION_RATE_P98_PCT_PER_MIN = (
        "repro_fleet_promotion_rate_p98_pct_per_min"
    )
    FLEET_FAR_MEMORY_GIB = "repro_fleet_far_memory_gib"
    FLEET_SAVED_GIB = "repro_fleet_saved_gib"

    # Span profile (obs.profiling)
    SPAN_CALLS = "repro_span_calls"
    SPAN_WALL_SECONDS = "repro_span_wall_seconds"
    SPAN_SELF_SECONDS = "repro_span_self_seconds"


#: Every registerable metric name (frozen view of :class:`MetricName`,
#: consumed by the OBS001 lint rule and the doc-drift check).
KNOWN_METRIC_NAMES = frozenset(
    value
    for name, value in vars(MetricName).items()
    if not name.startswith("_") and isinstance(value, str)
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets (upper bounds; +Inf is implicit).  Tuned for
#: the dimensionless rates and seconds this simulator observes.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class MetricError(ReproError):
    """A metric was registered or used inconsistently."""


class CardinalityError(MetricError):
    """A metric exceeded its label-cardinality budget."""


def _format_value(value: float) -> str:
    """Render a sample value: integral floats as integers, else repr."""
    if value != value or value in (float("inf"), float("-inf")):
        return {float("inf"): "+Inf", float("-inf"): "-Inf"}.get(value, "NaN")
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(pairs: Sequence[Tuple[str, str]]) -> str:
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{_escape_label(v)}"' for k, v in pairs)
    return "{" + inner + "}"


class _NullMetric:
    """Shared no-op stand-in for every metric kind on a disabled registry."""

    __slots__ = ()

    def labels(self, **_labels: str) -> "_NullMetric":
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, values: Iterable[float]) -> None:
        pass

    @property
    def value(self) -> float:
        return 0.0

    @property
    def count(self) -> int:
        return 0

    @property
    def sum(self) -> float:
        return 0.0

    def percentile(self, q: float) -> float:
        return 0.0


NULL_METRIC = _NullMetric()


class _Metric:
    """Base class: a named family of labelled series."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Tuple[str, ...],
        max_series: int,
    ):
        self.name = name
        self.help_text = help_text
        self.labelnames = labelnames
        self.max_series = max_series
        self._series: Dict[Tuple[str, ...], object] = {}

    def _make_series(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def labels(self, **labels: str):
        """The child series for one label-value combination."""
        if set(labels) != set(self.labelnames):
            raise MetricError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[k]) for k in self.labelnames)
        series = self._series.get(key)
        if series is None:
            if len(self._series) >= self.max_series:
                raise CardinalityError(
                    f"{self.name}: label cardinality exceeded "
                    f"{self.max_series} series"
                )
            series = self._make_series()
            self._series[key] = series
        return series

    def _default(self):
        """The implicit label-less series (only for metrics with no labels)."""
        if self.labelnames:
            raise MetricError(
                f"{self.name} has labels {self.labelnames}; use .labels()"
            )
        return self.labels()

    def series(self) -> List[Tuple[Tuple[str, str], object]]:
        """All (label_pairs, series) in deterministic order."""
        out = []
        for key in sorted(self._series):
            pairs = tuple(zip(self.labelnames, key))
            out.append((pairs, self._series[key]))
        return out


class _CounterSeries:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError(f"counter increment must be >= 0, got {amount}")
        self.value += amount


class Counter(_Metric):
    """A monotonically increasing total."""

    kind = "counter"

    def _make_series(self) -> _CounterSeries:
        return _CounterSeries()

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    @property
    def value(self) -> float:
        """Sum over every series (the fleet-aggregated total)."""
        return sum(s.value for s in self._series.values())


class _GaugeSeries:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Gauge(_Metric):
    """A point-in-time value that can go up and down."""

    kind = "gauge"

    def _make_series(self) -> _GaugeSeries:
        return _GaugeSeries()

    def set(self, value: float) -> None:
        self._default().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default().dec(amount)

    @property
    def value(self) -> float:
        """Sum over every series."""
        return sum(s.value for s in self._series.values())


class _HistogramSeries:
    __slots__ = ("uppers", "bucket_counts", "sum", "count")

    def __init__(self, uppers: Tuple[float, ...]):
        self.uppers = uppers  # finite upper bounds; +Inf bucket is implicit
        self.bucket_counts = [0] * (len(uppers) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.observe_many((value,))

    def observe_many(self, values: Iterable[float]) -> None:
        # Values are bucketed and summed in the order given; NaN is
        # skipped.
        uppers = self.uppers
        buckets = self.bucket_counts
        total = self.sum
        count = 0
        for value in values:
            value = float(value)
            if math.isnan(value):
                continue
            # The first bucket whose (sorted) upper bound is >= value;
            # past the last one, the implicit +Inf bucket.
            buckets[bisect_left(uppers, value)] += 1
            total += value
            count += 1
        self.sum = total
        self.count += count

    def percentile(self, q: float) -> float:
        """Estimate the q-th percentile by linear bucket interpolation.

        The estimate is exact at bucket boundaries and linearly
        interpolated within a bucket; values in the +Inf bucket clamp to
        the largest finite bound (the standard Prometheus behaviour).
        """
        if not 0.0 <= q <= 100.0:
            raise MetricError(f"percentile must be in [0, 100], got {q}")
        if self.count == 0:
            return 0.0
        target = q / 100.0 * self.count
        cumulative = 0
        lower = 0.0
        for upper, bucket_count in zip(self.uppers, self.bucket_counts):
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= target:
                if bucket_count == 0 or upper == lower:
                    return upper
                fraction = (target - previous) / bucket_count
                return lower + fraction * (upper - lower)
            lower = upper
        return self.uppers[-1] if self.uppers else 0.0


class Histogram(_Metric):
    """A bucketed distribution with percentile estimation."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Tuple[str, ...],
        max_series: int,
        buckets: Tuple[float, ...],
    ):
        super().__init__(name, help_text, labelnames, max_series)
        uppers = tuple(sorted(float(b) for b in buckets))
        if not uppers:
            raise MetricError(f"{name}: histogram needs at least one bucket")
        if any(math.isinf(b) or math.isnan(b) for b in uppers):
            raise MetricError(f"{name}: buckets must be finite (+Inf is implicit)")
        self.buckets = uppers

    def _make_series(self) -> _HistogramSeries:
        return _HistogramSeries(self.buckets)

    def observe(self, value: float) -> None:
        self._default().observe(value)

    def observe_many(self, values: Iterable[float]) -> None:
        self._default().observe_many(values)

    def percentile(self, q: float) -> float:
        """Percentile over ALL series merged (the fleet aggregate)."""
        merged = _HistogramSeries(self.buckets)
        for series in self._series.values():
            merged.count += series.count
            merged.sum += series.sum
            for i, c in enumerate(series.bucket_counts):
                merged.bucket_counts[i] += c
        return merged.percentile(q)

    @property
    def count(self) -> int:
        return sum(s.count for s in self._series.values())

    @property
    def sum(self) -> float:
        return sum(s.sum for s in self._series.values())


class MetricRegistry:
    """Owns metrics; renders exposition.  Injectable and off-able.

    Args:
        enabled: when False, every ``counter()``/``gauge()``/``histogram()``
            call returns a shared no-op handle and exposition is empty —
            instrumented code pays one attribute read and nothing else.
        max_series_per_metric: cardinality budget per metric family.
    """

    def __init__(self, enabled: bool = True, max_series_per_metric: int = 4096):
        self.enabled = bool(enabled)
        self.max_series_per_metric = int(max_series_per_metric)
        self._metrics: Dict[str, _Metric] = {}

    # ------------------------------------------------------------------
    # Registration (idempotent: same name returns the same metric)
    # ------------------------------------------------------------------

    def _register(self, cls, name, help_text, labelnames, **kwargs):
        if not self.enabled:
            return NULL_METRIC
        if not _NAME_RE.match(name):
            raise MetricError(f"invalid metric name {name!r}")
        labelnames = tuple(labelnames)
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise MetricError(f"invalid label name {label!r}")
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls) or existing.labelnames != labelnames:
                raise MetricError(
                    f"metric {name} re-registered with a different "
                    f"type or label set"
                )
            return existing
        metric = cls(name, help_text, labelnames,
                     self.max_series_per_metric, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help_text: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        """Register (or look up) a counter."""
        return self._register(Counter, name, help_text, labelnames)

    def gauge(self, name: str, help_text: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        """Register (or look up) a gauge."""
        return self._register(Gauge, name, help_text, labelnames)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> Histogram:
        """Register (or look up) a histogram."""
        buckets = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
        return self._register(Histogram, name, help_text, labelnames,
                              buckets=buckets)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def get(self, name: str) -> Optional[_Metric]:
        """The metric registered under ``name`` (None if absent/disabled)."""
        return self._metrics.get(name)

    def value(self, name: str) -> float:
        """Fleet-aggregated value of a counter/gauge (0.0 if absent)."""
        metric = self._metrics.get(name)
        if metric is None or isinstance(metric, Histogram):
            return 0.0
        return metric.value

    def metrics(self) -> List[_Metric]:
        """Every registered metric, sorted by name."""
        return [self._metrics[n] for n in sorted(self._metrics)]

    def reset(self) -> None:
        """Drop every metric (fresh registry state)."""
        self._metrics.clear()

    # ------------------------------------------------------------------
    # Exposition
    # ------------------------------------------------------------------

    def expose_text(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        for metric in self.metrics():
            if metric.help_text:
                lines.append(f"# HELP {metric.name} {metric.help_text}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            for pairs, series in metric.series():
                if isinstance(metric, Histogram):
                    cumulative = 0
                    for upper, count in zip(series.uppers,
                                            series.bucket_counts):
                        cumulative += count
                        le = pairs + (("le", _format_value(upper)),)
                        lines.append(
                            f"{metric.name}_bucket{_render_labels(le)} "
                            f"{cumulative}"
                        )
                    cumulative += series.bucket_counts[-1]
                    le = pairs + (("le", "+Inf"),)
                    lines.append(
                        f"{metric.name}_bucket{_render_labels(le)} {cumulative}"
                    )
                    lines.append(
                        f"{metric.name}_sum{_render_labels(pairs)} "
                        f"{_format_value(series.sum)}"
                    )
                    lines.append(
                        f"{metric.name}_count{_render_labels(pairs)} "
                        f"{series.count}"
                    )
                else:
                    lines.append(
                        f"{metric.name}{_render_labels(pairs)} "
                        f"{_format_value(series.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> List[Dict[str, object]]:
        """One JSON-ready dict per series."""
        out: List[Dict[str, object]] = []
        for metric in self.metrics():
            for pairs, series in metric.series():
                record: Dict[str, object] = {
                    "name": metric.name,
                    "kind": metric.kind,
                    "labels": dict(pairs),
                }
                if isinstance(metric, Histogram):
                    record["count"] = series.count
                    record["sum"] = series.sum
                    record["buckets"] = [
                        {"le": upper, "count": count}
                        for upper, count in zip(series.uppers,
                                                series.bucket_counts)
                    ] + [{"le": "+Inf", "count": series.bucket_counts[-1]}]
                else:
                    record["value"] = series.value
                out.append(record)
        return out

    def export_jsonl(self) -> str:
        """JSON-lines snapshot (one series per line)."""
        return "\n".join(
            json.dumps(record, sort_keys=True) for record in self.snapshot()
        ) + ("\n" if self._metrics else "")

    # ------------------------------------------------------------------
    # Cross-registry folding (parallel shard -> parent merge)
    # ------------------------------------------------------------------

    def baseline(self) -> Dict[Tuple[str, Tuple[Tuple[str, str], ...]], object]:
        """Raw per-series values keyed by (name, label pairs)."""
        base: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], object] = {}
        for metric in self.metrics():
            for pairs, series in metric.series():
                key = (metric.name, pairs)
                if isinstance(metric, Histogram):
                    base[key] = (
                        tuple(series.bucket_counts), series.sum, series.count
                    )
                else:
                    base[key] = series.value
        return base

    def mark(self) -> Dict[object, object]:
        """An opaque position marker for :meth:`delta`.

        Every series' raw state, keyed by the series object itself, so a
        later :meth:`delta` builds label keys and records only for the
        series that changed — the shard-side half of the parallel-engine
        merge protocol.
        """
        return {
            series: (
                (tuple(series.bucket_counts), series.sum, series.count)
                if isinstance(series, _HistogramSeries) else series.value
            )
            for metric in self._metrics.values()
            for series in metric._series.values()
        }

    def delta(self, since: Dict[object, object]) -> List[Dict[str, object]]:
        """Snapshot-shaped records for series that changed since the
        :meth:`mark` ``since`` (``{}``: since every series was created).

        Counters report the *increment* (not the absolute value), gauges
        the current value, histograms the per-bucket count increments plus
        sum/count increments.  Unchanged series are omitted entirely — in
        a forked worker this is what keeps one shard from shipping stale
        fork-time copies of other shards' series.  Records carry ``help``
        so :meth:`merge` can register missing families.
        """
        if since and isinstance(next(iter(since)), tuple):
            raise MetricError("delta() takes a mark(), not a baseline()")
        records: List[Dict[str, object]] = []
        for metric in self.metrics():
            kind = metric.kind
            changed = []
            for key, series in metric._series.items():
                prev = since.get(series)
                if kind == "histogram":
                    # NaN observations are skipped whole, so the buckets
                    # move exactly when the count does.
                    moved = series.count != (prev[2] if prev else 0)
                elif kind == "counter":
                    moved = series.value != (prev or 0.0)
                else:  # gauge: ship the absolute value when it changed
                    moved = prev is None or series.value != prev
                if moved:
                    changed.append((key, series, prev))
            changed.sort(key=lambda item: item[0])
            for key, series, prev in changed:
                record: Dict[str, object] = {
                    "name": metric.name,
                    "kind": kind,
                    "help": metric.help_text,
                    "labels": dict(zip(metric.labelnames, key)),
                }
                if kind == "histogram":
                    prev_counts, prev_sum, prev_count = (
                        prev if prev is not None
                        else ((0,) * len(series.bucket_counts), 0.0, 0)
                    )
                    bucket_deltas = [
                        c - p for c, p in zip(series.bucket_counts, prev_counts)
                    ]
                    record["count"] = series.count - prev_count
                    record["sum"] = series.sum - prev_sum
                    record["buckets"] = [
                        {"le": upper, "count": count}
                        for upper, count in zip(series.uppers, bucket_deltas)
                    ] + [{"le": "+Inf", "count": bucket_deltas[-1]}]
                elif kind == "counter":
                    record["value"] = series.value - (prev or 0.0)
                else:
                    record["value"] = series.value
                records.append(record)
        return records

    def merge(self, source: "MetricRegistry | List[Dict[str, object]]") -> None:
        """Fold another registry (or a :meth:`delta` record list) into this one.

        Counters are incremented by the record value, gauges set, histogram
        buckets/sum/count added.  Families are registered on demand (with
        the record's help text), so merging into a fresh registry works;
        merging into a registry that already holds the family reuses it
        (help text is not compared, matching :meth:`_register`).
        """
        if not self.enabled:
            return
        if isinstance(source, MetricRegistry):
            source = source.delta({})
        # Register (and validate) each family once per merge, not once
        # per record.
        families: Dict[Tuple[str, object, Tuple[str, ...]], _Metric] = {}
        for record in source:
            name = str(record["name"])
            kind = record["kind"]
            labels = dict(record.get("labels") or {})
            labelnames = tuple(labels)
            help_text = str(record.get("help", ""))
            family = families.get((name, kind, labelnames))
            if family is None:
                if kind == "counter":
                    family = self.counter(name, help_text, labelnames)
                elif kind == "gauge":
                    family = self.gauge(name, help_text, labelnames)
                elif kind == "histogram":
                    family = self.histogram(
                        name, help_text, labelnames,
                        buckets=[float(b["le"]) for b in record["buckets"][:-1]],
                    )
                else:
                    raise MetricError(f"{name}: unknown metric kind {kind!r}")
                families[name, kind, labelnames] = family
            series = family.labels(**labels)
            if kind == "counter":
                series.inc(record["value"])
            elif kind == "gauge":
                series.set(record["value"])
            else:
                buckets = record["buckets"]
                if len(series.bucket_counts) != len(buckets):
                    raise MetricError(
                        f"{name}: cannot merge histogram with "
                        f"{len(buckets)} buckets into a family with "
                        f"{len(series.bucket_counts)}"
                    )
                for i, bucket in enumerate(buckets):
                    series.bucket_counts[i] += int(bucket["count"])
                series.sum += float(record["sum"])
                series.count += int(record["count"])


#: A permanently disabled registry for code that wants observability off.
NULL_REGISTRY = MetricRegistry(enabled=False)

_global_registry = MetricRegistry()


def get_registry() -> MetricRegistry:
    """The process-global default registry."""
    return _global_registry


def set_registry(registry: MetricRegistry) -> MetricRegistry:
    """Swap the process-global registry; returns the previous one."""
    global _global_registry
    previous = _global_registry
    _global_registry = registry
    return previous
