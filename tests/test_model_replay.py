"""The fast far memory model: offline replay of the control algorithm."""

import numpy as np
import pytest

from repro.core.histograms import AgeHistogram, default_age_bins
from repro.core.slo import PromotionRateSlo
from repro.core.threshold_policy import ThresholdPolicyConfig
from repro.model import replay
from repro.model.replay import (
    MAX_TASK_POOL_CELLS,
    FarMemoryModel,
    _plan_tasks,
    replay_compiled,
    replay_reference,
)
from repro.model.trace import CompiledTrace, JobTrace, TraceEntry
from repro.obs import MetricName, MetricRegistry


def make_trace(job_id="j", n_entries=12, cold_pages=500, wss=1000,
               promo_ages=(), resident=2000):
    """A trace with constant per-period statistics."""
    bins = default_age_bins()
    trace = JobTrace(job_id)
    for i in range(n_entries):
        promo = AgeHistogram(bins)
        promo.add_ages(np.array(promo_ages, dtype=float))
        cold = AgeHistogram(bins)
        cold.add_ages(
            np.array([200.0] * cold_pages + [0.0] * (resident - cold_pages))
        )
        trace.append(
            TraceEntry(
                job_id=job_id,
                machine_id="m0",
                time=i * 300,
                working_set_pages=wss,
                promotion_histogram=promo,
                cold_age_histogram=cold,
                resident_pages=resident,
            )
        )
    return trace


def make_random_trace(rng, job_id="r", n_entries=40, zero_wss_at=(),
                      promo_scale=60):
    """A randomized trace whose statistics drift interval to interval."""
    bins = default_age_bins()
    trace = JobTrace(job_id)
    for i in range(n_entries):
        promo = AgeHistogram(bins)
        promo.add_binned(rng.integers(0, promo_scale, size=len(bins)))
        cold = AgeHistogram(bins)
        cold.add_binned(rng.integers(0, 3000, size=len(bins)))
        wss = 0 if i in zero_wss_at else int(rng.integers(1, 60_000))
        trace.append(
            TraceEntry(
                job_id=job_id,
                machine_id="m0",
                time=i * 300,
                working_set_pages=wss,
                promotion_histogram=promo,
                cold_age_histogram=cold,
                resident_pages=wss + 1000,
            )
        )
    return trace


#: Configurations spanning every branch of the policy: percentile
#: extremes, tiny/large history windows, warm-up edge cases, the
#: fixed-threshold bypass, and spike reaction on/off.
EQUIVALENCE_CONFIGS = [
    ThresholdPolicyConfig(),
    ThresholdPolicyConfig(percentile_k=0.0, warmup_seconds=0),
    ThresholdPolicyConfig(percentile_k=100.0, history_length=1),
    ThresholdPolicyConfig(percentile_k=50.0, warmup_seconds=300,
                          history_length=3),
    ThresholdPolicyConfig(percentile_k=98.0, history_length=2,
                          spike_reaction=False),
    ThresholdPolicyConfig(fixed_threshold_seconds=480.0),
    ThresholdPolicyConfig(fixed_threshold_seconds=480.0, warmup_seconds=0),
    ThresholdPolicyConfig(percentile_k=75.0, warmup_seconds=10**9),
]


def reference_reports(traces, configs):
    """The scalar reference's fleet reports under the default SLO: every
    trace replayed by :func:`replay_reference`, reduced to a fleet report
    as the model reduces its own."""
    slo = PromotionRateSlo()
    return [
        replay._reduce_fleet(
            [replay_reference(trace, config, slo) for trace in traces],
            config=config, slo=slo,
        )
        for config in configs
    ]


def assert_bit_identical(scalar, vectorized):
    __tracebackhide__ = True
    assert scalar.job_id == vectorized.job_id
    assert scalar.thresholds == vectorized.thresholds
    assert scalar.cold_pages_captured == vectorized.cold_pages_captured
    assert scalar.normalized_rates == vectorized.normalized_rates


class TestReplayOneJob:
    def test_quiet_job_captures_cold_memory(self):
        config = ThresholdPolicyConfig(percentile_k=90, warmup_seconds=0)
        result = replay_reference(make_trace(), config, PromotionRateSlo())
        assert result.intervals == 12
        # First interval has no history -> threshold disabled -> 0 captured.
        assert result.cold_pages_captured[0] == 0.0
        # Later intervals run at 120s and capture the 500 cold pages.
        assert result.cold_pages_captured[-1] == 500.0
        assert result.mean_cold_pages > 0

    def test_warmup_suppresses_early_intervals(self):
        config = ThresholdPolicyConfig(percentile_k=90, warmup_seconds=1500)
        result = replay_reference(make_trace(), config, PromotionRateSlo())
        # 1500s warm-up = five 300s intervals disabled (plus the first).
        assert all(c == 0 for c in result.cold_pages_captured[:5])
        assert result.cold_pages_captured[-1] > 0

    def test_noisy_job_captures_less(self):
        config = ThresholdPolicyConfig(percentile_k=90, warmup_seconds=0)
        quiet = replay_reference(make_trace(), config, PromotionRateSlo())
        noisy = replay_reference(
            make_trace(promo_ages=[200.0] * 400),  # heavy cold re-touch
            config,
            PromotionRateSlo(),
        )
        assert noisy.mean_cold_pages < quiet.mean_cold_pages

    def test_empty_trace(self):
        config = ThresholdPolicyConfig()
        result = replay_reference(JobTrace("j"), config, PromotionRateSlo())
        assert result.intervals == 0
        assert result.mean_cold_pages == 0.0


class TestFleetModel:
    def test_aggregates_jobs(self):
        traces = [make_trace(f"j{i}") for i in range(4)]
        model = FarMemoryModel(traces)
        report = model.evaluate(
            ThresholdPolicyConfig(percentile_k=90, warmup_seconds=0)
        )
        assert len(report.job_results) == 4
        assert report.total_cold_pages > 0
        assert report.meets_slo

    def test_constraint_detects_violation(self):
        """Quiet history drives the threshold to 120 s; periodic bursts of
        cold-page accesses then land as real promotions — the violation
        pattern the p98 constraint exists to catch."""
        bins = default_age_bins()
        trace = JobTrace("bursty")
        for i in range(12):
            promo = AgeHistogram(bins)
            if i % 2 == 1:  # burst intervals
                promo.add_ages(np.array([150.0] * 500))
            cold = AgeHistogram(bins)
            cold.add_ages(np.array([200.0] * 500 + [0.0] * 500))
            trace.append(
                TraceEntry(
                    job_id="bursty",
                    machine_id="m0",
                    time=i * 300,
                    working_set_pages=500,
                    promotion_histogram=promo,
                    cold_age_histogram=cold,
                    resident_pages=1000,
                )
            )
        model = FarMemoryModel([trace])
        report = model.evaluate(
            ThresholdPolicyConfig(percentile_k=10, warmup_seconds=0,
                                  history_length=4)
        )
        assert report.promotion_rate_p98 > report.slo_target

    def test_conservative_config_captures_less(self):
        traces = [
            make_trace(f"j{i}", promo_ages=[300.0] * 30) for i in range(3)
        ]
        model = FarMemoryModel(traces)
        aggressive = model.evaluate(
            ThresholdPolicyConfig(percentile_k=50, warmup_seconds=0)
        )
        conservative = model.evaluate(
            ThresholdPolicyConfig(percentile_k=50, warmup_seconds=3000)
        )
        assert conservative.total_cold_pages <= aggressive.total_cold_pages

    def test_evaluate_many_order(self):
        model = FarMemoryModel([make_trace()])
        configs = [
            ThresholdPolicyConfig(percentile_k=50, warmup_seconds=0),
            ThresholdPolicyConfig(percentile_k=99, warmup_seconds=600),
        ]
        reports = model.evaluate_many(configs)
        assert [r.config for r in reports] == configs

    def test_deterministic(self):
        traces = [make_trace("j", promo_ages=[250.0] * 10)]
        model = FarMemoryModel(traces)
        config = ThresholdPolicyConfig(percentile_k=80, warmup_seconds=300)
        a = model.evaluate(config)
        b = model.evaluate(config)
        assert a.total_cold_pages == b.total_cold_pages
        assert a.promotion_rate_p98 == b.promotion_rate_p98

    def test_matches_online_policy_semantics(self):
        """The replayed threshold sequence equals what the online policy
        would have produced given identical inputs."""
        from repro.core.threshold_policy import ColdAgeThresholdPolicy

        trace = make_trace(promo_ages=[300.0] * 50, n_entries=8)
        config = ThresholdPolicyConfig(percentile_k=75, warmup_seconds=600)
        result = replay_reference(trace, config, PromotionRateSlo())

        policy = ColdAgeThresholdPolicy(
            config, trace.entries[0].bins, PromotionRateSlo()
        )
        expected = []
        for entry in trace.entries:
            expected.append(policy.threshold())
            policy.observe(entry.promotion_histogram,
                           entry.working_set_pages, 300)
        assert result.thresholds == expected


class TestVectorizedEquivalence:
    """The vectorized replay must be bit-identical to the scalar oracle —
    not approximately equal: the autotuner ranks configurations by these
    numbers, and a one-ulp divergence could flip a ranking."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 7])
    def test_randomized_traces_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        slo = PromotionRateSlo()
        trace = make_random_trace(
            rng, n_entries=int(rng.integers(1, 200)), zero_wss_at=(0, 2, 9)
        )
        compiled = trace.compile()
        (vectorized,) = replay_compiled([compiled], EQUIVALENCE_CONFIGS, slo)
        for config, vec in zip(EQUIVALENCE_CONFIGS, vectorized):
            assert_bit_identical(replay_reference(trace, config, slo), vec)

    def test_empty_trace(self):
        slo = PromotionRateSlo()
        compiled = JobTrace("empty").compile()
        (results,) = replay_compiled([compiled], EQUIVALENCE_CONFIGS, slo)
        assert len(results) == len(EQUIVALENCE_CONFIGS)
        for result in results:
            assert result.intervals == 0
            assert result.mean_cold_pages == 0.0

    def test_all_intervals_disabled_by_warmup(self):
        """A warm-up longer than the trace leaves every threshold DISABLED
        and captures nothing, in both implementations."""
        slo = PromotionRateSlo()
        config = ThresholdPolicyConfig(warmup_seconds=10**9)
        trace = make_trace(n_entries=10)
        vec = replay_compiled([trace.compile()], [config], slo)[0][0]
        assert_bit_identical(replay_reference(trace, config, slo), vec)
        assert all(t == float("inf") for t in vec.thresholds)
        assert all(c == 0.0 for c in vec.cold_pages_captured)

    def test_zero_wss_without_promotions_rates_are_zero(self):
        slo = PromotionRateSlo()
        config = ThresholdPolicyConfig(percentile_k=90, warmup_seconds=0)
        rng = np.random.default_rng(11)
        trace = make_random_trace(
            rng, n_entries=8, zero_wss_at=range(8), promo_scale=1
        )
        # promo_scale=1 keeps integers(0, 1) == 0: no promotions at all.
        vec = replay_compiled([trace.compile()], [config], slo)[0][0]
        assert_bit_identical(replay_reference(trace, config, slo), vec)
        assert all(r == 0.0 for r in vec.normalized_rates)

    def test_zero_wss_with_promotions_rates_are_inf(self):
        """Promotions against an empty working set normalize to inf — the
        'cannot meet any SLO' sentinel — and inf must survive the
        vectorized where/errstate plumbing unchanged."""
        slo = PromotionRateSlo()
        config = ThresholdPolicyConfig(percentile_k=90, warmup_seconds=0,
                                       fixed_threshold_seconds=120.0)
        rng = np.random.default_rng(13)
        trace = make_random_trace(rng, n_entries=8, zero_wss_at=range(8))
        vec = replay_compiled([trace.compile()], [config], slo)[0][0]
        assert_bit_identical(replay_reference(trace, config, slo), vec)
        assert any(r == float("inf") for r in vec.normalized_rates)

    def test_model_scalar_mode_matches_vectorized_mode(self):
        traces = [make_random_trace(np.random.default_rng(s), job_id=f"j{s}",
                                    n_entries=30)
                  for s in range(3)] + [JobTrace("empty")]
        config = ThresholdPolicyConfig(percentile_k=95, warmup_seconds=600)
        vec_report = FarMemoryModel(traces).evaluate(config)
        (scalar_report,) = reference_reports(traces, [config])
        assert vec_report == scalar_report


def make_random_fleet(seed, lengths):
    """Random traces of the given lengths, with an empty trace before,
    between and after them."""
    rng = np.random.default_rng(seed)
    fleet = [JobTrace("empty-0")]
    for i, n in enumerate(lengths):
        fleet.append(make_random_trace(
            rng, job_id=f"r{i}", n_entries=n, zero_wss_at=(0, 5, 130)
        ))
        fleet.append(JobTrace(f"empty-{i + 1}"))
    return fleet


class TestFleetBatchEquivalence:
    """The fleet is replayed as one array program (rows of every trace
    concatenated, history pools sorted once per ``history_length``); no
    row may see another trace's history, at any pool size."""

    #: Lengths 1..200: pools that only grow (n <= H) and pools that fill
    #: and slide (n > H + 1) for H = 1, 2, 3 and 120.
    LENGTHS = (1, 2, 3, 4, 5, 121, 122, 200, 37, 1, 150, 9)

    @pytest.fixture(scope="class")
    def fleet(self):
        rng = np.random.default_rng(99)
        lengths = self.LENGTHS + tuple(int(n) for n in rng.integers(1, 201, 6))
        return make_random_fleet(5, lengths)

    def test_every_result_matches_scalar_oracle(self, fleet):
        slo = PromotionRateSlo()
        compiled = [trace.compile() for trace in fleet]
        batched = replay_compiled(compiled, EQUIVALENCE_CONFIGS, slo)
        assert len(batched) == len(fleet)
        for trace, per_config in zip(fleet, batched):
            assert len(per_config) == len(EQUIVALENCE_CONFIGS)
            for config, vec in zip(EQUIVALENCE_CONFIGS, per_config):
                assert_bit_identical(replay_reference(trace, config, slo), vec)

    def test_model_reports_equal_across_workers_and_oracle(self, fleet):
        with FarMemoryModel(fleet) as model:
            serial = model.evaluate_many(EQUIVALENCE_CONFIGS)
        with FarMemoryModel(fleet, workers=2) as model:
            parallel = model.evaluate_many(EQUIVALENCE_CONFIGS)
        oracle = reference_reports(fleet, EQUIVALENCE_CONFIGS)
        assert serial == parallel
        assert serial == oracle

    def test_all_empty_fleet(self):
        fleet = [JobTrace(f"e{i}") for i in range(3)]
        reports = FarMemoryModel(fleet).evaluate_many(EQUIVALENCE_CONFIGS)
        for report in reports:
            assert report.promotion_rate_p98 == 0.0
            assert report.total_cold_pages == 0.0
            assert [r.intervals for r in report.job_results] == [0, 0, 0]


def make_compiled_week(rng, job_id, intervals=2016):
    """A week of 5-minute intervals as random replay tensors."""
    bins = default_age_bins()
    shape = (intervals, len(bins))
    return CompiledTrace.from_columns(
        job_id, bins,
        cold_counts=rng.integers(0, 3000, size=shape),
        promotion_counts=rng.integers(0, 60, size=shape),
        working_set_pages=rng.integers(1, 60_000, size=intervals),
        times=np.arange(intervals) * 300,
        resident_pages=rng.integers(60_000, 70_000, size=intervals),
        cpu_cores=np.ones(intervals),
    )


class TestTaskPlan:
    """Map tasks are ranges of whole traces whose history pools fit
    ``MAX_TASK_POOL_CELLS``."""

    def test_small_fleet_is_one_task_on_one_worker(self):
        assert _plan_tasks([6] * 48, 120, workers=1) == [(0, 48)]

    def test_ranges_spread_over_workers(self):
        assert _plan_tasks([6] * 48, 120, workers=2) == [(0, 24), (24, 48)]

    def test_trace_over_the_cap_gets_its_own_task(self):
        huge = MAX_TASK_POOL_CELLS  # rows * min(rows - 1, 2) > cap
        assert _plan_tasks([3, huge, 3], 2, workers=1) == [
            (0, 1), (1, 2), (2, 3)
        ]

    def test_empty_fleet_has_no_tasks(self):
        assert _plan_tasks([], 120, workers=1) == []

    def test_fleet_over_the_cap_splits_with_identical_reports(
        self, monkeypatch
    ):
        rng = np.random.default_rng(21)
        fleet = [make_compiled_week(rng, f"w{i}") for i in range(5)]
        assert sum(t.intervals for t in fleet) * 120 > MAX_TASK_POOL_CELLS
        configs = [
            ThresholdPolicyConfig(),
            ThresholdPolicyConfig(percentile_k=90.0, warmup_seconds=0,
                                  history_length=12),
        ]
        tasks = []
        mapper = replay._replay_batch_task

        def spy(task, **kwargs):
            tasks.append(task[:2])
            return mapper(task, **kwargs)

        monkeypatch.setattr(replay, "_replay_batch_task", spy)
        with FarMemoryModel(fleet) as model:
            split = model.evaluate_many(configs)
        assert len(tasks) > 1
        assert tasks[0][0] == 0 and tasks[-1][1] == len(fleet)

        tasks.clear()
        monkeypatch.setattr(replay, "MAX_TASK_POOL_CELLS", 10**9)
        with FarMemoryModel(fleet) as model:
            whole = model.evaluate_many(configs)
        assert tasks == [(0, len(fleet))]
        assert split == whole


class TestBatchedEvaluation:
    def test_empty_batch(self):
        assert FarMemoryModel([make_trace()]).evaluate_many([]) == []

    def test_batch_matches_individual_evaluates(self):
        model = FarMemoryModel([make_trace(promo_ages=[300.0] * 20)])
        configs = [
            ThresholdPolicyConfig(percentile_k=50, warmup_seconds=0),
            ThresholdPolicyConfig(percentile_k=99),
            ThresholdPolicyConfig(fixed_threshold_seconds=240.0),
        ]
        batched = model.evaluate_many(configs)
        assert batched == [model.evaluate(c) for c in configs]

    def test_throughput_metrics(self):
        registry = MetricRegistry()
        model = FarMemoryModel([make_trace()], registry=registry)
        model.evaluate_many([ThresholdPolicyConfig(),
                             ThresholdPolicyConfig(percentile_k=50.0)])
        configs_total = registry.counter(
            MetricName.MODEL_CONFIGS_EVALUATED_TOTAL
        )
        seconds = registry.histogram(MetricName.MODEL_EVALUATION_SECONDS)
        compiled_total = registry.counter(
            MetricName.MODEL_TRACES_COMPILED_TOTAL
        )
        assert configs_total.value == 2.0
        assert seconds.count == 1
        assert compiled_total.value == 1.0

    def test_traces_compile_once(self):
        model = FarMemoryModel([make_trace()])
        first = model.compiled_traces
        model.evaluate(ThresholdPolicyConfig())
        assert model.compiled_traces is first

    def test_close_is_idempotent_and_context_manager_closes(self):
        with FarMemoryModel([make_trace()]) as model:
            model.evaluate(ThresholdPolicyConfig())
        model.close()
        # Still usable after close: the next evaluation rebuilds lazily.
        report = model.evaluate(ThresholdPolicyConfig())
        assert report.job_results
