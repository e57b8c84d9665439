"""The autotuning pipeline over the fast far memory model."""

import numpy as np
import pytest

from repro.common.errors import AutotunerError
from repro.core.histograms import AgeHistogram, default_age_bins
from repro.core.slo import PromotionRateSlo
from repro.model.replay import FarMemoryModel, FleetReplayReport
from repro.model.trace import JobTrace, TraceEntry
from repro.autotuner.pipeline import AutotuningPipeline, TuningResult
from repro.autotuner.search_space import config_from_values


def make_fleet_traces(n_jobs=6, n_entries=16, seed=0):
    """Jobs with varying cold sizes and occasional promotion bursts."""
    rng = np.random.default_rng(seed)
    bins = default_age_bins()
    traces = []
    for j in range(n_jobs):
        trace = JobTrace(f"j{j}")
        cold_pages = int(rng.integers(200, 800))
        for i in range(n_entries):
            promo = AgeHistogram(bins)
            if rng.random() < 0.3:
                promo.add_ages(
                    rng.uniform(120, 2000, size=int(rng.integers(1, 40)))
                )
            cold = AgeHistogram(bins)
            cold.add_ages(
                np.concatenate(
                    [
                        rng.uniform(120, 20000, size=cold_pages),
                        np.zeros(1000 - cold_pages),
                    ]
                )
            )
            trace.append(
                TraceEntry(
                    job_id=f"j{j}",
                    machine_id="m0",
                    time=i * 300,
                    working_set_pages=1000 - cold_pages,
                    promotion_histogram=promo,
                    cold_age_histogram=cold,
                    resident_pages=1000,
                )
            )
        traces.append(trace)
    return traces


@pytest.fixture
def model():
    return FarMemoryModel(make_fleet_traces())


class TestPipeline:
    def test_run_produces_trials(self, model):
        pipeline = AutotuningPipeline(model, batch_size=2, seed=0)
        result = pipeline.run(iterations=3)
        assert len(result.trials) == 6
        assert all(t.report is not None for t in result.trials)

    def test_finds_feasible_config(self, model):
        pipeline = AutotuningPipeline(model, batch_size=3, seed=0)
        result = pipeline.run(iterations=4)
        assert result.best is not None
        assert result.best.feasible
        config = result.best_config
        assert 50.0 <= config.percentile_k <= 99.9

    def test_best_is_max_feasible_objective(self, model):
        pipeline = AutotuningPipeline(model, batch_size=2, seed=1)
        result = pipeline.run(iterations=4)
        feasible = [t.objective for t in result.trials if t.feasible]
        assert result.best.objective == max(feasible)

    def test_objective_curve_monotone(self, model):
        pipeline = AutotuningPipeline(model, batch_size=2, seed=2)
        result = pipeline.run(iterations=3)
        curve = result.objective_curve()
        finite = [c for c in curve if np.isfinite(c)]
        assert all(b >= a for a, b in zip(finite, finite[1:]))

    def test_random_baseline(self, model):
        pipeline = AutotuningPipeline(model, seed=0)
        result = pipeline.run_random_baseline(n_trials=6, seed=3)
        assert len(result.trials) == 6

    def test_no_feasible_raises_on_best_config(self):
        result = TuningResult()
        with pytest.raises(AutotunerError):
            _ = result.best_config

    def test_gp_at_least_matches_random_here(self, model):
        """On this small problem GP-Bandit should do no worse than random
        search at an equal budget."""
        gp = AutotuningPipeline(model, batch_size=3, seed=5).run(iterations=4)
        random = AutotuningPipeline(model, seed=5).run_random_baseline(
            n_trials=12, seed=6
        )
        if gp.best and random.best:
            assert gp.best.objective >= 0.8 * random.best.objective


class _InfeasibleModel:
    """A model whose every evaluation violates the SLO."""

    def __init__(self):
        self.slo = PromotionRateSlo()

    def evaluate_many(self, configs):
        return [
            FleetReplayReport(
                config=config,
                total_cold_pages=1.0,
                promotion_rate_p98=self.slo.target_pct_per_min * 10.0,
                slo_target=self.slo.target_pct_per_min,
                job_results=[],
            )
            for config in configs
        ]


class _BatchRecordingModel:
    """Delegating wrapper that records every evaluate_many batch size."""

    def __init__(self, inner):
        self._inner = inner
        self.slo = inner.slo
        self.batch_sizes = []

    def evaluate_many(self, configs):
        configs = list(configs)
        self.batch_sizes.append(len(configs))
        return self._inner.evaluate_many(configs)


class TestBatchedRuns:
    def test_run_evaluates_one_batch_per_iteration(self):
        recording = _BatchRecordingModel(FarMemoryModel(make_fleet_traces()))
        pipeline = AutotuningPipeline(recording, batch_size=3, seed=0)
        result = pipeline.run(iterations=2)
        assert recording.batch_sizes == [3, 3]
        assert len(result.trials) == 6

    def test_random_baseline_batches_and_preserves_draws(self, model):
        """Batching must not change which configurations the baseline
        tries: the rng stream is drawn point by point, exactly as the
        unbatched loop drew it."""
        pipeline = AutotuningPipeline(model, batch_size=4, seed=0)
        result = pipeline.run_random_baseline(n_trials=6, seed=3)
        rng = np.random.default_rng(3)
        expected = [
            config_from_values(
                pipeline.space.from_unit(rng.random(pipeline.space.dim))
            )
            for _ in range(6)
        ]
        assert [t.config for t in result.trials] == expected

    def test_no_feasible_trial_leaves_best_none(self):
        """Regression: a warm-started bandit can hold a feasible
        observation while the current run produces only infeasible
        trials — ``run`` used to crash with ``max() of empty sequence``
        instead of reporting best=None."""
        pipeline = AutotuningPipeline(_InfeasibleModel(), batch_size=2,
                                      seed=0)
        pipeline.bandit.observe(
            np.full(pipeline.space.dim, 0.5), objective=100.0, constraint=0.0
        )
        result = pipeline.run(iterations=2)
        assert len(result.trials) == 4
        assert result.best is None
        with pytest.raises(AutotunerError):
            _ = result.best_config
