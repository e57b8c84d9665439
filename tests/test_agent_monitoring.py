"""SLI monitoring and alerting."""

import pytest

from repro.agent.monitoring import AlertRule, SliWindow, SloMonitor
from repro.agent.node_agent import SliSample


def sample(time, rate, job="j", wss=1000):
    return SliSample(
        time=time,
        job_id=job,
        promotions=int(rate * wss / 100),
        working_set_pages=wss,
        normalized_rate_pct_per_min=rate,
        threshold=120.0,
    )


class TestSliWindow:
    def test_eviction_by_age(self):
        window = SliWindow(window_seconds=600)
        window.extend([sample(t, 0.1) for t in range(0, 1200, 60)])
        assert len(window) == 11  # t in [540, 1140]

    def test_percentile(self):
        window = SliWindow()
        window.extend([sample(i, float(i)) for i in range(100)])
        assert window.percentile(50) == pytest.approx(49.5)

    def test_violation_fraction(self):
        window = SliWindow()
        window.extend([sample(0, 0.1), sample(1, 0.3), sample(2, 0.5)])
        assert window.violation_fraction(0.2) == pytest.approx(2 / 3)

    def test_empty_wss_samples_ignored(self):
        window = SliWindow()
        window.extend([sample(0, 5.0, wss=0)])
        assert window.rates().size == 0
        assert window.percentile(98) == 0.0

    def test_out_of_order_samples_are_sorted(self):
        window = SliWindow(window_seconds=600)
        # Two machines drained together: their clocks interleave.
        window.extend([sample(120, 0.2), sample(0, 0.1), sample(60, 0.3)])
        assert [s.time for s in window._samples] == [0, 60, 120]
        assert len(window) == 3

    def test_out_of_order_eviction_matches_in_order(self):
        in_order = SliWindow(window_seconds=600)
        shuffled = SliWindow(window_seconds=600)
        samples = [sample(t, 0.1) for t in range(0, 1200, 60)]
        in_order.extend(samples)
        shuffled.extend(samples[10:] + samples[:10])
        assert [s.time for s in shuffled._samples] == [
            s.time for s in in_order._samples
        ]

    def test_late_sample_within_window_is_kept(self):
        window = SliWindow(window_seconds=600)
        window.extend([sample(1000, 0.1)])
        window.extend([sample(700, 0.5)])  # late but inside the window
        assert len(window) == 2
        window.extend([sample(100, 0.9)])  # late and already expired
        assert [s.time for s in window._samples] == [700, 1000]


class TestSloMonitor:
    def test_healthy_under_slo(self):
        monitor = SloMonitor(slo_limit=0.2)
        samples = [sample(t, 0.05) for t in range(0, 3600, 60)]
        assert monitor.observe(3600, samples) == []
        assert monitor.healthy

    def test_p98_alert_fires(self):
        monitor = SloMonitor(slo_limit=0.2)
        samples = [sample(t, 1.0) for t in range(0, 3600, 60)]
        fired = monitor.observe(3600, samples)
        assert any(a.rule == "p98-over-slo" for a in fired)
        assert not monitor.healthy

    def test_violation_fraction_alert(self):
        monitor = SloMonitor(slo_limit=0.2)
        # 10% of minutes violate: p98 can be fine, fraction rule fires.
        samples = [
            sample(t, 0.5 if i % 10 == 0 else 0.01)
            for i, t in enumerate(range(0, 7200, 60))
        ]
        fired = monitor.observe(7200, samples)
        assert any(a.rule == "violation-fraction" for a in fired)

    def test_min_samples_suppresses_startup_noise(self):
        monitor = SloMonitor(slo_limit=0.2)
        fired = monitor.observe(60, [sample(0, 99.0)])
        assert fired == []  # only 1 sample < min_samples

    def test_custom_rule(self):
        rule = AlertRule(
            name="median-drift",
            evaluate=lambda w: w.percentile(50),
            limit=0.1,
            min_samples=2,
        )
        monitor = SloMonitor(rules=[rule])
        fired = monitor.observe(120, [sample(0, 0.5), sample(60, 0.5)])
        assert [a.rule for a in fired] == ["median-drift"]

    def test_alert_history_accumulates(self):
        monitor = SloMonitor(slo_limit=0.01)
        bad = [sample(t, 1.0) for t in range(0, 3600, 60)]
        monitor.observe(3600, bad)
        monitor.observe(7200, [sample(t, 1.0) for t in range(3600, 7200, 60)])
        assert len(monitor.alerts) >= 2

    def test_empty_rules_rejected(self):
        with pytest.raises(Exception):
            SloMonitor(rules=[])


class TestIngestionAccounting:
    """`samples_ingested` is the coverage evidence canaries gate on."""

    def test_counts_every_observed_sample(self):
        monitor = SloMonitor(window_seconds=600)
        monitor.observe(600, [sample(t, 0.1) for t in range(0, 600, 60)])
        monitor.observe(1200, [sample(t, 0.1) for t in range(600, 1200, 60)])
        assert monitor.samples_ingested == 20

    def test_counts_survive_window_eviction(self):
        # Eviction trims the window, not the evidence that telemetry
        # arrived — the fail-closed canary gate relies on that.
        monitor = SloMonitor(window_seconds=60)
        monitor.observe(3600, [sample(t, 0.1) for t in range(0, 3600, 60)])
        assert len(monitor.window) < 60
        assert monitor.samples_ingested == 60

    def test_zero_ingestion_is_distinguishable_from_healthy(self):
        # The empty window reports percentile 0.0 and `healthy` True —
        # the vacuous pass.  The counter is what tells the two apart.
        monitor = SloMonitor(window_seconds=600)
        monitor.observe(600, [])
        assert monitor.healthy
        assert monitor.samples_ingested == 0
