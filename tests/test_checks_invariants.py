"""Tests for the REPRO_CHECKS runtime invariant checker."""

from __future__ import annotations

import numpy as np
import pytest

from repro.checks.invariants import (
    ENV_VAR,
    InvariantViolation,
    check_machine_accounting,
    check_memcg_histogram,
    check_merge_delta,
    invariants_enabled,
    set_invariants_enabled,
)
from repro.obs.metrics import MetricRegistry


@pytest.fixture
def enabled():
    set_invariants_enabled(True)
    yield
    set_invariants_enabled(None)


class TestToggle:
    def test_env_var_enables(self, monkeypatch):
        set_invariants_enabled(None)
        monkeypatch.setenv(ENV_VAR, "1")
        assert invariants_enabled()
        set_invariants_enabled(None)
        monkeypatch.setenv(ENV_VAR, "0")
        assert not invariants_enabled()
        set_invariants_enabled(None)

    def test_override_wins(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "0")
        set_invariants_enabled(True)
        assert invariants_enabled()
        set_invariants_enabled(None)
        assert not invariants_enabled()
        set_invariants_enabled(None)


class TestMachineAccounting:
    def _warm(self, machine, rng):
        memcg = machine.add_job("job", capacity_pages=512)
        idx = machine.allocate("job", 256)
        machine.touch("job", idx[:64])
        memcg.cold_age_threshold = 240.0  # arm kreclaimd
        for minute in range(1, 30):
            machine.tick(minute * 120)
            machine.run_reclaim()
        return machine

    def test_clean_machine_passes(self, machine, rng, enabled):
        self._warm(machine, rng)
        check_machine_accounting(machine)  # does not raise
        assert machine.far_pages > 0  # the check actually saw far pages

    def test_trips_on_pool_size_leak(self, machine, rng, enabled):
        self._warm(machine, rng)
        # Inject the bug REPRO_CHECKS exists to catch: a page marked far
        # in the memcg without a matching object in the arena.
        memcg = machine.memcgs["job"]
        near = np.flatnonzero(memcg.resident & ~memcg.far_mask())
        memcg.mark_far(near[:1])
        with pytest.raises(InvariantViolation, match="machine.far_pages"):
            check_machine_accounting(machine)


class TestMemcgHistogram:
    def _scan(self, memcg, scans=5):
        idx = memcg.allocate(300)
        memcg.touch(idx[:50])
        for _ in range(scans):
            memcg.scan_update()

    def test_clean_memcg_passes(self, memcg, enabled):
        self._scan(memcg)
        check_memcg_histogram(memcg)  # does not raise

    def test_trips_on_desynced_histogram(self, memcg, enabled):
        self._scan(memcg)
        memcg.cold_age_histogram.young_count += 7  # corrupt the snapshot
        with pytest.raises(InvariantViolation, match="cold_histogram"):
            check_memcg_histogram(memcg)

    def test_scan_update_runs_check_when_enabled(self, memcg, enabled):
        # With checks on, the hook inside scan_update repairs nothing and
        # passes silently on a healthy memcg.
        self._scan(memcg)
        memcg.scan_update()


class TestMergeDelta:
    def _delta(self, build):
        registry = MetricRegistry()
        build(registry)
        return registry.delta({})

    def test_clean_delta_passes(self):
        def build(registry):
            registry.counter("repro_events_total", "Events.").inc(3)
            registry.histogram("repro_span_seconds", "Spans.").observe(0.5)

        check_merge_delta(self._delta(build))  # does not raise

    def test_trips_on_negative_counter(self):
        records = [{"name": "repro_x_total", "kind": "counter", "value": -1.0}]
        with pytest.raises(InvariantViolation, match="counter_monotonic"):
            check_merge_delta(records)

    def test_trips_on_lost_histogram_mass(self):
        def build(registry):
            registry.histogram("repro_span_seconds", "Spans.").observe(0.5)

        records = self._delta(build)
        for record in records:
            record["count"] = int(record["count"]) + 1  # lose a bucket
        with pytest.raises(InvariantViolation, match="histogram_mass"):
            check_merge_delta(records)


class TestEndToEnd:
    def test_parallel_engine_with_checks_on(self, enabled):
        """A short sharded run with every invariant armed (acceptance)."""
        from repro.cluster import quickfleet
        from repro.engine.parallel import FleetEngine

        fleet = quickfleet(
            clusters=2, machines_per_cluster=1, jobs_per_machine=2, seed=7,
        )
        engine = FleetEngine(fleet, workers=2)
        engine.run(600)  # raises InvariantViolation on any breakage
