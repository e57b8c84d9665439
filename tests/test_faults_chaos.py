"""Chaos integration: fault scenarios replay identically serial vs
parallel, telemetry survives sink outages, and the SLO holds under an
incompressible storm."""

import pytest

from repro.cluster import quickfleet
from repro.common.rng import SeedSequenceFactory
from repro.common.units import HOUR
from repro.engine import FleetEngine, fork_available
from repro.faults import (
    ALL_MACHINES,
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
    attach_scenario,
)
from repro.obs import MetricRegistry, Tracer


def make_fleet(seed=21, clusters=2):
    return quickfleet(
        clusters=clusters,
        machines_per_cluster=2,
        jobs_per_machine=3,
        seed=seed,
        registry=MetricRegistry(),
        tracer=Tracer(),
    )


@pytest.mark.skipif(not fork_available(), reason="needs fork start method")
class TestMixedScenarioEngineEquivalence:
    """The acceptance scenario — crash + sink outage + incompressible
    storm — must produce identical results under both engines."""

    DURATION = 2 * HOUR

    @pytest.fixture(scope="class")
    def pair(self):
        serial = make_fleet()
        parallel = make_fleet()
        for fleet in (serial, parallel):
            attach_scenario(fleet, "mixed", self.DURATION, seed=5)
        serial.run(self.DURATION)
        stats = FleetEngine(parallel, workers=2).run(self.DURATION)
        return serial, parallel, stats

    def test_parallel_path_taken_without_fallbacks(self, pair):
        _, _, stats = pair
        assert stats.mode == "parallel"
        assert stats.shard_fallbacks == 0

    def test_faults_actually_fired(self, pair):
        serial, parallel, _ = pair
        for fleet in (serial, parallel):
            injected = sum(
                c.fault_injector.faults_injected for c in fleet.clusters
            )
            assert injected >= 3  # crash + outage + storm per cluster
            assert fleet.registry.value("repro_faults_injected_total") > 0

    def test_sli_histories_identical(self, pair):
        serial, parallel, _ = pair
        assert len(serial.sli_history) > 0
        assert serial.sli_history == parallel.sli_history

    def test_coverage_reports_identical(self, pair):
        serial, parallel, _ = pair
        assert serial.coverage_report() == parallel.coverage_report()

    def test_traces_identical_per_job(self, pair):
        serial, parallel, _ = pair
        assert serial.trace_db.job_ids == parallel.trace_db.job_ids
        for job_id in serial.trace_db.job_ids:
            a = [e.to_dict()
                 for e in serial.trace_db.trace_for(job_id).entries]
            b = [e.to_dict()
                 for e in parallel.trace_db.trace_for(job_id).entries]
            assert a == b

    def test_fault_events_identical(self, pair):
        serial, parallel, _ = pair
        for cs, cp in zip(serial.clusters, parallel.clusters):
            a = [(e.time, e.payload) for e in cs.events.of_kind("faults")]
            b = [(e.time, e.payload) for e in cp.events.of_kind("faults")]
            assert a and a == b


class TestSinkOutageRecovery:
    """An outage delays telemetry; after the sink heals, nothing is lost."""

    DURATION = 2 * HOUR

    def run_pair(self):
        baseline = make_fleet(seed=33, clusters=1)
        chaotic = make_fleet(seed=33, clusters=1)
        plan = FaultPlan(events=(
            FaultEvent(time=1800, kind=FaultKind.SINK_OUTAGE,
                       duration=1800, target=ALL_MACHINES),
        ))
        chaotic.clusters[0].attach_fault_injector(
            FaultInjector(plan, SeedSequenceFactory(5))
        )
        baseline.run(self.DURATION)
        chaotic.run(self.DURATION)
        return baseline, chaotic

    def test_no_entries_lost_after_heal(self):
        baseline, chaotic = self.run_pair()
        registry = chaotic.registry
        assert registry.value("repro_telemetry_sink_outages_total") > 0
        spilled = registry.value("repro_telemetry_spilled_entries_total")
        assert spilled > 0
        assert registry.value(
            "repro_telemetry_replayed_entries_total") == spilled
        assert registry.value("repro_telemetry_dropped_entries_total") == 0
        for exporter in chaotic.clusters[0].exporters.values():
            assert not exporter.sink_degraded

        # The delivered traces are exactly the fault-free ones.
        assert baseline.trace_db.job_ids == chaotic.trace_db.job_ids
        for job_id in baseline.trace_db.job_ids:
            a = [e.to_dict()
                 for e in baseline.trace_db.trace_for(job_id).entries]
            b = [e.to_dict()
                 for e in chaotic.trace_db.trace_for(job_id).entries]
            assert a == b


class TestStormSloCompliance:
    """During a fleet-wide incompressible storm the controller degrades
    *coverage*, never the promotion SLO: rejected compressions rise and
    far-memory coverage falls, while the promotion-rate SLI stays no
    worse than a fault-free run of the same fleet.  (The absolute 0.2
    %/min target is a steady-state fleet number; a 2-hour toy fleet's
    p98 is dominated by warm-up transients even fault-free, so the SLO
    check is the *impact* vs baseline — the same comparison the
    ``repro chaos`` CLI reports.)"""

    DURATION = 2 * HOUR

    def test_storm_degrades_coverage_not_the_slo(self):
        baseline = make_fleet(seed=44, clusters=1)
        storm = make_fleet(seed=44, clusters=1)
        attach_scenario(storm, "storm", self.DURATION, seed=6)
        baseline.run(self.DURATION)
        storm.run(self.DURATION)
        assert sum(
            c.fault_injector.faults_injected for c in storm.clusters
        ) > 0

        # The storm visibly bit: more rejections, less coverage.
        assert storm.registry.value(
            "repro_pages_rejected_total"
        ) > baseline.registry.value("repro_pages_rejected_total")
        base_report = baseline.coverage_report()
        storm_report = storm.coverage_report()
        assert storm_report["coverage"] < base_report["coverage"]

        # ...but the promotion-rate SLI did not degrade: fewer pages in
        # zswap can only mean fewer promotions, and the threshold
        # controller keeps the rate at (or below) the fault-free level.
        assert (
            storm_report["promotion_rate_p98_pct_per_min"]
            <= base_report["promotion_rate_p98_pct_per_min"]
        )


class TestMemoryPressureSpike:
    """A pressure spike touches pages through the machine, so the far
    pages it touches fault back through zswap: one promotion each, and no
    touched page stays compressed with its accessed bit set."""

    def test_spike_promotes_every_far_page_it_touches(self):
        fleet = make_fleet(clusters=1)
        fleet.run(HOUR)
        cluster = fleet.clusters[0]
        memcgs = [
            memcg for machine in cluster.machines
            for memcg in machine.memcgs.values()
        ]

        def far_and_accessed(memcg):
            pages = cluster.pool.row_pages(memcg.row)
            far = pages.resident & (pages.state == 1)
            return far, far & pages.accessed

        far_before, stale_before = zip(*map(far_and_accessed, memcgs))
        promoted_before = sum(m.promoted_pages_total for m in memcgs)
        decompressed_before = fleet.registry.value(
            "repro_pages_promoted_total"
        )

        now = cluster.clock.now
        injector = FaultInjector(
            FaultPlan(events=(FaultEvent(
                time=now, kind=FaultKind.MEMORY_PRESSURE, magnitude=0.9,
                target=ALL_MACHINES,
            ),)),
            SeedSequenceFactory(5),
        )
        cluster.attach_fault_injector(injector)
        injector.on_tick(cluster, now)

        left_far = sum(
            int((before & ~far_and_accessed(memcg)[0]).sum())
            for before, memcg in zip(far_before, memcgs)
        )
        assert left_far > 0
        assert (
            sum(m.promoted_pages_total for m in memcgs) - promoted_before
            == left_far
        )
        assert (
            fleet.registry.value("repro_pages_promoted_total")
            - decompressed_before == left_far
        )
        for stale, memcg in zip(stale_before, memcgs):
            # Only pages compressed while already accessed (before the
            # spike) may carry the bit in far memory.
            assert not (far_and_accessed(memcg)[1] & ~stale).any()
        for machine in cluster.machines:
            assert machine.arena.live_objects == machine.far_pages
