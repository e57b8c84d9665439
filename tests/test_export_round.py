"""Cluster export rounds under sink outages.

One export round gathers every exporter's rows at once and ships each run
of consecutive healthy exporters as one shared block.  An exporter in a
sink outage goes its own way and splits the run around itself.  The
oracle is :mod:`tests.telemetry_oracle`: a round whose blocks are built
from per-job entries instead of the gather.  The store must come out
byte-identical to one the oracle fed, and every machine's export, entry,
spill and replay counters must match it.
"""

from repro.cluster import quickfleet
from repro.common.rng import SeedSequenceFactory
from repro.common.units import PAGE_SIZE
from repro.faults import FaultEvent, FaultInjector, FaultKind, FaultPlan
from repro.obs import MetricName, MetricRegistry, Tracer
from repro.tracestore import ColumnarTraceDatabase
from tests.telemetry_oracle import route_exports_through_oracle

EXPORTER_METRICS = {
    MetricName.TELEMETRY_EXPORTS_TOTAL,
    MetricName.TELEMETRY_ENTRIES_TOTAL,
    MetricName.TELEMETRY_SINK_OUTAGES_TOTAL,
    MetricName.TELEMETRY_SPILLED_ENTRIES_TOTAL,
    MetricName.TELEMETRY_REPLAYED_ENTRIES_TOTAL,
    MetricName.TELEMETRY_DROPPED_ENTRIES_TOTAL,
}



class RecordingDatabase(ColumnarTraceDatabase):
    """Records the machine table of every block, and refuses every
    delivery while the cluster clock is inside ``down``."""

    clock = None
    down = (-1, -1)

    def __init__(self, root, registry):
        super().__init__(root, registry=registry)
        self.blocks = []

    def add_block(self, block):
        if self.down[0] <= self.clock.now < self.down[1]:
            raise RuntimeError("sink offline")
        super().add_block(block)
        self.blocks.append((self.clock.now, tuple(block.machine_table)))


def run_fleet(root, outage_machine=None, down=(-1, -1)):
    registry = MetricRegistry()
    db = RecordingDatabase(root, registry)
    fleet = quickfleet(
        clusters=1,
        machines_per_cluster=3,
        jobs_per_machine=3,
        seed=21,
        machine_dram_gib=1.0,
        job_pages_range=((1 << 20) // PAGE_SIZE, (4 << 20) // PAGE_SIZE),
        kernel="columnar",
        scan_period=60,
        registry=registry,
        tracer=Tracer(),
        trace_db=db,
    )
    cluster = fleet.clusters[0]
    db.clock = cluster.clock
    db.down = down
    if outage_machine is not None:
        plan = FaultPlan(events=(
            FaultEvent(time=900, kind=FaultKind.SINK_OUTAGE, duration=900,
                       target=outage_machine),
        ))
        cluster.attach_fault_injector(
            FaultInjector(plan, SeedSequenceFactory(5))
        )
    fleet.run(7200)
    db.flush()
    counters = sorted(
        (record["name"], record["labels"]["machine"], record["value"])
        for record in registry.snapshot()
        if record["name"] in EXPORTER_METRICS
    )
    files = {p.name: p.read_bytes() for p in sorted(root.iterdir())}
    return cluster, db, counters, files


def oracle_run(root, monkeypatch, **kwargs):
    """``run_fleet`` with every block built from the oracle's entries."""
    with monkeypatch.context() as patch:
        route_exports_through_oracle(patch)
        return run_fleet(root, **kwargs)


def per_machine(counters, name):
    return {machine: value for metric, machine, value in counters
            if metric == name}


def test_outage_on_middle_machine_splits_the_run(tmp_path, monkeypatch):
    cluster, db, counters, files = run_fleet(
        tmp_path / "blocks", outage_machine=1
    )
    _, _, oracle_counters, oracle_files = oracle_run(
        tmp_path / "oracle", monkeypatch, outage_machine=1
    )
    m0, m1, m2 = (machine.machine_id for machine in cluster.machines)

    # Healthy rounds ship the whole cluster as one block; while m1's sink
    # is down its rows spill and the run splits around it.
    assert (0, (m0, m1, m2)) in db.blocks
    during = [tables for t, tables in db.blocks if 900 <= t < 1800]
    assert during and all(m1 not in tables for tables in during)
    assert {tables for tables in during} == {(m0,), (m2,)}

    spilled = per_machine(counters, MetricName.TELEMETRY_SPILLED_ENTRIES_TOTAL)
    replayed = per_machine(counters,
                           MetricName.TELEMETRY_REPLAYED_ENTRIES_TOTAL)
    assert spilled[m1] > 0 and spilled[m0] == spilled[m2] == 0
    assert replayed == spilled  # the spill replays exactly once
    for exporter in cluster.exporters.values():
        assert not exporter.sink_degraded

    assert files == oracle_files
    assert counters == oracle_counters


def test_failed_shared_block_spills_every_exporter(tmp_path, monkeypatch):
    cluster, db, counters, files = run_fleet(
        tmp_path / "blocks", down=(1200, 1500)
    )
    _, _, oracle_counters, oracle_files = oracle_run(
        tmp_path / "oracle", monkeypatch, down=(1200, 1500)
    )
    machines = [machine.machine_id for machine in cluster.machines]
    assert (0, tuple(machines)) in db.blocks  # the failing block is shared

    outages = per_machine(counters, MetricName.TELEMETRY_SINK_OUTAGES_TOTAL)
    spilled = per_machine(counters, MetricName.TELEMETRY_SPILLED_ENTRIES_TOTAL)
    replayed = per_machine(counters,
                           MetricName.TELEMETRY_REPLAYED_ENTRIES_TOTAL)
    assert all(outages[m] == 1 for m in machines)
    assert all(spilled[m] > 0 for m in machines)
    assert replayed == spilled
    assert all(t < 1200 or t >= 1500 for t, _tables in db.blocks)

    assert files == oracle_files
    assert counters == oracle_counters
