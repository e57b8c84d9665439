"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``quickstart`` — build a small fleet, run it, print the headline report;
* ``autotune`` — run the full §5.3 pipeline (traces -> GP-Bandit -> deploy)
  and print the before/after comparison;
* ``figures`` — regenerate the paper's figure tables into a directory;
* ``traces`` — run a fleet and dump its telemetry as JSON-lines for
  offline experimentation with the fast far memory model.
* ``metrics`` — run an instrumented fleet and print the health report,
  or the full metric exposition (``--format prom|json``).
* ``bench`` — time the same fleet serially and under the parallel
  engine (``BENCH_fleet.json``), with ``--model`` the fast far memory
  model scalar-vs-vectorized (``BENCH_model.json``), or with ``--trace``
  the columnar trace store against the object path
  (``BENCH_trace.json``).
* ``trace`` — inspect and convert columnar trace stores: ``stats``,
  ``window``, ``export``/``import`` (jsonl <-> columnar), ``compact``.
* ``chaos`` — run a named fault-injection scenario and report the SLO
  impact against a fault-free baseline of the same fleet and seed.
* ``canary`` — canary a policy through the §5.3 rollout ladder on a live
  fleet (optionally under chaos) and report the per-stage verdicts.
* ``ci`` — the one-command gate: tier-1 tests with runtime invariants on
  (``REPRO_CHECKS=1``) plus the ``repro lint`` static-analysis suite.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis import (
    cold_memory_vs_threshold,
    compression_ratios_per_job,
    decompression_latency_samples,
    per_job_cold_fractions,
    per_job_promotion_rates,
    render_cdf,
    render_fleet_health,
    render_flame_table,
    render_series,
    render_table,
    render_violins,
    per_machine_cold_fractions_by_cluster,
    per_machine_coverage_by_cluster,
    violin_stats,
)
from repro.autotuner import AutotuningPipeline
from repro.cluster import quickfleet
from repro.common.units import HOUR, MIB, MINUTE, PAGE_SIZE
from repro.core import TcoModel, ThresholdPolicyConfig
from repro.model import FarMemoryModel
from repro.obs import MetricRegistry, Tracer, profile_to_registry

__all__ = ["main", "metrics_entry"]


def _add_fleet_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--clusters", type=int, default=2)
    parser.add_argument("--machines", type=int, default=3,
                        help="machines per cluster")
    parser.add_argument("--jobs", type=int, default=4,
                        help="jobs per machine")
    parser.add_argument("--hours", type=float, default=6.0,
                        help="simulated hours")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dram-gib", type=float, default=8.0)
    parser.add_argument("--cold-target", type=float, default=0.20,
                        help="fleet-mean cold-fraction target")


def _build_fleet(args: argparse.Namespace, policy=None, registry=None,
                 tracer=None):
    return quickfleet(
        clusters=args.clusters,
        machines_per_cluster=args.machines,
        jobs_per_machine=args.jobs,
        seed=args.seed,
        machine_dram_gib=args.dram_gib,
        mean_cold_fraction=args.cold_target,
        job_pages_range=((16 * MIB) // PAGE_SIZE, (64 * MIB) // PAGE_SIZE),
        policy_config=policy,
        registry=registry,
        tracer=tracer,
    )


def cmd_quickstart(args: argparse.Namespace) -> int:
    """Run a fleet and print the coverage/TCO report."""
    fleet = _build_fleet(args)
    print(f"Simulating {args.hours:g} hours on "
          f"{len(fleet.machines)} machines...")
    fleet.run(int(args.hours * HOUR))
    report = fleet.coverage_report()
    ratios = compression_ratios_per_job(fleet)
    mean_ratio = sum(ratios) / len(ratios) if ratios else 3.0
    tco = TcoModel().evaluate(
        coverage=report["coverage"],
        cold_fraction=report["cold_fraction_at_min_threshold"],
        compression_ratio=mean_ratio,
    )
    print(render_table(
        ["metric", "value"],
        [
            ("coverage", f"{report['coverage']:.1%}"),
            ("cold fraction @120s",
             f"{report['cold_fraction_at_min_threshold']:.1%}"),
            ("mean compression ratio", f"{mean_ratio:.2f}x"),
            ("promotion p98 (samples)",
             f"{report['promotion_rate_p98_pct_per_min']:.3f} %/min"),
            ("DRAM TCO saving", f"{tco.dram_saving_fraction:.2%}"),
        ],
        title="Fleet report",
    ))
    return 0


def cmd_autotune(args: argparse.Namespace) -> int:
    """Trace, tune, deploy, and compare before/after coverage."""
    hand_tuned = ThresholdPolicyConfig(percentile_k=98.0, warmup_seconds=1800)
    fleet = _build_fleet(args, policy=hand_tuned)
    print(f"Phase 1: {args.hours:g} h under hand-tuned parameters...")
    fleet.run(int(args.hours * HOUR))
    before = fleet.coverage_report()

    print(f"Phase 2: GP-Bandit over {len(fleet.trace_db)} trace entries...")
    model = FarMemoryModel(fleet.trace_db.traces())
    result = AutotuningPipeline(model, batch_size=4,
                                seed=args.seed).run(args.iterations)
    best = result.best_config
    print(f"  winner: K={best.percentile_k:.1f}, S={best.warmup_seconds}s "
          f"({len(result.trials)} trials)")

    print("Phase 3: deploy and soak...")
    fleet.deploy_policy(best)
    fleet.run(int(args.hours * HOUR / 2))
    after = fleet.coverage_report()
    print(render_table(
        ["", "coverage", "p98 %/min"],
        [
            ("hand-tuned", f"{before['coverage']:.1%}",
             f"{before['promotion_rate_p98_pct_per_min']:.3f}"),
            ("autotuned", f"{after['coverage']:.1%}",
             f"{after['promotion_rate_p98_pct_per_min']:.3f}"),
        ],
        title="Autotuning result",
    ))
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    """Regenerate the paper's figure tables from a fresh fleet."""
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    fleet = _build_fleet(args)
    print(f"Simulating {args.hours:g} hours for figure data...")
    fleet.run(int(args.hours * HOUR))
    traces = fleet.trace_db.traces()

    figures = {
        "fig1": render_series(
            [p.threshold_seconds for p in cold_memory_vs_threshold(traces)],
            [round(100 * p.cold_fraction, 2)
             for p in cold_memory_vs_threshold(traces)],
            "T (s)", "cold %", "Fig. 1 — cold memory vs threshold",
        ),
        "fig2": render_violins(
            {
                name: violin_stats(fractions)
                for name, fractions in per_machine_cold_fractions_by_cluster(
                    fleet, 120
                ).items()
                if fractions
            },
            "Fig. 2 — per-machine cold memory by cluster",
        ),
        "fig3": render_cdf(
            [100 * f for f in per_job_cold_fractions(traces)],
            "Fig. 3 — per-job cold percentage", unit="%",
        ),
        "fig6": render_violins(
            {
                name: violin_stats(coverages)
                for name, coverages in per_machine_coverage_by_cluster(
                    fleet
                ).items()
                if coverages
            },
            "Fig. 6 — per-machine coverage by cluster",
        ),
        "fig7": render_cdf(
            per_job_promotion_rates(fleet.sli_history),
            "Fig. 7 — per-job promotion rate", unit=" %/min",
        ),
        "fig9b": render_cdf(
            [s * 1e6 for s in decompression_latency_samples(fleet)],
            "Fig. 9b — decompression latency", unit=" us",
        ),
    }
    for name, text in figures.items():
        (out / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
        print(text)
        print()
    print(f"Wrote {len(figures)} figures to {out}/")
    return 0


def cmd_traces(args: argparse.Namespace) -> int:
    """Run a fleet and dump its telemetry to JSON-lines."""
    fleet = _build_fleet(args)
    print(f"Simulating {args.hours:g} hours...")
    fleet.run(int(args.hours * HOUR))
    written = fleet.trace_db.save_jsonl(args.output)
    print(f"Wrote {written} trace entries to {args.output}")
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """Run an instrumented fleet and emit its metrics.

    ``--format table`` (the default) prints the human fleet-health report
    plus the span profile; ``prom`` emits the Prometheus text exposition;
    ``json`` emits one JSON object per metric (JSON-lines).
    """
    registry = MetricRegistry()
    tracer = Tracer()
    fleet = quickfleet(
        clusters=args.clusters,
        machines_per_cluster=args.machines,
        jobs_per_machine=args.jobs,
        seed=args.seed,
        machine_dram_gib=args.dram_gib,
        mean_cold_fraction=args.cold_target,
        job_pages_range=((16 * MIB) // PAGE_SIZE, (64 * MIB) // PAGE_SIZE),
        registry=registry,
        tracer=tracer,
    )
    if args.format == "table":
        print(f"Simulating {args.minutes:g} minutes on "
              f"{len(fleet.machines)} machines...")
    fleet.run(int(args.minutes * MINUTE))
    report = fleet.fleet_health_report()
    profile_to_registry(tracer, registry)

    if args.format == "prom":
        text = registry.expose_text()
    elif args.format == "json":
        text = registry.export_jsonl()
    else:
        text = "\n\n".join(
            [render_fleet_health(report), render_flame_table(tracer)]
        )

    if args.output:
        Path(args.output).write_text(text + "\n", encoding="utf-8")
        print(f"Wrote metrics to {args.output}")
    else:
        print(text)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """Throughput comparison: fleet engine (BENCH_fleet.json), the fast
    far memory model (``--model``, BENCH_model.json), or the columnar
    trace store (``--trace``, BENCH_trace.json)."""
    if args.model:
        return _cmd_bench_model(args)
    if args.trace:
        return _cmd_bench_trace(args)
    from repro.engine.bench import run_bench

    kwargs = dict(
        hours=args.hours,
        clusters=args.clusters,
        machines=args.machines,
        jobs=args.jobs,
        seed=args.seed,
        workers=args.workers,
        barrier_seconds=args.barrier_seconds,
    )
    if kwargs["jobs"] is None:
        kwargs["jobs"] = 1
    if args.quick:
        kwargs.update(hours=0.5, clusters=2, machines=10, jobs=1,
                      tick_machines=10, tick_jobs=16, tick_ticks=10,
                      equivalence_hours=0.25, thousand_machines=0)
    print(f"Benchmarking {kwargs['clusters']} clusters x "
          f"{kwargs['machines']} machines for {kwargs['hours']:g} "
          f"simulated hours (tick path, equivalence, serial vs "
          f"parallel)...")
    report = run_bench(output=args.output, **kwargs)
    tick = report["tick_path"]
    print(render_table(
        ["", "wall s", "ticks/s"],
        [
            ("scalar", f"{tick['scalar']['wall_seconds']:.2f}",
             f"{tick['scalar']['ticks_per_second']:.1f}"),
            ("columnar", f"{tick['columnar']['wall_seconds']:.2f}",
             f"{tick['columnar']['ticks_per_second']:.1f}"),
        ],
        title=f"Tick path, {tick['machines']} machines x "
              f"{tick['jobs_per_machine']} jobs (columnar "
              f"{tick['speedup_columnar']:.1f}x, "
              f"equivalent={tick['equivalent']})",
    ))
    eq = report["equivalence"]
    print(f"equivalence: scalar reference == columnar page pool "
          f"over {eq['simulated_hours']:g} h of churn: {eq['equivalent']} "
          f"({eq['sli_samples']} SLI samples)")
    speedup = report["speedup"]
    speedup_text = "n/a" if speedup is None else f"{speedup:.2f}x"
    print(render_table(
        ["", "wall s", "ticks/s", "pages scanned/s"],
        [
            ("serial", f"{report['serial']['wall_seconds']:.2f}",
             f"{report['serial']['ticks_per_second']:.1f}",
             f"{report['serial']['pages_scanned_per_second']:.0f}"),
            (f"parallel x{report['parallel']['workers']}",
             f"{report['parallel']['wall_seconds']:.2f}",
             f"{report['parallel']['ticks_per_second']:.1f}",
             f"{report['parallel']['pages_scanned_per_second']:.0f}"),
        ],
        title=f"Fleet throughput (speedup {speedup_text}, "
              f"equivalent={report['equivalent']})",
    ))
    if report["note"]:
        print(f"note: {report['note']}")
    if report["parallel"]["fallback_reason"]:
        print(f"note: ran serially — {report['parallel']['fallback_reason']}")
    thousand = report["thousand_machine_hour"]
    if thousand is not None:
        line = (f"thousand-machine hour: {thousand['machines']} machines "
                f"on one core in {thousand['wall_seconds']:.2f}s")
        if "under_scalar_8_machine_bench" in thousand:
            line += (f" — under the 8-machine scalar bench "
                     f"({thousand['scalar_8_machine_wall_seconds']:.2f}s): "
                     f"{thousand['under_scalar_8_machine_bench']}")
        print(line)
    print(f"Wrote {args.output}")
    return 0 if report["equivalent"] else 1


def _cmd_bench_model(args: argparse.Namespace) -> int:
    """The ``repro bench --model`` half: fast-model throughput."""
    from repro.model.bench import run_model_bench

    kwargs = dict(
        jobs=args.jobs if args.jobs is not None else 24,
        intervals=args.intervals,
        configs=args.configs,
        workers=args.workers,
        seed=args.seed,
    )
    if args.quick:
        kwargs.update(jobs=6, intervals=48, configs=4)
    # The fleet default filename would mislabel a model report.
    output = args.output
    if output == "BENCH_fleet.json":
        output = "BENCH_model.json"
    print(f"Benchmarking the fast model: {kwargs['jobs']} traces x "
          f"{kwargs['intervals']} intervals x {kwargs['configs']} configs "
          f"(scalar per-config, then batched vectorized)...")
    report = run_model_bench(output=output, **kwargs)
    rows = [
        ("scalar per-config", f"{report['scalar']['wall_seconds']:.2f}",
         f"{report['scalar']['configs_per_second']:.2f}"),
        ("batched vectorized", f"{report['vectorized']['wall_seconds']:.2f}",
         f"{report['vectorized']['configs_per_second']:.2f}"),
    ]
    if report["parallel"] is not None:
        rows.append(
            (f"vectorized x{report['parallel']['workers']}",
             f"{report['parallel']['wall_seconds']:.2f}",
             f"{report['parallel']['configs_per_second']:.2f}")
        )
    print(render_table(
        ["", "wall s", "configs/s"],
        rows,
        title=f"Model throughput (speedup "
              f"{report['speedup_vectorized']:.2f}x, "
              f"equivalent={report['equivalent']})",
    ))
    print(f"Wrote {output}")
    return 0 if report["equivalent"] else 1


def _cmd_bench_trace(args: argparse.Namespace) -> int:
    """The ``repro bench --trace`` half: columnar store vs object path."""
    from repro.tracestore.bench import run_trace_bench

    kwargs = dict(
        jobs=args.jobs if args.jobs is not None else 24,
        intervals=args.intervals,
        configs=args.configs,
        seed=args.seed,
    )
    if args.quick:
        kwargs.update(jobs=6, intervals=48, configs=2)
    # The fleet default filename would mislabel a trace-store report.
    output = args.output
    if output == "BENCH_fleet.json":
        output = "BENCH_trace.json"
    print(f"Benchmarking the trace store: {kwargs['jobs']} jobs x "
          f"{kwargs['intervals']} intervals, replayed from objects and "
          f"from on-disk columns...")
    report = run_trace_bench(output=output, **kwargs)
    obj, col = report["object_path"], report["columnar_path"]
    print(render_table(
        ["", "compile s", "evaluate s", "peak MiB"],
        [
            ("object path", f"{obj['compile_wall_seconds']:.3f}",
             f"{obj['evaluate_wall_seconds']:.3f}",
             f"{obj['peak_bytes'] / MIB:.1f}"),
            ("columnar path", f"{col['compile_wall_seconds']:.3f}",
             f"{col['evaluate_wall_seconds']:.3f}",
             f"{col['peak_bytes'] / MIB:.1f}"),
        ],
        title=f"Trace store ({report['ingest']['rows_per_second']:.0f} "
              f"rows/s ingest, compile speedup "
              f"{report['compile_speedup']:.2f}x, peak-mem ratio "
              f"{report['peak_mem_ratio']:.3f}, "
              f"equivalent={report['equivalent']})",
    ))
    print(f"Wrote {output}")
    return 0 if report["equivalent"] else 1


def cmd_trace(args: argparse.Namespace) -> int:
    """Inspect/convert columnar trace stores (``repro trace ...``)."""
    from repro.common.errors import TraceError
    from repro.tracestore import ColumnarTraceDatabase, TraceStore

    try:
        if args.trace_command == "stats":
            store = TraceStore(args.store, create=False)
            time_range = store.time_range
            rows = [
                ("rows", f"{store.rows_total}"),
                ("jobs", f"{len(store.jobs)}"),
                ("machines", f"{len(store.machines)}"),
                ("segments", f"{len(store.segments)}"),
                ("segment bytes",
                 f"{sum(seg.bytes for seg in store.segments)}"),
                ("downsample factor", f"{store.downsample_factor()}"),
                ("interval seconds", f"{store.interval_seconds}"),
                ("time range",
                 f"{time_range[0]}..{time_range[1]}"
                 if time_range else "(empty)"),
            ]
            print(render_table(["metric", "value"], rows,
                               title=f"Trace store {args.store}"))
            return 0
        if args.trace_command == "window":
            store = TraceStore(args.store, create=False)
            print(render_table(
                ["start", "rows", "jobs", "wss pages", "cold pages",
                 "promoted"],
                [
                    (f"{w.start}", f"{w.rows}", f"{w.jobs}",
                     f"{w.working_set_pages}", f"{w.cold_pages}",
                     f"{w.promoted_pages}")
                    for w in store.window_summaries()
                ],
                title=f"Per-window aggregates "
                      f"({store.window_seconds} s windows)",
            ))
            return 0
        if args.trace_command == "export":
            TraceStore(args.store, create=False)  # fail fast on bad stores
            db = ColumnarTraceDatabase(args.store)
            written = db.save_jsonl(args.output)
            print(f"Exported {written} trace entries to {args.output}")
            return 0
        if args.trace_command == "import":
            db = ColumnarTraceDatabase.load_jsonl(
                args.input, args.store, buffer_rows=args.buffer_rows
            )
            print(f"Imported {len(db)} trace entries into {args.store} "
                  f"({len(db.store.segments)} segments)")
            return 0
        if args.trace_command == "compact":
            store = TraceStore(args.store, create=False)
            removed = store.compact(args.factor, before=args.before)
            print(f"Compacted {args.store}: merged away {removed} rows "
                  f"(factor {args.factor}, {store.rows_total} rows remain)")
            return 0
    except TraceError as exc:
        print(f"repro trace: error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled trace command {args.trace_command!r}")


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run a chaos scenario; compare SLO impact with a fault-free run."""
    from repro.engine import FleetEngine
    from repro.faults import attach_scenario

    seconds = int(args.hours * HOUR)

    def run_once(inject: bool):
        # Private observability per run so the two runs never share
        # counters and the comparison stays clean.
        fleet = _build_fleet(args, registry=MetricRegistry(),
                             tracer=Tracer())
        if inject:
            attach_scenario(fleet, args.scenario, seconds,
                            seed=args.chaos_seed)
        if args.workers is not None and args.workers > 1:
            FleetEngine(fleet, workers=args.workers).run(seconds)
        else:
            fleet.run(seconds)
        return fleet

    def slo_row(fleet):
        report = fleet.coverage_report()
        samples = [
            s for s in fleet.sli_history
            if s.working_set_pages > 0
            and s.normalized_rate_pct_per_min == s.normalized_rate_pct_per_min
        ]
        slo = fleet.clusters[0].slo
        violations = sum(
            1 for s in samples
            if s.normalized_rate_pct_per_min > slo.target_pct_per_min
        )
        violation_pct = violations / len(samples) if samples else 0.0
        return report, violation_pct

    print(f"Baseline: {args.hours:g} fault-free hours "
          f"(seed {args.seed})...")
    baseline = run_once(inject=False)
    print(f"Chaos: same fleet under scenario {args.scenario!r} "
          f"(chaos seed {args.chaos_seed})...")
    chaos = run_once(inject=True)

    base_report, base_viol = slo_row(baseline)
    chaos_report, chaos_viol = slo_row(chaos)
    injected = sum(
        c.fault_injector.faults_injected
        for c in chaos.clusters if c.fault_injector is not None
    )
    print(render_table(
        ["", "coverage", "p98 %/min", "SLO violations", "trace entries"],
        [
            ("fault-free", f"{base_report['coverage']:.1%}",
             f"{base_report['promotion_rate_p98_pct_per_min']:.3f}",
             f"{base_viol:.2%}", f"{len(baseline.trace_db)}"),
            (f"chaos ({args.scenario})", f"{chaos_report['coverage']:.1%}",
             f"{chaos_report['promotion_rate_p98_pct_per_min']:.3f}",
             f"{chaos_viol:.2%}", f"{len(chaos.trace_db)}"),
        ],
        title=f"SLO impact of {injected} injected fault(s)",
    ))
    slo_limit = chaos.clusters[0].slo.target_pct_per_min
    within = chaos_report["promotion_rate_p98_pct_per_min"] <= slo_limit
    print(f"promotion-rate SLO ({slo_limit:g} %/min at p98): "
          f"{'met' if within else 'VIOLATED'} under chaos")
    return 0 if within else 1


def cmd_canary(args: argparse.Namespace) -> int:
    """Canary a policy through the rollout ladder on a live fleet."""
    from repro.autotuner import (
        DEFAULT_STAGES,
        DeploymentStage,
        FleetController,
    )
    from repro.baselines import ThermostatPolicy
    from repro.core import FixedThresholdPolicy, PaperPolicy
    from repro.engine import FleetEngine
    from repro.faults import attach_scenario

    if args.smoke:
        from repro.autotuner import canary_smoke

        print("Running the canary controller smoke (breach rollback, "
              "serial==parallel, fail-closed on silence)...")
        report = canary_smoke()
        print(render_table(
            ["check", "result"],
            [(k, str(v)) for k, v in report.items()],
            title="Canary smoke",
        ))
        return 0

    if args.policy == "fixed":
        policy = FixedThresholdPolicy(
            threshold_seconds=args.threshold,
            warmup_seconds=args.warmup_seconds,
        )
    elif args.policy == "thermostat":
        policy = ThermostatPolicy()
    else:
        policy = PaperPolicy(ThresholdPolicyConfig(
            percentile_k=args.percentile_k,
            warmup_seconds=args.warmup_seconds,
        ))

    registry, tracer = MetricRegistry(), Tracer()
    fleet = _build_fleet(args, registry=registry, tracer=tracer)
    soak = int(args.soak_minutes * MINUTE)
    warmup = int(args.warmup_minutes * MINUTE)
    if args.scenario:
        attach_scenario(fleet, args.scenario, warmup + 3 * soak,
                        seed=args.chaos_seed)
    if warmup:
        print(f"Warming up {args.warmup_minutes:g} minutes"
              + (f" under scenario {args.scenario!r}" if args.scenario
                 else "") + "...")
        fleet.run(warmup)
    engine = (
        FleetEngine(fleet, workers=args.workers)
        if args.workers is not None and args.workers > 1
        else None
    )
    stages = tuple(
        DeploymentStage(s.name, s.fleet_fraction, soak)
        for s in DEFAULT_STAGES
    )
    controller = FleetController(
        fleet, stages=stages, slo_limit=args.slo_limit,
        min_coverage=args.min_coverage, registry=registry, tracer=tracer,
        engine=engine,
    )
    print(f"Canarying {policy.describe()} through "
          f"{len(stages)} stages ({args.soak_minutes:g} min soaks)...")
    decision = controller.canary(policy)
    print(render_table(
        ["stage", "verdict", "p98 %/min", "slice samples", "unattributed"],
        [
            (o.stage.name, o.reason, f"{o.p98_promotion_rate:.3f}",
             f"{o.slice_samples}", f"{o.unattributed_samples}")
            for o in decision.outcomes
        ],
        title=f"Canary: {decision.reason}",
    ))
    if decision.promoted:
        print(f"promoted to production ({decision.far_pages} far pages "
              "fleet-wide)")
    else:
        print("rolled back: every touched cluster restored to its prior "
              "policy")
    return 0 if decision.promoted else 1


def cmd_ci(args: argparse.Namespace) -> int:
    """Single gate: tier-1 tests with invariants on, then the lint suite."""
    import os
    import subprocess

    exit_code = 0
    if not args.skip_tests:
        env = dict(os.environ, REPRO_CHECKS="1")
        print("ci: running tier-1 tests with REPRO_CHECKS=1 ...")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", *args.pytest_args],
            env=env,
        )
        if proc.returncode != 0:
            print(f"ci: tests FAILED (exit {proc.returncode})",
                  file=sys.stderr)
            return proc.returncode
        print("ci: tests passed")
    flow = not args.skip_flow
    print("ci: running repro lint --ci"
          + (" --flow ..." if flow else " (flow passes skipped) ..."))
    lint_args = argparse.Namespace(
        paths=[], format="text", rule=None, baseline=None,
        update_baseline=None, ci=True, flow=flow,
    )
    exit_code = max(exit_code, cmd_lint(lint_args))
    if exit_code == 0 and not args.skip_bench:
        # The quick model-bench smoke gates only on scalar==vectorized
        # equivalence — speedups flake on loaded CI hosts, bit-identical
        # reports must not.
        from repro.model.bench import run_model_bench

        print("ci: running model bench smoke (bench --model --quick) ...")
        report = run_model_bench(jobs=6, intervals=48, configs=4)
        if not report["equivalent"]:
            print("ci: model bench smoke FAILED "
                  "(vectorized replay diverged from the scalar oracle)",
                  file=sys.stderr)
            exit_code = 1
        else:
            print("ci: model bench smoke passed "
                  f"(speedup {report['speedup_vectorized']:.2f}x)")
    if exit_code == 0 and not args.skip_bench:
        # Same idea for the trace store: gate only on the columnar path
        # reproducing the object path bit-identically, never on timing.
        from repro.tracestore.bench import run_trace_bench

        print("ci: running trace bench smoke (bench --trace --quick) ...")
        report = run_trace_bench(jobs=6, intervals=48, configs=2)
        if not report["equivalent"]:
            print("ci: trace bench smoke FAILED "
                  "(columnar replay diverged from the object path)",
                  file=sys.stderr)
            exit_code = 1
        else:
            print("ci: trace bench smoke passed "
                  f"(peak-mem ratio {report['peak_mem_ratio']:.3f})")
    if exit_code == 0 and not args.skip_bench:
        # And for the fleet kernel: the columnar page pool must replay a
        # churning fleet bit-identically to the scalar reference pool.
        # Equivalence only — never timing.
        from repro.engine.bench import columnar_equivalence

        print("ci: running columnar kernel equivalence smoke ...")
        report = columnar_equivalence(clusters=1, machines=2, jobs=4,
                                      hours=0.25)
        if not report["equivalent"]:
            print("ci: columnar equivalence smoke FAILED "
                  "(columnar pool diverged from the scalar reference)",
                  file=sys.stderr)
            exit_code = 1
        else:
            print("ci: columnar equivalence smoke passed "
                  f"({report['sli_samples']} SLI samples, cold-age "
                  "histograms, far-page gauges, arena and zswap stats "
                  "and reclaim counters identical on the scalar "
                  "reference and columnar pools)")
    if exit_code == 0 and not args.skip_bench:
        # Zero-copy telemetry: blocks gathered from pool columns must
        # leave byte-identical stores to the per-entry object oracle,
        # serial and parallel, also while one machine's sink is down
        # and its export rounds split.  Equivalence only — never timing.
        from repro.engine.bench import zero_copy_equivalence

        print("ci: running zero-copy telemetry equivalence smoke ...")
        report = zero_copy_equivalence(clusters=1, machines=2, jobs=4,
                                       hours=0.25)
        if not report["equivalent"]:
            print("ci: zero-copy telemetry smoke FAILED "
                  "(block ingest diverged from the per-entry oracle)",
                  file=sys.stderr)
            exit_code = 1
        else:
            print("ci: zero-copy telemetry smoke passed "
                  f"({report['rows']} rows byte-identical across "
                  "block and entry paths, serial and parallel, "
                  "through a one-machine sink outage)")
    if exit_code == 0 and not args.skip_bench:
        # The canary-controller smoke: a deliberately SLO-breaching
        # policy must be rolled back (never promoted), the decision must
        # be bit-identical serial vs parallel, and a zero-telemetry soak
        # must fail closed.
        from repro.autotuner import canary_smoke

        print("ci: running canary controller smoke ...")
        try:
            canary_smoke()
        except AssertionError as exc:
            print(f"ci: canary smoke FAILED ({exc})", file=sys.stderr)
            exit_code = 1
        else:
            print("ci: canary smoke passed (breach rolled back, "
                  "serial==parallel, fail-closed on silence)")
    print("ci: " + ("clean" if exit_code == 0 else "FAILED"))
    return exit_code


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the repro.checks static-analysis suite (``repro lint``)."""
    from repro.checks import LintError, run_external_tools, run_lint

    paths = [Path(p) for p in args.paths] or None
    try:
        result = run_lint(
            paths,
            rules=args.rule or None,
            output_format=args.format,
            baseline=Path(args.baseline) if args.baseline else None,
            update_baseline=(
                Path(args.update_baseline) if args.update_baseline else None
            ),
            flow=getattr(args, "flow", False),
        )
    except LintError as exc:
        print(f"repro lint: error: {exc}", file=sys.stderr)
        return 2
    print(result.report)
    for note in result.notes:
        print(f"note: {note}", file=sys.stderr)
    exit_code = result.exit_code
    if args.ci:
        from repro.checks.runner import default_lint_paths

        tool_lines = run_external_tools(
            [Path(p) for p in args.paths] or default_lint_paths()
        )
        for line in tool_lines:
            print(line, file=sys.stderr)
        if any("FAILED" in line for line in tool_lines):
            exit_code = max(exit_code, 1)
    return exit_code


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Software-Defined Far Memory reproduction (ASPLOS'19)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("quickstart", help="run a fleet, print the report")
    _add_fleet_arguments(p)
    p.set_defaults(func=cmd_quickstart)

    p = sub.add_parser("autotune", help="run the GP-Bandit pipeline")
    _add_fleet_arguments(p)
    p.add_argument("--iterations", type=int, default=5)
    p.set_defaults(func=cmd_autotune)

    p = sub.add_parser("figures", help="regenerate paper figure tables")
    _add_fleet_arguments(p)
    p.add_argument("--output", default="results")
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser("traces", help="dump fleet telemetry as JSON-lines")
    _add_fleet_arguments(p)
    p.add_argument("--output", default="traces.jsonl")
    p.set_defaults(func=cmd_traces)

    p = sub.add_parser("metrics",
                       help="run an instrumented fleet, emit its metrics")
    _add_fleet_arguments(p)
    p.add_argument("--minutes", type=float, default=60.0,
                   help="simulated minutes (metrics runs are short; "
                        "this replaces --hours)")
    p.add_argument("--format", choices=("table", "prom", "json"),
                   default="table",
                   help="table = fleet health report; prom = Prometheus "
                        "text exposition; json = JSON-lines snapshot")
    p.add_argument("--output", default=None,
                   help="write to this file instead of stdout")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("bench",
                       help="fleet, fast-model, or trace-store throughput "
                            "harness")
    p.add_argument("--model", action="store_true",
                   help="benchmark the fast far memory model (scalar "
                        "per-config vs batched vectorized evaluate_many) "
                        "instead of the fleet engine")
    p.add_argument("--trace", action="store_true",
                   help="benchmark the columnar trace store (ingest "
                        "throughput, compile-from-columns vs the object "
                        "path) instead of the fleet engine")
    p.add_argument("--clusters", type=int, default=4)
    p.add_argument("--machines", type=int, default=50,
                   help="machines per cluster (fleet section)")
    p.add_argument("--jobs", type=int, default=None,
                   help="jobs per machine (fleet, default 1) or traces "
                        "in the synthetic fleet (--model, default 24)")
    p.add_argument("--hours", type=float, default=1.0,
                   help="simulated hours per run")
    p.add_argument("--intervals", type=int, default=288,
                   help="5-minute periods per trace (--model only)")
    p.add_argument("--configs", type=int, default=8,
                   help="configurations per batch (--model only)")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--workers", type=int, default=None,
                   help="parallel workers (default: min(4, cpus))")
    p.add_argument("--barrier-seconds", type=int, default=60,
                   help="engine barrier interval in simulated seconds")
    p.add_argument("--quick", action="store_true",
                   help="small fast configuration (CI smoke run)")
    p.add_argument("--output", default="BENCH_fleet.json",
                   help="report file (with --model the default becomes "
                        "BENCH_model.json; with --trace, "
                        "BENCH_trace.json)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "trace",
        help="inspect/convert columnar trace stores",
        description="Operate on repro.tracestore directories: summary "
                    "stats, per-window aggregates, jsonl <-> columnar "
                    "conversion, and downsampling. "
                    "See docs/trace_store.md for the on-disk format.",
    )
    tsub = p.add_subparsers(dest="trace_command", required=True)

    tp = tsub.add_parser("stats", help="summarize a store")
    tp.add_argument("store", help="trace store directory")

    tp = tsub.add_parser("window",
                         help="print the incremental per-window aggregates")
    tp.add_argument("store", help="trace store directory")

    tp = tsub.add_parser("export",
                         help="export a columnar store to JSON-lines")
    tp.add_argument("store", help="trace store directory")
    tp.add_argument("--output", default="traces.jsonl")

    tp = tsub.add_parser("import",
                         help="import a JSON-lines trace file into a new "
                              "columnar store")
    tp.add_argument("input", help="JSON-lines trace file")
    tp.add_argument("store", help="trace store directory to create")
    tp.add_argument("--buffer-rows", type=int, default=4096,
                    help="rows per sealed segment")

    tp = tsub.add_parser("compact",
                         help="downsample raw segments in place")
    tp.add_argument("store", help="trace store directory")
    tp.add_argument("--factor", type=int, required=True,
                    help="raw rows merged per output row")
    tp.add_argument("--before", type=int, default=None,
                    help="only segments older than this time (default: "
                         "all sealed segments)")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "chaos",
        help="run a fault-injection scenario, report SLO impact",
        description="Run a named chaos scenario against a quickfleet and "
                    "compare coverage/promotion-rate SLO against a "
                    "fault-free baseline of the same seed. "
                    "See docs/fault_injection.md for the scenario "
                    "catalogue.",
    )
    _add_fleet_arguments(p)
    from repro.faults import SCENARIO_NAMES

    p.add_argument("--scenario", choices=SCENARIO_NAMES, default="mixed",
                   help="named fault scenario (default: mixed — crash + "
                        "sink outage + incompressible storm)")
    p.add_argument("--chaos-seed", type=int, default=0,
                   help="root seed for the fault schedule")
    p.add_argument("--workers", type=int, default=None,
                   help="run under the parallel engine with this many "
                        "workers (default: serial)")
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "canary",
        help="canary a policy through the staged rollout ladder",
        description="Deploy a cold-memory policy through the paper's "
                    "qualification/canary/production ladder on a live "
                    "fleet, watching the SLI windows each soak; roll "
                    "back to each cluster's prior policy on an SLO "
                    "breach or insufficient telemetry. "
                    "See docs/autotuning.md.",
    )
    _add_fleet_arguments(p)
    p.add_argument("--policy", choices=("paper", "fixed", "thermostat"),
                   default="paper",
                   help="what to canary (default: the paper policy)")
    p.add_argument("--percentile-k", type=float, default=98.0,
                   help="paper policy K (percentile of best thresholds)")
    p.add_argument("--threshold", type=float, default=3600.0,
                   help="fixed policy cold-age threshold in seconds")
    p.add_argument("--warmup-seconds", type=int, default=600,
                   help="policy warm-up S in seconds")
    p.add_argument("--soak-minutes", type=float, default=10.0,
                   help="soak length per stage")
    p.add_argument("--warmup-minutes", type=float, default=30.0,
                   help="fleet warm-up before the ladder starts")
    p.add_argument("--slo-limit", type=float, default=0.2,
                   help="max acceptable p98 normalized promotion rate")
    p.add_argument("--min-coverage", type=int, default=10,
                   help="fail a stage closed below this many slice "
                        "SLI samples")
    p.add_argument("--scenario", choices=SCENARIO_NAMES, default=None,
                   help="optionally run the ladder under this chaos "
                        "scenario")
    p.add_argument("--chaos-seed", type=int, default=0,
                   help="root seed for the fault schedule")
    p.add_argument("--workers", type=int, default=None,
                   help="soak through the parallel engine with this many "
                        "workers (default: serial)")
    p.add_argument("--smoke", action="store_true",
                   help="run the CI smoke instead (breach rollback, "
                        "serial==parallel decisions, fail-closed gate)")
    p.set_defaults(func=cmd_canary)

    p = sub.add_parser(
        "ci",
        help="tier-1 tests with REPRO_CHECKS=1, then the lint gate",
        description="The one-command CI gate: run the tier-1 pytest suite "
                    "with runtime invariants enabled (REPRO_CHECKS=1), "
                    "then repro lint --ci. Exit 0 only when both pass.",
    )
    p.add_argument("--skip-tests", action="store_true",
                   help="run only the lint half of the gate")
    p.add_argument("--skip-flow", action="store_true",
                   help="skip the whole-program flow passes "
                        "(FLOW001/FLOW002/CON001/CON002); local per-file "
                        "rules still run")
    p.add_argument("--skip-bench", action="store_true",
                   help="skip the quick equivalence smokes (model bench, "
                        "trace bench, columnar kernel)")
    p.add_argument("pytest_args", nargs=argparse.REMAINDER,
                   help="extra arguments forwarded to pytest verbatim "
                        "(put them after any ci flags)")
    p.set_defaults(func=cmd_ci)

    p = sub.add_parser(
        "lint",
        help="run the determinism/invariant static-analysis suite",
        description="Run repro.checks (reprolint) over the source tree. "
                    "Exit 0 when clean, 1 on findings, 2 on usage errors. "
                    "See docs/static_analysis.md for the rule catalogue.",
    )
    p.add_argument("paths", nargs="*",
                   help="files/directories to lint "
                        "(default: the installed repro package)")
    p.add_argument("--format", choices=("text", "json", "sarif"),
                   default="text")
    p.add_argument("--rule", action="append", metavar="RULE",
                   help="run only this rule id (repeatable)")
    p.add_argument("--flow", action="store_true",
                   help="also run the whole-program flow passes "
                        "(FLOW001 taint, FLOW002 fork closure, "
                        "CON001/CON002 column contracts); the call graph "
                        "is cached under .repro-cache/")
    p.add_argument("--baseline", default=None, metavar="FILE",
                   help="report only findings absent from this baseline")
    p.add_argument("--update-baseline", default=None, metavar="FILE",
                   help="snapshot current findings to FILE and exit clean")
    p.add_argument("--ci", action="store_true",
                   help="also run ruff and mypy when installed "
                        "(skipped gracefully when absent)")
    p.set_defaults(func=cmd_lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.func(args)


def metrics_entry(argv: Optional[List[str]] = None) -> int:
    """Console-script entry point: ``repro-metrics`` == ``repro metrics``."""
    if argv is None:
        argv = sys.argv[1:]
    return main(["metrics", *argv])


if __name__ == "__main__":
    sys.exit(main())
