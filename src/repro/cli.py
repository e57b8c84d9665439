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
* ``trace`` — inspect and convert columnar trace stores: ``stats``,
  ``window``, ``export``/``import`` (jsonl <-> columnar), ``compact``.
* ``chaos`` — run a named fault-injection scenario and report the SLO
  impact against a fault-free baseline of the same fleet and seed.
* ``canary`` — canary a policy through the §5.3 rollout ladder on a live
  fleet (optionally under chaos) and report the per-stage verdicts.
* ``ci`` — the one-command gate: tier-1 tests with runtime invariants on
  (``REPRO_CHECKS=1``) plus the ``repro lint`` static-analysis suite.
  The equivalence gates (scalar ≡ vectorized replay, object ≡ columnar
  store, reference ≡ columnar pool, serial ≡ parallel fleet) are tier-1
  tests, so they run there with the invariants on.

Throughput is measured by ``perfbench/run.py``, the one benchmark.
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
    exit_code = cmd_lint(lint_args)
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


class _Parser(argparse.ArgumentParser):
    """An argument parser that can forward arguments verbatim.

    A sub-command parser whose ``forward`` names a destination parses
    only its own leading flags; everything from the first other argument
    on lands in that destination untouched, options included
    (``repro ci -p no:cacheprovider``).
    """

    forward: Optional[str] = None

    def parse_known_args(self, args=None, namespace=None):
        if self.forward is None:
            return super().parse_known_args(args, namespace)
        args = list(args or ())
        own = 0
        while own < len(args) and args[own] in self._option_string_actions:
            own += 1
        namespace, extras = super().parse_known_args(args[:own], namespace)
        setattr(namespace, self.forward, args[own:])
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Software-Defined Far Memory reproduction (ASPLOS'19)",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

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
        usage="repro ci [-h] [--skip-tests] [--skip-flow] [pytest args ...]",
        description="The one-command CI gate: run the tier-1 pytest suite "
                    "with runtime invariants enabled (REPRO_CHECKS=1), "
                    "then repro lint --ci. Exit 0 only when both pass. "
                    "Every argument after the ci flags is forwarded to "
                    "pytest verbatim, options included.",
    )
    p.add_argument("--skip-tests", action="store_true",
                   help="run only the lint half of the gate")
    p.add_argument("--skip-flow", action="store_true",
                   help="skip the whole-program flow passes "
                        "(FLOW001/FLOW002/CON001/CON002); local per-file "
                        "rules still run")
    p.forward = "pytest_args"
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
