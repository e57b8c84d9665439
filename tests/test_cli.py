"""The command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_quickstart_defaults(self):
        args = build_parser().parse_args(["quickstart"])
        assert args.clusters == 2
        assert args.func.__name__ == "cmd_quickstart"

    def test_fleet_arguments_parsed(self):
        args = build_parser().parse_args(
            ["quickstart", "--clusters", "5", "--hours", "2.5", "--seed", "9"]
        )
        assert args.clusters == 5
        assert args.hours == 2.5
        assert args.seed == 9

    def test_autotune_iterations(self):
        args = build_parser().parse_args(["autotune", "--iterations", "3"])
        assert args.iterations == 3

    def test_figures_output(self):
        args = build_parser().parse_args(["figures", "--output", "/tmp/x"])
        assert args.output == "/tmp/x"

    def test_metrics_defaults(self):
        args = build_parser().parse_args(["metrics"])
        assert args.minutes == 60.0
        assert args.format == "table"
        assert args.output is None
        assert args.func.__name__ == "cmd_metrics"

    def test_metrics_rejects_unknown_format(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["metrics", "--format", "xml"])

    def test_chaos_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.scenario == "mixed"
        assert args.chaos_seed == 0
        assert args.workers is None
        assert args.func.__name__ == "cmd_chaos"

    def test_chaos_named_scenario_and_seed(self):
        args = build_parser().parse_args(
            ["chaos", "--scenario", "storm", "--chaos-seed", "7",
             "--workers", "2"]
        )
        assert args.scenario == "storm"
        assert args.chaos_seed == 7
        assert args.workers == 2

    def test_chaos_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "--scenario", "solar_flare"])

    def test_ci_defaults(self):
        args = build_parser().parse_args(["ci"])
        assert not args.skip_tests
        assert args.pytest_args == []
        assert args.func.__name__ == "cmd_ci"

    def test_ci_forwards_pytest_args(self):
        args = build_parser().parse_args(
            ["ci", "--skip-tests", "tests/test_cli.py", "-k", "parser"]
        )
        assert args.skip_tests
        assert args.pytest_args == ["tests/test_cli.py", "-k", "parser"]

    def test_ci_forwards_leading_pytest_options(self):
        args = build_parser().parse_args(["ci", "-p", "no:cacheprovider"])
        assert not args.skip_tests and not args.skip_flow
        assert args.pytest_args == ["-p", "no:cacheprovider"]
        args = build_parser().parse_args(
            ["ci", "--skip-flow", "--skip-tests", "-x", "--skip-tests"]
        )
        assert args.skip_flow and args.skip_tests
        # Past the ci flags everything is pytest's, even a ci flag.
        assert args.pytest_args == ["-x", "--skip-tests"]


class TestExecution:
    def test_quickstart_runs(self, capsys):
        code = main(
            ["quickstart", "--clusters", "1", "--machines", "1",
             "--jobs", "2", "--hours", "0.5", "--dram-gib", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "coverage" in out
        assert "DRAM TCO saving" in out

    def test_traces_writes_jsonl(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        code = main(
            ["traces", "--clusters", "1", "--machines", "1", "--jobs", "2",
             "--hours", "0.5", "--dram-gib", "2", "--output", str(out)]
        )
        assert code == 0
        assert out.exists()
        from repro.cluster.trace_db import TraceDatabase

        assert len(TraceDatabase.load_jsonl(out)) > 0

    def test_figures_writes_directory(self, tmp_path, capsys):
        code = main(
            ["figures", "--clusters", "1", "--machines", "2", "--jobs", "2",
             "--hours", "1", "--dram-gib", "2", "--output", str(tmp_path)]
        )
        assert code == 0
        written = {p.name for p in tmp_path.iterdir()}
        assert "fig1.txt" in written
        assert "fig3.txt" in written


METRICS_ARGS = ["metrics", "--clusters", "1", "--machines", "2",
                "--jobs", "2", "--minutes", "10", "--dram-gib", "2"]


class TestMetricsCommand:
    def test_table_report(self, capsys):
        code = main(METRICS_ARGS)
        assert code == 0
        out = capsys.readouterr().out
        assert "Fleet health" in out
        assert "compression ratio" in out
        assert "incompressible fraction" in out
        assert "promotion rate p98" in out
        assert "Profile by subsystem" in out
        assert "kstaled" in out

    def test_prom_exposition_parses(self, capsys):
        code = main(METRICS_ARGS + ["--format", "prom"])
        assert code == 0
        out = capsys.readouterr().out
        names = set()
        for line in out.splitlines():
            if not line or line.startswith("#"):
                continue
            name = line.split("{")[0].split(" ")[0]
            names.add(name)
            # Every sample line ends in a parseable float.
            float(line.rsplit(" ", 1)[1])
        for expected in (
            "repro_pages_scanned_total",
            "repro_pages_compressed_total",
            "repro_pages_promoted_total",
            "repro_fleet_incompressible_fraction",
            "repro_fleet_compression_ratio",
            "repro_fleet_promotion_rate_p98_pct_per_min",
            "repro_threshold_seconds_bucket",
            "repro_promotion_rate_pct_per_min_bucket",
            "repro_span_self_seconds",
        ):
            assert expected in names, expected

    def test_json_exposition_parses(self, capsys):
        import json

        code = main(METRICS_ARGS + ["--format", "json"])
        assert code == 0
        out = capsys.readouterr().out
        records = [json.loads(line) for line in out.splitlines() if line]
        names = {r["name"] for r in records}
        assert "repro_pages_scanned_total" in names
        assert "repro_fleet_coverage" in names
        histograms = [r for r in records if r["kind"] == "histogram"]
        assert histograms
        assert all(r["buckets"][-1]["le"] == "+Inf" for r in histograms)

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "metrics.prom"
        code = main(METRICS_ARGS + ["--format", "prom",
                                    "--output", str(out)])
        assert code == 0
        assert "# TYPE" in out.read_text()

    def test_metrics_entry_console_script(self, capsys):
        from repro.cli import metrics_entry

        code = metrics_entry(
            ["--clusters", "1", "--machines", "1", "--jobs", "2",
             "--minutes", "5", "--dram-gib", "2"]
        )
        assert code == 0
        assert "Fleet health" in capsys.readouterr().out


class TestChaosCommand:
    def test_reports_slo_impact_table(self, capsys):
        code = main(
            ["chaos", "--clusters", "1", "--machines", "2", "--jobs", "2",
             "--hours", "1", "--dram-gib", "2", "--scenario", "storm"]
        )
        # Exit code reflects the absolute SLO check; a 1-hour toy fleet
        # may violate it fault-free, so only the report is asserted.
        assert code in (0, 1)
        out = capsys.readouterr().out
        assert "SLO impact" in out
        assert "fault-free" in out
        assert "chaos (storm)" in out
        assert "promotion-rate SLO" in out


class TestCiCommand:
    def test_skip_tests_runs_only_lint(self, capsys):
        code = main(["ci", "--skip-tests"])
        assert code == 0
        out = capsys.readouterr().out
        assert "repro lint --ci" in out
        assert "ci: clean" in out
        assert "tier-1 tests" not in out
        # The equivalence gates are tier-1 tests: nothing runs after lint.
        assert "smoke" not in out


class TestTraceParser:
    def test_trace_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])

    def test_trace_subcommands_parsed(self):
        args = build_parser().parse_args(["trace", "stats", "store"])
        assert args.trace_command == "stats"
        assert args.store == "store"
        assert args.func.__name__ == "cmd_trace"
        args = build_parser().parse_args(
            ["trace", "import", "in.jsonl", "store", "--buffer-rows", "64"]
        )
        assert (args.input, args.store, args.buffer_rows) == (
            "in.jsonl", "store", 64
        )
        args = build_parser().parse_args(
            ["trace", "compact", "store", "--factor", "3", "--before", "900"]
        )
        assert (args.factor, args.before) == (3, 900)

    def test_compact_requires_factor(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "compact", "store"])


class TestTraceCommand:
    def _seed_jsonl(self, tmp_path):
        from tests.test_tracestore import make_entry
        from repro.cluster.trace_db import TraceDatabase

        db = TraceDatabase()
        for t in (0, 300, 600, 900):
            db.add(make_entry("a", t, seed=t))
        db.add(make_entry("b", 0, seed=99))
        path = tmp_path / "in.jsonl"
        db.save_jsonl(path)
        return path

    def test_import_stats_window_export_roundtrip(self, tmp_path, capsys):
        import json

        source = self._seed_jsonl(tmp_path)
        store = tmp_path / "store"
        assert main(
            ["trace", "import", str(source), str(store),
             "--buffer-rows", "2"]
        ) == 0
        assert "Imported 5 trace entries" in capsys.readouterr().out

        assert main(["trace", "stats", str(store)]) == 0
        out = capsys.readouterr().out
        assert "rows" in out and "5" in out

        assert main(["trace", "window", str(store)]) == 0
        assert "Per-window aggregates" in capsys.readouterr().out

        back = tmp_path / "back.jsonl"
        assert main(
            ["trace", "export", str(store), "--output", str(back)]
        ) == 0
        capsys.readouterr()

        def rows(path):
            key = lambda d: (d["job_id"], d["time"])
            return sorted(
                (json.loads(line) for line in path.open() if line.strip()),
                key=key,
            )

        assert rows(back) == rows(source)

    def test_compact_reduces_rows(self, tmp_path, capsys):
        source = self._seed_jsonl(tmp_path)
        store = tmp_path / "store"
        main(["trace", "import", str(source), str(store)])
        capsys.readouterr()
        assert main(
            ["trace", "compact", str(store), "--factor", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "merged away 2 rows" in out

    def test_stats_on_missing_store_fails(self, tmp_path, capsys):
        code = main(["trace", "stats", str(tmp_path / "ghost")])
        assert code == 2
        assert "not a trace store" in capsys.readouterr().err

    def test_stats_on_corrupt_manifest_fails(self, tmp_path, capsys):
        root = tmp_path / "store"
        root.mkdir()
        (root / "manifest.json").write_text("{broken", encoding="utf-8")
        code = main(["trace", "stats", str(root)])
        assert code == 2
        assert "unreadable manifest" in capsys.readouterr().err

    def test_import_bad_jsonl_fails_with_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"not": "a trace entry"}\n', encoding="utf-8")
        code = main(
            ["trace", "import", str(bad), str(tmp_path / "store")]
        )
        assert code == 2
        assert "bad.jsonl:1" in capsys.readouterr().err


class TestCanaryCli:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["canary"])
        assert args.policy == "paper"
        assert args.soak_minutes == 10.0
        assert args.slo_limit == 0.2
        assert args.min_coverage == 10
        assert args.scenario is None
        assert not args.smoke
        assert args.func.__name__ == "cmd_canary"

    def test_parser_policy_scenario_workers(self):
        args = build_parser().parse_args(
            ["canary", "--policy", "fixed", "--threshold", "120",
             "--warmup-seconds", "0", "--scenario", "storm",
             "--workers", "2", "--soak-minutes", "5"]
        )
        assert args.policy == "fixed"
        assert args.threshold == 120.0
        assert args.warmup_seconds == 0
        assert args.scenario == "storm"
        assert args.workers == 2

    def test_parser_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["canary", "--policy", "lru"])

    def test_smoke_prints_report_and_succeeds(self, capsys):
        assert main(["canary", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "Canary smoke" in out
        assert "rolled_back" in out
