"""CLI: argument parsing and end-to-end subcommands."""

import json

import pytest

from repro.cli import build_parser, main
from repro.sim.telemetry import REPORT_SCHEMA


class TestParser:
    def test_experiment_ids_listed_in_help(self):
        parser = build_parser()
        assert parser is not None

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("command", [["simulate"], ["advise", "16:40"]])
    def test_stack_pass_is_not_a_route_selector(self, command, capsys):
        """The organization picks the functional-pass route; only
        ``campaign run`` and ``enqueue`` keep ``--stack-pass``
        (precompute before any job runs)."""
        with pytest.raises(SystemExit) as exc:
            main(command + ["--stack-pass"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --stack-pass" in (
            capsys.readouterr().err
        )


    @pytest.mark.parametrize("command, extra", [
        ("run", ["--jobs", "0"]),
        ("run", ["--timeout", "0"]),
        ("run", ["--retries", "-1"]),
        ("run", ["--stack-pass", "--pass-cache", "pc", "--jobs", "0"]),
        ("drain", ["--jobs", "0"]),
        ("drain", ["--ttl", "0"]),
        ("worker", ["--heartbeat", "-1"]),
    ])
    def test_out_of_range_campaign_number_touches_nothing(
        self, capsys, tmp_path, monkeypatch, command, extra
    ):
        monkeypatch.chdir(tmp_path)
        sweep = ["--sizes-kb", "2", "--cycles-ns", "40", "--traces", "mu3",
                 "--length", "2000"] if command == "run" else []
        with pytest.raises(SystemExit) as exc:
            main(["campaign", command, "camp", *sweep, *extra])
        assert exc.value.code == 2
        assert "must be" in capsys.readouterr().err
        # No campaign directory, manifest or pass cache was created.
        assert list(tmp_path.iterdir()) == []


class TestSubcommands:
    def test_traces(self, capsys):
        assert main(["traces", "--length", "5000"]) == 0
        out = capsys.readouterr().out
        assert "mu3" in out and "rd2n7" in out

    def test_simulate_fastpath(self, capsys):
        assert main([
            "simulate", "--trace", "mu3", "--length", "8000",
            "--size-kb", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "read miss ratio" in out

    def test_simulate_engine_matches_fastpath(self, capsys):
        args = ["simulate", "--trace", "mu3", "--length", "8000",
                "--size-kb", "4"]
        main(args)
        fast_out = capsys.readouterr().out
        main(args + ["--engine"])
        engine_out = capsys.readouterr().out
        assert fast_out.split("cycles:")[1] == engine_out.split("cycles:")[1]

    @pytest.mark.parametrize("extra, needle", [
        (["--traces", "bogus"], "unknown trace"),
        (["--engine", "--pass-cache", "pc"], "engine"),
    ])
    def test_campaign_run_bad_sweep_is_usage_error(self, capsys, tmp_path,
                                                   extra, needle):
        directory = tmp_path / "camp"
        assert main(["campaign", "run", str(directory), "--length", "2000",
                     *extra]) == 2
        assert needle in capsys.readouterr().err
        assert not directory.exists()

    def test_experiment_table2(self, capsys):
        assert main(["experiment", "table2"]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "MISMATCH" not in out

    def test_experiment_with_reduced_settings(self, capsys):
        assert main([
            "experiment", "fig3_1", "--length", "10000",
            "--traces", "mu3,rd2n4",
        ]) == 0
        out = capsys.readouterr().out
        assert "TotalL1" in out

    def test_simulate_prints_warm_up_boundary(self, capsys):
        assert main([
            "simulate", "--trace", "mu3", "--length", "8000",
            "--size-kb", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "warm-up:" in out
        assert "statistics snapshot at cycle" in out

    def test_din_export_then_simulate(self, capsys, tmp_path):
        path = str(tmp_path / "t.din")
        assert main([
            "din", path, "--export", "mu3", "--length", "6000",
        ]) == 0
        capsys.readouterr()
        assert main([
            "din", path, "--size-kb", "4", "--warm-boundary", "1000",
        ]) == 0
        out = capsys.readouterr().out
        assert "read miss ratio" in out

    def test_din_routes_like_simulate(self, capsys, tmp_path, monkeypatch):
        """``din`` takes the organization's route (a 4-way RANDOM cache
        gets its per-organization pass, never the reference pass) and
        prints exactly what the reference ``functional_pass`` replays
        to."""
        import repro.sim.fastpath as fastpath
        from repro.sim.config import baseline_config
        from repro.trace.dinero import read_din
        from repro.units import KB

        path = str(tmp_path / "t.din")
        assert main([
            "din", path, "--export", "mu3", "--length", "6000",
        ]) == 0
        capsys.readouterr()

        def reference_pass(*args, **kwargs):
            raise AssertionError("din ran the reference pass")

        with monkeypatch.context() as patched:
            patched.setattr(fastpath, "functional_pass", reference_pass)
            assert main([
                "din", path, "--size-kb", "4", "--assoc", "4",
                "--warm-boundary", "1000",
            ]) == 0
        out = capsys.readouterr().out.splitlines()
        trace = read_din(path, name=path, warm_boundary=1000)
        config = baseline_config(cache_size_bytes=4 * KB, assoc=4)
        stats = fastpath.fast_simulate(
            config, trace, stream=fastpath.functional_pass(config, trace)
        )
        assert out[2:] == [
            f"read miss ratio: {stats.read_miss_ratio:.4f}",
            f"cycles/reference: {stats.cycles_per_reference:.3f}",
            f"execution time: {stats.execution_time_ns / 1e6:.3f} ms",
        ]
        assert out[1] == f"system: {config.describe()}"


class TestSimulateMetrics:
    ARGS = ["simulate", "--trace", "mu3", "--length", "8000",
            "--size-kb", "4"]

    def test_metrics_prints_attribution_and_host_line(self, capsys):
        assert main(self.ARGS + ["--metrics"]) == 0
        out = capsys.readouterr().out
        assert "l1_service" in out
        assert "conservation:" in out and "ok" in out
        assert "refs/s" in out

    def test_metrics_out_writes_conserved_run_report(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        assert main(self.ARGS + ["--metrics-out", str(path)]) == 0
        capsys.readouterr()
        payload = json.loads(path.read_text())
        assert payload["conserved"] is True
        assert payload["schema"] == REPORT_SCHEMA
        assert sum(payload["buckets"].values()) == payload["total_cycles"]
        assert payload["refs_per_sec"] > 0

    def test_trace_out_writes_chrome_trace(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        assert main(self.ARGS + ["--trace-out", str(path)]) == 0
        out = capsys.readouterr().out
        assert "event trace written to" in out
        doc = json.loads(path.read_text())
        slices = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert slices
        assert {e["name"] for e in slices} <= {
            "l1_service", "translation", "wb_match_stall", "wb_full_stall",
            "mem_busy", "mem_recovery", "fetch_latency", "writeback_overlap",
            "fetch_transfer", "lower_fetch",
        }

    def test_engine_metrics_match_fastpath(self, capsys, tmp_path):
        fast_path = tmp_path / "fast.json"
        engine_path = tmp_path / "engine.json"
        assert main(self.ARGS + ["--metrics-out", str(fast_path)]) == 0
        assert main(
            self.ARGS + ["--engine", "--metrics-out", str(engine_path)]
        ) == 0
        capsys.readouterr()
        fast = json.loads(fast_path.read_text())
        engine = json.loads(engine_path.read_text())
        assert fast["buckets"] == engine["buckets"]
        assert fast["buckets_measured"] == engine["buckets_measured"]
        assert fast["cycles"] == engine["cycles"]


class TestCampaignMetrics:
    def _run(self, tmp_path, capsys):
        directory = str(tmp_path / "camp")
        code = main([
            "campaign", "run", directory,
            "--traces", "mu3", "--length", "6000",
            "--sizes-kb", "4,16", "--cycles-ns", "40",
            "--metrics",
        ])
        capsys.readouterr()
        return directory, code

    def test_run_with_metrics_persists_reports(self, capsys, tmp_path):
        directory, code = self._run(tmp_path, capsys)
        assert code == 0
        metrics_dir = tmp_path / "camp" / "metrics"
        reports = sorted(
            p for p in metrics_dir.glob("*.json") if p.name != "summary.json"
        )
        assert len(reports) == 2
        for path in reports:
            assert json.loads(path.read_text())["conserved"] is True
        summary = json.loads((metrics_dir / "summary.json").read_text())
        assert summary["runs"] == 2
        assert summary["all_conserved"] is True

    def test_report_aggregates(self, capsys, tmp_path):
        directory, code = self._run(tmp_path, capsys)
        assert code == 0
        assert main(["campaign", "report", directory, "--slowest", "1"]) == 0
        out = capsys.readouterr().out
        assert "cycle conservation: ok" in out
        assert "slowest runs:" in out

    def test_report_without_metrics_fails(self, capsys, tmp_path):
        directory = str(tmp_path / "bare")
        assert main([
            "campaign", "run", directory,
            "--traces", "mu3", "--length", "6000",
            "--sizes-kb", "4", "--cycles-ns", "40",
        ]) == 0
        capsys.readouterr()
        assert main(["campaign", "report", directory]) == 1


class TestPassCacheCLI:
    def test_simulate_warm_cache_hits(self, capsys, tmp_path):
        args = [
            "simulate", "--trace", "mu3", "--length", "8000",
            "--size-kb", "4", "--pass-cache", str(tmp_path / "pc"),
        ]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "pass cache: 0 hit(s), 1 miss(es)" in cold
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "pass cache: 1 hit(s), 0 miss(es)" in warm
        # identical numbers either way
        assert cold.split("pass cache")[0] == warm.split("pass cache")[0]

    def test_simulate_metrics_carry_pass_cache_block(
        self, capsys, tmp_path
    ):
        out_path = tmp_path / "report.json"
        assert main([
            "simulate", "--trace", "mu3", "--length", "8000",
            "--size-kb", "4", "--pass-cache", str(tmp_path / "pc"),
            "--metrics-out", str(out_path),
        ]) == 0
        capsys.readouterr()
        payload = json.loads(out_path.read_text())
        assert "pass_cache" not in payload
        assert payload["metrics"]["counters"]["passcache.puts"] == 1

    def test_cache_stats_gc_verify(self, capsys, tmp_path):
        directory = str(tmp_path / "pc")
        assert main([
            "simulate", "--trace", "mu3", "--length", "8000",
            "--size-kb", "4", "--pass-cache", directory,
        ]) == 0
        capsys.readouterr()

        assert main(["cache", "stats", directory]) == 0
        assert "1 entry" in capsys.readouterr().out

        assert main(["cache", "verify", directory]) == 0
        assert "1 entry ok" in capsys.readouterr().out

        assert main(["cache", "gc", directory, "--max-entries", "0"]) == 0
        assert "evicted 1 entry" in capsys.readouterr().out

    def test_cache_gc_requires_a_budget(self, capsys, tmp_path):
        (tmp_path / "pc").mkdir()
        assert main(["cache", "gc", str(tmp_path / "pc")]) == 2

    def test_cache_verify_flags_corruption(self, capsys, tmp_path):
        directory = tmp_path / "pc"
        assert main([
            "simulate", "--trace", "mu3", "--length", "8000",
            "--size-kb", "4", "--pass-cache", str(directory),
        ]) == 0
        capsys.readouterr()
        entry = next(directory.glob("*.json"))
        entry.write_text("{ truncated", encoding="utf-8")

        assert main(["cache", "verify", str(directory)]) == 1
        assert "corrupt" in capsys.readouterr().out
        assert main(["cache", "verify", str(directory), "--repair"]) == 0
        assert main(["cache", "verify", str(directory)]) == 0
