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
        ``campaign run`` keeps ``--stack-pass`` (precompute in the
        parent)."""
        with pytest.raises(SystemExit) as exc:
            main(command + ["--stack-pass"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --stack-pass" in (
            capsys.readouterr().err
        )


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


class TestSamplingCLI:
    _SAMPLE_ARGS = [
        "simulate", "--trace", "mu3", "--length", "20000",
        "--size-kb", "4", "--sample", "interval=4000,k=3",
    ]

    def test_simulate_sample_prints_estimate_with_ci(self, capsys):
        assert main(self._SAMPLE_ARGS) == 0
        out = capsys.readouterr().out
        assert "read miss ratio (estimated):" in out
        assert "±" in out
        assert "refs simulated" in out
        # Estimates are labeled as such everywhere, never passed off
        # as exact results.
        assert "cycles (estimated):" in out

    def test_simulate_sample_is_deterministic(self, capsys):
        assert main(self._SAMPLE_ARGS) == 0
        first = capsys.readouterr().out
        assert main(self._SAMPLE_ARGS) == 0
        assert capsys.readouterr().out == first

    def test_simulate_sample_validate_reports_true_error(self, capsys):
        assert main(self._SAMPLE_ARGS + ["--sample-validate"]) == 0
        out = capsys.readouterr().out
        assert "validation: true read miss ratio" in out
        assert "abs error" in out

    def test_simulate_sample_rejects_engine(self, capsys):
        assert main(self._SAMPLE_ARGS + ["--engine"]) == 2
        assert "fastpath" in capsys.readouterr().err

    def test_simulate_sample_rejects_lower_levels(self, capsys, tmp_path):
        from repro.core.geometry import CacheGeometry
        from repro.sim.config import LowerLevelSpec, baseline_config
        from repro.sim.specfiles import save_spec
        from repro.units import KB

        spec = tmp_path / "two_level.json"
        save_spec(baseline_config(cache_size_bytes=4 * KB).with_levels((
            LowerLevelSpec(
                geometry=CacheGeometry(size_bytes=64 * KB, block_words=16)
            ),
        )), spec)
        assert main([
            "simulate", "--trace", "mu3", "--length", "20000",
            "--spec", str(spec), "--sample", "interval=4000,k=3",
        ]) == 2
        captured = capsys.readouterr()
        assert "--sample requires the fastpath" in captured.err
        assert "estimated" not in captured.out

    def test_simulate_sample_rejects_bad_spec(self, capsys):
        assert main([
            "simulate", "--trace", "mu3", "--length", "8000",
            "--size-kb", "4", "--sample", "nope=1",
        ]) == 2
        assert "unknown sampling spec key" in capsys.readouterr().err

    def test_simulate_sample_metrics_carry_sampling_block(
        self, capsys, tmp_path
    ):
        out_path = tmp_path / "report.json"
        assert main(self._SAMPLE_ARGS + [
            "--sample-validate", "--metrics-out", str(out_path),
        ]) == 0
        capsys.readouterr()
        payload = json.loads(out_path.read_text())
        assert payload["schema"] == REPORT_SCHEMA
        counters = payload["metrics"]["counters"]
        gauges = payload["metrics"]["gauges"]
        assert counters["sampling.estimates"] == 1
        assert counters["sampling.validations"] == 1
        assert counters["sampling.refs_sampled"] < counters["sampling.refs_full"]
        assert gauges["sampling.ci_half_width"] >= 0.0
        assert gauges["sampling.true_error_max"] >= 0.0

    def test_advise_sample_prints_summary_line(self, capsys):
        assert main([
            "advise", "16:40", "--length", "20000", "--traces", "mu3",
            "--sample", "interval=4000,k=3",
        ]) == 0
        out = capsys.readouterr().out
        assert "RAM-ladder recommendation" in out
        assert "sampling:" in out
        assert "refs simulated" in out

    def test_campaign_run_sample(self, capsys, tmp_path):
        assert main([
            "campaign", "run", str(tmp_path / "camp"),
            "--sizes-kb", "4,16", "--cycles-ns", "40",
            "--traces", "mu3", "--length", "20000",
            "--sample", "interval=4000,k=3",
        ]) == 0
        out = capsys.readouterr().out
        assert "sampling: interval=4000" in out
        assert "2 ok" in out

    @pytest.mark.parametrize("extra, needle", [
        (["--engine"], "fastpath"),
        (["--backend", "spool", "--sample", "nope=1"],
         "unknown sampling spec key"),
        (["--metrics"], "cycle ledger"),
    ])
    def test_campaign_run_sample_incompatibilities(
        self, capsys, tmp_path, extra, needle
    ):
        assert main([
            "campaign", "run", str(tmp_path / "camp"),
            "--sizes-kb", "4", "--cycles-ns", "40",
            "--traces", "mu3", "--length", "8000",
            "--sample", "1", *extra,
        ]) == 2
        assert needle in capsys.readouterr().err
        # Refused before any job ran: not even the directory exists.
        assert not (tmp_path / "camp").exists()

    _SAMPLED_SWEEP = [
        "--sizes-kb", "4,16", "--cycles-ns", "40", "--traces", "mu3",
        "--length", "20000", "--sample", "interval=4000,k=3",
        "--sample-validate",
    ]

    @staticmethod
    def _result_bytes(directory):
        from repro.sim.campaign import Campaign

        return {
            path.name: path.read_bytes()
            for path in Campaign(directory)._result_paths()
        }

    def test_campaign_run_sample_spool_matches_pool(self, capsys,
                                                    tmp_path):
        """A sampled sweep stores the same bytes on either backend, and
        the spool manifest `run` writes carries the sampling plan: a
        `drain` from that manifest alone stores them too."""
        pool, spool, drained, exact = (
            tmp_path / n for n in ("p", "s", "d", "e")
        )
        assert main(["campaign", "run", str(pool),
                     *self._SAMPLED_SWEEP]) == 0
        assert main(["campaign", "run", str(exact),
                     *self._SAMPLED_SWEEP[:-3]]) == 0
        assert main(["campaign", "run", str(spool), "--backend", "spool",
                     "--jobs", "2", *self._SAMPLED_SWEEP]) == 0
        (drained / "spool").mkdir(parents=True)
        (drained / "spool" / "spool.json").write_bytes(
            (spool / "spool" / "spool.json").read_bytes()
        )
        assert main(["campaign", "drain", str(drained)]) == 0
        assert "2 ok" in capsys.readouterr().out
        expected = self._result_bytes(pool)
        assert len(expected) == 2
        assert expected != self._result_bytes(exact)  # really sampled
        assert self._result_bytes(spool) == expected
        assert self._result_bytes(drained) == expected
