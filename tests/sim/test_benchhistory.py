"""Benchmark-history store, noise-band diff gate, and bench CLI.

The load-bearing guarantees under test:

* a :class:`BenchRecord` round-trips through its sealed document, and
  any tampering (checksum, schema marker, field types) surfaces as
  :exc:`CorruptResultError`, never as a silently different record;
* the JSONL store appends atomically, loads in order, and names the
  offending line on corruption;
* every registered bench suite runs, and each one's own gate raises
  when its correctness property or bound fails;
* the diff gate flags a 10% slowdown on a quiet baseline (the issue's
  acceptance bar), tolerates bit-identical reruns, never gates ``info``
  metrics or metrics without a baseline, and credits improvements;
* the ``repro-sim bench`` subcommands wire all of it together.
"""

import json

import pytest

from repro.cli import main
from repro.errors import ConfigurationError, CorruptResultError
from repro.sim.benchhistory import (
    BENCH_SUITES,
    BenchHistory,
    BenchRecord,
    DiffPolicy,
    diff_history,
    host_fingerprint,
    mad,
    median,
    record_from_dict,
    record_to_dict,
    render_diff,
    run_bench_suites,
    sparkline,
)


def _rec(value, commit, metric="wall_s", direction="lower", suite="s",
         **kwargs):
    return BenchRecord(
        suite=suite, metric=metric, value=value, unit="s",
        direction=direction, commit=commit, host="h", **kwargs
    )


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------
class TestBenchRecord:
    def test_round_trip(self):
        record = _rec(1.25, "abc", repetitions=5)
        payload = json.loads(json.dumps(record_to_dict(record)))
        assert record_from_dict(payload) == record

    def test_document_is_sealed(self):
        doc = record_to_dict(_rec(1.0, "abc"))
        doc["value"] = 0.5
        with pytest.raises(CorruptResultError, match="checksum"):
            record_from_dict(doc)

    def test_schema_marker_is_enforced(self):
        doc = record_to_dict(_rec(1.0, "abc"))
        doc["schema"] = 99
        with pytest.raises(CorruptResultError, match="schema"):
            record_from_dict(doc)

    def test_non_dict_payload_rejected(self):
        with pytest.raises(CorruptResultError, match="expected object"):
            record_from_dict(["not", "a", "record"])

    def test_boolean_value_rejected(self):
        doc = record_to_dict(_rec(1.0, "abc"))
        doc["value"] = True
        doc["checksum"] = ""
        from repro.sim.campaign import payload_checksum
        doc["checksum"] = payload_checksum(
            {k: v for k, v in doc.items() if k != "checksum"}
        )
        with pytest.raises(CorruptResultError, match="not a number"):
            record_from_dict(doc)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BenchRecord(suite="", metric="m", value=1.0)
        with pytest.raises(ConfigurationError):
            BenchRecord(suite="s", metric="m", value=1.0,
                        direction="sideways")
        with pytest.raises(ConfigurationError):
            BenchRecord(suite="s", metric="m", value=1.0, repetitions=0)

    def test_host_fingerprint_is_stable(self):
        assert host_fingerprint() == host_fingerprint()
        assert "py" in host_fingerprint()

    def test_commit_env_override(self, monkeypatch):
        from repro.sim.benchhistory import current_commit

        monkeypatch.setenv("REPRO_BENCH_COMMIT", "deadbeef")
        assert current_commit() == "deadbeef"


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class TestBenchHistory:
    def test_append_and_load_in_order(self, tmp_path):
        history = BenchHistory(tmp_path / "hist.jsonl")
        assert history.load() == []
        history.append([_rec(1.0, "a"), _rec(2.0, "a", metric="other")])
        history.append([_rec(1.1, "b")])
        records = history.load()
        assert [r.value for r in records] == [1.0, 2.0, 1.1]
        assert [r.commit for r in records] == ["a", "a", "b"]

    def test_empty_append_writes_nothing(self, tmp_path):
        history = BenchHistory(tmp_path / "hist.jsonl")
        assert history.append([]) == 0
        assert not history.path.exists()

    def test_series_groups_per_metric(self, tmp_path):
        history = BenchHistory(tmp_path / "hist.jsonl")
        history.append([_rec(1.0, "a"), _rec(2.0, "a", metric="other"),
                        _rec(1.2, "b")])
        series = history.series()
        assert [r.value for r in series[("s", "wall_s")]] == [1.0, 1.2]
        assert [r.value for r in series[("s", "other")]] == [2.0]

    def test_corrupt_line_is_named(self, tmp_path):
        history = BenchHistory(tmp_path / "hist.jsonl")
        history.append([_rec(1.0, "a")])
        with open(history.path, "a", encoding="utf-8") as handle:
            handle.write("{torn…\n")
        with pytest.raises(CorruptResultError, match=r"hist\.jsonl:2"):
            history.load()

    def test_tampered_line_is_named(self, tmp_path):
        history = BenchHistory(tmp_path / "hist.jsonl")
        history.append([_rec(1.0, "a"), _rec(2.0, "b")])
        lines = history.path.read_text().splitlines()
        lines[1] = lines[1].replace("2.0", "3.0")
        history.path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorruptResultError, match=r"hist\.jsonl:2"):
            history.load()

    def test_append_refuses_to_bury_corruption(self, tmp_path):
        history = BenchHistory(tmp_path / "hist.jsonl")
        history.path.write_text("not json\n")
        with pytest.raises(CorruptResultError):
            history.append([_rec(1.0, "a")])
        assert history.path.read_text() == "not json\n"

    def test_writes_go_through_injected_writer(self, tmp_path):
        calls = []

        def spy(path, text):
            calls.append(path)
            path.write_text(text, encoding="utf-8")

        history = BenchHistory(tmp_path / "hist.jsonl", writer=spy)
        history.append([_rec(1.0, "a")])
        assert calls == [history.path]


# ----------------------------------------------------------------------
# Noise-band math and the gate
# ----------------------------------------------------------------------
class TestNoiseBand:
    def test_median_and_mad(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([1.0, 2.0, 3.0, 4.0]) == 2.5
        assert mad([1.0, 1.0, 1.0]) == 0.0
        assert mad([1.0, 2.0, 3.0]) == 1.0
        with pytest.raises(ConfigurationError):
            median([])

    def test_mad_resists_one_outlier(self):
        quiet = [1.0, 1.01, 0.99, 1.0]
        assert mad(quiet + [10.0]) == pytest.approx(0.01, abs=1e-9)

    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            DiffPolicy(mad_scale=0.0)
        with pytest.raises(ConfigurationError):
            DiffPolicy(min_baseline=0)

    def test_tolerance_floors(self):
        policy = DiffPolicy(mad_scale=4.0, rel_floor=0.05)
        # identical baseline: MAD is zero, the relative floor holds
        assert policy.tolerance([1.0, 1.0, 1.0]) == pytest.approx(0.05)
        # zero median: the absolute floor holds
        assert policy.tolerance([0.0, 0.0]) == pytest.approx(1e-9)


class TestDiffHistory:
    def test_ten_percent_slowdown_is_a_regression(self):
        records = [_rec(1.0, c) for c in ("a", "b", "c")]
        records.append(_rec(1.10, "cand"))
        (delta,) = diff_history(records, commit="cand")
        assert delta.status == "regression"
        assert delta.baseline_n == 3

    def test_ten_percent_throughput_drop_is_a_regression(self):
        records = [
            _rec(100.0, c, metric="refs_per_sec", direction="higher")
            for c in ("a", "b", "c")
        ]
        records.append(
            _rec(90.0, "cand", metric="refs_per_sec", direction="higher")
        )
        (delta,) = diff_history(records, commit="cand")
        assert delta.status == "regression"

    def test_bit_identical_rerun_passes(self):
        records = [_rec(1.0, "a"), _rec(1.0, "cand")]
        (delta,) = diff_history(records, commit="cand")
        assert delta.status == "ok"

    def test_improvement_is_credited(self):
        records = [_rec(1.0, c) for c in ("a", "b", "c")]
        records.append(_rec(0.5, "cand"))
        (delta,) = diff_history(records, commit="cand")
        assert delta.status == "improved"

    def test_within_band_jitter_is_ok(self):
        records = [_rec(1.0, c) for c in ("a", "b", "c")]
        records.append(_rec(1.04, "cand"))
        (delta,) = diff_history(records, commit="cand")
        assert delta.status == "ok"

    def test_noisy_baseline_widens_the_band(self):
        # Baseline MAD 0.1 → tolerance 0.4; a 30% move stays ok where a
        # quiet baseline would have flagged it.
        records = [_rec(v, c) for v, c in
                   zip([0.9, 1.0, 1.1, 0.85, 1.15], "abcde")]
        records.append(_rec(1.3, "cand"))
        (delta,) = diff_history(records, commit="cand")
        assert delta.status == "ok"

    def test_info_metrics_never_gate(self):
        records = [
            _rec(1.0, "a", metric="jobs", direction="info"),
            _rec(99.0, "cand", metric="jobs", direction="info"),
        ]
        (delta,) = diff_history(records, commit="cand")
        assert delta.status == "info"

    def test_no_baseline_reports_new(self):
        (delta,) = diff_history([_rec(1.0, "cand")], commit="cand")
        assert delta.status == "new"

    def test_min_baseline_defers_gating(self):
        records = [_rec(1.0, "a"), _rec(2.0, "cand")]
        (delta,) = diff_history(
            records, commit="cand", policy=DiffPolicy(min_baseline=3)
        )
        assert delta.status == "new"

    def test_default_commit_is_the_last_records(self):
        records = [_rec(1.0, "a"), _rec(1.10, "cand")]
        (delta,) = diff_history(records)
        assert delta.status == "regression"

    def test_candidate_absent_metric_is_skipped(self):
        records = [_rec(1.0, "a"), _rec(1.0, "a", metric="other"),
                   _rec(1.0, "cand")]
        deltas = diff_history(records, commit="cand")
        assert [d.metric for d in deltas] == ["wall_s"]

    def test_latest_candidate_record_wins(self):
        records = [_rec(1.0, "a"), _rec(5.0, "cand"), _rec(1.0, "cand")]
        (delta,) = diff_history(records, commit="cand")
        assert delta.status == "ok"

    def test_render_orders_regressions_first(self):
        records = [_rec(1.0, "a"), _rec(1.5, "cand"),
                   _rec(1.0, "a", metric="ok_s"),
                   _rec(1.0, "cand", metric="ok_s")]
        text = render_diff(diff_history(records, commit="cand"), "cand")
        assert text.splitlines()[0].startswith("bench diff @ cand")
        assert "1 regression" in text
        assert text.splitlines()[1].lstrip().startswith("regression")


# ----------------------------------------------------------------------
# Local suites
# ----------------------------------------------------------------------
class TestRunBenchSuites:
    def test_pass_route_suite_medians(self):
        # Long enough that the suite's own speedup bounds hold on a
        # loaded machine: on a 2-core x86_64 VM with one core kept busy,
        # 14 runs at 20 000 references read at least 14.1x on the RANDOM
        # grid (8x bound) and 17.8x on the LRU grid (12x bound); at
        # 10 000 the RANDOM grid dipped to 8.9x.
        records, noise = run_bench_suites(
            ["pass_route"], repeat=3, length=20_000,
            commit="c", host="h",
        )
        by_metric = {r.metric: r for r in records}
        assert set(by_metric) == {
            f"{grid}_{metric}"
            for grid in ("lru", "random", "columnar")
            for metric in ("s", "speedup")
        }
        assert by_metric["lru_s"].direction == "lower"
        assert by_metric["columnar_speedup"].direction == "higher"
        assert by_metric["random_s"].value > 0
        assert by_metric["random_s"].repetitions == 3
        assert noise[("pass_route", "lru_s")] >= 0.0

    def test_passcache_route_suite_raises_on_a_warm_miss(self, monkeypatch):
        from repro.sim.passcache import PassCache

        real_get = PassCache.get
        calls = []

        def forgetful_get(self, config, trace, seed=0):
            calls.append(config)
            if len(calls) == 9:  # the warm side's first lookup
                self.counters.misses += 1
                return None
            return real_get(self, config, trace, seed)

        monkeypatch.setattr(PassCache, "get", forgetful_get)
        with pytest.raises(CorruptResultError, match="passcache_route bench"):
            run_bench_suites(["passcache_route"], repeat=1, length=1_000)

    def test_telemetry_suite_raises_on_a_non_conserving_report(
        self, monkeypatch
    ):
        import dataclasses

        from repro.sim import telemetry

        real = telemetry.build_run_report

        def unconserved(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), conserved=False)

        # The sweep's workers are forked, so they inherit the patch.
        monkeypatch.setattr(telemetry, "build_run_report", unconserved)
        with pytest.raises(CorruptResultError, match="conservation"):
            run_bench_suites(["telemetry"], repeat=1, length=2_000)

    def test_reprolint_suite_raises_on_a_violation(
        self, monkeypatch, tmp_path
    ):
        import repro.lint

        dirty = tmp_path / "src" / "repro" / "sim" / "engine.py"
        dirty.parent.mkdir(parents=True)
        dirty.write_text("import time\n\n\ndef _t():\n"
                         "    return time.time()\n")
        real = repro.lint.lint_paths

        def lint_the_dirty_tree(paths, **kwargs):
            return real([tmp_path / "src"], root=tmp_path)

        monkeypatch.setattr(repro.lint, "lint_paths", lint_the_dirty_tree)
        with pytest.raises(CorruptResultError, match="REPRO001"):
            run_bench_suites(["reprolint"], repeat=1, length=1_000)

    def test_reprolint_suite_builds_the_graph_on_every_run(
        self, monkeypatch
    ):
        from repro.lint import projectgraph

        real = projectgraph._build
        builds = []

        def counted(*args, **kwargs):
            builds.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(projectgraph, "_build", counted)
        run_bench_suites(["reprolint"], repeat=2, length=1_000)
        assert len(builds) == 2

    def test_replay_kernel_suite_raises_on_a_diverging_outcome(
        self, monkeypatch
    ):
        import dataclasses

        from repro.sim import fastpath

        real = fastpath.replay

        def off_by_one_write(*args, **kwargs):
            outcome = real(*args, **kwargs)
            return dataclasses.replace(
                outcome, memory_writes=outcome.memory_writes + 1
            )

        monkeypatch.setattr(fastpath, "replay", off_by_one_write)
        with pytest.raises(CorruptResultError, match="diverged"):
            run_bench_suites(["replay_kernel"], repeat=1, length=2_000)

    def test_all_registered_suites_run(self):
        records, _ = run_bench_suites(
            sorted(BENCH_SUITES), repeat=1, length=10_000
        )
        assert {r.suite for r in records} == set(BENCH_SUITES)
        assert all(r.value >= 0 for r in records)

    def test_unknown_suite_and_bad_repeat(self):
        with pytest.raises(ConfigurationError, match="unknown bench"):
            run_bench_suites(["nope"], repeat=1)
        with pytest.raises(ConfigurationError, match="repeat"):
            run_bench_suites(["pass_route"], repeat=0)


# ----------------------------------------------------------------------
# Trend sparklines
# ----------------------------------------------------------------------
class TestSparkline:
    def test_rising_series_spans_lowest_to_highest(self):
        line = sparkline([1.0, 2.0, 3.0, 4.0])
        assert len(line) == 4
        assert line[0] == "▁"
        assert line[-1] == "█"
        assert line == "".join(sorted(line))  # monotone series

    def test_flat_series_renders_at_the_floor(self):
        # Bit-identical reruns: everything at the lowest level, so any
        # later movement stands out.
        assert sparkline([2.5, 2.5, 2.5]) == "▁▁▁"

    def test_spike_is_the_only_peak(self):
        line = sparkline([1.0, 1.0, 10.0, 1.0])
        assert line == "▁▁█▁"

    def test_width_keeps_only_the_newest_values(self):
        line = sparkline([100.0, 1.0, 2.0, 3.0], width=3)
        # The old value 100 is dropped, so the tail rescales.
        assert line == "▁▅█"

    def test_empty_series_and_bad_width(self):
        assert sparkline([]) == ""
        with pytest.raises(ConfigurationError, match="width"):
            sparkline([1.0], width=0)


# ----------------------------------------------------------------------
# CLI end-to-end
# ----------------------------------------------------------------------
class TestBenchCli:
    def _append(self, history, walls):
        """One wall-time record per (commit, value), from this host."""
        BenchHistory(history).append([
            BenchRecord(
                suite="telemetry", metric="total_wall_s", value=wall,
                unit="s", direction="lower", commit=commit,
                host=host_fingerprint(),
            )
            for commit, wall in walls
        ])

    def test_record_then_diff_gates(self, tmp_path, capsys):
        history = tmp_path / "hist.jsonl"
        self._append(history, (("a", 1.0), ("b", 1.0), ("c", 1.0)))
        self._append(history, (("cand", 1.10),))
        code = main([
            "bench", "diff", "--history", str(history),
            "--commit", "cand",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "regression" in out

    def test_identical_rerun_passes_diff(self, tmp_path, capsys):
        history = tmp_path / "hist.jsonl"
        self._append(history, (("a", 1.0), ("cand", 1.0)))
        assert main([
            "bench", "diff", "--history", str(history),
            "--commit", "cand",
        ]) == 0
        assert "1 ok" in capsys.readouterr().out

    def test_run_appends_and_history_lists(self, tmp_path, capsys):
        history = tmp_path / "hist.jsonl"
        assert main([
            "bench", "run", "--suites", "passcache_route",
            "--repeat", "1", "--length", "1000",
            "--history", str(history), "--commit", "abc",
        ]) == 0
        out = capsys.readouterr().out
        assert "passcache_route.cold_s" in out
        assert "appended" in out
        assert main([
            "bench", "history", "--history", str(history),
        ]) == 0
        out = capsys.readouterr().out
        assert "passcache_route.cold_s" in out
        assert "abc" in out

    def test_history_shows_trend_sparkline(self, tmp_path, capsys):
        history = BenchHistory(tmp_path / "hist.jsonl")
        history.append([
            _rec(value, commit) for value, commit in
            ((1.0, "a"), (2.0, "b"), (4.0, "c"), (3.0, "d"))
        ])
        assert main([
            "bench", "history", "--history", str(history.path),
        ]) == 0
        out = capsys.readouterr().out
        # Fixed fixture, fixed rendering: min..max scale over 8 levels.
        assert "▁▃█▆" in out
        assert "s.wall_s (s, lower)" in out

    def test_history_sparkline_respects_last(self, tmp_path, capsys):
        history = BenchHistory(tmp_path / "hist.jsonl")
        history.append([
            _rec(value, commit) for value, commit in
            ((100.0, "a"), (1.0, "b"), (2.0, "c"), (3.0, "d"))
        ])
        assert main([
            "bench", "history", "--history", str(history.path),
            "--last", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "▁▅█" in out
        assert "100" not in out  # the truncated record is not listed

    def test_run_reports_a_failed_suite_gate(self, tmp_path, capsys,
                                             monkeypatch):
        def broken(length, seed):
            raise CorruptResultError("broken bench: 1.0x under its 2x bound")

        monkeypatch.setitem(BENCH_SUITES, "broken", broken)
        history = tmp_path / "hist.jsonl"
        assert main([
            "bench", "run", "--suites", "broken", "--repeat", "1",
            "--history", str(history),
        ]) == 1
        assert capsys.readouterr().err == (
            "repro-sim bench run: error: broken bench: 1.0x under its "
            "2x bound\n"
        )
        assert not history.exists()

    def test_run_rejects_a_torn_history_before_any_suite(
        self, tmp_path, capsys, monkeypatch
    ):
        ran = []

        def counted(length, seed):
            ran.append(length)
            return {}

        monkeypatch.setitem(BENCH_SUITES, "counted", counted)
        history = tmp_path / "hist.jsonl"
        history.write_text("torn\n")
        assert main([
            "bench", "run", "--suites", "counted", "--repeat", "1",
            "--history", str(history),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-sim bench run: error: hist.jsonl:1: ")
        assert "malformed JSON" in err
        assert err.count("\n") == 1
        assert ran == []
        assert history.read_text() == "torn\n"

    def test_run_unknown_suite_errors(self, tmp_path, capsys):
        assert main(["bench", "run", "--suites", "nope"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_run_refuses_the_retired_sampling_suite(self, capsys):
        assert main(["bench", "run", "--suites", "sampling"]) == 2
        err = capsys.readouterr().err
        assert "unknown bench suite(s) sampling" in err
        assert f"available: {', '.join(sorted(BENCH_SUITES))}" in err

    #: The metrics of the retired ``sampling`` suite, as its records in
    #: histories written before its removal carry them.
    _RETIRED_SAMPLING = (
        ("refs_reduction", "ratio", "higher", 5.6),
        ("cold_exact_s", "s", "lower", 0.9),
        ("cold_sampled_s", "s", "lower", 0.2),
        ("speedup", "ratio", "higher", 4.5),
        ("abs_miss_error", "", "lower", 0.011),
        ("ci_half_width", "", "lower", 0.0012),
    )

    def test_history_with_retired_suite_records_gates_nothing_retired(
        self, tmp_path, capsys
    ):
        # Three commits wrote the retired suite beside a live one; the
        # candidate commit, run after the removal, wrote the live one.
        history = tmp_path / "hist.jsonl"
        BenchHistory(history).append([
            BenchRecord(
                suite="sampling", metric=metric, value=value, unit=unit,
                direction=direction, commit=commit,
                host=host_fingerprint(), repetitions=5,
            )
            for commit in ("a", "b", "c")
            for metric, unit, direction, value in self._RETIRED_SAMPLING
        ])
        self._append(history, (("a", 1.0), ("b", 1.0), ("c", 1.0)))
        self._append(history, (("cand", 1.02),))
        assert main([
            "bench", "diff", "--history", str(history),
            "--commit", "cand", "--min-baseline", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert out.startswith("bench diff @ cand: 1 ok\n")
        assert "sampling." not in out
        assert main([
            "bench", "history", "--history", str(history), "--last", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "telemetry.total_wall_s" in out
        assert "sampling.refs_reduction" in out

    def test_diff_empty_history_is_clean(self, tmp_path, capsys):
        assert main([
            "bench", "diff", "--history", str(tmp_path / "none.jsonl"),
        ]) == 0
        assert "no bench history" in capsys.readouterr().out

    def test_diff_corrupt_history_errors(self, tmp_path, capsys):
        history = tmp_path / "hist.jsonl"
        history.write_text("torn\n")
        assert main([
            "bench", "diff", "--history", str(history),
        ]) == 2
        assert "error" in capsys.readouterr().err

    def test_diff_ignores_other_hosts_by_default(self, tmp_path, capsys):
        # A slow record from a different machine is noise, not baseline:
        # without --any-host the diff sees no comparable records at all.
        history = BenchHistory(tmp_path / "hist.jsonl")
        history.append([
            _rec(1.0, "a"), _rec(1.0, "b"), _rec(1.0, "c"),
            _rec(1.4, "cand"),
        ])
        assert main([
            "bench", "diff", "--history", str(history.path),
            "--commit", "cand",
        ]) == 0
        out = capsys.readouterr().out
        assert "no bench history from host" in out
        assert "--any-host" in out

    def test_diff_any_host_widens_to_full_history(self, tmp_path, capsys):
        history = BenchHistory(tmp_path / "hist.jsonl")
        history.append([
            _rec(1.0, "a"), _rec(1.0, "b"), _rec(1.0, "c"),
            _rec(1.4, "cand"),
        ])
        assert main([
            "bench", "diff", "--history", str(history.path),
            "--commit", "cand", "--any-host",
        ]) == 1
        assert "regression" in capsys.readouterr().out

    def test_diff_host_override_selects_baseline(self, tmp_path, capsys):
        # --host compares against the named machine's records; the
        # candidate commit defaults to that filtered history's last.
        history = BenchHistory(tmp_path / "hist.jsonl")
        history.append([
            _rec(1.0, "a"), _rec(1.0, "b"), _rec(1.0, "c"),
            _rec(1.4, "cand"),
        ])
        assert main([
            "bench", "diff", "--history", str(history.path),
            "--host", "h",
        ]) == 1
        assert "regression" in capsys.readouterr().out

    def test_diff_current_host_records_still_gate(self, tmp_path, capsys):
        # Records written by this machine (bench run's default host)
        # pass through the default filter unchanged.
        history = tmp_path / "hist.jsonl"
        self._append(history, (("a", 1.0), ("b", 1.0), ("c", 1.0)))
        self._append(history, (("cand", 1.10),))
        assert main([
            "bench", "diff", "--history", str(history),
            "--commit", "cand",
        ]) == 1
        assert "regression" in capsys.readouterr().out
