"""Benchmark-history store, noise-band diff gate, and bench CLI.

The load-bearing guarantees under test:

* a :class:`BenchRecord` round-trips through its sealed document, and
  any tampering (checksum, schema marker, field types) surfaces as
  :exc:`CorruptResultError`, never as a silently different record;
* the JSONL store appends atomically, loads in order, and names the
  offending line on corruption;
* all four raw CI ``BENCH_*.json`` shapes ingest into common records
  with curated gating directions, and unknown suites gate only on
  unmistakable naming conventions;
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
    ingest_raw_bench,
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
# Raw-document ingestion
# ----------------------------------------------------------------------
class TestIngestRawBench:
    def test_all_four_ci_shapes(self):
        raws = {
            "telemetry_smoke": {
                "bench": "telemetry_smoke", "python": "3.12",
                "runs": 8, "refs_per_sec_p10": 1e5,
                "refs_per_sec_p50": 2e5, "refs_per_sec_p90": 3e5,
                "total_wall_s": 2.0,
            },
            "passcache_warm_vs_cold": {
                "bench": "passcache_warm_vs_cold", "python": "3.12",
                "passes": 8, "cold_s": 4.0, "warm_s": 0.4,
                "speedup": 10.0, "hits": 8, "bytes_on_disk": 123456,
            },
            "replay_kernel_vs_scalar": {
                "bench": "replay_kernel_vs_scalar", "python": "3.12",
                "grid": [16, 8], "streams": 32, "replay_jobs": 4,
                "scalar_s": 9.0, "batch_serial_s": 3.0, "batch_s": 1.0,
                "speedup_serial": 3.0, "speedup": 9.0,
                "vectorized_events": 1000, "scalar_events": 100,
            },
            "workqueue_chaos": {
                "bench": "workqueue_chaos", "python": "3.12",
                "jobs": 24, "workers_killed": 2, "leases_reclaimed": 2,
                "max_lease_epoch": 2, "bit_identical": True,
            },
        }
        for name, raw in raws.items():
            records = ingest_raw_bench(raw, commit="c", host="h")
            assert records, name
            assert all(r.suite == name for r in records)
            by_metric = {r.metric: r for r in records}
            # meta keys and non-numerics never become records
            assert "bench" not in by_metric
            assert "python" not in by_metric
            assert "grid" not in by_metric
        # curated directions gate the right way
        tele = {r.metric: r for r in ingest_raw_bench(
            raws["telemetry_smoke"], commit="c")}
        assert tele["total_wall_s"].direction == "lower"
        assert tele["refs_per_sec_p50"].direction == "higher"
        assert tele["runs"].direction == "info"
        fabric = {r.metric: r for r in ingest_raw_bench(
            raws["workqueue_chaos"], commit="c")}
        assert fabric["bit_identical"].value == 1.0
        assert fabric["bit_identical"].direction == "info"

    def test_unknown_suite_gates_conservatively(self):
        records = {r.metric: r for r in ingest_raw_bench(
            {"bench": "novel", "wall_s": 1.0, "refs_per_sec": 2.0,
             "speedup": 3.0, "widget_count": 7},
            commit="c",
        )}
        assert records["wall_s"].direction == "lower"
        assert records["refs_per_sec"].direction == "higher"
        assert records["speedup"].direction == "higher"
        assert records["widget_count"].direction == "info"

    def test_suite_override_and_missing_name(self):
        records = ingest_raw_bench({"x_s": 1.0}, suite="forced")
        assert records[0].suite == "forced"
        with pytest.raises(CorruptResultError, match="'bench'"):
            ingest_raw_bench({"x_s": 1.0})

    def test_no_numeric_metrics_rejected(self):
        with pytest.raises(CorruptResultError, match="no numeric"):
            ingest_raw_bench({"bench": "empty", "python": "3.12"})


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
        # loaded machine: on a shared 2-core x86_64 VM the RANDOM grid,
        # the tightest, read 4.1x at the least against its 3x bound at
        # 10 000 references, but 3.4x at 5 000.
        records, noise = run_bench_suites(
            ["pass_route"], repeat=3, length=10_000,
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
    def _record(self, raw_path, history, commit, extra=()):
        return main([
            "bench", "record", str(raw_path),
            "--history", str(history), "--commit", commit, *extra,
        ])

    def test_record_then_diff_gates(self, tmp_path, capsys):
        history = tmp_path / "hist.jsonl"
        raw = tmp_path / "raw.json"
        for commit, wall in (("a", 1.0), ("b", 1.0), ("c", 1.0)):
            raw.write_text(json.dumps(
                {"bench": "telemetry_smoke", "total_wall_s": wall}
            ))
            assert self._record(raw, history, commit) == 0
        raw.write_text(json.dumps(
            {"bench": "telemetry_smoke", "total_wall_s": 1.10}
        ))
        assert self._record(raw, history, "cand") == 0
        code = main([
            "bench", "diff", "--history", str(history),
            "--commit", "cand",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "regression" in out

    def test_identical_rerun_passes_diff(self, tmp_path, capsys):
        history = tmp_path / "hist.jsonl"
        raw = tmp_path / "raw.json"
        raw.write_text(json.dumps(
            {"bench": "telemetry_smoke", "total_wall_s": 1.0}
        ))
        assert self._record(raw, history, "a") == 0
        assert self._record(raw, history, "cand") == 0
        assert main([
            "bench", "diff", "--history", str(history),
            "--commit", "cand",
        ]) == 0
        assert "1 ok" in capsys.readouterr().out

    def test_record_out_writes_normalized_document(self, tmp_path):
        history = tmp_path / "hist.jsonl"
        raw = tmp_path / "raw.json"
        out = tmp_path / "BENCH_norm.json"
        raw.write_text(json.dumps(
            {"bench": "workqueue_chaos", "jobs": 3, "bit_identical": True}
        ))
        assert self._record(raw, history, "a",
                            extra=("--out", str(out))) == 0
        docs = json.loads(out.read_text())
        assert {d["metric"] for d in docs} == {"jobs", "bit_identical"}
        assert all(record_from_dict(d).commit == "a" for d in docs)

    def test_record_rejects_malformed_input(self, tmp_path, capsys):
        raw = tmp_path / "raw.json"
        raw.write_text("{nope")
        assert self._record(raw, tmp_path / "h.jsonl", "a") == 2
        assert "malformed" in capsys.readouterr().err
        assert main([
            "bench", "record", str(tmp_path / "missing.json"),
        ]) == 2

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

    def test_run_unknown_suite_errors(self, tmp_path, capsys):
        assert main(["bench", "run", "--suites", "nope"]) == 2
        assert "unknown" in capsys.readouterr().err

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
        # Records written by this machine (bench record's default host)
        # pass through the default filter unchanged.
        history = tmp_path / "hist.jsonl"
        raw = tmp_path / "raw.json"
        for commit, wall in (("a", 1.0), ("b", 1.0), ("c", 1.0)):
            raw.write_text(json.dumps(
                {"bench": "telemetry_smoke", "total_wall_s": wall}
            ))
            assert self._record(raw, history, commit) == 0
        raw.write_text(json.dumps(
            {"bench": "telemetry_smoke", "total_wall_s": 1.10}
        ))
        assert self._record(raw, history, "cand") == 0
        assert main([
            "bench", "diff", "--history", str(history),
            "--commit", "cand",
        ]) == 1
        assert "regression" in capsys.readouterr().out
