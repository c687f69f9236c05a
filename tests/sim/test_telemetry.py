"""Cycle-accounting telemetry: ledger conservation, tracing, reports.

The load-bearing guarantees under test:

* the cycle-attribution buckets sum *exactly* to the simulated cycle
  count, for the reference engine in every configuration family and for
  the fastpath replay;
* the engine and the fastpath produce *identical* bucket totals on
  identical (config, trace) pairs — attribution cannot drift between
  the validated pair of simulators;
* the event tracer is bounded, and its Chrome dump is well-formed;
* RunReport documents round-trip and aggregate.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.core.geometry import CacheGeometry
from repro.core.policy import (
    CachePolicy, MissHandling, ReplacementKind, WriteMissPolicy, WritePolicy,
)
from repro.core.timing import MemoryTiming
from repro.errors import CorruptResultError, SimulationError
from repro.sim.config import (
    L1Spec, LowerLevelSpec, TranslationSpec, baseline_config,
)
from repro.sim.engine import simulate
from repro.sim.fastpath import fast_simulate
from repro.sim.telemetry import (
    BUCKETS,
    CycleLedger,
    EventTracer,
    MetricsRegistry,
    REPORT_SCHEMA,
    RunReport,
    Telemetry,
    aggregate_reports,
    build_run_report,
    peak_rss_kb,
    quantization_info,
    render_counters,
    render_summary,
    truncate_segments,
)
from repro.trace.record import RefKind, Trace
from repro.units import KB

L, S = int(RefKind.LOAD), int(RefKind.STORE)

#: A RunReport that ``simulate`` stored at schema 7 for a validated
#: interval-sampling estimate, before that route was removed: its
#: counters sit in a top-level ``sampling`` block.
SAMPLED_SCHEMA7 = (
    Path(__file__).parent / "data" / "runreport_schema7_sampled.json"
)


def _trace_of(refs, warm=0):
    kinds = [k for k, _a in refs]
    addrs = [a for _k, a in refs]
    return Trace(kinds, addrs, [1] * len(refs), warm_boundary=warm)


# ----------------------------------------------------------------------
# truncate_segments
# ----------------------------------------------------------------------
class TestTruncateSegments:
    def test_exact_budget_is_identity(self):
        segs = [("fetch_latency", 3), ("fetch_transfer", 4)]
        assert truncate_segments(segs, 7) == segs

    def test_clips_the_tail(self):
        segs = [("fetch_latency", 3), ("fetch_transfer", 4)]
        assert truncate_segments(segs, 5) == [
            ("fetch_latency", 3), ("fetch_transfer", 2),
        ]

    def test_drops_whole_trailing_segments(self):
        segs = [("fetch_latency", 3), ("fetch_transfer", 4)]
        assert truncate_segments(segs, 3) == [("fetch_latency", 3)]

    def test_filters_zero_cycle_segments(self):
        segs = [("wb_match_stall", 0), ("fetch_latency", 2)]
        assert truncate_segments(segs, 2) == [("fetch_latency", 2)]

    def test_under_budget_raises(self):
        with pytest.raises(SimulationError):
            truncate_segments([("fetch_latency", 3)], 10)


# ----------------------------------------------------------------------
# CycleLedger
# ----------------------------------------------------------------------
class TestCycleLedger:
    def test_charge_couplet_prefers_critical_instruction_side(self):
        ledger = CycleLedger()
        ledger.charge_couplet(
            5, [("fetch_latency", 5)], [("l1_service", 2)]
        )
        assert ledger.buckets["fetch_latency"] == 5
        assert ledger.buckets["l1_service"] == 0

    def test_charge_couplet_falls_through_to_data_side(self):
        ledger = CycleLedger()
        ledger.charge_couplet(
            6, [("l1_service", 1)], [("wb_full_stall", 6)]
        )
        assert ledger.buckets["wb_full_stall"] == 6

    def test_charge_couplet_fallback_is_l1_service(self):
        ledger = CycleLedger()
        ledger.charge_couplet(1, None, None)
        assert ledger.buckets["l1_service"] == 1

    def test_verify_passes_when_conserved(self):
        ledger = CycleLedger()
        ledger.charge("l1_service", 10)
        ledger.verify(10)

    def test_verify_raises_with_delta(self):
        ledger = CycleLedger()
        ledger.charge("l1_service", 9)
        with pytest.raises(SimulationError, match=r"delta -1"):
            ledger.verify(10)

    def test_measured_view_subtracts_warm_snapshot(self):
        ledger = CycleLedger()
        ledger.charge("l1_service", 100)
        ledger.charge("fetch_latency", 20)
        ledger.mark_warm()
        ledger.charge("l1_service", 7)
        ledger.charge("mem_busy", 3)
        measured = ledger.measured()
        assert measured["l1_service"] == 7
        assert measured["mem_busy"] == 3
        assert measured["fetch_latency"] == 0
        ledger.verify(130, 10)

    def test_mark_warm_base_offset_is_pre_warm_l1_service(self):
        ledger = CycleLedger()
        ledger.charge("l1_service", 5)
        ledger.mark_warm(base_offset=3)
        ledger.charge("l1_service", 9)  # 3 pre-warm + 6 measured
        assert ledger.measured()["l1_service"] == 6

    def test_render_reports_conservation_status(self):
        ledger = CycleLedger()
        ledger.charge("l1_service", 4)
        assert "ok" in ledger.render(4)
        assert "VIOLATED" in ledger.render(5)


# ----------------------------------------------------------------------
# EventTracer
# ----------------------------------------------------------------------
class TestEventTracer:
    def test_ring_is_bounded_and_keeps_the_tail(self):
        tracer = EventTracer(capacity=4)
        for i in range(10):
            tracer.emit(i, 1, "fetch_latency", "dcache")
        assert len(tracer) == 4
        assert tracer.emitted == 10
        assert tracer.dropped == 6
        assert [e[0] for e in tracer.events()] == [6, 7, 8, 9]

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(SimulationError):
            EventTracer(capacity=0)

    def test_chrome_trace_shape(self):
        tracer = EventTracer(capacity=8)
        tracer.emit(5, 12, "fetch_latency", "icache",
                    [("fetch_latency", 8), ("fetch_transfer", 4)])
        doc = tracer.to_chrome_trace()
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(events) == 1
        event = events[0]
        assert event["ts"] == 5 and event["dur"] == 12
        assert event["args"] == {"fetch_latency": 8, "fetch_transfer": 4}
        assert doc["metadata"]["dropped"] == 0

    def test_dump_writes_valid_json(self, tmp_path):
        tracer = EventTracer(capacity=8)
        tracer.emit(0, 3, "mem_busy", "dcache")
        out = tmp_path / "trace.json"
        tracer.dump(out)
        payload = json.loads(out.read_text())
        assert "traceEvents" in payload


# ----------------------------------------------------------------------
# Conservation + engine/fastpath agreement on real simulations
# ----------------------------------------------------------------------
def _ledger_run(runner, config, trace):
    telemetry = Telemetry(ledger=CycleLedger())
    stats = runner(config, trace, telemetry=telemetry)
    # The simulators verify internally; re-verify from the outside so a
    # regression in *that* wiring also fails loudly here.
    telemetry.ledger.verify(stats.total_cycles, stats.cycles)
    return stats, telemetry.ledger


class TestConservationAndAgreement:
    @pytest.mark.parametrize("size_kb", [4, 32])
    @pytest.mark.parametrize("cycle_ns", [20.0, 40.0])
    def test_engine_and_fastpath_buckets_are_identical(
        self, mu3_small, size_kb, cycle_ns
    ):
        config = baseline_config(
            cache_size_bytes=size_kb * KB, cycle_ns=cycle_ns
        )
        _, engine_ledger = _ledger_run(simulate, config, mu3_small)
        _, fast_ledger = _ledger_run(fast_simulate, config, mu3_small)
        assert engine_ledger.as_dict() == fast_ledger.as_dict()
        assert engine_ledger.measured() == fast_ledger.measured()

    def test_agreement_on_risc_trace(self, rd2n4_small, small_config):
        _, engine_ledger = _ledger_run(simulate, small_config, rd2n4_small)
        _, fast_ledger = _ledger_run(fast_simulate, small_config, rd2n4_small)
        assert engine_ledger.as_dict() == fast_ledger.as_dict()

    def test_two_level_buckets_are_identical(self, mu3_small):
        """A replay through a lower level charges each L1 miss as the
        engine does: match stall, then one ``lower_fetch`` span."""
        config = next(
            c for n, c in _engine_only_configs() if n == "two_level"
        )
        _, engine_ledger = _ledger_run(simulate, config, mu3_small)
        _, fast_ledger = _ledger_run(fast_simulate, config, mu3_small)
        assert engine_ledger.as_dict() == fast_ledger.as_dict()
        assert engine_ledger.measured() == fast_ledger.measured()
        assert fast_ledger.as_dict()["lower_fetch"] > 0

    def test_buckets_cover_the_interesting_cycles(self, mu3_small):
        config = baseline_config(cache_size_bytes=4 * KB)
        _, ledger = _ledger_run(simulate, config, mu3_small)
        measured = ledger.measured()
        assert measured["l1_service"] > 0
        assert measured["fetch_latency"] > 0
        assert measured["fetch_transfer"] > 0

    def test_unknown_buckets_never_appear(self, mu3_small, small_config):
        _, ledger = _ledger_run(simulate, small_config, mu3_small)
        assert set(ledger.as_dict()) == set(BUCKETS)


def _engine_only_configs():
    base = baseline_config(cache_size_bytes=4 * KB)
    policy = base.l1.policy
    yield "load_forward", base.with_policy(
        dataclasses.replace(policy, miss_handling=MissHandling.LOAD_FORWARD)
    )
    yield "early_continuation", base.with_policy(
        dataclasses.replace(
            policy, miss_handling=MissHandling.EARLY_CONTINUATION
        )
    )
    yield "write_allocate", base.with_policy(
        dataclasses.replace(policy, write_miss=WriteMissPolicy.FETCH_ON_WRITE)
    )
    yield "write_through", base.with_policy(
        dataclasses.replace(policy, write_policy=WritePolicy.WRITE_THROUGH)
    )
    yield "unified", dataclasses.replace(
        base,
        l1=L1Spec(d_geometry=CacheGeometry(size_bytes=8 * KB), unified=True),
    )
    # The fastpath prices this one too; the engine's own conservation
    # is what this family checks.
    yield "two_level", dataclasses.replace(
        base,
        levels=(
            LowerLevelSpec(
                geometry=CacheGeometry(size_bytes=32 * KB, block_words=8),
                port=MemoryTiming(
                    latency_ns=40.0, transfer_rate=1.0,
                    write_op_ns=0.0, recovery_ns=0.0,
                ),
            ),
        ),
    )
    yield "translated", dataclasses.replace(
        base, translation=TranslationSpec(page_words=1024, tlb_entries=8)
    )


class TestEngineOnlyModesConserve:
    @pytest.mark.parametrize(
        "config", [c for _n, c in _engine_only_configs()],
        ids=[n for n, _c in _engine_only_configs()],
    )
    def test_conserves(self, mu3_small, config):
        stats, ledger = _ledger_run(simulate, config, mu3_small)
        assert ledger.total() == stats.total_cycles

    def test_translation_walks_land_in_their_bucket(self, mu3_small):
        config = dataclasses.replace(
            baseline_config(cache_size_bytes=4 * KB),
            translation=TranslationSpec(page_words=1024, tlb_entries=8),
        )
        _, ledger = _ledger_run(simulate, config, mu3_small)
        assert ledger.as_dict()["translation"] > 0

    def test_lower_level_time_lands_in_lower_fetch(self, mu3_small):
        config = next(
            c for n, c in _engine_only_configs() if n == "two_level"
        )
        _, ledger = _ledger_run(simulate, config, mu3_small)
        assert ledger.as_dict()["lower_fetch"] > 0


class TestTracing:
    def test_tracer_only_records_eventful_couplets(self, mu3_small):
        config = baseline_config(cache_size_bytes=8 * KB)
        telemetry = Telemetry(tracer=EventTracer(capacity=1 << 16))
        stats = simulate(config, mu3_small, telemetry=telemetry)
        assert 0 < telemetry.tracer.emitted
        total_refs = len(mu3_small)
        assert telemetry.tracer.emitted < total_refs
        # Every traced event carries a positive duration and a known track.
        for ts, dur, name, track, segments in telemetry.tracer.events():
            assert 0 <= ts <= stats.total_cycles
            assert dur > 0
            assert name in BUCKETS
            assert track in ("icache", "dcache")

    def test_engine_and_fastpath_traces_agree(self, mu3_small, small_config):
        traces = []
        for runner in (simulate, fast_simulate):
            telemetry = Telemetry(tracer=EventTracer(capacity=1 << 16))
            runner(small_config, mu3_small, telemetry=telemetry)
            traces.append(telemetry.tracer.events())
        assert traces[0] == traces[1]


# ----------------------------------------------------------------------
# Write-buffer match stalls under a crafted trace
# ----------------------------------------------------------------------
class TestMatchStallAttribution:
    """Pin the read-match stall path with a hand-built reference stream.

    The load miss to block A keeps the memory port busy, so the store to
    block B is parked in the write buffer; the immediately following
    load to B must drain through it — a match stall, attributed to the
    ``wb_match_stall`` bucket.
    """

    TRACE = [(L, 0), (S, 64), (L, 64)]

    @pytest.mark.parametrize("runner", [simulate, fast_simulate],
                             ids=["engine", "fastpath"])
    def test_match_stall_is_counted_and_attributed(self, runner):
        config = baseline_config(cache_size_bytes=4 * KB)
        stats, ledger = _ledger_run(runner, config, _trace_of(self.TRACE))
        assert stats.buffer.match_stalls == 1
        assert ledger.as_dict()["wb_match_stall"] > 0
        assert stats.buffer.max_occupancy == 1

    def test_engine_and_fastpath_agree_on_the_crafted_trace(self):
        config = baseline_config(cache_size_bytes=4 * KB)
        engine_stats, engine_ledger = _ledger_run(
            simulate, config, _trace_of(self.TRACE)
        )
        fast_stats, fast_ledger = _ledger_run(
            fast_simulate, config, _trace_of(self.TRACE)
        )
        assert engine_stats.cycles == fast_stats.cycles
        assert engine_ledger.as_dict() == fast_ledger.as_dict()

    def test_no_stall_when_the_buffer_drains_in_time(self):
        # Without the occupying load miss the store drains before the
        # read arrives: the control case for the trace above.
        config = baseline_config(cache_size_bytes=4 * KB)
        stats, ledger = _ledger_run(
            simulate, config, _trace_of([(S, 64), (L, 64)])
        )
        assert stats.buffer.match_stalls == 0
        assert ledger.as_dict()["wb_match_stall"] == 0


# ----------------------------------------------------------------------
# Host-side profiling and RunReport
# ----------------------------------------------------------------------
class TestHostProfiling:
    def test_peak_rss_is_positive_here(self):
        rss = peak_rss_kb()
        assert rss is not None and rss > 0

    def test_quantization_info_fields(self):
        info = quantization_info(baseline_config())
        assert info["latency_cycles"] > 0
        assert info["latency_waste_ns"] >= 0.0
        assert info["recovery_waste_ns"] >= 0.0


class TestRunReport:
    def _report(self, trace, config):
        telemetry = Telemetry(ledger=CycleLedger())
        registry = MetricsRegistry()
        with registry.span("simulate"):
            stats = fast_simulate(config, trace, telemetry=telemetry)
        return build_run_report(
            stats, telemetry.ledger,
            run_identifier="test-run", simulator="fastpath",
            n_refs_total=len(trace), config=config, registry=registry,
        )

    def test_build_checks_conservation(self, mu3_small, small_config):
        report = self._report(mu3_small, small_config)
        assert report.conserved
        assert report.run_id == "test-run"
        assert report.n_refs_total == len(mu3_small)
        assert sum(report.buckets.values()) == report.total_cycles
        assert sum(report.buckets_measured.values()) == report.cycles
        assert report.refs_per_sec > 0
        assert 0.0 < report.stall_fraction < 1.0
        assert report.quantization["latency_cycles"] > 0

    def test_wall_s_reads_the_stage_spans(self, mu3_small, small_config):
        """``wall_s`` holds the run's ``trace`` and ``simulate`` spans;
        a nested span is in the metrics dump but not counted twice."""
        telemetry = Telemetry(ledger=CycleLedger())
        registry = MetricsRegistry()
        with registry.span("trace"):
            pass
        with registry.span("simulate"), registry.span("sweep.price_grid"):
            stats = fast_simulate(
                small_config, mu3_small, telemetry=telemetry
            )
        report = build_run_report(
            stats, telemetry.ledger, config=small_config, registry=registry,
        )
        spans = registry.spans
        assert report.wall_s == {
            "trace": spans["trace"]["total_s"],
            "simulate": spans["simulate"]["total_s"],
        }
        assert report.total_wall_s > 0
        assert report.refs_per_sec == pytest.approx(
            stats.n_refs / report.total_wall_s
        )
        assert set(report.metrics["spans"]) == {
            "trace", "simulate", "sweep.price_grid",
        }
        # Without a registry there are no stages to read.
        bare = build_run_report(stats, telemetry.ledger, config=small_config)
        assert (bare.wall_s, bare.refs_per_sec, bare.metrics) == ({}, 0.0, {})

    def test_unconserved_ledger_is_flagged_not_raised(
        self, mu3_small, small_config
    ):
        telemetry = Telemetry(ledger=CycleLedger())
        stats = fast_simulate(small_config, mu3_small, telemetry=telemetry)
        telemetry.ledger.charge("l1_service", 1)  # corrupt it
        report = build_run_report(
            stats, telemetry.ledger, config=small_config
        )
        assert not report.conserved

    def test_round_trip(self, mu3_small, small_config):
        report = self._report(mu3_small, small_config)
        payload = json.loads(json.dumps(report.to_dict()))
        restored = RunReport.from_dict(payload)
        assert restored == report

    def test_stall_fraction_empty_buckets_is_zero(self):
        report = RunReport(
            run_id="x", trace="t", config="c", simulator="fastpath",
            n_refs_total=0, n_refs_measured=0, cycles=0,
            total_cycles=0, warm_cycles=0,
        )
        assert report.stall_fraction == 0.0
        assert report.total_wall_s == 0.0

    def test_replay_block_round_trips_and_aggregates(
        self, mu3_small, small_config
    ):
        """Replay-kernel counters ride in ``metrics`` as ``replay.*``."""
        telemetry = Telemetry(ledger=CycleLedger())
        stats = fast_simulate(small_config, mu3_small, telemetry=telemetry)
        registry = MetricsRegistry()
        registry.count("replay.scalar_replays")
        report = build_run_report(
            stats, telemetry.ledger, config=small_config,
            registry=registry,
        )
        payload = report.to_dict()
        assert "replay" not in payload
        assert payload["metrics"]["counters"] == {"replay.scalar_replays": 1}
        assert RunReport.from_dict(payload) == report
        summary = aggregate_reports([report, report])
        assert summary["metrics"]["counters"] == {"replay.scalar_replays": 2}
        assert "replay: 0 batch outcome(s), 2 scalar replay(s)" in \
            render_summary(summary)

    def test_sampling_block_round_trips_and_aggregates(self):
        """A stored schema-7 report of the removed sampled route still
        loads: its ``sampling`` block folds into ``metrics`` (integers
        as counters, floats as gauges), round-trips at the current
        schema, aggregates across runs and renders with no line for the
        retired subsystem."""
        payload = json.loads(SAMPLED_SCHEMA7.read_text())
        assert payload["schema"] == 7
        unknown = []
        report = RunReport.from_dict(payload, unknown=unknown)
        assert unknown == []
        assert report.metrics["counters"]["sampling.refs_sampled"] == 6798
        assert report.metrics["gauges"]["sampling.true_error_max"] == \
            0.013858
        upgraded = report.to_dict()
        assert upgraded["schema"] == REPORT_SCHEMA
        assert "sampling" not in upgraded
        assert RunReport.from_dict(upgraded) == report
        summary = aggregate_reports([report, report])
        # Counters sum across runs; the gauge keeps the worst value.
        metrics = summary["metrics"]
        assert metrics["counters"]["sampling.refs_sampled"] == 2 * 6798
        assert metrics["gauges"]["sampling.true_error_max"] == 0.013858
        text = render_summary(summary)
        assert text.startswith("2 run(s)")
        assert "sampling:" not in text

    def test_campaign_report_renders_a_stored_sampled_report(
        self, tmp_path, capsys
    ):
        from repro.cli import main
        from repro.sim.campaign import Campaign

        payload = json.loads(SAMPLED_SCHEMA7.read_text())
        Campaign(tmp_path).save_report(payload)
        # An estimate carried no cycle ledger, so its report never
        # showed conservation: the command renders it and exits 1.
        assert main(["campaign", "report", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith("1 run(s)")
        assert "cycle conservation: VIOLATED (1 run(s))" in captured.out
        assert "skipping" not in captured.err

    def test_sampling_line_omitted_without_sampling(
        self, mu3_small, small_config
    ):
        report = self._report(mu3_small, small_config)
        text = render_summary(aggregate_reports([report]))
        assert "sampling:" not in text


class TestMetricsRegistry:
    def test_counters_and_gauges(self):
        registry = MetricsRegistry()
        assert registry.empty()
        registry.count("passcache.hits")
        registry.count("passcache.hits", 3)
        registry.gauge("queue.depth", 2.0)
        registry.gauge("queue.depth", 7.0)
        assert registry.counters["passcache.hits"] == 4
        assert registry.gauges["queue.depth"] == 7.0
        assert not registry.empty()

    def test_count_many_skips_zeros(self):
        registry = MetricsRegistry()
        registry.count_many("replay", {"hits": 2, "misses": 0})
        assert registry.counters == {"replay.hits": 2}

    def test_span_accumulates_and_tracks_max(self):
        registry = MetricsRegistry()
        for _ in range(3):
            with registry.span("sweep.price_grid"):
                pass
        entry = registry.spans["sweep.price_grid"]
        assert entry["count"] == 3
        assert entry["total_s"] >= entry["max_s"] >= 0.0

    def test_span_records_even_on_exception(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            with registry.span("simulate"):
                raise ValueError("boom")
        assert registry.spans["simulate"]["count"] == 1

    def test_dump_round_trips_through_merge(self):
        source = MetricsRegistry()
        source.count("a", 2)
        source.gauge("g", 1.5)
        with source.span("s"):
            pass
        dump = json.loads(json.dumps(source.as_dict()))
        target = MetricsRegistry()
        target.merge(dump)
        target.merge(dump)
        assert target.counters == {"a": 4}
        assert target.gauges == {"g": 1.5}
        assert target.spans["s"]["count"] == 2
        assert target.spans["s"]["max_s"] == source.spans["s"]["max_s"]

    def test_merge_keeps_larger_gauge_in_either_order(self):
        low = {"gauges": {"sampling.true_error_max": 0.01}}
        high = {"gauges": {"sampling.true_error_max": 0.03}}
        for dumps in ((low, high), (high, low)):
            registry = MetricsRegistry()
            for dump in dumps:
                registry.merge(dump)
            assert registry.gauges == {"sampling.true_error_max": 0.03}

    def test_render_counters_one_line_per_subsystem(self):
        registry = MetricsRegistry()
        registry.count_many("passcache", {"hits": 1, "misses": 2})
        registry.count("stackpass.passes")
        registry.count("unlisted.thing", 5)
        # A gauge alone does not make a subsystem present.
        registry.gauge("replay.vectorized_frac", 0.5)
        assert render_counters(registry.as_dict()) == [
            "pass cache: 1 hit(s), 2 miss(es), 0 corrupt, 0 B read, "
            "0 B written",
            "stack pass: 1 pass(es), 0 reused",
        ]
        assert render_counters({}) == []

    def test_merge_ignores_malformed_dumps(self):
        registry = MetricsRegistry()
        registry.merge("not a dict")
        registry.merge({"counters": {"x": "NaN-ish"}, "spans": {"s": 3}})
        assert registry.empty()


class TestRunReportSchemaDrift:
    """Satellite: drift handling around the versioned report document.

    Forward drift (a newer writer added fields) must be collected, not
    silently dropped; backward drift (older schema without the newer
    blocks) must upgrade with empty defaults; garbage must be rejected
    with :exc:`CorruptResultError`, never a ``TypeError`` mid-aggregate.
    """

    def _payload(self, mu3_small, small_config):
        telemetry = Telemetry(ledger=CycleLedger())
        stats = fast_simulate(small_config, mu3_small, telemetry=telemetry)
        report = build_run_report(
            stats, telemetry.ledger, config=small_config
        )
        return report.to_dict()

    def test_unknown_fields_are_collected(self, mu3_small, small_config):
        payload = self._payload(mu3_small, small_config)
        payload["future_block"] = {"x": 1}
        payload["another"] = 2
        unknown = []
        report = RunReport.from_dict(payload, unknown=unknown)
        assert unknown == ["another", "future_block"]
        assert not hasattr(report, "future_block")

    def test_older_schema_upgrades_to_empty_blocks(
        self, mu3_small, small_config
    ):
        payload = self._payload(mu3_small, small_config)
        # A schema-4 writer predates the metrics block entirely.
        payload["schema"] = 4
        del payload["metrics"]
        report = RunReport.from_dict(payload)
        assert report.metrics == {}

    @pytest.mark.parametrize("block, values, counters, gauges", [
        ("pass_cache", {"hits": 2, "misses": 1},
         {"passcache.hits": 2, "passcache.misses": 1}, {}),
        ("replay", {"scalar_replays": 1},
         {"replay.scalar_replays": 1}, {}),
        ("fabric", {"leases_issued": 2, "leases_lost": 1},
         {"fabric.leases_issued": 2, "fabric.leases_lost": 1}, {}),
        ("stack_pass", {"walks": 1, "derived_streams": 3},
         {"stackpass.walks": 1, "stackpass.derived_streams": 3}, {}),
        ("sampling", {"selections": 1, "true_error_max": 0.004},
         {"sampling.selections": 1}, {"sampling.true_error_max": 0.004}),
    ])
    def test_schema7_block_folds_into_metrics(
        self, mu3_small, small_config, block, values, counters, gauges
    ):
        payload = self._payload(mu3_small, small_config)
        payload.update({"schema": 7, block: values, "metrics": {}})
        unknown = []
        report = RunReport.from_dict(payload, unknown=unknown)
        assert unknown == []
        assert report.metrics["counters"] == counters
        assert report.metrics["gauges"] == gauges
        # The upgrade rule covers old documents only: at schema 8 the
        # block is foreign.
        payload["schema"] = 8
        unknown = []
        assert RunReport.from_dict(payload, unknown=unknown).metrics == {}
        assert unknown == [block]

    def test_schema7_mirrored_pass_cache_counts_once(
        self, mu3_small, small_config
    ):
        # Schemas 5–7 with a registry mirrored passcache.* into both
        # the pass_cache block and the metrics dump.
        payload = self._payload(mu3_small, small_config)
        payload.update({
            "schema": 7,
            "pass_cache": {"hits": 3, "misses": 0, "bytes_read": 90},
            "metrics": {
                "counters": {"passcache.hits": 3, "passcache.bytes_read": 90},
                "gauges": {}, "spans": {},
            },
        })
        report = RunReport.from_dict(payload)
        assert report.metrics["counters"] == {
            "passcache.hits": 3, "passcache.bytes_read": 90,
        }
        summary = aggregate_reports([report, report])
        assert summary["metrics"]["counters"]["passcache.hits"] == 6

    def test_non_object_payload_rejected(self):
        with pytest.raises(CorruptResultError, match="expected object"):
            RunReport.from_dict(["schema", 5])

    @pytest.mark.parametrize("marker", [True, 0, -3, "5", 2.0, None])
    def test_bad_schema_marker_rejected(
        self, marker, mu3_small, small_config
    ):
        payload = self._payload(mu3_small, small_config)
        payload["schema"] = marker
        with pytest.raises(CorruptResultError, match="schema marker"):
            RunReport.from_dict(payload)

    def test_metrics_block_round_trips(self, mu3_small, small_config):
        registry = MetricsRegistry()
        registry.count("passcache.hits", 2)
        with registry.span("simulate"):
            pass
        telemetry = Telemetry(ledger=CycleLedger())
        stats = fast_simulate(small_config, mu3_small, telemetry=telemetry)
        report = build_run_report(
            stats, telemetry.ledger, config=small_config,
            registry=registry,
        )
        payload = json.loads(json.dumps(report.to_dict()))
        restored = RunReport.from_dict(payload)
        assert restored.metrics["counters"] == {"passcache.hits": 2}
        summary = aggregate_reports([restored, restored])
        assert summary["metrics"]["counters"] == {"passcache.hits": 4}
        assert summary["metrics"]["spans"]["simulate"]["count"] == 2
        text = render_summary(summary)
        assert "stage spans across the sweep:" in text
        assert "  simulate " in text

    def test_empty_registry_leaves_no_block(self, mu3_small, small_config):
        telemetry = Telemetry(ledger=CycleLedger())
        stats = fast_simulate(small_config, mu3_small, telemetry=telemetry)
        report = build_run_report(
            stats, telemetry.ledger, config=small_config,
            registry=MetricsRegistry(),
        )
        assert report.metrics == {}
        summary = aggregate_reports([report])
        assert summary["metrics"] == {}


class TestAggregation:
    def test_aggregate_and_render(self, mu3_small, rd2n4_small, small_config):
        reports = []
        for trace in (mu3_small, rd2n4_small):
            telemetry = Telemetry(ledger=CycleLedger())
            registry = MetricsRegistry()
            with registry.span("simulate"):
                stats = fast_simulate(
                    small_config, trace, telemetry=telemetry
                )
            reports.append(build_run_report(
                stats, telemetry.ledger,
                run_identifier=trace.name, config=small_config,
                registry=registry,
            ))
        summary = aggregate_reports(reports, slowest=1)
        assert summary["runs"] == 2
        assert summary["all_conserved"]
        assert summary["violations"] == []
        assert len(summary["slowest"]) == 1
        assert summary["refs_per_sec_p50"] > 0
        assert sum(summary["buckets_measured"].values()) == sum(
            r.cycles for r in reports
        )
        text = render_summary(summary)
        assert "cycle conservation: ok" in text
        assert "slowest runs:" in text

    def test_sweep_level_fabric_overrides_run_sums(self):
        reports = [
            RunReport(
                run_id=f"r{i}", trace="t", config="c",
                simulator="fastpath", n_refs_total=1, n_refs_measured=1,
                cycles=1, total_cycles=1, warm_cycles=0, conserved=True,
                metrics={"counters": {
                    "fabric.leases_issued": 1, "passcache.hits": 1,
                }},
            )
            for i in (1, 2)
        ]
        summary = aggregate_reports(
            reports, fabric={"workers": 2, "leases_issued": 5}
        )
        assert summary["metrics"]["counters"] == {
            "fabric.leases_issued": 5, "fabric.workers": 2,
            "passcache.hits": 2,
        }
        assert "fabric: 2 worker(s), 5 lease(s) issued" in \
            render_summary(summary)

    def test_violations_are_named(self):
        bad = RunReport(
            run_id="bad-run", trace="t", config="c", simulator="fastpath",
            n_refs_total=1, n_refs_measured=1, cycles=1,
            total_cycles=1, warm_cycles=0, conserved=False,
        )
        summary = aggregate_reports([bad])
        assert not summary["all_conserved"]
        assert summary["violations"] == ["bad-run"]
        assert "VIOLATED" in render_summary(summary)


# ----------------------------------------------------------------------
# Overhead guard: disabled telemetry must not allocate per couplet
# ----------------------------------------------------------------------
class TestDisabledPath:
    def test_empty_telemetry_object_is_ignored(self, mu3_small, small_config):
        baseline = simulate(small_config, mu3_small)
        hollow = simulate(
            small_config, mu3_small, telemetry=Telemetry()
        )
        assert hollow.cycles == baseline.cycles

    def test_stats_are_identical_with_and_without_ledger(
        self, mu3_small, small_config
    ):
        plain = fast_simulate(small_config, mu3_small)
        telemetry = Telemetry(ledger=CycleLedger())
        instrumented = fast_simulate(
            small_config, mu3_small, telemetry=telemetry
        )
        assert plain == instrumented
