"""Stack-pass validation: bit-equality with per-organization passes.

The single-walk stack simulator's license to exist is exactness: every
EventStream it derives must be *bit-identical* to the one
``functional_pass`` produces for the same organization — scalars, all
nine event buffers, and warm-measured counters.  These tests pin that
across LRU grids, the degenerate corners the set-refinement collapses
onto (direct-mapped, fully-associative, zero-event and exhausted-warm
streams), randomized ``(size, assoc, block)`` matrices, and the
explicit fallback path for organizations the walk cannot share.
"""

import random

import pytest

from repro.core.geometry import CacheGeometry
from repro.core.policy import CachePolicy, ReplacementKind
from repro.core.sweep import run_functional_passes
from repro.errors import ConfigurationError
from repro.sim.config import baseline_config
from repro.sim.fastpath import (
    EVENT_FIELDS,
    fast_simulate,
    functional_pass,
)
from repro.sim.stackpass import (
    StackPassStats,
    stack_functional_passes,
    stack_supported,
)
from repro.trace.record import RefKind, Trace
from repro.units import KB

_STREAM_SCALARS = (
    "trace_name", "config_summary", "i_block_words", "d_block_words",
    "n_couplets", "n_couplets_measured", "n_refs_measured",
    "warm_event_index", "warm_base_offset", "end_base", "n_events",
)


def assert_streams_equal(a, b):
    for name in _STREAM_SCALARS:
        assert getattr(a, name) == getattr(b, name), name
    for name in EVENT_FIELDS:
        assert list(getattr(a, name)) == list(getattr(b, name)), name
    assert a.icache == b.icache
    assert a.dcache == b.dcache


def assert_stats_equal(a, b):
    assert a.cycles == b.cycles
    assert a.total_cycles == b.total_cycles
    assert a.warm_cycles == b.warm_cycles
    assert a.icache == b.icache
    assert a.dcache == b.dcache
    assert a.buffer == b.buffer
    assert a.memory_reads == b.memory_reads
    assert a.memory_writes == b.memory_writes


def routed_simulate(config, trace, stats=None):
    """fast_simulate, with the pass served by run_functional_passes."""
    stream = run_functional_passes([(config, trace, 0)], stack_stats=stats)[0]
    return fast_simulate(config, trace, stream=stream)


def lru_config(size_bytes, assoc=1, block_words=4, **kwargs):
    return baseline_config(
        cache_size_bytes=size_bytes, assoc=assoc, block_words=block_words,
        replacement=ReplacementKind.LRU, **kwargs,
    )


class TestGridEquality:
    def test_lru_grid_one_walk(self, mu3_small):
        """A full (size x assoc x block) LRU grid derives from 1 walk,
        bit-identical to per-organization functional passes."""
        configs = [
            lru_config(size * KB, assoc=assoc, block_words=block)
            for size in (2, 8)
            for assoc in (1, 2, 4)
            for block in (2, 8)
        ]
        stats = StackPassStats()
        streams = run_functional_passes(
            [(c, mu3_small, 0) for c in configs],
            stack_stats=stats,
        )
        assert stats.walks == 1
        assert stats.fallback_passes == 0
        assert stats.derived_streams + stats.reused_streams == len(configs)
        for config, stream in zip(configs, streams):
            assert_streams_equal(stream, functional_pass(config, mu3_small))

    def test_direct_mapped_random_is_eligible(self, rd2n4_small):
        """assoc=1 leaves RANDOM replacement no victim choice, so the
        paper's default sweeps share the walk — and the seed cannot
        matter, exactly as it cannot for the scalar pass."""
        configs = [baseline_config(cache_size_bytes=s * KB) for s in (2, 4, 8)]
        assert all(stack_supported(c) for c in configs)
        for seed in (0, 7):
            stats = StackPassStats()
            streams = run_functional_passes(
                [(c, rd2n4_small, seed) for c in configs],
                stack_stats=stats,
            )
            assert stats.walks == 1 and stats.fallback_passes == 0
            for config, stream in zip(configs, streams):
                assert_streams_equal(
                    stream, functional_pass(config, rd2n4_small, seed=seed)
                )

    def test_temporal_variants_share_one_derivation(self, tiny_trace):
        """Configs differing only in cycle time reuse the derived
        stream; only the labels are re-stamped."""
        configs = [
            lru_config(4 * KB, cycle_ns=cycle) for cycle in (20.0, 40.0, 80.0)
        ]
        stats = StackPassStats()
        streams = run_functional_passes(
            [(c, tiny_trace, 0) for c in configs],
            stack_stats=stats,
        )
        assert stats.derived_streams == 1
        assert stats.reused_streams == 2
        for config, stream in zip(configs, streams):
            assert stream.config_summary == config.describe()
            assert_streams_equal(stream, functional_pass(config, tiny_trace))

    def test_mixed_traces_one_walk_each(self, mu3_small, rd2n4_small):
        configs = [lru_config(s * KB) for s in (2, 8)]
        jobs = [
            (config, trace, 0)
            for trace in (mu3_small, rd2n4_small)
            for config in configs
        ]
        stats = StackPassStats()
        streams = run_functional_passes(jobs, stack_stats=stats)
        assert stats.walks == 2  # one per distinct trace
        for (config, trace, _seed), stream in zip(jobs, streams):
            assert_streams_equal(stream, functional_pass(config, trace))


class TestDegenerateCorners:
    """Satellite: the corners the set-refinement collapses onto."""

    @pytest.mark.parametrize("replacement", list(ReplacementKind))
    def test_fully_associative_single_set(self, tiny_trace, replacement):
        """size == block_bytes * assoc gives n_sets == 1; under LRU the
        whole cache is one stack (multi-way FIFO/RANDOM fall back but
        must still match their scalar pass)."""
        assoc = 4
        config = baseline_config(
            cache_size_bytes=4 * 4 * assoc, block_words=4, assoc=assoc,
            replacement=replacement,
        )
        assert config.l1.i_geometry.n_sets == 1
        stats = StackPassStats()
        stream = run_functional_passes(
            [(config, tiny_trace, 0)], stack_stats=stats,
        )[0]
        assert_streams_equal(stream, functional_pass(config, tiny_trace))
        if replacement is ReplacementKind.LRU:
            assert stats.walks == 1 and stats.fallback_passes == 0
        else:
            assert stats.walks == 0 and stats.fallback_passes == 1

    @pytest.mark.parametrize("replacement", list(ReplacementKind))
    def test_direct_mapped_every_policy(self, tiny_trace, replacement):
        config = baseline_config(
            cache_size_bytes=2 * KB, replacement=replacement
        )
        assert stack_supported(config)
        stream = stack_functional_passes([(config, tiny_trace, 0)])[0]
        assert_streams_equal(stream, functional_pass(config, tiny_trace))

    def test_empty_trace_raises_like_scalar(self):
        empty = Trace([], [], name="empty", warm_boundary=0)
        config = lru_config(4 * KB)
        with pytest.raises(ConfigurationError, match="warm boundary"):
            functional_pass(config, empty)
        with pytest.raises(ConfigurationError, match="warm boundary"):
            stack_functional_passes([(config, empty, 0)])

    def test_exhausted_warm_boundary_raises_like_scalar(self):
        kinds = [int(RefKind.IFETCH)] * 50
        addrs = list(range(50))
        full_warm = Trace(kinds, addrs, name="warm", warm_boundary=50)
        config = lru_config(4 * KB)
        with pytest.raises(ConfigurationError, match="warm boundary"):
            functional_pass(config, full_warm)
        with pytest.raises(ConfigurationError, match="warm boundary"):
            stack_functional_passes([(config, full_warm, 0)])

    def test_zero_event_measured_region(self):
        """A loop that fits in cache: every post-warm couplet hits, so
        the measured region has zero events — the stream and its replay
        must still match the scalar pass exactly."""
        kinds, addrs = [], []
        for _rep in range(40):
            for word in range(16):
                kinds.append(int(RefKind.IFETCH))
                addrs.append(word)
        trace = Trace(kinds, addrs, name="resident", warm_boundary=320)
        config = lru_config(4 * KB)
        scalar = functional_pass(config, trace)
        stack = stack_functional_passes([(config, trace, 0)])[0]
        assert_streams_equal(stack, scalar)
        assert stack.warm_event_index == stack.n_events  # no measured events
        assert_stats_equal(
            fast_simulate(config, trace),
            routed_simulate(config, trace),
        )


class TestFallback:
    def test_multiway_random_falls_back(self, tiny_trace):
        """Multi-way RANDOM breaks inclusion; the route must be the
        per-organization inline pass, counted explicitly."""
        eligible = baseline_config(cache_size_bytes=4 * KB)
        ineligible = baseline_config(cache_size_bytes=4 * KB, assoc=2)
        assert not stack_supported(ineligible)
        stats = StackPassStats()
        streams = run_functional_passes(
            [(eligible, tiny_trace, 5), (ineligible, tiny_trace, 5)],
            stack_stats=stats,
        )
        assert stats.walks == 1
        assert stats.fallback_passes == 1
        assert_streams_equal(
            streams[0], functional_pass(eligible, tiny_trace, seed=5)
        )
        assert_streams_equal(
            streams[1], functional_pass(ineligible, tiny_trace, seed=5)
        )

    def test_multiway_fifo_falls_back(self, tiny_trace):
        config = baseline_config(
            cache_size_bytes=4 * KB, assoc=2,
            replacement=ReplacementKind.FIFO,
        )
        assert not stack_supported(config)
        stats = StackPassStats()
        stream = run_functional_passes(
            [(config, tiny_trace, 0)], stack_stats=stats,
        )[0]
        assert stats.fallback_passes == 1 and stats.walks == 0
        assert_streams_equal(stream, functional_pass(config, tiny_trace))

    def test_engine_only_config_not_supported(self):
        from repro.core.policy import WritePolicy

        config = baseline_config(cache_size_bytes=4 * KB).with_policy(
            CachePolicy(write_policy=WritePolicy.WRITE_THROUGH)
        )
        assert not stack_supported(config)

    def test_stack_pass_rejects_ineligible_jobs(self, tiny_trace):
        config = baseline_config(cache_size_bytes=4 * KB, assoc=2)
        with pytest.raises(ConfigurationError, match="not stack-eligible"):
            stack_functional_passes([(config, tiny_trace, 0)])


class TestRandomizedMatrix:
    """Satellite: property-style cross-check over random grids."""

    def test_random_grids_bit_identical(self, mu3_small, tiny_trace):
        rng = random.Random(1988)
        traces = [tiny_trace, mu3_small]
        for round_index in range(12):
            trace = traces[round_index % 2]
            replacement = rng.choice(list(ReplacementKind))
            configs = []
            for _ in range(4):
                block = rng.choice((1, 2, 4, 8))
                assoc = rng.choice((1, 2, 4))
                sets = rng.choice((8, 32, 128))
                configs.append(baseline_config(
                    cache_size_bytes=sets * block * 4 * assoc,
                    block_words=block, assoc=assoc,
                    replacement=replacement,
                ))
            seed = rng.randrange(1000)
            stats = StackPassStats()
            streams = run_functional_passes(
                [(c, trace, seed) for c in configs],
                stack_stats=stats,
            )
            expected_fallbacks = sum(
                1 for c in configs if not stack_supported(c)
            )
            assert stats.fallback_passes == expected_fallbacks
            assert stats.walks == (1 if expected_fallbacks < 4 else 0)
            for config, stream in zip(configs, streams):
                assert_streams_equal(
                    stream, functional_pass(config, trace, seed=seed)
                )

    def test_random_points_match_fast_simulate(self, rd2n4_small):
        """End-to-end: stack-derived runs price identically to
        fast_simulate, not just stream-equal."""
        rng = random.Random(42)
        for _ in range(6):
            block = rng.choice((2, 4, 8))
            assoc = rng.choice((1, 2))
            config = baseline_config(
                cache_size_bytes=rng.choice((2, 8, 32)) * KB,
                block_words=block, assoc=assoc,
                cycle_ns=rng.choice((20.0, 40.0, 80.0)),
                replacement=ReplacementKind.LRU,
            )
            stats = StackPassStats()
            assert_stats_equal(
                fast_simulate(config, rd2n4_small),
                routed_simulate(config, rd2n4_small, stats=stats),
            )
            assert stats.fallback_passes == 0


class TestStats:
    def test_merge_and_dict(self):
        """Two walks' stats merge by publishing into one registry."""
        from repro.sim.telemetry import MetricsRegistry

        a = StackPassStats(walks=1, derived_streams=3, reused_streams=2,
                           fallback_passes=1)
        b = StackPassStats(walks=2, derived_streams=1)
        assert a.as_dict() == {
            "walks": 1, "derived_streams": 3, "reused_streams": 2,
            "fallback_passes": 1,
        }
        registry = MetricsRegistry()
        a.publish(registry)
        b.publish(registry)
        assert registry.counters == {
            "stackpass.walks": 3, "stackpass.derived_streams": 4,
            "stackpass.reused_streams": 2, "stackpass.fallback_passes": 1,
        }

    def test_publish_to_registry(self):
        from repro.sim.telemetry import MetricsRegistry

        registry = MetricsRegistry()
        StackPassStats(walks=2, derived_streams=5).publish(registry)
        counters = registry.as_dict()["counters"]
        assert counters["stackpass.walks"] == 2
        assert counters["stackpass.derived_streams"] == 5

    def test_sweep_publishes_registry_counters(self, tiny_trace):
        from repro.core.sweep import run_speed_size_sweep
        from repro.sim.telemetry import MetricsRegistry

        registry = MetricsRegistry()
        run_speed_size_sweep(
            [tiny_trace], [2 * KB, 4 * KB], [20.0, 40.0], registry=registry,
        )
        counters = registry.as_dict()["counters"]
        assert counters["stackpass.walks"] == 1
        assert counters["stackpass.derived_streams"] == 2


class TestRunReportBlock:
    """Stack-pass counters travel in the RunReport ``metrics`` block."""

    _COUNTERS = {"stackpass.walks": 1, "stackpass.derived_streams": 2}

    def test_stack_pass_block_round_trips(self):
        from repro.sim.telemetry import REPORT_SCHEMA, RunReport

        assert REPORT_SCHEMA >= 8
        report = RunReport(
            run_id="r", trace="t", config="c", simulator="fastpath",
            n_refs_total=10, n_refs_measured=8, cycles=100,
            total_cycles=120, warm_cycles=20,
            metrics={"counters": dict(self._COUNTERS)},
        )
        payload = report.to_dict()
        assert "stack_pass" not in payload
        assert payload["metrics"]["counters"] == self._COUNTERS
        rebuilt = RunReport.from_dict(payload)
        assert rebuilt.metrics == report.metrics

    def test_older_schema_defaults_empty(self):
        from repro.sim.telemetry import RunReport

        payload = {
            "schema": 5, "run_id": "r", "trace": "t", "config": "c",
            "simulator": "fastpath", "n_refs_total": 1,
            "n_refs_measured": 1, "cycles": 1, "total_cycles": 1,
            "warm_cycles": 0,
        }
        assert RunReport.from_dict(payload).metrics == {}

    def test_aggregate_folds_stack_totals(self):
        from repro.sim.telemetry import RunReport, aggregate_reports

        reports = [
            RunReport(
                run_id=f"r{i}", trace="t", config="c",
                simulator="fastpath", n_refs_total=1, n_refs_measured=1,
                cycles=1, total_cycles=1, warm_cycles=0,
                metrics={"counters": {
                    "stackpass.walks": 1, "stackpass.derived_streams": i,
                }},
            )
            for i in (1, 2)
        ]
        summary = aggregate_reports(reports)
        assert summary["metrics"]["counters"] == {
            "stackpass.walks": 2, "stackpass.derived_streams": 3,
        }


def test_fully_associative_geometry_direct(tiny_trace):
    """An explicitly-built single-set geometry (not via baseline sizing)
    behaves identically through the stack walk and the scalar pass."""
    from repro.core.timing import MemoryTiming
    from repro.sim.config import L1Spec, SystemConfig

    geometry = CacheGeometry(size_bytes=128, block_words=4, assoc=8)
    assert geometry.n_sets == 1
    config = SystemConfig(
        l1=L1Spec(
            d_geometry=geometry, i_geometry=geometry,
            policy=CachePolicy(replacement=ReplacementKind.LRU),
        ),
        memory=MemoryTiming(),
    )
    assert stack_supported(config)
    stack = stack_functional_passes([(config, tiny_trace, 0)])[0]
    assert_streams_equal(stack, functional_pass(config, tiny_trace))
