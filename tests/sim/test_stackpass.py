"""Per-organization pass: bit-equality with the reference pass.

``organization_pass`` exists on one license, exactness: every
EventStream it produces must be *bit-identical* to the one
``functional_pass`` (the ``Cache``-object reference) produces for the
same organization — scalars, all nine event buffers, and
warm-measured counters.  These tests pin that across LRU, FIFO and
RANDOM grids, timing siblings that share one pass, the degenerate
corners (direct-mapped, single-set fully associative, store-headed
same-key runs, keys past 64 bits, zero-event and exhausted-warm
streams) and randomized ``(size, assoc, block)`` matrices.
"""

import dataclasses
import random

import pytest

from repro.core.geometry import CacheGeometry
from repro.core.policy import CachePolicy, ReplacementKind
from repro.core.sweep import run_functional_passes
from repro.core.timing import MemoryTiming
from repro.errors import ConfigurationError
from repro.sim.config import baseline_config
from repro.sim.fastpath import (
    EVENT_FIELDS,
    fast_simulate,
    functional_pass,
)
from repro.sim.stackpass import organization_pass, stack_functional_passes
from repro.sim.telemetry import MetricsRegistry
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


def reference_simulate(config, trace, seed=0):
    """The scalar reference: one ``functional_pass``, one replay."""
    return fast_simulate(
        config, trace, stream=functional_pass(config, trace, seed=seed)
    )


def routed_simulate(config, trace, registry=None):
    """fast_simulate, with the pass served by run_functional_passes."""
    stream = run_functional_passes(
        [(config, trace, 0)], registry=registry
    )[0]
    return fast_simulate(config, trace, stream=stream)


def counters(jobs, **kwargs):
    """Run ``jobs`` through the sweep route; return the streams and the
    ``stackpass.*`` counters it published."""
    registry = MetricsRegistry()
    streams = run_functional_passes(jobs, registry=registry, **kwargs)
    return streams, registry.counters


def store_headed_runs(pids):
    """Data runs of one block each, most opening with stores, each after
    a fetch, over ``pids``.  A store before its block's first load
    misses and bypasses.  Pid 0's words sit at ``2**48``, so at 4-word
    blocks its keys alias pid 4's as the ``Cache`` keys
    ``(pid << 44) | block`` do; pids ``2**20 - 1`` and ``2**31 - 1``
    make keys that agree in their low 64 bits."""
    rng = random.Random(27)
    ifetch, load, store = (int(kind) for kind in RefKind)
    kinds, addrs, run_pids = [], [], []
    for run in range(300):
        pid = rng.choice(pids)
        base = (1 << 48 if pid == 0 else 0) + 4 * rng.randrange(12)
        shape = (
            [store] * rng.randint(0, 3) + [load] * rng.randint(0, 2)
            + [store] * rng.randint(0, 2)
        )
        kinds += [ifetch] + shape
        addrs += [run % 32] + [base + rng.randrange(4) for _ in shape]
        run_pids += [pid] * (1 + len(shape))
    return Trace(kinds, addrs, run_pids, name="store-runs",
                 warm_boundary=len(kinds) // 3)


def split_config(geometry, replacement):
    """Both sides of one geometry under ``replacement``."""
    from repro.sim.config import L1Spec, SystemConfig

    return SystemConfig(l1=L1Spec(
        d_geometry=geometry, i_geometry=geometry,
        policy=CachePolicy(replacement=replacement),
    ))


def lru_config(size_bytes, assoc=1, block_words=4, **kwargs):
    return baseline_config(
        cache_size_bytes=size_bytes, assoc=assoc, block_words=block_words,
        replacement=ReplacementKind.LRU, **kwargs,
    )


class TestGridEquality:
    def test_lru_grid_one_pass_per_organization(self, mu3_small):
        """A full (size x assoc x block) LRU grid takes one pass
        per organization, bit-identical to the reference passes."""
        configs = [
            lru_config(size * KB, assoc=assoc, block_words=block)
            for size in (2, 8)
            for assoc in (1, 2, 4)
            for block in (2, 8)
        ]
        streams, counts = counters([(c, mu3_small, 0) for c in configs])
        assert counts == {
            "stackpass.passes": len(configs), "stackpass.reused_streams": 0,
        }
        for config, stream in zip(configs, streams):
            assert_streams_equal(stream, functional_pass(config, mu3_small))

    def test_direct_mapped_random_any_seed(self, rd2n4_small):
        """assoc=1 leaves RANDOM replacement no victim choice: the seed
        cannot change the stream, exactly as it cannot for the
        reference pass."""
        configs = [baseline_config(cache_size_bytes=s * KB) for s in (2, 4, 8)]
        by_seed = []
        for seed in (0, 7):
            streams = run_functional_passes(
                [(c, rd2n4_small, seed) for c in configs]
            )
            for config, stream in zip(configs, streams):
                assert_streams_equal(
                    stream, functional_pass(config, rd2n4_small, seed=seed)
                )
            by_seed.append(streams)
        for a, b in zip(*by_seed):
            assert_streams_equal(a, b)

    def test_temporal_variants_share_one_derivation(self, tiny_trace):
        """Configs differing only in cycle time, memory timing or
        write-buffer depth share one pass; only the labels and counter
        identities differ."""
        base = lru_config(4 * KB)
        configs = [
            base,
            base.with_cycle_ns(20.0),
            dataclasses.replace(
                base, memory=MemoryTiming().with_latency_ns(260.0)
            ),
            dataclasses.replace(
                base, l1=dataclasses.replace(base.l1, write_buffer_depth=1)
            ),
        ]
        streams, counts = counters([(c, tiny_trace, 0) for c in configs])
        assert counts == {
            "stackpass.passes": 1, "stackpass.reused_streams": 3,
        }
        for config, stream in zip(configs, streams):
            assert stream.config_summary == config.describe()
            assert_streams_equal(stream, functional_pass(config, tiny_trace))
        assert streams[0].icache is not streams[1].icache
        assert streams[0].dcache is not streams[1].dcache

    def test_mixed_traces_one_pass_each(self, mu3_small, rd2n4_small):
        """The same organization over two traces is two passes."""
        configs = [lru_config(s * KB) for s in (2, 8)]
        jobs = [
            (config, trace, 0)
            for trace in (mu3_small, rd2n4_small)
            for config in configs
        ]
        streams, counts = counters(jobs)
        assert counts["stackpass.passes"] == 4
        for (config, trace, _seed), stream in zip(jobs, streams):
            assert_streams_equal(stream, functional_pass(config, trace))


class TestDegenerateCorners:
    """The corners where set models collapse or nothing is measured."""

    @pytest.mark.parametrize("replacement", list(ReplacementKind))
    def test_fully_associative_single_set(self, tiny_trace, replacement):
        """size == block_bytes * assoc gives n_sets == 1: the whole
        cache is one set under every policy."""
        assoc = 4
        config = baseline_config(
            cache_size_bytes=4 * 4 * assoc, block_words=4, assoc=assoc,
            replacement=replacement,
        )
        assert config.l1.i_geometry.n_sets == 1
        reference = functional_pass(config, tiny_trace)
        assert_streams_equal(organization_pass(config, tiny_trace), reference)
        streams, counts = counters([(config, tiny_trace, 0)])
        assert_streams_equal(streams[0], reference)
        assert counts["stackpass.passes"] == 1

    @pytest.mark.parametrize("replacement", list(ReplacementKind))
    def test_fully_associative_store_runs(self, replacement):
        """One set of four ways under every policy, over store-headed
        runs of three pids: the filter must keep a run's stores until
        its first load."""
        geometry = CacheGeometry(size_bytes=64, block_words=4, assoc=4)
        assert geometry.n_sets == 1
        config = split_config(geometry, replacement)
        trace = store_headed_runs(pids=(1, 2, 3))
        for seed in (0, 9):
            assert_streams_equal(
                organization_pass(config, trace, seed=seed),
                functional_pass(config, trace, seed=seed),
            )

    @pytest.mark.parametrize("replacement", list(ReplacementKind))
    def test_huge_pid_keys_two_way(self, replacement):
        """Keys of pids up to 2**31 - 1 and of aliasing addresses stay
        exact in the two-way per-set loop: no key is packed into 64
        bits."""
        config = split_config(
            CacheGeometry(size_bytes=256, block_words=4, assoc=2),
            replacement,
        )
        trace = store_headed_runs(pids=(0, 4, (1 << 20) - 1, (1 << 31) - 1))
        assert_streams_equal(
            organization_pass(config, trace, seed=5),
            functional_pass(config, trace, seed=5),
        )

    @pytest.mark.parametrize("replacement", list(ReplacementKind))
    def test_direct_mapped_every_policy(self, tiny_trace, replacement):
        config = baseline_config(
            cache_size_bytes=2 * KB, replacement=replacement
        )
        assert_streams_equal(
            organization_pass(config, tiny_trace),
            functional_pass(config, tiny_trace),
        )

    def test_empty_trace_raises_like_scalar(self):
        empty = Trace([], [], name="empty", warm_boundary=0)
        config = lru_config(4 * KB)
        with pytest.raises(ConfigurationError, match="warm boundary"):
            functional_pass(config, empty)
        with pytest.raises(ConfigurationError, match="warm boundary"):
            organization_pass(config, empty)

    def test_exhausted_warm_boundary_raises_like_scalar(self):
        kinds = [int(RefKind.IFETCH)] * 50
        addrs = list(range(50))
        full_warm = Trace(kinds, addrs, name="warm", warm_boundary=50)
        config = lru_config(4 * KB)
        with pytest.raises(ConfigurationError, match="warm boundary"):
            functional_pass(config, full_warm)
        with pytest.raises(ConfigurationError, match="warm boundary"):
            organization_pass(config, full_warm)

    def test_zero_event_measured_region(self):
        """A loop that fits in cache: every post-warm couplet hits, so
        the measured region has zero events — the stream and its replay
        must still match the reference exactly."""
        kinds, addrs = [], []
        for _rep in range(40):
            for word in range(16):
                kinds.append(int(RefKind.IFETCH))
                addrs.append(word)
        trace = Trace(kinds, addrs, name="resident", warm_boundary=320)
        config = lru_config(4 * KB)
        scalar = functional_pass(config, trace)
        inline = organization_pass(config, trace)
        assert_streams_equal(inline, scalar)
        assert inline.warm_event_index == inline.n_events  # none measured
        assert_stats_equal(
            reference_simulate(config, trace),
            routed_simulate(config, trace),
        )


class TestFallback:
    """Multi-way FIFO and RANDOM, the organizations a shared LRU walk
    could never serve, take the same pass as every other."""

    def test_multiway_random_falls_back(self, tiny_trace):
        direct = baseline_config(cache_size_bytes=4 * KB)
        multiway = baseline_config(cache_size_bytes=4 * KB, assoc=2)
        streams, counts = counters(
            [(direct, tiny_trace, 5), (multiway, tiny_trace, 5)]
        )
        assert counts["stackpass.passes"] == 2
        assert_streams_equal(
            streams[0], functional_pass(direct, tiny_trace, seed=5)
        )
        assert_streams_equal(
            streams[1], functional_pass(multiway, tiny_trace, seed=5)
        )

    def test_multiway_fifo_falls_back(self, tiny_trace):
        config = baseline_config(
            cache_size_bytes=4 * KB, assoc=2,
            replacement=ReplacementKind.FIFO,
        )
        streams, counts = counters([(config, tiny_trace, 0)])
        assert counts["stackpass.passes"] == 1
        assert_streams_equal(streams[0], functional_pass(config, tiny_trace))

    def test_engine_only_config_not_supported(self, tiny_trace):
        from repro.core.policy import WritePolicy

        config = baseline_config(cache_size_bytes=4 * KB).with_policy(
            CachePolicy(write_policy=WritePolicy.WRITE_THROUGH)
        )
        with pytest.raises(ConfigurationError, match="write-back"):
            organization_pass(config, tiny_trace)

    def test_rejects_jobs_that_are_not_timing_siblings(
        self, tiny_trace, mu3_small
    ):
        """One call is one pass: jobs over another organization, seed or
        trace contents must not be handed a sibling's stream."""
        config = baseline_config(cache_size_bytes=4 * KB)
        for other in (
            (baseline_config(cache_size_bytes=8 * KB), tiny_trace, 0),
            (config, tiny_trace, 1),
            (config, mu3_small, 0),
        ):
            with pytest.raises(ConfigurationError, match="timing"):
                stack_functional_passes([(config, tiny_trace, 0), other])


class TestRandomizedMatrix:
    """Property-style cross-check over random grids."""

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
            streams, counts = counters([(c, trace, seed) for c in configs])
            assert counts["stackpass.passes"] == len(set(configs))
            for config, stream in zip(configs, streams):
                assert_streams_equal(
                    stream, functional_pass(config, trace, seed=seed)
                )

    def test_random_points_match_fast_simulate(self, rd2n4_small):
        """End-to-end: routed runs price identically to fast_simulate
        over the reference stream, not just stream-equal."""
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
            registry = MetricsRegistry()
            assert_stats_equal(
                reference_simulate(config, rd2n4_small),
                routed_simulate(config, rd2n4_small, registry=registry),
            )
            assert registry.counters["stackpass.passes"] == 1


class TestStats:
    def test_merge_and_dict(self, tiny_trace):
        """Two batches' counters merge in one registry."""
        config = baseline_config(cache_size_bytes=4 * KB)
        registry = MetricsRegistry()
        siblings = [config, config.with_cycle_ns(20.0)]
        run_functional_passes(
            [(c, tiny_trace, 0) for c in siblings], registry=registry,
        )
        run_functional_passes(
            [(baseline_config(cache_size_bytes=8 * KB), tiny_trace, 0)],
            registry=registry,
        )
        assert registry.counters == {
            "stackpass.passes": 2, "stackpass.reused_streams": 1,
        }

    def test_publish_to_registry(self, tiny_trace, tmp_path):
        """run_functional_passes publishes its own counters, and nothing
        when every stream was a cache hit."""
        from repro.sim.passcache import PassCache

        config = baseline_config(cache_size_bytes=4 * KB)
        jobs = [
            (config, tiny_trace, 0),
            (config.with_cycle_ns(20.0), tiny_trace, 0),
        ]
        cache = PassCache(tmp_path / "pc")
        _streams, cold = counters(jobs, cache=cache)
        _streams, warm = counters(jobs, cache=cache)
        assert cold == {
            "stackpass.passes": 1, "stackpass.reused_streams": 1,
        }
        assert warm == {}

    def test_sweep_publishes_registry_counters(self, tiny_trace):
        from repro.core.sweep import run_speed_size_sweep

        registry = MetricsRegistry()
        run_speed_size_sweep(
            [tiny_trace], [2 * KB, 4 * KB], [20.0, 40.0], registry=registry,
        )
        counts = registry.as_dict()["counters"]
        assert counts["stackpass.passes"] == 2
        assert counts["stackpass.reused_streams"] == 0


class TestRunReportBlock:
    """Stack-pass counters travel in the RunReport ``metrics`` block."""

    _COUNTERS = {"stackpass.passes": 2, "stackpass.reused_streams": 1}

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
                    "stackpass.passes": 1, "stackpass.reused_streams": i,
                }},
            )
            for i in (1, 2)
        ]
        summary = aggregate_reports(reports)
        assert summary["metrics"]["counters"] == {
            "stackpass.passes": 2, "stackpass.reused_streams": 3,
        }


def test_fully_associative_geometry_direct(tiny_trace):
    """An explicitly-built single-set geometry (not via baseline sizing)
    behaves identically through the pass and the reference."""
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
    inline = organization_pass(config, tiny_trace)
    assert_streams_equal(inline, functional_pass(config, tiny_trace))
