"""Fastpath validation: cycle-for-cycle equality with the engine.

This is the license for every design-space sweep in the repository:
the two-phase functional-pass + timing-replay simulator must agree with
the reference engine *exactly* — cycle counts, miss counters, write-back
traffic, buffer stalls and memory operation counts — across cache
organizations, clocks, memory speeds and buffer depths.
"""

import dataclasses
import functools
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.geometry import CacheGeometry
from repro.core.policy import ReplacementKind
from repro.core.timing import MemoryTiming
from repro.errors import ConfigurationError
from repro.sim.config import LowerLevelSpec, baseline_config
from repro.sim.engine import simulate
from repro.sim.fastpath import (
    assemble_stats,
    check_fastpath_supported,
    fast_simulate,
    functional_pass,
    replay,
)
from repro.sim.passcache import PassCache, cached_fast_simulate
from repro.trace.suite import build_trace
from repro.units import KB


def assert_stats_equal(engine_stats, fast_stats):
    assert engine_stats.cycles == fast_stats.cycles
    assert engine_stats.total_cycles == fast_stats.total_cycles
    assert engine_stats.warm_cycles == fast_stats.warm_cycles
    for side in ("icache", "dcache"):
        e = getattr(engine_stats, side)
        f = getattr(fast_stats, side)
        assert e == f, f"{side} counters differ"
    assert engine_stats.memory_reads == fast_stats.memory_reads
    assert engine_stats.memory_writes == fast_stats.memory_writes
    assert engine_stats.buffer == fast_stats.buffer


@pytest.mark.parametrize("size_kb", [2, 8, 32])
@pytest.mark.parametrize("cycle_ns", [20.0, 40.0, 56.0, 80.0])
def test_equality_across_sizes_and_clocks(mu3_small, size_kb, cycle_ns):
    config = baseline_config(
        cache_size_bytes=size_kb * KB, cycle_ns=cycle_ns
    )
    assert_stats_equal(
        simulate(config, mu3_small), fast_simulate(config, mu3_small)
    )


@pytest.mark.parametrize("assoc", [1, 2, 4])
def test_equality_across_associativities(rd2n4_small, assoc):
    config = baseline_config(cache_size_bytes=8 * KB, assoc=assoc)
    assert_stats_equal(
        simulate(config, rd2n4_small), fast_simulate(config, rd2n4_small)
    )


@pytest.mark.parametrize("block_words", [2, 8, 32])
def test_equality_across_block_sizes(mu3_small, block_words):
    config = baseline_config(
        cache_size_bytes=8 * KB, block_words=block_words
    )
    assert_stats_equal(
        simulate(config, mu3_small), fast_simulate(config, mu3_small)
    )


@pytest.mark.parametrize("latency_ns,transfer_rate", [
    (100.0, 4.0), (260.0, 1.0), (420.0, 0.25),
])
def test_equality_across_memory_speeds(rd2n4_small, latency_ns, transfer_rate):
    memory = MemoryTiming().with_latency_ns(latency_ns).with_transfer_rate(
        transfer_rate
    )
    config = baseline_config(cache_size_bytes=8 * KB, memory=memory)
    assert_stats_equal(
        simulate(config, rd2n4_small), fast_simulate(config, rd2n4_small)
    )


@pytest.mark.parametrize("depth", [1, 2, 8])
def test_equality_across_buffer_depths(mu3_small, depth):
    config = baseline_config(cache_size_bytes=4 * KB, write_buffer_depth=depth)
    assert_stats_equal(
        simulate(config, mu3_small), fast_simulate(config, mu3_small)
    )


def test_one_pass_replays_to_many_clocks(mu3_small):
    """A single functional pass re-priced at several clocks must equal a
    fresh engine run at each clock — the sweep drivers rely on this."""
    config = baseline_config(cache_size_bytes=8 * KB)
    stream = functional_pass(config, mu3_small)
    for cycle_ns in (24.0, 36.0, 52.0, 64.0):
        outcome = replay(stream, config.memory, cycle_ns)
        fast = assemble_stats(stream, outcome, cycle_ns)
        engine = simulate(config.with_cycle_ns(cycle_ns), mu3_small)
        assert_stats_equal(engine, fast)


@functools.lru_cache(maxsize=None)
def short_traces():
    """One VAX-family and one RISC-family trace, short enough to run
    both simulators per drawn machine."""
    return (
        build_trace("mu3", length=2500, seed=5),
        build_trace("rd2n4", length=2500, seed=6),
    )


replacements = st.sampled_from(list(ReplacementKind))


@st.composite
def machines(draw):
    """A fastpath L1 with one or two lower levels below it.

    Each level's blocks are at least as large as the blocks of the level
    above, and multi-way levels draw every replacement policy, so the
    levels' own seeded RANDOM victims are exercised."""
    l1_block = draw(st.sampled_from([1, 2, 4, 8]))
    config = baseline_config(
        cache_size_bytes=draw(st.sampled_from([256, 1 * KB, 4 * KB])),
        block_words=l1_block,
        assoc=draw(st.sampled_from([1, 2])),
        replacement=draw(replacements),
        write_buffer_depth=draw(st.sampled_from([1, 2, 4])),
        cycle_ns=draw(st.sampled_from([20.0, 40.0])),
    )
    levels = []
    block = l1_block
    for _ in range(draw(st.integers(1, 2))):
        block = draw(st.sampled_from([b for b in (2, 4, 8, 16) if b >= block]))
        assoc = draw(st.sampled_from([1, 2, 4]))
        spec = LowerLevelSpec(
            geometry=CacheGeometry(
                size_bytes=draw(st.sampled_from([1 * KB, 4 * KB, 16 * KB])),
                block_words=block, assoc=assoc,
            ),
            port=MemoryTiming(
                latency_ns=draw(st.sampled_from([20.0, 60.0, 100.0])),
                transfer_rate=1.0, write_op_ns=0.0, recovery_ns=0.0,
            ),
            write_buffer_depth=draw(st.sampled_from([1, 4])),
        )
        levels.append(dataclasses.replace(spec, policy=dataclasses.replace(
            spec.policy, replacement=draw(replacements),
        )))
    return config.with_levels(tuple(levels))


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(config=machines(), trace_index=st.integers(0, 1),
       seed=st.integers(0, 2**31 - 1))
def test_lower_levels_equal_the_engine(config, trace_index, seed):
    """Replaying an L1 event stream through drawn lower levels equals
    the engine: cycles, L1, memory, buffer and first-lower-level
    counters.  A pass served through the pass cache must carry the
    seed to the lower levels too."""
    trace = short_traces()[trace_index]
    engine = simulate(config, trace, seed=seed)
    fast = fast_simulate(config, trace, seed=seed)
    assert_stats_equal(engine, fast)
    assert engine.memory_busy_cycles == fast.memory_busy_cycles
    assert engine.lower is not None
    assert engine.lower == fast.lower
    with tempfile.TemporaryDirectory() as directory:
        cached = cached_fast_simulate(
            config, trace, PassCache(directory), seed=seed
        )
    assert cached == fast


class TestSupportChecks:
    def test_unified_rejected(self):
        from repro.core.geometry import CacheGeometry
        from repro.sim.config import L1Spec, SystemConfig

        config = SystemConfig(
            l1=L1Spec(d_geometry=CacheGeometry(size_bytes=4 * KB), unified=True)
        )
        with pytest.raises(ConfigurationError):
            check_fastpath_supported(config)

    def test_multilevel_accepted(self, tiny_trace):
        """Lower levels change nothing above L1: a machine with an L2
        passes the check and shares the single-level machine's pass."""
        from repro.core.geometry import CacheGeometry
        from repro.sim.config import LowerLevelSpec
        from repro.sim.stackpass import pass_key

        single = baseline_config(cache_size_bytes=4 * KB)
        config = single.with_levels(
            (LowerLevelSpec(geometry=CacheGeometry(size_bytes=64 * KB, block_words=4)),)
        )
        check_fastpath_supported(config)
        assert pass_key(config, tiny_trace, 0) == pass_key(single, tiny_trace, 0)
        assert functional_pass(config, tiny_trace) == dataclasses.replace(
            functional_pass(single, tiny_trace),
            config_summary=config.describe(),
        )

    def test_write_through_rejected(self):
        from repro.core.policy import CachePolicy, WritePolicy

        config = baseline_config(cache_size_bytes=4 * KB).with_policy(
            CachePolicy(write_policy=WritePolicy.WRITE_THROUGH)
        )
        with pytest.raises(ConfigurationError):
            check_fastpath_supported(config)

    def test_base_config_supported(self):
        check_fastpath_supported(baseline_config())


class TestDegenerateOrganizations:
    """Corner organizations the stack pass's set-refinement collapses
    onto: the engine and fastpath must agree exactly on each, and both
    simulators must reject the no-measurement corners identically."""

    def _policies(self):
        from repro.core.policy import ReplacementKind

        return list(ReplacementKind)

    def test_fully_associative_single_set(self, tiny_trace):
        from repro.core.policy import ReplacementKind

        for replacement in self._policies():
            assoc = 4
            config = baseline_config(
                cache_size_bytes=4 * 4 * assoc, block_words=4, assoc=assoc,
                replacement=replacement,
            )
            assert config.l1.i_geometry.n_sets == 1
            assert_stats_equal(
                simulate(config, tiny_trace),
                fast_simulate(config, tiny_trace),
            )

    def test_direct_mapped_every_policy(self, tiny_trace):
        for replacement in self._policies():
            config = baseline_config(
                cache_size_bytes=2 * KB, replacement=replacement
            )
            assert_stats_equal(
                simulate(config, tiny_trace),
                fast_simulate(config, tiny_trace),
            )

    def test_empty_trace_rejected_by_both(self):
        from repro.trace.record import Trace

        empty = Trace([], [], name="empty", warm_boundary=0)
        config = baseline_config(cache_size_bytes=4 * KB)
        with pytest.raises(ConfigurationError, match="warm boundary"):
            fast_simulate(config, empty)
        with pytest.raises(ConfigurationError, match="warm boundary"):
            simulate(config, empty)

    def test_exhausted_warm_boundary_rejected_by_both(self):
        from repro.trace.record import RefKind, Trace

        kinds = [int(RefKind.IFETCH)] * 20
        trace = Trace(kinds, list(range(20)), name="w", warm_boundary=20)
        config = baseline_config(cache_size_bytes=4 * KB)
        with pytest.raises(ConfigurationError, match="warm boundary"):
            fast_simulate(config, trace)
        with pytest.raises(ConfigurationError, match="warm boundary"):
            simulate(config, trace)
