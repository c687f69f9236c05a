"""Batch replay-kernel validation: cycle-for-cycle equality with replay().

The kernel's license to exist is exactness: every outcome it prices must
match the scalar ``replay()`` loop bit for bit — cycle counts, memory
operation counters, buffer stall counters — across the same validation
matrix the fastpath itself is held to, plus the contention corners the
vectorized paths hand off to the scalar state machine (write-buffer
full stalls, stale-read match stalls, warm boundary after the final
event, empty event streams).
"""

import pytest

from repro.core.timing import MemoryTiming
from repro.errors import ConfigurationError
from repro.sim.config import baseline_config
from repro.sim.fastpath import EventStream, functional_pass, replay
from repro.sim.replaykernel import BatchReplayKernel, TimingPoint
from repro.sim.statistics import CacheCounters
from repro.units import KB


def assert_outcome_equal(scalar, batch, context=""):
    for field in (
        "cycles", "total_cycles", "warm_cycles",
        "memory_reads", "memory_writes", "memory_busy_cycles",
    ):
        assert getattr(scalar, field) == getattr(batch, field), (
            f"{field} differs {context}"
        )
    assert scalar.buffer == batch.buffer, f"buffer counters differ {context}"


def assert_grid_equal(stream, points):
    """Price ``points`` both ways and require bit-identical outcomes."""
    kernel = BatchReplayKernel(stream)
    outcomes = kernel.replay_grid(points)
    assert len(outcomes) == len(points)
    for point, batch in zip(points, outcomes):
        scalar = replay(
            stream, point.memory, point.cycle_ns, point.write_buffer_depth
        )
        assert_outcome_equal(scalar, batch, context=f"at {point}")
    return outcomes


def empty_stream():
    """An EventStream whose trace produced no timing events at all."""
    return EventStream(
        trace_name="empty", config_summary="synthetic",
        i_block_words=4, d_block_words=4,
        n_couplets=16, n_couplets_measured=8, n_refs_measured=8,
        warm_event_index=0, warm_base_offset=8, end_base=16,
        ev_gap=[], ev_imiss=[], ev_iaddr=[], ev_ipid=[], ev_dtype=[],
        ev_daddr=[], ev_dpid=[], ev_vaddr=[], ev_vpid=[],
        icache=CacheCounters(), dcache=CacheCounters(),
    )


# ----------------------------------------------------------------------
# Equality across the validation matrix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("size_kb", [2, 8, 32])
def test_equality_across_sizes_and_clocks(mu3_small, size_kb):
    config = baseline_config(cache_size_bytes=size_kb * KB)
    stream = functional_pass(config, mu3_small)
    points = [
        TimingPoint(memory=config.memory, cycle_ns=c)
        for c in (20.0, 40.0, 56.0, 80.0)
    ]
    assert_grid_equal(stream, points)


@pytest.mark.parametrize("latency_ns,transfer_rate", [
    (100.0, 4.0), (260.0, 1.0), (420.0, 0.25),
])
def test_equality_across_memory_speeds(
    rd2n4_small, latency_ns, transfer_rate
):
    memory = MemoryTiming().with_latency_ns(latency_ns).with_transfer_rate(
        transfer_rate
    )
    config = baseline_config(cache_size_bytes=8 * KB, memory=memory)
    stream = functional_pass(config, rd2n4_small)
    points = [
        TimingPoint(memory=memory, cycle_ns=c, write_buffer_depth=d)
        for c in (20.0, 40.0) for d in (1, 4)
    ]
    assert_grid_equal(stream, points)


@pytest.mark.parametrize("block_words", [2, 8, 32])
def test_equality_across_block_sizes(mu3_small, block_words):
    config = baseline_config(
        cache_size_bytes=8 * KB, block_words=block_words
    )
    stream = functional_pass(config, mu3_small)
    points = [
        TimingPoint(memory=config.memory, cycle_ns=c)
        for c in (25.0, 65.0)
    ]
    assert_grid_equal(stream, points)


@pytest.mark.parametrize("assoc", [2, 4])
def test_equality_across_associativities(rd2n4_small, assoc):
    config = baseline_config(cache_size_bytes=8 * KB, assoc=assoc)
    stream = functional_pass(config, rd2n4_small)
    points = [
        TimingPoint(memory=config.memory, cycle_ns=c)
        for c in (20.0, 80.0)
    ]
    assert_grid_equal(stream, points)


# ----------------------------------------------------------------------
# Contention corners the vectorized paths must hand off exactly
# ----------------------------------------------------------------------
def test_forced_write_buffer_full_stalls(mu3_small):
    """Depth-1 buffers under a slow memory stall on nearly every push;
    the contended scalar tail must reproduce each stall cycle."""
    memory = MemoryTiming().with_latency_ns(420.0)
    config = baseline_config(cache_size_bytes=2 * KB, memory=memory)
    stream = functional_pass(config, mu3_small)
    points = [
        TimingPoint(memory=memory, cycle_ns=c, write_buffer_depth=1)
        for c in (20.0, 40.0)
    ]
    outcomes = assert_grid_equal(stream, points)
    assert all(o.buffer.full_stalls > 100 for o in outcomes)


@pytest.mark.parametrize("depth", [1, 2, 4, 8])
def test_stale_read_match_stalls(rd2n4_small, depth):
    """Reads overlapping a buffered victim must wait for its drain; the
    thrashing 2 KB configuration hits that corner hundreds of times."""
    config = baseline_config(cache_size_bytes=2 * KB)
    stream = functional_pass(config, rd2n4_small)
    points = [
        TimingPoint(
            memory=config.memory, cycle_ns=c, write_buffer_depth=depth
        )
        for c in (20.0, 40.0)
    ]
    outcomes = assert_grid_equal(stream, points)
    assert all(o.buffer.match_stalls > 100 for o in outcomes)


def test_deep_buffer_beyond_lookback(mu3_small):
    """Depths past the precomputed lookback window fall back to the
    buffer-scanning path; equality must hold there too."""
    config = baseline_config(cache_size_bytes=2 * KB)
    stream = functional_pass(config, mu3_small)
    points = [
        TimingPoint(
            memory=config.memory, cycle_ns=20.0, write_buffer_depth=d
        )
        for d in (9, 16)
    ]
    assert_grid_equal(stream, points)


def test_warm_boundary_after_final_event(mu3_small):
    """When the warm boundary lies after the last event, the snapshot
    is taken at end-of-stream plus the trailing hit cycles."""
    config = baseline_config(cache_size_bytes=8 * KB)
    base = functional_pass(config, mu3_small)
    # Rebuild the stream with the warm boundary pushed past the final
    # event: everything is warm-up, the measured window is empty.
    stream = EventStream(
        trace_name=base.trace_name, config_summary=base.config_summary,
        i_block_words=base.i_block_words, d_block_words=base.d_block_words,
        n_couplets=base.n_couplets, n_couplets_measured=0,
        n_refs_measured=0,
        warm_event_index=base.n_events, warm_base_offset=base.end_base,
        end_base=base.end_base,
        ev_gap=base.ev_gap, ev_imiss=base.ev_imiss,
        ev_iaddr=base.ev_iaddr, ev_ipid=base.ev_ipid,
        ev_dtype=base.ev_dtype, ev_daddr=base.ev_daddr,
        ev_dpid=base.ev_dpid, ev_vaddr=base.ev_vaddr,
        ev_vpid=base.ev_vpid,
        icache=CacheCounters(), dcache=CacheCounters(),
    )
    points = [
        TimingPoint(memory=config.memory, cycle_ns=c, write_buffer_depth=d)
        for c in (20.0, 56.0) for d in (1, 4)
    ]
    outcomes = assert_grid_equal(stream, points)
    for outcome in outcomes:
        assert outcome.memory_reads == 0
        assert outcome.memory_writes == 0


def test_empty_event_stream():
    stream = empty_stream()
    points = [
        TimingPoint(memory=MemoryTiming(), cycle_ns=c, write_buffer_depth=d)
        for c in (20.0, 80.0) for d in (1, 8)
    ]
    outcomes = assert_grid_equal(stream, points)
    for outcome in outcomes:
        assert outcome.total_cycles == stream.end_base
        assert outcome.buffer.pushes == 0


# ----------------------------------------------------------------------
# Kernel bookkeeping
# ----------------------------------------------------------------------
def test_grid_outcomes_do_not_alias(mu3_small):
    """Points with identical quantized costs are priced once, but every
    returned outcome must own its (mutable) buffer counters."""
    config = baseline_config(cache_size_bytes=4 * KB)
    stream = functional_pass(config, mu3_small)
    # 65 ns and 80 ns quantize the default memory to the same per-event
    # cycle costs; the outcomes are equal but must not share state.
    points = [
        TimingPoint(memory=config.memory, cycle_ns=c)
        for c in (65.0, 80.0)
    ]
    first, second = BatchReplayKernel(stream).replay_grid(points)
    assert first.cycles == second.cycles
    assert first.buffer == second.buffer
    assert first is not second
    assert first.buffer is not second.buffer


def test_kernel_stats_account_every_event(mu3_small):
    config = baseline_config(cache_size_bytes=8 * KB)
    stream = functional_pass(config, mu3_small)
    kernel = BatchReplayKernel(stream)
    points = [
        TimingPoint(memory=config.memory, cycle_ns=c)
        for c in (20.0, 40.0, 56.0)
    ]
    kernel.replay_grid(points)
    stats = kernel.stats
    assert stats.batch_outcomes == len(points)
    assert stats.scalar_replays == 0
    assert (
        stats.vectorized_events + stats.scalar_events
        == stream.n_events * len(points)
    )
    assert stats.vectorized_events > 0


def test_timing_point_validation():
    with pytest.raises(ConfigurationError):
        TimingPoint(memory=MemoryTiming(), cycle_ns=0.0)
    with pytest.raises(ConfigurationError):
        TimingPoint(memory=MemoryTiming(), cycle_ns=40.0,
                    write_buffer_depth=0)
