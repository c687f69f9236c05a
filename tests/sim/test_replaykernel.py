"""Batch replay-kernel validation: cycle-for-cycle equality with replay().

The kernel's license to exist is exactness: every outcome it prices must
match the scalar ``replay()`` loop bit for bit — cycle counts, memory
operation counters, buffer stall counters — across the same validation
matrix the fastpath itself is held to, plus the contention corners the
vectorized paths hand off to the scalar state machine (write-buffer
full stalls, stale-read match stalls, warm boundary after the final
event, empty event streams).  Saturated write-miss bursts, which the
kernel prices in closed form, are held to ``replay()`` over drawn
streams of store runs and over rd1n5's start-up store sweep.
"""

import functools

import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from repro.core.sweep import _price_streams
from repro.core.timing import MemoryTiming
from repro.errors import ConfigurationError
from repro.sim.config import baseline_config
from repro.sim.fastpath import (
    _D_READ_MISS,
    _D_WRITE_MISS,
    EVENT_FIELDS,
    EventStream,
    functional_pass,
    replay,
)
from repro.sim.replaykernel import BatchReplayKernel, TimingPoint
from repro.sim.statistics import CacheCounters
from repro.sim.telemetry import MetricsRegistry
from repro.trace.suite import build_trace
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


# ----------------------------------------------------------------------
# Saturated write-miss bursts
# ----------------------------------------------------------------------
def push_stream(events, warm_event_index=0, block_words=4):
    """A one-pid stream of ``(shape, gap, word)`` events that all push
    into the write buffer: ``"wm"`` is a pure write miss (the only shape
    a burst prices), ``"iwm"`` a write miss riding an instruction miss,
    and ``"victim"`` a dirty read miss, whose victim costs a whole
    block's transfer to drain.  No event is push-free, so every event
    the kernel counts as vectorized was priced by a burst."""
    cols = {name: [] for name in EVENT_FIELDS}
    for shape, gap, word in events:
        victim = shape == "victim"
        row = dict(
            ev_gap=gap, ev_imiss=int(shape == "iwm"), ev_iaddr=word,
            ev_ipid=0, ev_dtype=_D_READ_MISS if victim else _D_WRITE_MISS,
            ev_daddr=word, ev_dpid=0, ev_vaddr=word + 64 if victim else -1,
            ev_vpid=0 if victim else -1,
        )
        for name in EVENT_FIELDS:
            cols[name].append(row[name])
    n = len(events)
    return EventStream(
        trace_name="push-only", config_summary="synthetic",
        i_block_words=block_words, d_block_words=block_words,
        n_couplets=n + 8, n_couplets_measured=n, n_refs_measured=n,
        warm_event_index=warm_event_index, warm_base_offset=5,
        end_base=n + 8, icache=CacheCounters(), dcache=CacheCounters(),
        **cols,
    )


def op_rec(point):
    """Write-op plus recovery cycles: the port period a burst runs at."""
    memory, cycle_ns = point.memory, point.cycle_ns
    return (
        memory.write_cycles(1, cycle_ns) - memory.write_handoff_cycles(1)
        + memory.recovery_cycles(cycle_ns)
    )


def price_both_ways(stream, point):
    """(kernel outcome, kernel stats); fails unless ``replay()`` prices
    the point to the same whole outcome."""
    kernel = BatchReplayKernel(stream)
    [outcome] = kernel.replay_grid([point])
    assert outcome == replay(
        stream, point.memory, point.cycle_ns, point.write_buffer_depth
    ), f"at {point}"
    return outcome, kernel.stats


#: Writes of 300 ns drain far slower than stores arrive, so store runs
#: fill any buffer; at 20 ns op_rec is 21 cycles.
SLOW_WRITES = MemoryTiming(write_op_ns=300.0)


def runs_after_victims(max_run):
    """Store runs of every length from 1 to ``max_run``, each after a
    dirty read miss, with gaps of 0 and 1 cycles."""
    events = []
    for length in range(1, max_run + 1):
        events.append(("victim", 1, 8 * length))
        events += [("wm", w % 2, 8 * length + w) for w in range(length)]
    return events


@pytest.mark.parametrize("depth", [1, 2, 4, 8, 9, 12])
def test_bursts_shorter_equal_and_longer_than_the_depth(depth):
    """Runs both sides of the depth, each starting with a victim entry
    (tc = t_dblock) in a full buffer; depths 9 and 12 pass the kernel's
    8-entry lookback."""
    stream = push_stream(runs_after_victims(3 * depth + 3))
    point = TimingPoint(
        memory=SLOW_WRITES, cycle_ns=20.0, write_buffer_depth=depth
    )
    outcome, stats = price_both_ways(stream, point)
    assert outcome.buffer.max_occupancy == depth
    assert stats.vectorized_events > 0


@pytest.mark.parametrize("depth", [1, 4, 12])
@pytest.mark.parametrize("warm", [0, 7, 18, 25, 39, 40])
def test_bursts_cut_by_the_warm_boundary_and_the_stream_end(depth, warm):
    """One 40-store run that saturates the buffer and ends the stream,
    with the warm boundary before it, inside it and after it."""
    stream = push_stream(
        [("wm", 0, w) for w in range(40)], warm_event_index=warm
    )
    point = TimingPoint(
        memory=SLOW_WRITES, cycle_ns=20.0, write_buffer_depth=depth
    )
    _, stats = price_both_ways(stream, point)
    assert stats.vectorized_events > 0


@pytest.mark.parametrize("depth", [1, 4, 12])
def test_no_burst_without_write_op_or_recovery(depth):
    """With op_rec == 0 the port never sits a drain behind; the burst
    form stays off and every push prices through the scalar steps."""
    memory = MemoryTiming(write_op_ns=0.0, recovery_ns=0.0)
    point = TimingPoint(memory=memory, cycle_ns=20.0, write_buffer_depth=depth)
    assert op_rec(point) == 0
    _, stats = price_both_ways(push_stream(runs_after_victims(30)), point)
    assert stats.vectorized_events == 0


#: Timing points whose costs include zero write-op, recovery and
#: address cycles, and buffer depths on both sides of the lookback.
burst_points = st.builds(
    lambda latency, rate, write_op, recovery, address, cycle_ns, depth:
    TimingPoint(
        memory=MemoryTiming(
            latency_ns=latency, transfer_rate=rate, write_op_ns=write_op,
            recovery_ns=recovery, address_cycles=address,
        ),
        cycle_ns=cycle_ns, write_buffer_depth=depth,
    ),
    st.sampled_from([0.0, 180.0, 420.0]),
    st.sampled_from([4.0, 1.0, 0.25]),
    st.sampled_from([0.0, 100.0, 300.0]),
    st.sampled_from([0.0, 120.0]),
    st.sampled_from([0, 1, 2]),
    st.sampled_from([20.0, 40.0]),
    st.integers(1, 12),
)


@st.composite
def store_runs(draw):
    """``(stream, point)``: runs of pure write misses whose gaps sit
    around the point's op_rec, split by write misses riding instruction
    misses and by dirty read misses (some re-reading buffered words),
    with the warm boundary anywhere."""
    point = draw(burst_points)
    rec = op_rec(point)
    gaps = st.sampled_from(sorted({0, 1, max(rec - 1, 0), rec, rec + 1}))
    events = []
    word = 0
    for shape, run in draw(st.lists(
        st.tuples(
            st.sampled_from(["wm", "wm", "wm", "iwm", "victim"]),
            st.lists(gaps, min_size=1, max_size=30),
        ),
        min_size=1, max_size=10,
    )):
        if shape == "wm":
            for gap in run:
                events.append(("wm", gap, word))
                word += 1
        else:
            back = draw(st.integers(0, 16))
            events.append((shape, run[0], max(word - back, 0)))
    warm = draw(st.integers(0, len(events)))
    return push_stream(events, warm_event_index=warm), point


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=store_runs())
def test_drawn_store_runs_price_like_replay(case):
    stream, point = case
    outcome, stats = price_both_ways(stream, point)
    # Every burst event is a forced drain of a full buffer.
    assert stats.vectorized_events <= outcome.buffer.full_stalls
    if op_rec(point) == 0:
        assert stats.vectorized_events == 0


#: Generated tests that price over a process pool report the example
#: they drew without shrinking it: every shrink step would start a pool
#: again.  ``test_drawn_store_runs_price_like_replay`` draws from the
#: same strategy in-process and does the shrinking.
POOLED = dict(
    deadline=None, suppress_health_check=[HealthCheck.too_slow],
    phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target],
)


@settings(max_examples=5, **POOLED)
@given(cases=st.lists(store_runs(), min_size=1, max_size=3))
def test_drawn_store_runs_price_like_replay_sharded(cases):
    """Sharded pricing of burst-heavy streams returns what ``replay()``
    returns, and counts every priced (event, point) cell once."""
    streams = [stream for stream, _ in cases]
    grid = [point for _, point in cases]
    registry = MetricsRegistry()
    rows = _price_streams(streams, grid, 2, registry)
    assert rows == [
        [replay(s, p.memory, p.cycle_ns, p.write_buffer_depth) for p in grid]
        for s in streams
    ]
    counters = registry.counters
    cells = {
        (k, BatchReplayKernel(s)._costs(p).key())
        for k, s in enumerate(streams) for p in grid
    }
    assert counters.get("replay.vectorized_events", 0) \
        + counters.get("replay.scalar_events", 0) == sum(
            streams[k].n_events for k, _ in cells
        )


@functools.lru_cache(maxsize=None)
def rd1n5_stream():
    """rd1n5 at 8 KB over 4 000 references: its start-up store sweep is
    a run of about 1 850 back-to-back write misses."""
    config = baseline_config(cache_size_bytes=8 * KB)
    return functional_pass(config, build_trace("rd1n5", length=4000, seed=0))


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(grid=st.lists(burst_points, min_size=1, max_size=4))
def test_rd1n5_store_sweep_prices_like_replay(grid):
    stream = rd1n5_stream()
    assert BatchReplayKernel(stream).replay_grid(grid) == [
        replay(stream, p.memory, p.cycle_ns, p.write_buffer_depth)
        for p in grid
    ]


@pytest.mark.parametrize("depth", [1, 4, 12])
def test_rd1n5_store_sweep_takes_the_burst_form(depth):
    """Without the burst form the kernel vectorizes 105 of the stream's
    2 118 events at 20 ns; the sweep's write misses are most of it."""
    stream = rd1n5_stream()
    point = TimingPoint(
        memory=MemoryTiming(), cycle_ns=20.0, write_buffer_depth=depth
    )
    _, stats = price_both_ways(stream, point)
    assert stats.vectorized_events > 0.9 * stream.n_events
