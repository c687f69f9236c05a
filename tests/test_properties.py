"""Property-based tests (hypothesis) on core invariants.

These pin structural properties that must hold for *any* input, not just
the curated examples: cache state invariants, the LRU stack-inclusion
property, replay/engine agreement on random traces, quantization bounds,
scatter bijectivity and trace-IO round-trips.
"""

import io

from hypothesis import example, given, settings, strategies as st

from repro.cache.cache import Cache
from repro.core.geometry import CacheGeometry
from repro.core.policy import CachePolicy, ReplacementKind
from repro.sim.config import baseline_config
from repro.sim.engine import simulate
from repro.sim.fastpath import fast_simulate
from repro.trace.dinero import read_din, round_trip_equal, write_din
from repro.trace.record import Trace
from repro.units import KB, quantize_ns

# Keep hypothesis fast and deterministic-ish for CI-style runs.
FAST = settings(max_examples=30, deadline=None)
MEDIUM = settings(max_examples=12, deadline=None)


addresses = st.integers(min_value=0, max_value=4095)
pids = st.integers(min_value=0, max_value=3)

access_ops = st.lists(
    st.tuples(st.booleans(), pids, addresses), min_size=1, max_size=400
)


@FAST
@given(ops=access_ops, assoc=st.sampled_from([1, 2, 4]))
def test_cache_invariants_hold_under_any_traffic(ops, assoc):
    cache = Cache(
        CacheGeometry(size_bytes=1 * KB, block_words=4, assoc=assoc),
        CachePolicy(replacement=ReplacementKind.LRU),
    )
    for is_write, pid, addr in ops:
        if is_write:
            cache.access_write(pid, addr)
        else:
            cache.access_read(pid, addr)
    cache.check_invariants()


@FAST
@given(ops=access_ops)
def test_read_after_read_always_hits(ops):
    """Reading an address twice in a row must hit the second time."""
    cache = Cache(CacheGeometry(size_bytes=1 * KB, block_words=4))
    for _is_write, pid, addr in ops:
        cache.access_read(pid, addr)
        assert cache.access_read(pid, addr).hit


@FAST
@given(addrs=st.lists(addresses, min_size=1, max_size=300))
def test_fully_associative_lru_inclusion(addrs):
    """The LRU stack property: a fully-associative LRU cache of twice
    the capacity never misses more."""

    def misses(n_blocks):
        cache = Cache(
            CacheGeometry(
                size_bytes=n_blocks * 16, block_words=4, assoc=n_blocks
            ),
            CachePolicy(replacement=ReplacementKind.LRU),
        )
        return sum(0 if cache.access_read(0, a).hit else 1 for a in addrs)

    assert misses(16) <= misses(8)


@FAST
@given(addrs=st.lists(addresses, min_size=1, max_size=200))
def test_miss_count_identical_across_policies_when_direct_mapped(addrs):
    """With one way there is nothing to choose: every replacement policy
    produces the same miss sequence."""

    def misses(kind):
        cache = Cache(
            CacheGeometry(size_bytes=1 * KB, block_words=4, assoc=1),
            CachePolicy(replacement=kind),
        )
        return [cache.access_read(0, a).hit for a in addrs]

    lru = misses(ReplacementKind.LRU)
    assert misses(ReplacementKind.FIFO) == lru
    assert misses(ReplacementKind.RANDOM) == lru


@FAST
@given(
    duration=st.floats(min_value=0.0, max_value=1000.0),
    cycle=st.floats(min_value=1.0, max_value=100.0),
)
def test_quantization_bounds(duration, cycle):
    cycles = quantize_ns(duration, cycle)
    assert cycles * cycle >= duration - 1e-6
    if cycles > 0:
        assert (cycles - 1) * cycle < duration + 1e-6


trace_entries = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 1 << 20), st.integers(0, 5)),
    min_size=1,
    max_size=200,
)


@FAST
@given(entries=trace_entries)
def test_dinero_round_trip_any_trace(entries):
    kinds = [k for k, _a, _p in entries]
    addrs = [a for _k, a, _p in entries]
    trace_pids = [p for _k, _a, p in entries]
    trace = Trace(kinds, addrs, trace_pids)
    buffer = io.StringIO()
    write_din(trace, buffer, with_pids=True)
    buffer.seek(0)
    assert round_trip_equal(trace, read_din(buffer))


@MEDIUM
@given(
    entries=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 2047), st.integers(0, 2)),
        min_size=4,
        max_size=300,
    ),
    size_kb=st.sampled_from([1, 4]),
    cycle_ns=st.sampled_from([24.0, 40.0, 64.0]),
)
# The write-buffer anomalies of test_write_buffer_drain_anomaly_counts.
@example(entries=[(2, 0, 0), (2, 4, 0), (2, 4, 0), (2, 4, 0), (0, 0, 0)],
         size_kb=1, cycle_ns=80.0)
@example(entries=[(1, 0, 0), (1, 0, 0), (2, 4, 0), (0, 0, 0)],
         size_kb=1, cycle_ns=60.0)
def test_fastpath_equals_engine_on_random_traces(entries, size_kb, cycle_ns):
    """The sweep engine's core guarantee, fuzzed: arbitrary reference
    streams price identically through the engine and the fastpath."""
    kinds = [k for k, _a, _p in entries]
    addrs = [a for _k, a, _p in entries]
    trace_pids = [p for _k, _a, p in entries]
    trace = Trace(kinds, addrs, trace_pids)
    config = baseline_config(
        cache_size_bytes=size_kb * KB, cycle_ns=cycle_ns,
        write_buffer_depth=2,
    )
    engine_stats = simulate(config, trace)
    fast_stats = fast_simulate(config, trace)
    assert engine_stats.cycles == fast_stats.cycles
    assert engine_stats.icache == fast_stats.icache
    assert engine_stats.dcache == fast_stats.dcache
    assert engine_stats.buffer == fast_stats.buffer


def _cycles_at(entries, cycle_times, simulator=fast_simulate):
    trace = Trace(
        [k for k, _a in entries], [a for _k, a in entries], [0] * len(entries)
    )
    config = baseline_config(cache_size_bytes=1 * KB)
    return [
        simulator(config.with_cycle_ns(cycle_ns), trace).cycles
        for cycle_ns in cycle_times
    ]


@MEDIUM
@given(
    entries=st.lists(
        st.tuples(st.integers(0, 1), st.integers(0, 4095)),
        min_size=2,
        max_size=200,
    ),
)
def test_cycle_count_decreases_with_cycle_time(entries):
    """The Figure 3-2 effect as an invariant: on traces without stores,
    slower clocks never need *more* cycles (memory costs fewer
    quantized cycles).  Stores can break it; see the next test."""
    cycles = _cycles_at(entries, (20.0, 40.0, 80.0))
    assert cycles == sorted(cycles, reverse=True)


# A slower clock can cost more cycles once the write buffer is involved.
# In the second trace below (LOAD 0, LOAD 0, STORE 4, IFETCH 0) at 60 and
# 80 ns the store enters the buffer at cycle 10 with memory idle, so it
# starts draining before the fetch issues at 11 and the fetch waits for
# it: 24 cycles.  At 40 ns the store enters at 12 and memory is still
# busy when the fetch issues at 13, so the fetch goes first: 23 cycles.
# That is the drain rule of docs/internals.md ("an entry starts draining
# as soon as the level below is idle"), and both simulators agree on it.
def test_write_buffer_drain_anomaly_counts():
    stores_then_fetch = [(2, 0), (2, 4), (2, 4), (2, 4), (0, 0)]
    loads_store_fetch = [(1, 0), (1, 0), (2, 4), (0, 0)]
    for simulator in (fast_simulate, simulate):
        assert _cycles_at(stores_then_fetch, (20.0, 40.0, 80.0),
                          simulator) == [28, 19, 21]
        assert _cycles_at(loads_store_fetch, (20.0, 40.0, 60.0),
                          simulator) == [34, 23, 24]
