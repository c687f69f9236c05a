"""Generated differential test of the functional-pass routes.

:func:`repro.core.sweep.run_functional_passes` serves each job by a
pass-cache read when the cache holds it, and otherwise by one inline
per-organization pass shared with the job's timing siblings (the same
organization, trace contents and seed under another cycle time, memory
timing or write-buffer depth), in-process or over a pool.  Whatever the
route, every stream must serialize exactly like a direct
:func:`repro.sim.fastpath.functional_pass` (the ``Cache``-object
reference) of the same job, and a trace whose warm boundary leaves
nothing to measure must fail the same way on every route.  The
single-job entry points (:func:`repro.sim.passcache.cached_fast_simulate`
cold and warm, and :func:`repro.sim.fastpath.fast_simulate` without a
stream) must return what that route and one replay return.

:func:`repro.sim.stackpass.organization_pass` is one filtered pass: a
reference with the key of the previous access to its set skips the
per-set loop, which direct-mapped sides leave empty.  The generator
draws organizations direct-mapped on both sides about half the time,
from single-set caches up to 128-word blocks (whose dirty-word counts
outgrow a 64-bit mask) on either kind of side, over traces with no
fetches, no stores or no loads, same-key store runs before and after
their block's first load, and pids and addresses too large to pack
into one int64 key.

Pricing has routes too: a sweep's batch kernels serve a point from an
:class:`~repro.sim.replaykernel.OutcomeArchive` row inside an archive
scope, and from a private memo outside one, in-process or sharded.
Over drawn streams and timing grids every route must return exactly
what scalar :func:`repro.sim.fastpath.replay` returns.
"""

import dataclasses
import functools
import re
import tempfile
from array import array

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from repro.core.geometry import CacheGeometry
from repro.core.policy import CachePolicy, ReplacementKind
from repro.core.sweep import (
    _price_streams,
    run_functional_passes,
    run_speed_size_sweep,
)
from repro.core.timing import MemoryTiming
from repro.errors import ConfigurationError
from repro.sim import replaykernel, stackpass
from repro.sim.campaign import stats_to_dict
from repro.sim.config import L1Spec, SystemConfig, baseline_config
from repro.sim.fastpath import (
    EVENT_FIELDS,
    fast_simulate,
    functional_pass,
    replay,
)
from repro.sim.passcache import (
    PassCache,
    cache_key,
    cached_fast_simulate,
    stream_to_dict,
)
from repro.sim.replaykernel import (
    BatchReplayKernel,
    OutcomeArchive,
    TimingPoint,
    archive_scope,
    stream_digest,
)
from repro.sim.telemetry import MetricsRegistry
from repro.trace.record import RefKind, Trace
from repro.trace.suite import build_trace


def dirty_sweep():
    """Loads and stores that fill 128-word blocks: each block is loaded,
    then most of its words are stored before the next block, which
    conflicts with it in any cache of 512 B or less, is loaded."""
    ifetch, load, store = (int(kind) for kind in RefKind)
    kinds, addrs = [], []
    for block in range(8):
        base = block * 128
        kinds += [ifetch, load]
        addrs += [4096 + block, base]
        for word in range(0, 128, 1 + block % 3):
            kinds += [ifetch, store]
            addrs += [4096 + word, base + word]
    return Trace(kinds, addrs, name="dirty-sweep",
                 warm_boundary=len(kinds) // 4)


def store_runs():
    """Same-key data runs that open with stores.  A block's first run
    stores before any load (each store misses and bypasses), its block
    is then loaded, and stored again; later runs of the block may hit
    or find it evicted.  One run is cut by the warm boundary between
    its stores and its load.  A fetch precedes each run, so a run's
    head shares its couplet."""
    ifetch, load, store = (int(kind) for kind in RefKind)
    rng = np.random.default_rng(6)
    kinds, addrs = [], []
    warm = 0
    for run in range(160):
        shape = (
            [store] * int(rng.integers(1, 4))
            + [load] * int(rng.integers(0, 3))
            + [store] * int(rng.integers(0, 3))
        )
        if run == 80:
            shape = [store, store, load, store]
            warm = len(kinds) + 3
        base = 1024 + 4 * int(rng.integers(0, 40))
        kinds += [ifetch] + shape
        words = rng.integers(0, 4, size=len(shape))
        addrs += [run % 64] + [base + int(word) for word in words]
    return Trace(kinds, addrs, name="store-runs", warm_boundary=warm)


def random_trace(name, kinds, length, seed, pids=(0,), high=256):
    """``length`` references of ``kinds`` over ``high`` words per pid.

    Pid 0's words sit at ``2**48`` and up, past the 44 address bits of
    a cache block key, so its keys alias other pids' the way the
    ``Cache`` keys do (``(pid << 44) | block``): at 1, 4 and 8 words per
    block its blocks share keys with pids 16, 4 and 2.  Pids of 2**20
    and more do not fit such a key into 64 bits at all."""
    rng = np.random.default_rng(seed)
    pid = rng.choice(pids, size=length)
    return Trace(
        rng.choice([int(kind) for kind in kinds], size=length),
        np.where(pid == 0, 1 << 48, 0) + rng.integers(0, high, size=length),
        pid,
        name=name,
        warm_boundary=length // 3,
    )


@functools.lru_cache(maxsize=None)
def trace_pool():
    """Small traces covering the shapes the routes treat differently:
    two suite traces, a same-content twin under another name, two traces
    with nothing to measure (empty, and warm to the end), and synthetic
    traces of only stores, only loads, many pids with huge keys, blocks
    with many dirty words, and store-headed same-key runs."""
    mu3 = build_trace("mu3", length=3000, seed=1)
    rd2n4 = build_trace("rd2n4", length=3000, seed=2)
    twin = Trace(mu3.kinds, mu3.addrs, mu3.pids, name="mu3-twin",
                 warm_boundary=mu3.warm_boundary)
    empty = Trace([], [], name="empty", warm_boundary=0)
    warm = Trace([int(RefKind.IFETCH)] * 40, list(range(40)),
                 name="all-warm", warm_boundary=40)
    stores = random_trace("store-only", [RefKind.STORE], 600, seed=3)
    loads = random_trace("load-only", [RefKind.LOAD], 600, seed=4)
    pids = random_trace(
        "multi-pid", list(RefKind), 1500, seed=5,
        pids=(0, 2, 4, 16, 1 << 20, (1 << 31) - 1),
    )
    return (mu3, rd2n4, twin, empty, warm, stores, loads, pids,
            dirty_sweep(), store_runs())


#: One cache geometry.  128 B caches are drawn most often: with a
#: handful of blocks per set, nearly every miss evicts, so RANDOM's
#: victim draws decide the stream.  Blocks of 32 and 128 words hold
#: more dirty words than a 64-bit mask.
geometries = st.tuples(
    st.sampled_from([128, 128, 512, 2048, 8192]),
    st.sampled_from([1, 2, 4, 8, 32, 128]),
    st.sampled_from([1, 2, 4, 8]),
).filter(
    lambda g: g[0] >= 4 * g[1] * g[2]
).map(
    lambda g: CacheGeometry(size_bytes=g[0], block_words=g[1], assoc=g[2])
)

#: One direct-mapped geometry, from a single set (512 B of 128-word
#: blocks, 128 B of 32-word ones) up to 512 sets.
direct_mapped = st.tuples(
    st.sampled_from([128, 512, 512, 2048]),
    st.sampled_from([1, 4, 8, 32, 128, 128]),
).filter(
    lambda g: g[0] >= 4 * g[1]
).map(
    lambda g: CacheGeometry(size_bytes=g[0], block_words=g[1], assoc=1)
)


def split_l1(i_geometry, d_geometry, replacement):
    """A fastpath organization whose I and D sides differ freely and
    share one replacement policy."""
    return SystemConfig(l1=L1Spec(
        d_geometry=d_geometry,
        i_geometry=i_geometry,
        policy=CachePolicy(replacement=replacement),
    ))


replacements = st.sampled_from(
    [ReplacementKind.LRU, ReplacementKind.FIFO, ReplacementKind.RANDOM]
)

#: Half the draws are direct-mapped on both sides (an empty residual
#: loop); the rest mix geometries freely (mostly set-associative).
organizations = st.one_of(
    st.builds(split_l1, geometries, geometries, replacements),
    st.builds(split_l1, direct_mapped, direct_mapped, replacements),
)

#: ``(organization, trace index, seed)``; the measurable traces are
#: drawn far more often than the two degenerate ones.
jobs_strategy = st.lists(
    st.tuples(
        organizations,
        st.sampled_from([0, 0, 1, 1, 2, 0, 1, 5, 6, 7, 7, 8, 8, 9, 9, 3, 4]),
        st.integers(0, 2**31 - 1),
    ),
    min_size=1, max_size=6,
)

#: Copies of drawn jobs: ``(drawn job index, new seed or None,
#: cycle_ns, memory latency ns, write-buffer depth)``.  Without a new
#: seed the copy is a timing sibling and shares the job's pass; with
#: one it is another pass.
siblings_strategy = st.lists(
    st.tuples(
        st.integers(0, 5),
        st.one_of(st.none(), st.none(), st.integers(0, 2**31 - 1)),
        st.sampled_from([20.0, 40.0, 56.0]),
        st.sampled_from([180.0, 260.0]),
        st.sampled_from([1, 4]),
    ),
    max_size=4,
)


def timing_sibling(config, cycle_ns, latency_ns, depth):
    return dataclasses.replace(
        config,
        cycle_ns=cycle_ns,
        memory=MemoryTiming().with_latency_ns(latency_ns),
        l1=dataclasses.replace(config.l1, write_buffer_depth=depth),
    )


#: Settings of every generated test here.  A failing example is
#: reported as drawn, without shrinking it: each shrink step reruns the
#: routes (and, over a process pool, starts the pool again), so a
#: shrinking regression ran for minutes of CPU instead of failing.
GENERATED = dict(
    deadline=None, suppress_health_check=[HealthCheck.too_slow],
    phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target],
)

route_draws = dict(
    drawn=jobs_strategy,
    siblings=siblings_strategy,
    prefill=st.lists(st.booleans(), min_size=10, max_size=10),
    use_cache=st.booleans(),
)


@settings(max_examples=15, **GENERATED)
@given(**route_draws)
def test_every_route_equals_the_scalar_pass(drawn, siblings, prefill,
                                            use_cache):
    check_every_route(drawn, siblings, prefill, use_cache, n_jobs=1)


@settings(max_examples=15, **GENERATED)
@given(**route_draws)
def test_every_route_equals_the_scalar_pass_over_a_pool(
    drawn, siblings, prefill, use_cache
):
    check_every_route(drawn, siblings, prefill, use_cache, n_jobs=2)


def check_every_route(drawn, siblings, prefill, use_cache, n_jobs):
    pool = trace_pool()
    jobs = [(config, pool[t], seed) for config, t, seed in drawn]
    # The organization each job was drawn as, before any timing change.
    organizations = [config for config, _trace, _seed in jobs]
    for index, new_seed, *timing in siblings:
        config, trace, seed = jobs[index % len(drawn)]
        seed = seed if new_seed is None else new_seed
        jobs.append((timing_sibling(config, *timing), trace, seed))
        organizations.append(organizations[index % len(drawn)])
    expected, error = [], None
    for config, trace, seed in jobs:
        try:
            expected.append(functional_pass(config, trace, seed=seed))
        except ConfigurationError as exc:
            expected.append(None)
            error = error or str(exc)
    with tempfile.TemporaryDirectory() as tmp:
        cache = PassCache(tmp) if use_cache else None
        filled = set()
        if cache is not None:
            for job, stream, fill in zip(jobs, expected, prefill):
                if fill and stream is not None:
                    cache.put(*job, stream)
                    filled.add(cache_key(*job))
        registry = MetricsRegistry()
        if error is not None:
            with pytest.raises(ConfigurationError) as raised:
                run_functional_passes(jobs, n_jobs=n_jobs, cache=cache,
                                      registry=registry)
            assert str(raised.value) == error
            return
        streams = run_functional_passes(jobs, n_jobs=n_jobs, cache=cache,
                                        registry=registry)
        for stream, reference in zip(streams, expected):
            assert stream_to_dict(stream) == stream_to_dict(reference)
        missed = [
            (organization, trace, seed)
            for organization, (config, trace, seed) in zip(organizations, jobs)
            if cache_key(config, trace, seed) not in filled
        ]
        if cache is not None:
            assert cache.counters.hits == len(jobs) - len(missed)
            assert all(cache_key(*job) in cache for job in jobs)
        # One pass per distinct (organization, trace contents, seed)
        # among the misses; its timing siblings reuse the stream.
        passes = len({
            (organization, trace.content_fingerprint(), seed)
            for organization, trace, seed in missed
        })
        assert {
            name: value for name, value in registry.counters.items()
            if name.startswith("stackpass.")
        } == ({
            "stackpass.passes": passes,
            "stackpass.reused_streams": len(missed) - passes,
        } if missed else {})


def same_result(call, want):
    """``call()`` returns ``want``, or raises it when it is an error."""
    if isinstance(want, str):
        with pytest.raises(ConfigurationError, match=re.escape(want)):
            call()
    else:
        assert call() == want


@settings(max_examples=25, **GENERATED)
@given(
    drawn=jobs_strategy,
    prefill=st.lists(st.booleans(), min_size=6, max_size=6),
)
def test_single_job_routes_equal_the_scalar_pass(drawn, prefill):
    """``cached_fast_simulate`` against a cache pre-filled on a drawn
    subset, cold and then warm, and ``fast_simulate`` without a stream
    return the reference pass's stats.  Cold, each pre-filled job hits
    and every other job misses, and is put unless it has nothing to
    measure; warm, every measurable job hits."""
    pool = trace_pool()
    jobs = [(config, pool[t], seed) for config, t, seed in drawn]
    expected = []
    for config, trace, seed in jobs:
        try:
            stream = functional_pass(config, trace, seed=seed)
        except ConfigurationError as exc:
            expected.append(str(exc))
        else:
            expected.append(fast_simulate(config, trace, stream=stream))
    with tempfile.TemporaryDirectory() as tmp:
        stored = set()
        filler = PassCache(tmp)
        for (config, trace, seed), want, fill in zip(jobs, expected, prefill):
            if fill and not isinstance(want, str):
                filler.put(config, trace, seed,
                           functional_pass(config, trace, seed=seed))
                stored.add(cache_key(config, trace, seed))
        cold = PassCache(tmp)
        hits = puts = 0
        for (config, trace, seed), want in zip(jobs, expected):
            key = cache_key(config, trace, seed)
            hits += key in stored
            if key not in stored and not isinstance(want, str):
                puts += 1
                stored.add(key)
            same_result(lambda: cached_fast_simulate(
                config, trace, cache=cold, seed=seed), want)
        assert (cold.counters.hits, cold.counters.misses,
                cold.counters.puts) == (hits, len(jobs) - hits, puts)
        warm = PassCache(tmp)
        for (config, trace, seed), want in zip(jobs, expected):
            same_result(lambda: cached_fast_simulate(
                config, trace, cache=warm, seed=seed), want)
        degenerate = sum(isinstance(want, str) for want in expected)
        assert (warm.counters.hits, warm.counters.misses,
                warm.counters.puts) == (len(jobs) - degenerate,
                                        degenerate, 0)
    for (config, trace, seed), want in zip(jobs, expected):
        same_result(lambda: fast_simulate(config, trace, seed=seed), want)


@settings(max_examples=15, **GENERATED)
@given(
    organization=organizations,
    trace_index=st.sampled_from([0, 1, 5, 6, 7, 8, 9]),
    seed=st.integers(0, 2**31 - 1),
    timing=st.tuples(
        st.sampled_from([20.0, 40.0, 56.0]),
        st.sampled_from([180.0, 260.0]),
        st.sampled_from([1, 4]),
    ),
    rename=st.booleans(),
)
def test_cached_sibling_equals_the_uncached_run(
    organization, trace_index, seed, timing, rename
):
    """One pass-cache entry serves an organization's timing siblings.
    After ``cached_fast_simulate`` puts a job's pass, the same call at
    another cycle time, memory latency or write-buffer depth, or over
    the same trace contents under another name, reads that entry and
    returns exactly what uncached ``fast_simulate`` returns, trace name
    and ``config_summary`` included."""
    trace = trace_pool()[trace_index]
    sibling = timing_sibling(organization, *timing)
    sibling_trace = trace.with_name(trace.name + "-renamed") \
        if rename else trace
    with tempfile.TemporaryDirectory() as tmp:
        cache = PassCache(tmp)
        first = cached_fast_simulate(organization, trace, cache=cache,
                                     seed=seed)
        got = cached_fast_simulate(sibling, sibling_trace, cache=cache,
                                   seed=seed)
        assert (len(cache), cache.counters.puts, cache.counters.hits) == (
            1, 1, 1
        )
    assert first == fast_simulate(organization, trace, seed=seed)
    want = fast_simulate(sibling, sibling_trace, seed=seed)
    assert stats_to_dict(got) == stats_to_dict(want)
    assert (got.trace_name, got.config_summary) == (
        sibling_trace.name, sibling.describe()
    )


def test_the_organization_picks_the_pass_route(monkeypatch):
    """Direct-mapped on both sides leaves the residual loop empty and
    never builds a replacement policy; a set-associative side builds
    its own, seeded as the reference seeds that side's cache."""
    trace = trace_pool()[0]
    direct = CacheGeometry(size_bytes=1024, block_words=4, assoc=1)
    two_way = CacheGeometry(size_bytes=1024, block_words=4, assoc=2)
    make_policy = stackpass.make_policy
    cases = [
        (split_l1(direct, direct, ReplacementKind.RANDOM), None),
        (split_l1(direct, two_way, ReplacementKind.RANDOM), [3]),
        (split_l1(two_way, direct, ReplacementKind.LRU), [3 + 101]),
    ]
    for config, seeds in cases:
        built = []

        def recording(kind, seed=None):
            if seeds is None:
                raise AssertionError("built a replacement policy")
            built.append(seed)
            return make_policy(kind, seed=seed)

        with monkeypatch.context() as patch:
            patch.setattr(stackpass, "make_policy", recording)
            [stream] = run_functional_passes([(config, trace, 3)])
        assert stream_to_dict(stream) == stream_to_dict(
            functional_pass(config, trace, seed=3)
        )
        assert built == (seeds or [])


#: A timing grid: memory parts, clocks (40 and 41 ns quantize alike
#: against most parts, so some points share a cost key) and buffer
#: depths on both sides of the kernel's 8-entry lookback.
grids = st.lists(
    st.builds(
        lambda latency, rate, cycle_ns, depth: TimingPoint(
            memory=MemoryTiming().with_latency_ns(latency)
            .with_transfer_rate(rate),
            cycle_ns=cycle_ns, write_buffer_depth=depth,
        ),
        st.sampled_from([100.0, 260.0, 420.0]),
        st.sampled_from([4.0, 1.0, 0.25]),
        st.sampled_from([20.0, 40.0, 41.0, 56.0]),
        st.sampled_from([1, 4, 9]),
    ),
    min_size=1, max_size=5,
)


def without_events(stream):
    """``stream`` with every event removed (a zero-event stream)."""
    return dataclasses.replace(
        stream, warm_event_index=0,
        **{name: array("q") for name in EVENT_FIELDS},
    )


@settings(max_examples=5, **GENERATED)
@given(drawn=jobs_strategy, grid=grids)
def test_archived_pricing_equals_every_unarchived_route(drawn, grid):
    check_archived_pricing(drawn, grid, n_jobs=1)


@settings(max_examples=5, **GENERATED)
@given(drawn=jobs_strategy, grid=grids)
def test_archived_pricing_equals_every_unarchived_route_sharded(drawn, grid):
    check_archived_pricing(drawn, grid, n_jobs=2)


def check_archived_pricing(drawn, grid, n_jobs):
    """Inside an archive scope, cold and then fully archived, a sweep's
    pricing returns what the unscoped kernel and scalar ``replay()``
    return, in-process or sharded.  The streams include a relabelled
    twin (content-identical, another organization), near-twins that
    differ only in the end or warm-up offsets, and a zero-event
    stream.  Each distinct (stream contents, cost key) cell is priced
    once; every other non-empty cell counts as archived, and a caller
    mutating its outcome leaves the archive intact."""
    pool = trace_pool()
    streams = []
    for config, t, seed in drawn:
        try:
            streams.append(functional_pass(config, pool[t], seed=seed))
        except ConfigurationError:
            pass  # nothing to measure: no stream to price
    if not streams:
        return
    base = streams[0]
    twin = len(streams)
    streams += [
        dataclasses.replace(
            base, trace_name="twin", config_summary="another organization",
        ),
        # The same events with one other priced input changed.
        dataclasses.replace(base, end_base=base.end_base + 7),
        dataclasses.replace(base, warm_base_offset=base.warm_base_offset + 3),
        dataclasses.replace(base, warm_event_index=base.warm_event_index // 2),
        without_events(base),
    ]
    want = [
        [replay(s, p.memory, p.cycle_ns, p.write_buffer_depth) for p in grid]
        for s in streams
    ]
    assert [BatchReplayKernel(s).replay_grid(grid) for s in streams] == want
    # Which cells a run prices: the first kernel to meet a (contents,
    # cost key) pair prices it, every later kernel is served it.
    first = {}
    archived = 0
    for k, stream in enumerate(streams):
        if stream.n_events == 0:
            continue
        digest = stream_digest(stream)
        for point in grid:
            owner = first.setdefault(
                (digest, BatchReplayKernel(stream)._costs(point).key()), k
            )
            archived += owner != k
    archive = OutcomeArchive()
    measured = sum(s.n_events > 0 for s in streams) * len(grid)
    for expect_archived in (archived, measured):
        registry = MetricsRegistry()
        with archive_scope(archive):
            rows = _price_streams(streams, grid, n_jobs, registry)
        assert rows == want
        assert registry.counters["replay.batch_outcomes"] == \
            len(streams) * len(grid)
        assert registry.counters.get("replay.archived_outcomes", 0) == \
            expect_archived
        assert len(archive) == len(first)
        rows[0][0].buffer.pushes += 1000
        rows[twin][-1].buffer.max_occupancy += 1000


def test_direct_sweeps_price_every_point_and_hash_nothing(monkeypatch):
    """Outside an archive scope a sweep prices every distinct point of
    every stream, even right after the same sweep ran inside a scope,
    and never hashes a stream."""
    traces = trace_pool()[:3]
    args = (traces, [512, 2048], [20.0, 40.0])
    with archive_scope(OutcomeArchive()):
        run_speed_size_sweep(*args)
        scoped = MetricsRegistry()
        run_speed_size_sweep(*args, registry=scoped)
    assert scoped.counters["replay.archived_outcomes"] == \
        scoped.counters["replay.batch_outcomes"] == 2 * 3 * 2

    def no_hashing(stream):
        raise AssertionError("hashed a stream outside an archive scope")

    monkeypatch.setattr(replaykernel, "stream_digest", no_hashing)
    for n_jobs in (1, 2):
        registry = MetricsRegistry()
        run_speed_size_sweep(*args, n_jobs=n_jobs, registry=registry)
        counters = registry.counters
        assert "replay.archived_outcomes" not in counters
        assert counters["replay.batch_outcomes"] == 2 * 3 * 2
        events = sum(
            s.n_events for s in run_functional_passes([
                (baseline_config(cache_size_bytes=size), trace, 0)
                for size in (512, 2048) for trace in traces
            ])
        )
        assert counters["replay.vectorized_events"] \
            + counters["replay.scalar_events"] == events * 2
