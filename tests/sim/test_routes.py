"""Generated differential test of the functional-pass routes.

:func:`repro.core.sweep.run_functional_passes` picks each
organization's route itself: a shared stack walk per trace for LRU and
direct-mapped organizations, a per-organization inline pass for the
rest, a pass-cache read for whatever the cache already holds,
in-process or over a pool.  Whatever it picks, every stream must
serialize exactly like a direct
:func:`repro.sim.fastpath.functional_pass` (the ``Cache``-object
reference) of the same job, and a trace whose warm boundary leaves
nothing to measure must fail the same way on every route.
"""

import functools
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.geometry import CacheGeometry
from repro.core.policy import CachePolicy, ReplacementKind
from repro.core.sweep import run_functional_passes
from repro.errors import ConfigurationError
from repro.sim.config import L1Spec, SystemConfig
from repro.sim.fastpath import functional_pass
from repro.sim.passcache import PassCache, cache_key, stream_to_dict
from repro.sim.stackpass import StackPassStats, stack_supported
from repro.trace.record import RefKind, Trace
from repro.trace.suite import build_trace


@functools.lru_cache(maxsize=None)
def trace_pool():
    """Small traces covering the shapes the routes treat differently:
    two suite traces, a same-content twin under another name, and two
    traces with nothing to measure (empty, and warm to the end)."""
    mu3 = build_trace("mu3", length=3000, seed=1)
    rd2n4 = build_trace("rd2n4", length=3000, seed=2)
    twin = Trace(mu3.kinds, mu3.addrs, mu3.pids, name="mu3-twin",
                 warm_boundary=mu3.warm_boundary)
    empty = Trace([], [], name="empty", warm_boundary=0)
    warm = Trace([int(RefKind.IFETCH)] * 40, list(range(40)),
                 name="all-warm", warm_boundary=40)
    return (mu3, rd2n4, twin, empty, warm)


#: One cache geometry.  128 B caches are drawn most often: with a
#: handful of blocks per set, nearly every miss evicts, so RANDOM's
#: victim draws decide the stream.
geometries = st.tuples(
    st.sampled_from([128, 128, 512, 2048, 8192]),
    st.sampled_from([1, 2, 4, 8]),
    st.sampled_from([1, 2, 4, 8]),
).filter(
    lambda g: g[0] >= 4 * g[1] * g[2]
).map(
    lambda g: CacheGeometry(size_bytes=g[0], block_words=g[1], assoc=g[2])
)


def split_l1(i_geometry, d_geometry, replacement):
    """A fastpath organization whose I and D sides differ freely and
    share one replacement policy."""
    return SystemConfig(l1=L1Spec(
        d_geometry=d_geometry,
        i_geometry=i_geometry,
        policy=CachePolicy(replacement=replacement),
    ))


organizations = st.builds(
    split_l1,
    geometries,
    geometries,
    st.sampled_from(
        [ReplacementKind.LRU, ReplacementKind.FIFO, ReplacementKind.RANDOM]
    ),
)

#: ``(organization, trace index, seed)``; the three measurable traces
#: are drawn far more often than the two degenerate ones.
jobs_strategy = st.lists(
    st.tuples(
        organizations,
        st.sampled_from([0, 0, 1, 1, 2, 2, 0, 1, 3, 4]),
        st.integers(0, 2**31 - 1),
    ),
    min_size=1, max_size=6,
)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    drawn=jobs_strategy,
    n_jobs=st.sampled_from([1, 2]),
    prefill=st.lists(st.booleans(), min_size=6, max_size=6),
    use_cache=st.booleans(),
)
def test_every_route_equals_the_scalar_pass(drawn, n_jobs, prefill,
                                            use_cache):
    pool = trace_pool()
    jobs = [(config, pool[t], seed) for config, t, seed in drawn]
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
        stats = StackPassStats()
        if error is not None:
            with pytest.raises(ConfigurationError) as raised:
                run_functional_passes(jobs, n_jobs=n_jobs, cache=cache,
                                      stack_stats=stats)
            assert str(raised.value) == error
            return
        streams = run_functional_passes(jobs, n_jobs=n_jobs, cache=cache,
                                        stack_stats=stats)
        for stream, reference in zip(streams, expected):
            assert stream_to_dict(stream) == stream_to_dict(reference)
        missed = [job for job in jobs if cache_key(*job) not in filled]
        if cache is not None:
            assert cache.counters.hits == len(jobs) - len(missed)
            assert all(cache_key(*job) in cache for job in jobs)
        # The organization picked the route: one walk per distinct
        # trace among the eligible misses, an inline pass for the rest.
        assert stats.fallback_passes == sum(
            1 for config, _trace, _seed in missed
            if not stack_supported(config)
        )
        assert stats.walks == len({
            trace.content_fingerprint()
            for config, trace, _seed in missed if stack_supported(config)
        })
