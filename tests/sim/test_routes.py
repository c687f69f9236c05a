"""Generated differential test of the functional-pass routes.

:func:`repro.core.sweep.run_functional_passes` picks each
organization's route itself: a shared stack walk per trace for LRU and
direct-mapped organizations, a scalar pass for the rest, a pass-cache
read for whatever the cache already holds, in-process or over a pool.
Whatever it picks, every stream must serialize exactly like a direct
:func:`repro.sim.fastpath.functional_pass` of the same job, and a trace
whose warm boundary leaves nothing to measure must fail the same way on
every route.
"""

import functools
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.policy import ReplacementKind
from repro.core.sweep import run_functional_passes
from repro.errors import ConfigurationError
from repro.sim.config import baseline_config
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


organizations = st.builds(
    baseline_config,
    cache_size_bytes=st.sampled_from([128, 512, 2048, 8192]),
    block_words=st.sampled_from([1, 2, 4, 8]),
    assoc=st.sampled_from([1, 2, 4]),
    replacement=st.sampled_from(
        [ReplacementKind.LRU, ReplacementKind.FIFO, ReplacementKind.RANDOM]
    ),
)

#: ``(organization, trace index, seed)``; the three measurable traces
#: are drawn far more often than the two degenerate ones.
jobs_strategy = st.lists(
    st.tuples(
        organizations,
        st.sampled_from([0, 0, 1, 1, 2, 2, 0, 1, 3, 4]),
        st.integers(0, 3),
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
        # trace among the eligible misses, a scalar pass for the rest.
        assert stats.fallback_passes == sum(
            1 for config, _trace, _seed in missed
            if not stack_supported(config)
        )
        assert stats.walks == len({
            trace.content_fingerprint()
            for config, trace, _seed in missed if stack_supported(config)
        })
