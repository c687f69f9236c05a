"""Generated differential test of the functional-pass routes.

:func:`repro.core.sweep.run_functional_passes` serves each job by a
pass-cache read when the cache holds it, and otherwise by one inline
per-organization pass shared with the job's timing siblings (the same
organization, trace contents and seed under another cycle time, memory
timing or write-buffer depth), in-process or over a pool.  Whatever the
route, every stream must serialize exactly like a direct
:func:`repro.sim.fastpath.functional_pass` (the ``Cache``-object
reference) of the same job, and a trace whose warm boundary leaves
nothing to measure must fail the same way on every route.
"""

import dataclasses
import functools
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.geometry import CacheGeometry
from repro.core.policy import CachePolicy, ReplacementKind
from repro.core.sweep import run_functional_passes
from repro.core.timing import MemoryTiming
from repro.errors import ConfigurationError
from repro.sim.config import L1Spec, SystemConfig
from repro.sim.fastpath import functional_pass
from repro.sim.passcache import PassCache, cache_key, stream_to_dict
from repro.sim.telemetry import MetricsRegistry
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


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    drawn=jobs_strategy,
    siblings=siblings_strategy,
    n_jobs=st.sampled_from([1, 2]),
    prefill=st.lists(st.booleans(), min_size=10, max_size=10),
    use_cache=st.booleans(),
)
def test_every_route_equals_the_scalar_pass(drawn, siblings, n_jobs,
                                            prefill, use_cache):
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
