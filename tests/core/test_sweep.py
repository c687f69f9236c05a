"""Sweep drivers: structure, determinism, and parallel equivalence."""

import pytest

from repro.core.sweep import (
    run_associativity_sweeps,
    run_blocksize_sweep,
    run_functional_passes,
    run_point,
    run_speed_size_sweep,
    run_speed_size_sweeps,
)
from repro.core.metrics import TraceRunSummary, aggregate
from repro.core.policy import ReplacementKind
from repro.core.timing import DEFAULT_CYCLE_NS, MemoryTiming
from repro.errors import AnalysisError
from repro.sim.config import baseline_config
from repro.sim.fastpath import fast_simulate, functional_pass
from repro.sim.passcache import PassCache
from repro.sim.telemetry import MetricsRegistry
from repro.trace.suite import build_suite
from repro.units import KB, quantize_ns


@pytest.fixture(scope="module")
def small_suite():
    return build_suite(length=15_000, names=["mu3", "rd2n4"])


def scalar_point(config, suite):
    """One organization over the suite through the scalar reference:
    one ``functional_pass`` and one ``replay()`` per trace."""
    return aggregate([
        TraceRunSummary.from_stats(fast_simulate(
            config, trace, stream=functional_pass(config, trace)
        ))
        for trace in suite.values()
    ])


class TestSpeedSizeSweep:
    def test_grid_structure(self, small_suite):
        grid = run_speed_size_sweep(
            small_suite, [2 * KB, 8 * KB], [20.0, 40.0]
        )
        assert grid.total_sizes == [4 * KB, 16 * KB]
        assert grid.cycle_times_ns == [20.0, 40.0]
        assert grid.execution_ns.shape == (2, 2)
        assert (grid.execution_ns > 0).all()

    def test_axes_get_sorted(self, small_suite):
        grid = run_speed_size_sweep(
            small_suite, [8 * KB, 2 * KB], [40.0, 20.0]
        )
        assert grid.total_sizes == [4 * KB, 16 * KB]

    def test_deterministic(self, small_suite):
        a = run_speed_size_sweep(small_suite, [2 * KB], [40.0])
        b = run_speed_size_sweep(small_suite, [2 * KB], [40.0])
        assert (a.execution_ns == b.execution_ns).all()

    def test_accepts_mapping_or_sequence(self, small_suite):
        a = run_speed_size_sweep(small_suite, [2 * KB], [40.0])
        b = run_speed_size_sweep(
            list(small_suite.values()), [2 * KB], [40.0]
        )
        assert (a.execution_ns == b.execution_ns).all()

    def test_rejects_empty_traces(self):
        with pytest.raises(AnalysisError):
            run_speed_size_sweep([], [2 * KB], [40.0])

    def test_parallel_equals_serial(self, small_suite):
        """``n_jobs`` sizes the pass pool and then the pricing shards;
        neither changes a cell or a counter."""
        serial_metrics = MetricsRegistry()
        parallel_metrics = MetricsRegistry()
        serial = run_speed_size_sweep(
            small_suite, [2 * KB, 8 * KB], [20.0, 40.0], n_jobs=1,
            registry=serial_metrics,
        )
        parallel = run_speed_size_sweep(
            small_suite, [2 * KB, 8 * KB], [20.0, 40.0], n_jobs=2,
            registry=parallel_metrics,
        )
        assert (serial.execution_ns == parallel.execution_ns).all()
        assert (
            serial.cycles_per_reference == parallel.cycles_per_reference
        ).all()
        assert (serial.read_miss_ratio == parallel.read_miss_ratio).all()
        assert serial_metrics.counters == parallel_metrics.counters

    def test_replay_jobs_equal_serial(self, small_suite, tmp_path):
        """With every pass served from a warm cache, ``n_jobs`` shards
        only the pricing phase; the shards change no cell."""
        cache = PassCache(tmp_path / "pc")
        args = (small_suite, [2 * KB, 8 * KB], [20.0, 40.0])
        serial = run_speed_size_sweep(*args, n_jobs=1, pass_cache=cache)
        sharded_metrics = MetricsRegistry()
        sharded = run_speed_size_sweep(
            *args, n_jobs=2, pass_cache=PassCache(tmp_path / "pc"),
            registry=sharded_metrics,
        )
        assert sharded_metrics.counters["passcache.hits"] == 4
        assert "passcache.misses" not in sharded_metrics.counters
        assert (serial.execution_ns == sharded.execution_ns).all()
        assert (
            serial.cycles_per_reference == sharded.cycles_per_reference
        ).all()

    @staticmethod
    def _assert_cells_equal_scalar(suite, sizes, cycles, registry,
                                   **organization):
        """Sweep ``sizes x cycles`` and hold every grid cell equal to
        the same organization run through the scalar reference
        (:func:`scalar_point`)."""
        grid = run_speed_size_sweep(
            suite, sizes, cycles, registry=registry, **organization
        )
        for i, size in enumerate(sizes):
            for j, cycle_ns in enumerate(cycles):
                scalar = scalar_point(
                    baseline_config(
                        cache_size_bytes=size, cycle_ns=cycle_ns,
                        **organization,
                    ),
                    suite,
                )
                assert grid.execution_ns[i, j] == scalar.execution_time_ns
                assert (
                    grid.cycles_per_reference[i, j]
                    == scalar.cycles_per_reference
                )
                assert grid.read_miss_ratio[i] == scalar.read_miss_ratio

    def test_replay_kernel_equals_scalar(self, small_suite):
        """Direct-mapped cells equal the scalar
        reference."""
        registry = MetricsRegistry()
        self._assert_cells_equal_scalar(
            small_suite, [2 * KB, 8 * KB], [20.0, 40.0, 56.0], registry,
        )
        # 2 traces x 2 sizes, each priced at 3 clocks.
        assert registry.counters["replay.batch_outcomes"] == 12
        assert "replay.scalar_replays" not in registry.counters

    @pytest.mark.parametrize("replacement", [
        ReplacementKind.RANDOM, ReplacementKind.FIFO,
    ])
    @pytest.mark.parametrize("assoc", [2, 4])
    def test_per_organization_passes_equal_scalar(self, small_suite, assoc,
                                                  replacement):
        """Multi-way FIFO and RANDOM cells (one pass per
        organization) equal the scalar reference."""
        registry = MetricsRegistry()
        self._assert_cells_equal_scalar(
            small_suite, [2 * KB, 8 * KB], [20.0, 56.0], registry,
            assoc=assoc, replacement=replacement,
        )
        assert registry.counters["stackpass.passes"] == 4
        assert registry.counters["stackpass.reused_streams"] == 0

    def test_parallel_per_organization_passes_equal_serial(self,
                                                           small_suite):
        """A 4-way RANDOM grid's passes give the same cells and
        counters in the pool as in-process."""
        args = (small_suite, [2 * KB, 8 * KB], [20.0, 40.0])
        registries = [MetricsRegistry(), MetricsRegistry()]
        serial, parallel = (
            run_speed_size_sweep(*args, assoc=4, n_jobs=n_jobs,
                                 registry=registry)
            for n_jobs, registry in zip((1, 2), registries)
        )
        assert (serial.execution_ns == parallel.execution_ns).all()
        assert (
            serial.cycles_per_reference == parallel.cycles_per_reference
        ).all()
        assert (serial.read_miss_ratio == parallel.read_miss_ratio).all()
        assert registries[0].counters == registries[1].counters
        assert registries[0].counters["stackpass.passes"] == 4


class TestRunPoint:
    @pytest.mark.parametrize("assoc,replacement", [
        (1, ReplacementKind.RANDOM),  # direct-mapped
        (2, ReplacementKind.LRU),
        (2, ReplacementKind.RANDOM),  # the paper's §4 policy
    ])
    def test_equals_scalar_reference(self, small_suite, assoc, replacement):
        config = baseline_config(
            cache_size_bytes=4 * KB, assoc=assoc, replacement=replacement,
        )
        assert run_point(config, small_suite) == scalar_point(
            config, small_suite
        )

    def test_with_levels_equals_scalar_reference(self, small_suite):
        from repro.core.geometry import CacheGeometry
        from repro.sim.config import LowerLevelSpec

        config = baseline_config(cache_size_bytes=4 * KB).with_levels((
            LowerLevelSpec(
                geometry=CacheGeometry(size_bytes=64 * KB, block_words=4),
            ),
        ))
        assert run_point(config, small_suite) == scalar_point(
            config, small_suite
        )

    def test_memory_direct_prices_on_the_kernel(self, small_suite,
                                                monkeypatch, counted_passes):
        import repro.sim.fastpath as fastpath

        config = baseline_config(cache_size_bytes=4 * KB, cycle_ns=28.0)
        expected = scalar_point(config, small_suite)
        counted_passes.clear()

        def no_scalar_replay(*args, **kwargs):
            raise AssertionError("scalar replay() on a memory-direct point")

        monkeypatch.setattr(fastpath, "replay", no_scalar_replay)
        assert run_point(config, small_suite) == expected
        assert len(counted_passes) == 2

    def test_warm_pass_cache_serves_every_pass(self, small_suite, tmp_path,
                                               counted_passes):
        config = baseline_config(cache_size_bytes=4 * KB)
        cache = PassCache(tmp_path / "pc")
        cold = run_point(config, small_suite, pass_cache=cache)
        counted_passes.clear()
        hits = cache.counters.hits
        warm = run_point(config, small_suite, pass_cache=cache)
        assert warm == cold
        assert cache.counters.hits - hits == 2
        assert counted_passes == []


class TestSpeedSizeSweeps:
    """Sweeps that differ only in timing share their passes and equal
    one independent :func:`run_speed_size_sweep` each."""

    TIMINGS = [
        ([20.0, 40.0], None),
        ([10.0, 20.0], MemoryTiming().with_latency_ns(90.0)),
        ([28.0, 10.0], None),
    ]

    @staticmethod
    def _assert_same(a, b):
        assert a.total_sizes == b.total_sizes
        assert a.cycle_times_ns == b.cycle_times_ns
        for field in ("execution_ns", "cycles_per_reference",
                      "read_miss_ratio", "load_miss_ratio",
                      "ifetch_miss_ratio", "read_traffic_ratio",
                      "write_traffic_ratio_full",
                      "write_traffic_ratio_dirty"):
            assert (getattr(a, field) == getattr(b, field)).all(), field

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_each_grid_equals_its_own_sweep(self, small_suite, n_jobs):
        registry = MetricsRegistry()
        grids = run_speed_size_sweeps(
            small_suite, [8 * KB, 2 * KB], self.TIMINGS, assoc=2,
            n_jobs=n_jobs, registry=registry,
        )
        assert len(grids) == len(self.TIMINGS)
        for grid, (cycles, memory) in zip(grids, self.TIMINGS):
            self._assert_same(grid, run_speed_size_sweep(
                small_suite, [2 * KB, 8 * KB], cycles, assoc=2,
                memory=memory,
            ))
        # One pass per (size, trace), not one per sweep.
        assert registry.counters["stackpass.passes"] == 4
        assert registry.counters["replay.batch_outcomes"] == 4 * 6


class TestAssociativitySweeps:
    def test_one_grid_per_assoc(self, small_suite):
        grids = run_associativity_sweeps(
            small_suite, [2 * KB], [40.0], assocs=(1, 2)
        )
        assert set(grids) == {1, 2}


class TestBlocksizeSweep:
    def test_keys_and_curves(self, small_suite):
        curves = run_blocksize_sweep(
            small_suite, [4, 8], [180.0], [1.0],
            cache_size_each_bytes=8 * KB,
        )
        # 180ns at 40ns clock quantizes to 5 cycles (plus the address
        # cycle inside the simulated read).
        assert set(curves) == {(5, 1.0)}
        curve = curves[(5, 1.0)]
        assert curve.block_sizes_words == [4, 8]

    def test_parallel_equals_serial(self, small_suite):
        kwargs = dict(
            block_sizes_words=[4, 8], latencies_ns=[180.0],
            transfer_rates=[1.0], cache_size_each_bytes=8 * KB,
        )
        serial = run_blocksize_sweep(small_suite, n_jobs=1, **kwargs)
        parallel = run_blocksize_sweep(small_suite, n_jobs=2, **kwargs)
        for key in serial:
            assert (
                serial[key].execution_ns == parallel[key].execution_ns
            ).all()

    def test_replay_kernel_equals_scalar(self, small_suite):
        """Every curve point equals the same organization and memory
        run through the scalar reference (:func:`scalar_point`)."""
        blocks = [4, 8]
        curves = run_blocksize_sweep(
            small_suite, block_sizes_words=blocks,
            latencies_ns=[100.0, 180.0], transfer_rates=[1.0, 2.0],
            cache_size_each_bytes=8 * KB,
        )
        assert len(curves) == 4
        for latency in (100.0, 180.0):
            for rate in (1.0, 2.0):
                curve = curves[(quantize_ns(latency, DEFAULT_CYCLE_NS), rate)]
                memory = (
                    MemoryTiming().with_latency_ns(latency)
                    .with_transfer_rate(rate)
                )
                for b_index, block_words in enumerate(blocks):
                    scalar = scalar_point(
                        baseline_config(
                            cache_size_bytes=8 * KB,
                            block_words=block_words, memory=memory,
                        ),
                        small_suite,
                    )
                    assert (
                        curve.execution_ns[b_index]
                        == scalar.execution_time_ns
                    )
                    assert (
                        curve.load_miss_ratio[b_index]
                        == scalar.load_miss_ratio
                    )

    def test_colliding_quantized_keys_deduped(self, small_suite):
        # 180 ns and 190 ns both quantize to 5 cycles at a 40 ns clock;
        # the sweep must price the collision once and keep one curve.
        curves = run_blocksize_sweep(
            small_suite, [4, 8], [180.0, 190.0], [1.0],
            cache_size_each_bytes=8 * KB,
        )
        assert set(curves) == {(5, 1.0)}
        reference = run_blocksize_sweep(
            small_suite, [4, 8], [180.0], [1.0],
            cache_size_each_bytes=8 * KB,
        )
        assert (
            curves[(5, 1.0)].execution_ns
            == reference[(5, 1.0)].execution_ns
        ).all()


class TestRunFunctionalPasses:
    def test_serial_and_parallel_agree(self, small_suite):
        trace = next(iter(small_suite.values()))
        config = baseline_config(cache_size_bytes=2 * KB)
        jobs = [(config, trace, 0), (config.with_cache_sizes(8 * KB), trace, 0)]
        serial = run_functional_passes(jobs, n_jobs=1)
        parallel = run_functional_passes(jobs, n_jobs=2)
        for a, b in zip(serial, parallel):
            assert a.ev_gap == b.ev_gap
            assert a.icache == b.icache
            assert a.dcache == b.dcache

    def test_parallel_results_stay_in_job_order(self, small_suite):
        """Each position must hold *its* job's stream — mixed traces and
        configs so any permutation would be visible in the labels."""
        traces = list(small_suite.values())
        configs = [
            baseline_config(cache_size_bytes=2 * KB),
            baseline_config(cache_size_bytes=8 * KB),
        ]
        jobs = [
            (config, trace, 0) for trace in traces for config in configs
        ]
        results = run_functional_passes(jobs, n_jobs=2)
        for (config, trace, _seed), stream in zip(jobs, results):
            assert stream.trace_name == trace.name
            assert stream.config_summary == config.describe()

    def test_pack_dedupes_traces_by_content(self, small_suite):
        from repro.core.sweep import _plan_tasks

        traces = list(small_suite.values())
        config = baseline_config(cache_size_bytes=2 * KB)
        slower = baseline_config(cache_size_bytes=2 * KB, cycle_ns=80.0)
        multiway = baseline_config(cache_size_bytes=2 * KB, assoc=2)
        jobs = [
            (config, traces[0], 0), (config, traces[1], 0),
            (slower, traces[0], 0), (slower, traces[1], 0),
            (multiway, traces[1], 0), (config, traces[0], 7),
        ]
        tasks, unique = _plan_tasks(jobs, range(6))
        # each distinct trace ships to the pool exactly once
        assert len(unique) == 2
        # one task per distinct pass: timing siblings share one, another
        # organization or another seed is a task of its own
        assert [slot for slot, _ in tasks] == [0, 1, 1, 0]
        assert [[k for k, _, _ in members] for _, members in tasks] == [
            [0, 2], [1, 3], [4], [5],
        ]

    def test_couplets_keyed_by_fingerprint_not_identity(self, small_suite):
        """Regression: the couplet memo was once keyed by ``id(trace)``;
        CPython reuses ids, so a recycled id could pair trace A's
        couplets with trace B.  Passes are grouped by content
        fingerprint instead: two same-content traces under different
        names share one pass and each stream keeps its own trace's
        name."""
        from repro.trace.record import Trace

        original, _other = small_suite.values()
        twin = Trace(
            original.kinds, original.addrs, original.pids, name="twin",
            warm_boundary=original.warm_boundary,
        )
        config = baseline_config(cache_size_bytes=2 * KB)
        multiway = baseline_config(cache_size_bytes=2 * KB, assoc=2)
        jobs = [(config, original, 0), (config, twin, 0), (multiway, twin, 0)]
        for n_jobs in (1, 2):  # two pass tasks: 2 uses the pool
            registry = MetricsRegistry()
            streams = run_functional_passes(
                jobs, n_jobs=n_jobs, registry=registry
            )
            assert registry.counters == {
                "stackpass.passes": 2, "stackpass.reused_streams": 1,
            }
            assert [s.trace_name for s in streams] == [
                original.name, "twin", "twin",
            ]
            assert streams[0].ev_gap == streams[1].ev_gap

    def test_cache_hits_skip_simulation(self, tmp_path, small_suite):
        from repro.sim.passcache import PassCache

        trace = next(iter(small_suite.values()))
        configs = [
            baseline_config(cache_size_bytes=2 * KB),
            baseline_config(cache_size_bytes=8 * KB),
        ]
        jobs = [(config, trace, 0) for config in configs]
        cold_cache = PassCache(tmp_path / "pc")
        cold = run_functional_passes(jobs, cache=cold_cache)
        assert cold_cache.counters.misses == 2
        assert cold_cache.counters.puts == 2

        warm_cache = PassCache(tmp_path / "pc")
        warm = run_functional_passes(jobs, cache=warm_cache)
        assert warm_cache.counters.hits == 2
        assert warm_cache.counters.misses == 0
        for a, b in zip(cold, warm):
            assert a.ev_gap == b.ev_gap
            assert a.icache == b.icache
            assert a.dcache == b.dcache

    def test_parallel_path_fills_only_cache_misses(
        self, tmp_path, small_suite
    ):
        from repro.sim.passcache import PassCache

        trace = next(iter(small_suite.values()))
        configs = [
            baseline_config(cache_size_bytes=2 * KB),
            baseline_config(cache_size_bytes=4 * KB),
            baseline_config(cache_size_bytes=8 * KB),
        ]
        jobs = [(config, trace, 0) for config in configs]
        cache = PassCache(tmp_path / "pc")
        # pre-seed one entry; the pool should only run the other two
        seeded = run_functional_passes(jobs[:1], cache=cache)
        mixed = run_functional_passes(jobs, n_jobs=2, cache=cache)
        assert cache.counters.hits == 1
        assert cache.counters.puts == 3
        assert mixed[0].ev_gap == seeded[0].ev_gap
        for (config, _trace, _seed), stream in zip(jobs, mixed):
            assert stream.config_summary == config.describe()


class TestRegistryCounters:
    """A sweep's counters leave it only through ``registry=``; these pin
    the names and values each route dumps, so a change to the plumbing
    cannot silently lose or double a count."""

    _KERNEL_3_CLOCKS = {
        "replay.batch_outcomes": 12,
        "replay.contended_runs": 531,
        "replay.scalar_events": 12211,
        "replay.vectorized_events": 5063,
    }

    @staticmethod
    def _dump(fn, *args, **kwargs):
        registry = MetricsRegistry()
        fn(*args, registry=registry, **kwargs)
        return registry.counters, registry.gauges

    @staticmethod
    def _assert_priced(counters, cells):
        """A pricing change may move (event, point) cells between the
        kernel's vectorized and scalar paths, never add or drop one."""
        assert counters["replay.vectorized_events"] \
            + counters["replay.scalar_events"] == cells

    def test_exact_route_with_pass_cache(self, small_suite, tmp_path):
        cache = PassCache(tmp_path / "pc")
        args = (small_suite, [2 * KB, 8 * KB], [20.0, 40.0, 56.0])
        cold, cold_gauges = self._dump(
            run_speed_size_sweep, *args, pass_cache=cache
        )
        assert cold == {
            "passcache.bytes_written": 556560,
            "passcache.misses": 4,
            "passcache.puts": 4,
            "stackpass.passes": 4,
            "stackpass.reused_streams": 0,
            **self._KERNEL_3_CLOCKS,
        }
        self._assert_priced(cold, 17274)
        warm, _ = self._dump(run_speed_size_sweep, *args, pass_cache=cache)
        assert warm == {
            "passcache.bytes_read": 556560,
            "passcache.hits": 4,
            **self._KERNEL_3_CLOCKS,
        }
        assert cold_gauges == {}

    def test_stack_route(self, small_suite):
        counters, _ = self._dump(
            run_speed_size_sweep, small_suite, [2 * KB, 8 * KB],
            [20.0, 40.0], assoc=2, replacement=ReplacementKind.LRU,
        )
        assert counters == {
            "replay.batch_outcomes": 8,
            "replay.contended_runs": 368,
            "replay.scalar_events": 7540,
            "replay.vectorized_events": 3294,
            "stackpass.passes": 4,
            "stackpass.reused_streams": 0,
        }
        self._assert_priced(counters, 10834)
        # Multi-way RANDOM takes the same route: one pass per
        # organization per trace.
        counters, _ = self._dump(
            run_speed_size_sweep, small_suite, [2 * KB, 8 * KB], [40.0],
            assoc=2,
        )
        assert counters["stackpass.passes"] == 4
        assert counters["stackpass.reused_streams"] == 0

    def test_blocksize_exact_route(self, small_suite):
        counters, gauges = self._dump(
            run_blocksize_sweep, small_suite, [4, 8], [100.0, 180.0],
            [1.0, 2.0], cache_size_each_bytes=8 * KB,
        )
        assert counters == {
            "replay.batch_outcomes": 16,
            "replay.contended_runs": 364,
            "replay.scalar_events": 11377,
            "replay.vectorized_events": 5039,
            "stackpass.passes": 4,
            "stackpass.reused_streams": 0,
        }
        assert gauges == {}
        self._assert_priced(counters, 16416)
