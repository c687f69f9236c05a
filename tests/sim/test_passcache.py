"""Functional-pass cache: keying, round trips, corruption, warm sweeps.

The load-bearing guarantees under test:

* a cached pass replays cycle-for-cycle identically to a fresh one,
  across the same organization/clock/memory matrix that licenses the
  fastpath itself (``test_fastpath_vs_engine``);
* a warm cache makes a repeated sweep perform *zero* functional passes
  and zero couplet pairings (verified by counters and by poisoning the
  pass entry points);
* every corruption mode — truncation, bit flips, schema drift, key
  mismatch — degrades to a quarantine-and-miss, never to a crash or a
  wrong replay.
"""

import base64
import functools
import json
import os
import pickle

import numpy as np
import pytest

from repro.core.sweep import run_functional_passes, run_speed_size_sweep
from repro.core.timing import MemoryTiming
from repro.errors import CorruptResultError
from repro.sim.config import baseline_config
from repro.sim.fastpath import (
    EVENT_FIELDS,
    fast_simulate,
    functional_pass,
)
from repro.sim.passcache import (
    PASSCACHE_SCHEMA,
    PassCache,
    cache_key,
    cached_fast_simulate,
    stream_checksum,
    stream_to_dict,
)
from repro.sim.telemetry import MetricsRegistry
from repro.trace.suite import build_trace
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


def reference_simulate(config, trace, seed=0):
    """The uncached reference: one ``functional_pass``, one replay."""
    return fast_simulate(
        config, trace, stream=functional_pass(config, trace, seed=seed)
    )


def _entry_path(cache, config, trace, seed=0):
    return cache.directory / f"{cache_key(config, trace, seed)}.json"


def _rewrite(path, mutate):
    """Load an entry's JSON, apply ``mutate(payload)``, write it back."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    mutate(payload)
    path.write_text(
        json.dumps(payload, separators=(",", ":")), encoding="utf-8"
    )


def _reseal(payload):
    """Re-checksum an entry's stream document with ``stream_checksum``
    where its event buffers still decode, so that only the stream's own
    validation can refuse it; an undecodable buffer fails before the
    checksum is read."""
    doc = payload["stream"]
    try:
        raw = {
            field: base64.b64decode(doc[field], validate=True)
            for field in EVENT_FIELDS
        }
    except (KeyError, TypeError, ValueError):
        return
    payload["checksum"] = stream_checksum(doc, raw)


class TestCacheKey:
    def test_deterministic(self, mu3_small, small_config):
        assert cache_key(small_config, mu3_small) == cache_key(
            small_config, mu3_small
        )

    def test_seed_changes_key(self, mu3_small, small_config):
        assert cache_key(small_config, mu3_small, seed=0) != cache_key(
            small_config, mu3_small, seed=1
        )

    def test_organization_changes_key(self, mu3_small):
        a = baseline_config(cache_size_bytes=4 * KB)
        b = baseline_config(cache_size_bytes=8 * KB)
        assert cache_key(a, mu3_small) != cache_key(b, mu3_small)

    def test_timing_siblings_share_one_key(self, mu3_small):
        # Cycle time, memory timing, write-buffer depth and the trace's
        # name do not affect the event stream: one entry serves them all.
        config = baseline_config(cache_size_bytes=4 * KB)
        siblings = [
            config.with_cycle_ns(20.0),
            baseline_config(cache_size_bytes=4 * KB, write_buffer_depth=1),
            baseline_config(
                cache_size_bytes=4 * KB, memory=MemoryTiming(latency_ns=300.0)
            ),
        ]
        key = cache_key(config, mu3_small)
        assert {cache_key(c, mu3_small) for c in siblings} == {key}
        assert cache_key(config, mu3_small.with_name("other")) == key

    def test_trace_content_changes_key(self, mu3_small, small_config):
        other = build_trace("mu3", length=10_000, seed=3)
        assert cache_key(small_config, mu3_small) != cache_key(
            small_config, other
        )


class TestRoundTrip:
    def test_dict_round_trip(self, tmp_path, mu3_small, small_config):
        """A stream document written through JSON and re-sealed reads
        back as the same stream."""
        stream = functional_pass(small_config, mu3_small)
        cache = PassCache(tmp_path / "pc")
        cache.put(small_config, mu3_small, 0, stream)
        path = _entry_path(cache, small_config, mu3_small)
        _rewrite(path, _reseal)
        assert_streams_equal(stream, cache.get(small_config, mu3_small))
        assert cache.counters.corrupt == 0

    def test_put_then_get_across_instances(
        self, tmp_path, mu3_small, small_config
    ):
        stream = functional_pass(small_config, mu3_small)
        writer = PassCache(tmp_path / "pc")
        writer.put(small_config, mu3_small, 0, stream)
        assert writer.counters.puts == 1
        assert writer.counters.bytes_written > 0

        reader = PassCache(tmp_path / "pc")
        back = reader.get(small_config, mu3_small)
        assert back is not None
        assert_streams_equal(stream, back)
        assert reader.counters.hits == 1
        assert reader.counters.misses == 0
        assert reader.counters.bytes_read > 0

    def test_absent_entry_is_plain_miss(
        self, tmp_path, mu3_small, small_config
    ):
        cache = PassCache(tmp_path / "pc")
        assert cache.get(small_config, mu3_small) is None
        assert cache.counters.misses == 1
        assert cache.counters.corrupt == 0

    def test_route_simulates_once(
        self, tmp_path, mu3_small, small_config
    ):
        cache = PassCache(tmp_path / "pc")
        jobs = [(small_config, mu3_small, 0)]
        (first,) = run_functional_passes(jobs, cache=cache)
        (second,) = run_functional_passes(jobs, cache=cache)
        assert_streams_equal(first, second)
        assert cache.counters.misses == 1
        assert cache.counters.hits == 1
        assert cache.counters.puts == 1
        assert len(cache) == 1


class TestStreamFromDictValidation:
    """A malformed stream document under a valid checksum must still
    miss cleanly: ``PassCache.get`` validates every buffer and scalar
    after the checksum, and quarantines the entry."""

    @pytest.fixture()
    def refused(self, tmp_path, tiny_trace, small_config):
        """``refused(edit)`` replaces a written entry's stream document
        with ``edit(document)``, re-seals it, and asserts that the entry
        is refused for its shape, not its checksum: ``get`` misses,
        counts it corrupt and quarantines it."""
        cache = PassCache(tmp_path / "pc")
        cache.put(small_config, tiny_trace, 0,
                  functional_pass(small_config, tiny_trace))
        path = _entry_path(cache, small_config, tiny_trace)

        def refused(edit):
            def doctor(payload):
                payload["stream"] = edit(payload["stream"])
                _reseal(payload)

            _rewrite(path, doctor)
            [(_path, reason)] = cache.verify().corrupt
            assert "checksum" not in reason
            assert cache.get(small_config, tiny_trace) is None
            assert (cache.counters.corrupt, cache.counters.misses) == (1, 1)
            assert not path.exists()
            assert (cache.quarantine_dir / path.name).exists()

        return refused

    def test_non_object_payload_rejected(self, refused):
        refused(lambda doc: [1, 2, 3])

    def test_missing_buffer_rejected(self, refused):
        refused(lambda doc: {k: v for k, v in doc.items() if k != "ev_gap"})

    def test_bad_base64_rejected(self, refused):
        refused(lambda doc: {**doc, "ev_gap": "!!! not base64 !!!"})

    def test_non_string_buffer_rejected(self, refused):
        refused(lambda doc: {**doc, "ev_gap": [1, 2, 3]})

    def test_ragged_buffers_rejected(self, refused):
        # cut one buffer to two events: still 8-byte aligned
        refused(lambda doc: {**doc, "ev_imiss": base64.b64encode(
            base64.b64decode(doc["ev_imiss"])[:16]
        ).decode("ascii")})

    def test_misaligned_bytes_rejected(self, refused):
        refused(lambda doc: {
            **doc, "ev_gap": base64.b64encode(b"12345").decode("ascii"),
        })

    def test_non_integer_scalar_rejected(self, refused):
        refused(lambda doc: {**doc, "end_base": "not-a-number"})

    def test_n_events_mismatch_rejected(self, refused):
        refused(lambda doc: {**doc, "n_events": doc["n_events"] + 1})


class TestCorruption:
    """Every corruption mode must miss cleanly, never crash."""

    @pytest.fixture()
    def seeded(self, tmp_path, tiny_trace, small_config):
        cache = PassCache(tmp_path / "pc")
        cache.put(
            small_config, tiny_trace, 0,
            functional_pass(small_config, tiny_trace),
        )
        return cache, _entry_path(cache, small_config, tiny_trace)

    def test_truncated_file_misses_and_quarantines(
        self, seeded, tiny_trace, small_config
    ):
        cache, path = seeded
        text = path.read_text(encoding="utf-8")
        path.write_text(text[: len(text) // 2], encoding="utf-8")

        assert cache.get(small_config, tiny_trace) is None
        assert cache.counters.corrupt == 1
        assert cache.counters.misses == 1
        assert not path.exists()
        assert (cache.quarantine_dir / path.name).exists()

    def test_tampered_payload_fails_checksum(
        self, seeded, tiny_trace, small_config
    ):
        cache, path = seeded
        _rewrite(path, lambda p: p["stream"].update(
            n_couplets=p["stream"]["n_couplets"] + 1
        ))
        assert cache.get(small_config, tiny_trace) is None
        assert cache.counters.corrupt == 1
        assert (cache.quarantine_dir / path.name).exists()

    def test_flipped_buffer_bit_fails_checksum(
        self, seeded, tiny_trace, small_config
    ):
        """A flipped bit inside an event buffer still decodes; the
        checksum over the decoded bytes catches it."""
        import base64

        cache, path = seeded

        def flip(payload):
            raw = bytearray(base64.b64decode(payload["stream"]["ev_gap"]))
            raw[0] ^= 1
            payload["stream"]["ev_gap"] = base64.b64encode(raw).decode()

        _rewrite(path, flip)
        assert cache.get(small_config, tiny_trace) is None
        assert cache.counters.corrupt == 1
        assert (cache.quarantine_dir / path.name).exists()

    def test_foreign_file_quarantines(self, seeded, tiny_trace, small_config):
        """Another sealed document (a campaign result's shape) under an
        entry's name is corruption, not a schema miss."""
        cache, path = seeded
        path.write_text(json.dumps({
            "schema": PASSCACHE_SCHEMA, "run_id": "r", "checksum": "0",
            "stats": {},
        }), encoding="utf-8")
        assert cache.get(small_config, tiny_trace) is None
        assert cache.counters.corrupt == 1
        assert (cache.quarantine_dir / path.name).exists()

    def test_schema_1_entry_misses_and_is_overwritten(
        self, seeded, tiny_trace, small_config
    ):
        """Entries written before the checksum covered decoded buffers
        (schema 1) miss cleanly, and the next put replaces them."""
        cache, path = seeded
        _rewrite(path, lambda p: p.update(schema=1))
        assert cache.get(small_config, tiny_trace) is None
        assert cache.counters.corrupt == 0
        assert not cache.quarantine_dir.exists()
        run_functional_passes([(small_config, tiny_trace, 0)], cache=cache)
        assert json.loads(path.read_text(encoding="utf-8"))["schema"] == 2
        assert cache.get(small_config, tiny_trace) is not None

    def test_schema_bump_is_clean_miss(
        self, seeded, tiny_trace, small_config
    ):
        cache, path = seeded
        _rewrite(path, lambda p: p.update(schema=PASSCACHE_SCHEMA + 1))

        assert cache.get(small_config, tiny_trace) is None
        assert cache.counters.corrupt == 0
        assert cache.counters.misses == 1
        # not corruption: the old entry stays until overwritten
        assert path.exists()
        assert not cache.quarantine_dir.exists()

    def test_key_mismatch_detected(self, seeded, tiny_trace, small_config):
        cache, path = seeded
        imposter = path.with_name("some-other-key.json")
        os.replace(path, imposter)
        report = cache.verify()
        assert not report.clean
        assert any("key mismatch" in reason for _, reason in report.corrupt)

    def test_route_recovers_from_corruption(
        self, seeded, tiny_trace, small_config
    ):
        cache, path = seeded
        fresh = functional_pass(small_config, tiny_trace)
        path.write_text("garbage", encoding="utf-8")

        (recovered,) = run_functional_passes(
            [(small_config, tiny_trace, 0)], cache=cache
        )
        assert_streams_equal(fresh, recovered)
        # re-persisted: the next lookup is a hit again
        assert cache.get(small_config, tiny_trace) is not None

    def test_put_overwrites_schema_mismatched_entry(
        self, seeded, tiny_trace, small_config
    ):
        cache, path = seeded
        _rewrite(path, lambda p: p.update(schema=PASSCACHE_SCHEMA + 1))
        (stream,) = run_functional_passes(
            [(small_config, tiny_trace, 0)], cache=cache
        )
        assert stream is not None
        assert cache.get(small_config, tiny_trace) is not None
        assert cache.counters.hits == 1


class TestVerifyGcStats:
    def _populate(self, tmp_path, trace, n=3):
        cache = PassCache(tmp_path / "pc")
        configs = [
            baseline_config(cache_size_bytes=(2 ** k) * KB)
            for k in range(1, n + 1)
        ]
        for config in configs:
            cache.put(config, trace, 0, functional_pass(config, trace))
        return cache, configs

    def test_verify_clean(self, tmp_path, tiny_trace):
        cache, _ = self._populate(tmp_path, tiny_trace)
        report = cache.verify()
        assert report.clean
        assert len(report.ok) == 3
        assert "3 entries ok" in report.render()

    def test_verify_reports_without_repair(self, tmp_path, tiny_trace):
        cache, configs = self._populate(tmp_path, tiny_trace)
        victim = _entry_path(cache, configs[0], tiny_trace)
        victim.write_text("{", encoding="utf-8")

        report = cache.verify()
        assert not report.clean
        assert len(report.corrupt) == 1
        assert victim.exists()  # report-only: nothing moved

    def test_verify_repair_quarantines(self, tmp_path, tiny_trace):
        cache, configs = self._populate(tmp_path, tiny_trace)
        victim = _entry_path(cache, configs[0], tiny_trace)
        victim.write_text("{", encoding="utf-8")
        stray = cache.directory / ".tmp.half-written"
        stray.write_text("partial", encoding="utf-8")

        report = cache.verify(repair=True)
        assert len(report.quarantined) == 1
        assert not victim.exists()
        assert (cache.quarantine_dir / victim.name).exists()
        assert not stray.exists()
        assert len(cache) == 2

    def test_verify_accepts_foreign_schema(self, tmp_path, tiny_trace):
        cache, configs = self._populate(tmp_path, tiny_trace, n=1)
        _rewrite(
            _entry_path(cache, configs[0], tiny_trace),
            lambda p: p.update(schema=PASSCACHE_SCHEMA + 1),
        )
        assert cache.verify().clean

    def test_disk_stats(self, tmp_path, tiny_trace):
        cache, _ = self._populate(tmp_path, tiny_trace)
        stats = cache.disk_stats()
        assert stats["entries"] == 3
        assert stats["bytes"] > 0
        assert stats["quarantined"] == 0

    def test_gc_noop_without_budgets(self, tmp_path, tiny_trace):
        cache, _ = self._populate(tmp_path, tiny_trace)
        assert cache.gc() == []
        assert len(cache) == 3

    def test_gc_evicts_oldest_first(self, tmp_path, tiny_trace):
        cache, configs = self._populate(tmp_path, tiny_trace)
        # pin deterministic mtimes: configs[0] oldest, configs[2] newest
        for age, config in enumerate(configs):
            path = _entry_path(cache, config, tiny_trace)
            stamp = 1_000_000_000_000_000_000 + age * 1_000_000_000
            os.utime(path, ns=(stamp, stamp))

        removed = cache.gc(max_entries=1)
        assert len(removed) == 2
        assert len(cache) == 1
        survivor = _entry_path(cache, configs[2], tiny_trace)
        assert survivor.exists()

    def test_gc_max_bytes_evicts_everything_at_zero(
        self, tmp_path, tiny_trace
    ):
        cache, _ = self._populate(tmp_path, tiny_trace)
        removed = cache.gc(max_bytes=0)
        assert len(removed) == 3
        assert len(cache) == 0


class TestCachedFastSimulate:
    def test_matches_fast_simulate(self, tmp_path, mu3_small, small_config):
        cache = PassCache(tmp_path / "pc")
        cached = cached_fast_simulate(small_config, mu3_small, cache=cache)
        assert cached == reference_simulate(small_config, mu3_small)
        # second call replays from disk, same answer
        again = cached_fast_simulate(small_config, mu3_small, cache=cache)
        assert again == cached
        assert cache.counters.hits == 1
        assert cache.counters.misses == 1

    def test_cache_dir_form_matches(self, tmp_path, mu3_small, small_config):
        stats = cached_fast_simulate(
            small_config, mu3_small, cache_dir=tmp_path / "pc"
        )
        assert stats == reference_simulate(small_config, mu3_small)

    def test_requires_cache_or_dir(self, mu3_small, small_config):
        with pytest.raises(ValueError):
            cached_fast_simulate(small_config, mu3_small)

    def test_each_registry_counts_its_own_call(
        self, tmp_path, mu3_small, small_config
    ):
        """Two calls on one cache with two registries: each registry
        holds exactly its own call's ``passcache.*`` counts, whichever
        registry the cache saw first."""
        cache = PassCache(tmp_path / "pc")
        cold, warm = MetricsRegistry(), MetricsRegistry()
        cached_fast_simulate(
            small_config, mu3_small, cache=cache, registry=cold
        )
        written = cache.counters.bytes_written
        cached_fast_simulate(
            small_config, mu3_small, cache=cache, registry=warm
        )
        assert cold.counters == {
            "passcache.misses": 1, "passcache.puts": 1,
            "passcache.bytes_written": written,
        }
        assert warm.counters == {
            "passcache.hits": 1, "passcache.bytes_read": written,
        }

    def test_partial_is_picklable(self, tmp_path):
        # campaign workers carry the simulate_fn across the process
        # boundary as a partial over cache_dir
        fn = functools.partial(
            cached_fast_simulate, cache_dir=str(tmp_path / "pc")
        )
        assert pickle.loads(pickle.dumps(fn)).keywords["cache_dir"]


class TestWarmSweep:
    """Acceptance: a warm cache means zero functional passes."""

    SIZES = (2 * KB, 4 * KB)
    CLOCKS = (20.0, 40.0)

    def test_repeat_sweep_runs_zero_passes(
        self, tmp_path, mu3_small, rd2n4_small, monkeypatch
    ):
        traces = [mu3_small, rd2n4_small]
        cold_cache = PassCache(tmp_path / "pc")
        cold = run_speed_size_sweep(
            traces, self.SIZES, self.CLOCKS, pass_cache=cold_cache
        )
        n_passes = len(traces) * len(self.SIZES)
        assert cold_cache.counters.misses == n_passes
        assert cold_cache.counters.puts == n_passes
        assert cold_cache.counters.hits == 0

        # poison the pass entry points: the warm sweep must touch neither
        def boom(*args, **kwargs):
            raise AssertionError("warm sweep ran a functional pass")

        monkeypatch.setattr("repro.core.sweep.stack_functional_passes", boom)
        monkeypatch.setattr("repro.core.sweep.pair_couplets", boom)

        warm_cache = PassCache(tmp_path / "pc")
        warm = run_speed_size_sweep(
            traces, self.SIZES, self.CLOCKS, pass_cache=warm_cache
        )
        assert warm_cache.counters.misses == 0
        assert warm_cache.counters.puts == 0
        assert warm_cache.counters.hits == n_passes
        assert np.array_equal(cold.execution_ns, warm.execution_ns)

    def test_cold_sweep_with_cache_matches_uncached(
        self, tmp_path, mu3_small
    ):
        plain = run_speed_size_sweep([mu3_small], self.SIZES, self.CLOCKS)
        cached = run_speed_size_sweep(
            [mu3_small], self.SIZES, self.CLOCKS,
            pass_cache=PassCache(tmp_path / "pc"),
        )
        assert np.array_equal(plain.execution_ns, cached.execution_ns)

    def test_corrupt_cache_degrades_to_resimulation(
        self, tmp_path, mu3_small
    ):
        cache = PassCache(tmp_path / "pc")
        run_speed_size_sweep(
            [mu3_small], self.SIZES, self.CLOCKS, pass_cache=cache
        )
        for path in cache.directory.glob("*.json"):
            path.write_text("garbage", encoding="utf-8")

        retry_cache = PassCache(tmp_path / "pc")
        plain = run_speed_size_sweep([mu3_small], self.SIZES, self.CLOCKS)
        healed = run_speed_size_sweep(
            [mu3_small], self.SIZES, self.CLOCKS, pass_cache=retry_cache
        )
        assert retry_cache.counters.corrupt == len(self.SIZES)
        assert np.array_equal(plain.execution_ns, healed.execution_ns)


# ---------------------------------------------------------------------
# Cached-vs-fresh equality across the fastpath validation matrix
# ---------------------------------------------------------------------
class TestMatrixEquality:
    """A warm-cache replay must equal a fresh simulation exactly, over
    the same matrix that licenses the fastpath against the engine."""

    def _assert_cached_equals_fresh(self, tmp_path, config, trace):
        fresh = reference_simulate(config, trace)
        cold = PassCache(tmp_path / "pc")
        assert cached_fast_simulate(config, trace, cache=cold) == fresh
        # a *separate* instance forces the disk round trip
        warm = PassCache(tmp_path / "pc")
        assert cached_fast_simulate(config, trace, cache=warm) == fresh
        assert warm.counters.hits == 1

    @pytest.mark.parametrize("size_kb", [2, 8, 32])
    @pytest.mark.parametrize("cycle_ns", [20.0, 40.0, 56.0, 80.0])
    def test_sizes_and_clocks(self, tmp_path, mu3_small, size_kb, cycle_ns):
        config = baseline_config(
            cache_size_bytes=size_kb * KB, cycle_ns=cycle_ns
        )
        self._assert_cached_equals_fresh(tmp_path, config, mu3_small)

    @pytest.mark.parametrize("assoc", [1, 2, 4])
    def test_associativities(self, tmp_path, rd2n4_small, assoc):
        config = baseline_config(cache_size_bytes=8 * KB, assoc=assoc)
        self._assert_cached_equals_fresh(tmp_path, config, rd2n4_small)

    @pytest.mark.parametrize("block_words", [2, 8, 32])
    def test_block_sizes(self, tmp_path, mu3_small, block_words):
        config = baseline_config(
            cache_size_bytes=8 * KB, block_words=block_words
        )
        self._assert_cached_equals_fresh(tmp_path, config, mu3_small)

    @pytest.mark.parametrize("latency_ns,transfer_rate", [
        (100.0, 4.0), (260.0, 1.0), (420.0, 0.25),
    ])
    def test_memory_speeds(
        self, tmp_path, rd2n4_small, latency_ns, transfer_rate
    ):
        memory = MemoryTiming().with_latency_ns(
            latency_ns
        ).with_transfer_rate(transfer_rate)
        config = baseline_config(cache_size_bytes=8 * KB, memory=memory)
        self._assert_cached_equals_fresh(tmp_path, config, rd2n4_small)


class TestStackPassInterop:
    """Entries derived from the shared stack walk must be
    indistinguishable from scalar-pass entries: same keys, same bytes,
    readable by the campaign workers.  (That a partly pre-filled cache
    serves its hits and walks only the misses is the generated
    differential test in ``tests/sim/test_routes.py``.)"""

    def _grid(self):
        from repro.core.policy import ReplacementKind

        return [
            baseline_config(
                cache_size_bytes=size * KB, block_words=block,
                replacement=ReplacementKind.LRU,
            )
            for size in (2, 8)
            for block in (2, 4)
        ]

    def test_stack_entries_are_byte_identical(self, tmp_path, tiny_trace):
        configs = self._grid()
        scalar_cache = PassCache(tmp_path / "scalar")
        for config in configs:
            scalar_cache.put(
                config, tiny_trace, 0, functional_pass(config, tiny_trace)
            )
        stack_cache = PassCache(tmp_path / "stack")
        run_functional_passes(
            [(c, tiny_trace, 0) for c in configs], cache=stack_cache
        )
        for config in configs:
            key = cache_key(config, tiny_trace, 0)
            a = (scalar_cache.directory / f"{key}.json").read_bytes()
            b = (stack_cache.directory / f"{key}.json").read_bytes()
            assert a == b, config.describe()

    def test_worker_path_reads_stack_written_cache(
        self, tmp_path, tiny_trace
    ):
        """A pass an earlier sweep put into the cache serves a later
        cached_fast_simulate, which replays it to the same stats as the
        uncached reference."""
        config = self._grid()[0]
        cache = PassCache(tmp_path / "pc")
        run_functional_passes([(config, tiny_trace, 0)], cache=cache)
        worker_cache = PassCache(tmp_path / "pc")
        stats = cached_fast_simulate(config, tiny_trace, cache=worker_cache)
        assert worker_cache.counters.hits == 1
        assert stats == reference_simulate(config, tiny_trace)
