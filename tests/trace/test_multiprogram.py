"""Multiprogrammed interleaving and warm-prefix construction."""

import pytest

from repro.errors import ConfigurationError
from repro.trace.multiprogram import (
    interleave,
    warm_prefix,
    with_warm_prefix,
)
from repro.trace.record import Trace
from repro.trace.workloads import Program, make_program


def make_programs(n=3, seed=0):
    presets = ["ccom", "emacs", "troff", "rsim", "spice"]
    return [
        make_program(presets[i % len(presets)], pid=i + 1, seed=seed + i)
        for i in range(n)
    ]


class TestInterleave:
    def test_exact_length(self):
        trace = interleave(make_programs(), length=5000, seed=1)
        assert len(trace) == 5000

    def test_all_processes_appear(self):
        trace = interleave(
            make_programs(3), length=30_000, mean_switch_interval=2000,
            seed=2,
        )
        assert trace.n_processes == 3

    def test_context_switches_happen(self):
        trace = interleave(
            make_programs(2), length=20_000, mean_switch_interval=1000,
            seed=3,
        )
        pids = trace.pids
        switches = int((pids[1:] != pids[:-1]).sum())
        assert switches >= 5

    def test_random_scheduler_changes_process(self):
        trace = interleave(
            make_programs(3), length=20_000, mean_switch_interval=500,
            scheduler="random", seed=4,
        )
        assert trace.n_processes == 3

    def test_rejects_no_programs(self):
        with pytest.raises(ConfigurationError):
            interleave([], length=100)

    def test_rejects_bad_scheduler(self):
        with pytest.raises(ConfigurationError):
            interleave(make_programs(1), length=100, scheduler="magic")

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ConfigurationError):
            interleave(make_programs(1), length=0)

    def test_final_quantum_stops_where_the_trace_ends(self, monkeypatch):
        generated = []
        original = Program.generate

        def counting(program, n_refs):
            kinds, addrs = original(program, n_refs)
            generated.append(len(kinds))
            return kinds, addrs

        monkeypatch.setattr(Program, "generate", counting)
        # A mean quantum far longer than the trace: one quantum, asked
        # only for the trace's length (plus at most one couplet).
        trimmed = interleave(
            make_programs(2), length=3000, mean_switch_interval=50_000,
            seed=5,
        )
        assert sum(generated) <= 3001
        generated.clear()
        whole = interleave(
            make_programs(2), length=3000, mean_switch_interval=50_000,
            seed=5, _whole_final_quantum=True,
        )
        assert sum(generated) > 3001
        for column in ("kinds", "addrs", "pids"):
            assert (getattr(trimmed, column) == getattr(whole, column)).all()


class TestWarmPrefix:
    def test_prefix_contains_each_unique_once(self):
        history = interleave(make_programs(2), length=5000, seed=5)
        prefix = warm_prefix(history)
        combined = set(
            zip(prefix.pids.tolist(), prefix.addrs.tolist())
        )
        assert len(prefix) == len(combined) == history.n_unique_addresses

    def test_prefix_preserves_per_process_lru_order(self):
        history = interleave(make_programs(2), length=3000, seed=6)
        prefix = warm_prefix(history)
        # Within one pid, prefix order == order of last use in history.
        last_use = {}
        for i, (a, p) in enumerate(
            zip(history.addrs.tolist(), history.pids.tolist())
        ):
            last_use[(p, a)] = i
        for pid in set(prefix.pids.tolist()):
            ordered = [
                last_use[(p, a)]
                for a, p in zip(prefix.addrs.tolist(), prefix.pids.tolist())
                if p == pid
            ]
            assert ordered == sorted(ordered)

    def test_empty_history_rejected(self):
        with pytest.raises(ConfigurationError):
            warm_prefix(Trace([], []))


class TestWithWarmPrefix:
    def test_warm_boundary_is_prefix_length(self):
        history = interleave(make_programs(2), length=2000, seed=7)
        body = interleave(make_programs(2), length=4000, seed=8)
        combined = with_warm_prefix(body, history)
        assert combined.warm_boundary == history.n_unique_addresses
        assert len(combined) == combined.warm_boundary + len(body)

    def test_warm_start_makes_large_caches_valid(self):
        """The paper's property: prefix + body leaves a large cache warm,
        so body-measured misses are far lower than a cold body run."""
        from repro.sim.config import baseline_config
        from repro.sim.fastpath import fast_simulate
        from repro.units import MB

        programs = make_programs(2, seed=9)
        history = interleave(programs, length=8000, seed=9)
        body = interleave(programs, length=8000, seed=10)
        warmed = with_warm_prefix(body, history)
        cold = body.with_warm_boundary(0)
        config = baseline_config(cache_size_bytes=2 * MB)
        warm_stats = fast_simulate(config, warmed)
        cold_stats = fast_simulate(config, cold)
        assert warm_stats.read_miss_ratio < cold_stats.read_miss_ratio
