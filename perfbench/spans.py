"""Spans around calls into each layer of the simulator.

The benchmark never edits the program.  A traced round instead rebinds
each layer's public entry points — in the module that *calls* them,
because callers bind them with ``from ... import`` — to a wrapper that
records one span per call: name, start, end, the calling span, and the
counts the layer already exposes (``BatchReplayKernel.stats``,
``PassCache.counters``, the ``stack_stats=`` argument of
``run_functional_passes``).  :meth:`Tracer.uninstall` restores every
binding.

A layer's *self time* is its spans' duration minus the time covered by
spans nested inside them.  Time on the round's main thread that no span
covers is reported as ``bench.unattributed_frac``.

Campaign workers are forked processes.  The tracer resets itself in
each child and the worker's entry point (``cached_fast_simulate``)
writes the child's spans to ``<span_dir>/<pid>.json`` when it returns;
:meth:`Tracer.collect_workers` folds them back in.  Worker spans count
towards the per-layer totals but not towards the main thread's
coverage, because the main thread is waiting on them.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import sys
import threading
import time
import types
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

def _repro_modules() -> List[types.ModuleType]:
    """Every loaded module of the program that may bind a layer name."""
    return [
        module for name, module in list(sys.modules.items())
        if module is not None
        and (name == "repro" or name.startswith("repro."))
        and not name.startswith("repro.lint")
    ]


class Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self) -> None:
        self._undo: List[Callable[[], None]] = []

    def set(self, owner, attr: str, value) -> None:
        old = getattr(owner, attr)
        self._undo.append(lambda: setattr(owner, attr, old))
        setattr(owner, attr, value)

    def set_item(self, mapping: dict, key, value) -> None:
        old = mapping[key]
        self._undo.append(lambda: mapping.__setitem__(key, old))
        mapping[key] = value

    def rebind(self, original, replacement) -> None:
        """Point every module-level binding of ``original`` at
        ``replacement``."""
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)

    def undo(self) -> None:
        while self._undo:
            self._undo.pop()()


def import_layers():
    """Import every module whose names the tracer rebinds."""
    import repro.cli  # noqa: F401 — binds engine/fastpath names
    import repro.core.sweep
    import repro.cpu.processor
    import repro.experiments.registry
    import repro.sim.campaign
    import repro.sim.engine
    import repro.sim.fastpath
    import repro.sim.passcache
    import repro.sim.replaykernel
    import repro.sim.resilience
    import repro.sim.stackpass
    import repro.trace.suite

    return types.SimpleNamespace(
        sweep=repro.core.sweep,
        processor=repro.cpu.processor,
        registry=repro.experiments.registry,
        campaign=repro.sim.campaign,
        engine=repro.sim.engine,
        fastpath=repro.sim.fastpath,
        passcache=repro.sim.passcache,
        replaykernel=repro.sim.replaykernel,
        resilience=repro.sim.resilience,
        stackpass=repro.sim.stackpass,
        suite=repro.trace.suite,
    )


class CellCounter:
    """Counts priced (organization, trace, timing point) cells.

    Installed on untraced ``paper-cold`` rounds, where no other count of
    delivered cells exists.  It records no spans and no times: one
    integer add per pricing call.
    """

    def __init__(self) -> None:
        self.cells = 0
        self._patches = Patches()

    def install(self) -> None:
        m = import_layers()
        kernel_cls = m.replaykernel.BatchReplayKernel
        grid = kernel_cls.replay_grid

        @functools.wraps(grid)
        def replay_grid(kernel, points):
            outcomes = grid(kernel, points)
            self.cells += len(outcomes)
            return outcomes

        self._patches.set(kernel_cls, "replay_grid", replay_grid)
        for original in (m.fastpath.replay, m.engine.simulate):
            self._patches.rebind(original, self._counting(original))

    def _counting(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.cells += 1
            return result

        return wrapper

    def uninstall(self) -> None:
        self._patches.undo()


class Tracer:
    """Records spans around every layer entry point while installed."""

    def __init__(self, span_dir: Optional[Path] = None) -> None:
        self.spans: List[list] = []
        self.unique_passes = set()
        self.span_dir = span_dir
        self._local = threading.local()
        self._patches = Patches()
        self._origin_pid = os.getpid()
        self._active = False
        os.register_at_fork(after_in_child=self._after_fork)

    # -- recording ------------------------------------------------------
    def _after_fork(self) -> None:
        if self._active:
            self.spans = []
            self.unique_passes = set()
            self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, fn, args, kwargs, before=None, after=None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        # [name, start, end, thread, is_top, counts, child_time, pid]
        record = [name, 0.0, 0.0, threading.get_ident(), parent is None,
                  {}, 0.0, os.getpid()]
        state = before(args, kwargs) if before is not None else None
        stack.append(record)
        record[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            stack.pop()
            if parent is not None:
                parent[6] += record[2] - record[1]
            self.spans.append(record)
        if after is not None:
            after(record[5], args, kwargs, result, state)
        return result

    def _wrap(self, name: str, fn: Callable, before=None, after=None):
        call = self._call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(name, fn, args, kwargs, before, after)

        return wrapper

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        """Rebind every layer entry point; idempotent per instance."""
        if self._active:
            return
        m = import_layers()
        p = self._patches
        self._origin_pid = os.getpid()

        def count(key, measure):
            def after(counts, args, kwargs, result, state):
                counts[key] = counts.get(key, 0) + measure(args, result)
            return after

        p.rebind(m.suite.build_trace, self._wrap(
            "trace.build", m.suite.build_trace,
            after=count("trace.refs", lambda a, r: len(r)),
        ))
        p.rebind(m.processor.pair_couplets, self._wrap(
            "cpu.pair", m.processor.pair_couplets,
            after=count("cpu.couplets", lambda a, r: len(r)),
        ))
        p.rebind(m.fastpath.functional_pass, self._wrap(
            "fastpath.pass", m.fastpath.functional_pass,
            after=self._after_pass,
        ))
        p.rebind(m.fastpath.replay, self._wrap(
            "fastpath.replay", m.fastpath.replay,
            after=count("fastpath.replays", lambda a, r: 1),
        ))
        p.rebind(m.stackpass.stack_functional_passes, self._wrap(
            "stackpass.walk", m.stackpass.stack_functional_passes,
        ))
        p.rebind(m.engine.simulate, self._wrap(
            "engine.simulate", m.engine.simulate,
            after=count("engine.runs", lambda a, r: 1),
        ))
        # Campaign result documents go through the campaign module's
        # own writer binding; the pass cache and the manifest bind the
        # same function elsewhere and are measured separately.
        p.set(m.campaign, "atomic_write_text", self._wrap(
            "campaign.write", m.campaign.atomic_write_text,
            after=count("campaign.bytes_written", lambda a, r: len(a[1])),
        ))
        p.rebind(
            m.passcache.cached_fast_simulate,
            self._worker_entry(m.passcache.cached_fast_simulate),
        )

        kernel_cls = m.replaykernel.BatchReplayKernel
        p.set(kernel_cls, "__init__", self._wrap(
            "replaykernel.build", kernel_cls.__init__,
        ))
        p.set(kernel_cls, "replay_grid", self._wrap(
            "replaykernel.price", kernel_cls.replay_grid,
            before=lambda a, k: dataclasses.replace(a[0].stats),
            after=self._after_grid,
        ))
        cache_cls = m.passcache.PassCache
        snapshot = lambda a, k: dataclasses.replace(a[0].counters)  # noqa
        p.set(cache_cls, "get", self._wrap(
            "passcache.get", cache_cls.get,
            before=snapshot, after=self._after_cache,
        ))
        p.set(cache_cls, "put", self._wrap(
            "passcache.put", cache_cls.put,
            before=snapshot, after=self._after_cache,
        ))
        executor_cls = m.resilience.CampaignExecutor
        p.set(executor_cls, "run_sweep", self._wrap(
            "resilience.sweep", executor_cls.run_sweep,
            after=self._after_sweep,
        ))
        for eid, run in list(m.registry.EXPERIMENTS.items()):
            p.set_item(m.registry.EXPERIMENTS, eid,
                       self._wrap(f"experiments.{eid}", run))
        self._install_core(m)
        self._active = True

    def _install_core(self, m) -> None:
        """Every public function of ``repro.core``, wherever bound."""
        seen: Dict[int, Callable] = {}
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                if (
                    isinstance(value, types.FunctionType)
                    and value.__module__.startswith("repro.core.")
                    and not value.__name__.startswith("_")
                    and id(value) not in seen
                ):
                    seen[id(value)] = value
        for fn in seen.values():
            if fn is m.sweep.run_functional_passes:
                wrapper = self._wrap(
                    "core.run_functional_passes", fn,
                    before=self._before_stack, after=self._after_stack,
                )
            else:
                wrapper = self._wrap(f"core.{fn.__name__}", fn)
            self._patches.rebind(fn, wrapper)

    def uninstall(self) -> None:
        self._patches.undo()
        self._active = False

    # -- layer counts ---------------------------------------------------
    def _after_pass(self, counts, args, kwargs, stream, state) -> None:
        config, trace = args[0], args[1]
        seed = kwargs.get("seed", args[3] if len(args) > 3 else 0)
        l1 = config.l1
        self.unique_passes.add((
            trace.content_fingerprint(), l1.i_geometry, l1.d_geometry,
            l1.policy, seed,
        ))
        counts["fastpath.passes"] = 1
        counts["fastpath.events"] = stream.n_events
        counts["fastpath.refs"] = len(trace)

    @staticmethod
    def _after_grid(counts, args, kwargs, outcomes, before) -> None:
        stats = args[0].stats
        counts["replaykernel.outcomes"] = len(outcomes)
        counts["replaykernel.vectorized_events"] = (
            stats.vectorized_events - before.vectorized_events
        )
        counts["replaykernel.scalar_events"] = (
            stats.scalar_events - before.scalar_events
        )
        counts["replaykernel.contended_runs"] = (
            stats.contended_runs - before.contended_runs
        )

    @staticmethod
    def _after_cache(counts, args, kwargs, result, before) -> None:
        after = args[0].counters
        for field in ("hits", "misses", "bytes_read", "bytes_written"):
            delta = getattr(after, field) - getattr(before, field)
            if delta:
                counts[f"passcache.{field}"] = delta

    @staticmethod
    def _before_stack(args, kwargs):
        stats = kwargs.get("stack_stats")
        return dataclasses.replace(stats) if stats is not None else None

    @staticmethod
    def _after_stack(counts, args, kwargs, result, before) -> None:
        stats = kwargs.get("stack_stats")
        if stats is None or before is None:
            return
        for field in ("walks", "derived_streams", "fallback_passes"):
            counts[f"stackpass.{field}"] = (
                getattr(stats, field) - getattr(before, field)
            )

    @staticmethod
    def _after_sweep(counts, args, kwargs, report, state) -> None:
        counts["resilience.runs"] = len(report.records)
        counts["resilience.attempts"] = sum(
            record.attempts for record in report.records
        )

    def _worker_entry(self, fn: Callable) -> Callable:
        """The campaign worker's simulate function: on return inside a
        forked worker, write that worker's spans for the parent."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                if os.getpid() != self._origin_pid and self.span_dir:
                    self._flush_worker()

        return wrapper

    def _flush_worker(self) -> None:
        path = self.span_dir / f"{os.getpid()}.json"
        path.write_text(json.dumps(self.spans), encoding="utf-8")
        self.spans = []

    def collect_workers(self) -> None:
        """Fold the worker span files into this tracer."""
        for path in sorted(self.span_dir.glob("*.json")):
            self.spans.extend(json.loads(path.read_text(encoding="utf-8")))
            path.unlink()

    # -- aggregation ----------------------------------------------------
    def totals(self, wall_s: float) -> Dict[str, float]:
        """Self time per span name, counts, and main-thread coverage of
        one traced round lasting ``wall_s`` seconds."""
        out: Dict[str, float] = defaultdict(float)
        main = threading.main_thread().ident
        covered = 0.0
        main_self = 0.0
        for name, start, end, thread, top, counts, child, pid in self.spans:
            own = (end - start) - child
            out[f"self:{name}"] += own
            for key, value in counts.items():
                out[key] += value
            if pid == self._origin_pid and thread == main:
                main_self += own
                if top:
                    covered += end - start
        out["bench.wall_s"] = wall_s
        out["bench.covered_s"] = covered
        out["bench.main_self_s"] = main_self
        out["fastpath.unique_passes"] = len(self.unique_passes)
        return dict(out)


def layer_metrics(rounds: List[Dict[str, float]], overhead: float) -> Dict:
    """Per-layer metrics, per traced round, from :meth:`Tracer.totals`."""
    n = max(1, len(rounds))
    tot: Dict[str, float] = defaultdict(float)
    for totals in rounds:
        for key, value in totals.items():
            tot[key] += value

    def self_s(prefix: str) -> float:
        return sum(v for k, v in tot.items() if k.startswith(f"self:{prefix}"))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values = {
        "trace.build_s": self_s("trace.") / n,
        "trace.refs": tot["trace.refs"] / n,
        "cpu.pair_s": self_s("cpu.") / n,
        "cpu.couplets": tot["cpu.couplets"] / n,
        "fastpath.pass_s": self_s("fastpath.pass") / n,
        "fastpath.passes": tot["fastpath.passes"] / n,
        "fastpath.unique_pass_frac": ratio(
            tot["fastpath.unique_passes"], tot["fastpath.passes"]),
        "fastpath.events_per_ref": ratio(
            tot["fastpath.events"], tot["fastpath.refs"]),
        "fastpath.replay_s": self_s("fastpath.replay") / n,
        "fastpath.replays": tot["fastpath.replays"] / n,
        "stackpass.walk_s": self_s("stackpass.") / n,
        "stackpass.walks": tot["stackpass.walks"] / n,
        "stackpass.derived_streams": tot["stackpass.derived_streams"] / n,
        "stackpass.fallback_passes": tot["stackpass.fallback_passes"] / n,
        "replaykernel.price_s": self_s("replaykernel.") / n,
        "replaykernel.outcomes": tot["replaykernel.outcomes"] / n,
        "replaykernel.vectorized_frac": ratio(
            tot["replaykernel.vectorized_events"],
            tot["replaykernel.vectorized_events"]
            + tot["replaykernel.scalar_events"]),
        "replaykernel.contended_runs": tot["replaykernel.contended_runs"] / n,
        "passcache.get_s": self_s("passcache.get") / n,
        "passcache.bytes_read": tot["passcache.bytes_read"] / n,
        "passcache.hit_frac": ratio(
            tot["passcache.hits"],
            tot["passcache.hits"] + tot["passcache.misses"]),
        "passcache.put_s": self_s("passcache.put") / n,
        "passcache.bytes_written": tot["passcache.bytes_written"] / n,
        "engine.simulate_s": self_s("engine.") / n,
        "engine.runs": tot["engine.runs"] / n,
        "core.analysis_s": self_s("core.") / n,
        "resilience.sweep_s": self_s("resilience.") / n,
        "resilience.attempts_per_run": ratio(
            tot["resilience.attempts"], tot["resilience.runs"]),
        "campaign.bytes_written": tot["campaign.bytes_written"] / n,
        "bench.unattributed_frac": ratio(
            tot["bench.wall_s"] - tot["bench.covered_s"], tot["bench.wall_s"]),
        "bench.trace_overhead_frac": overhead,
    }
    from repro.experiments.registry import list_experiments

    for eid in list_experiments():
        values[f"experiments.{eid}_s"] = tot[f"self:experiments.{eid}"] / n
    return values
