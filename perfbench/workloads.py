"""The three workloads: paper-cold, reprice-warm and campaign-grid.

Every workload is a closed loop with a single client: the next
operation starts when the previous one has finished.  Operations are
grouped into *rounds* that repeat back to back for ``--seconds`` (see
:func:`closed_loop`).

* ``paper-cold`` — one round regenerates every registry artifact
  (``run_experiment`` over all 16 ids, reduced grids, no pass cache) in
  a fresh Python process.  The latency figures time the whole
  regeneration; failures are counted per artifact.  The seed picks the
  cells the output check re-derives.
* ``reprice-warm`` — set-up fills a fresh pass cache (three times, each
  in a fresh process); one round then issues four design queries
  against it in this process: the speed–size sweep for assoc 1, 2 and 4
  on the 16-point cycle axis and the block-size sweep on the 5x5
  latency x transfer-rate grid, each axis shifted by a seed-drawn
  offset.  An operation is one query.
* ``campaign-grid`` — one round is one ``repro-sim campaign run
  --stack-pass --pass-cache`` in a fresh process, into fresh
  directories, with cycle times shifted by the seed.  The latency
  figures time the whole invocation; failures are counted per persisted
  run.

Rounds that need a fresh process run ``run.py --child <role>``; the
child writes one JSON document with its timestamps (``time.monotonic``,
which is system-wide on Linux), its operations and their digests.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import calibrate
import checks
import spans

RUN_PY = Path(__file__).resolve().parent / "run.py"

#: A child process that takes longer than this is a failed round.
CHILD_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Scale:
    """Input sizes.  ``FULL`` is the benchmark; ``SMOKE`` is the smoke
    test's tiny version of the same workloads."""

    paper_length: int
    paper_traces: Tuple[str, ...]
    reprice_length: int
    reprice_traces: Tuple[str, ...]
    campaign_length: int
    campaign_traces: Tuple[str, ...]
    campaign_sizes_kb: Tuple[int, ...]
    campaign_cycles_ns: Tuple[float, ...]
    setups: int


ALL = ("mu3", "mu6", "mu10", "savec", "rd1n3", "rd2n4", "rd1n5", "rd2n7")

FULL = Scale(
    paper_length=8000, paper_traces=ALL,
    reprice_length=4000, reprice_traces=ALL,
    campaign_length=4000, campaign_traces=ALL,
    campaign_sizes_kb=(4, 16, 64, 256), campaign_cycles_ns=(20.0, 40.0, 80.0),
    setups=3,
)

SMOKE = Scale(
    paper_length=4000, paper_traces=("mu3", "rd1n3"),
    reprice_length=1500, reprice_traces=("mu3", "rd1n3"),
    campaign_length=1500, campaign_traces=("mu3", "rd1n3"),
    campaign_sizes_kb=(4, 16), campaign_cycles_ns=(20.0, 40.0),
    setups=2,
)


#: Worker processes of campaign-grid.  One worker keeps the loop a
#: single client, matches how the workload was sized, and compares
#: across hosts.  (With ``--jobs 2`` and no ``--timeout``, ``campaign
#: run`` intermittently fails a whole sweep: ``CampaignExecutor``'s
#: timeout branch formats ``timeout_s=None`` after ``is_alive()`` reads
#: true for a worker that ``join()`` already waited for.  See README.md.)
CAMPAIGN_JOBS = 1


#: Every workload runs over one fixed trace set, built with this seed,
#: and uses it as the caches' replacement seed: suites of different
#: seeds differ in pricing cost and stack-walk memory by up to 20%,
#: which would swamp a comparison of two commits across seeds.  The
#: workload seed varies only what leaves the amount of work alone: the
#: pricing axes and the cells the output check re-derives.
TRACE_SEED = 0


def workload_spec(workload: str, scale: Scale) -> Dict:
    """The parameters a committed digest was recorded with."""
    if workload == "paper-cold":
        return {"length": scale.paper_length,
                "traces": list(scale.paper_traces),
                "trace_seed": TRACE_SEED}
    if workload == "reprice-warm":
        return {"length": scale.reprice_length,
                "traces": list(scale.reprice_traces),
                "trace_seed": TRACE_SEED}
    return {"length": scale.campaign_length,
            "traces": list(scale.campaign_traces),
            "sizes_kb": list(scale.campaign_sizes_kb),
            "cycles_ns": list(scale.campaign_cycles_ns),
            "trace_seed": TRACE_SEED}


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def committed(ctx, workload: str, seed: int) -> Optional[Dict]:
    """The committed digests to hold this run to, when its outputs are
    those of workload seed ``seed``; none while recording."""
    if ctx.record:
        return None
    return checks.committed_digests(
        workload, workload_spec(workload, ctx.scale), seed)


def reduced_settings(length: int, traces, seed: int):
    """Reduced-grid settings with every environment knob pinned off."""
    from repro.experiments.common import ExperimentSettings

    return ExperimentSettings(
        trace_length=length, trace_names=tuple(traces), seed=seed,
        full=False, n_jobs=1, pass_cache_dir="", stack_pass=False,
        sample="",
    )


def child_env(root: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(RUN_PY.parent)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_child(ctx, role: str, workdir: Path, extra: List[str]) -> Dict:
    """Run one ``run.py --child`` process; return its document plus the
    monotonic launch time.  A calibration sample taken right before the
    launch heads the document's ``cal`` list.  A crash or timeout yields
    ``{"error": ...}``.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    out = workdir / "child.json"
    argv = [
        sys.executable, str(RUN_PY), "--child", role,
        "--workdir", str(workdir), "--out", str(out),
        "--seed", str(ctx.seed),
    ] + (["--smoke"] if ctx.smoke else []) + extra
    cal_launch = calibrate.sample()
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            argv, cwd=str(ctx.root), env=child_env(ctx.root),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"{role} child exceeded {CHILD_TIMEOUT_S:g}s",
                "launched": launched}
    if proc.returncode != 0 or not out.exists():
        tail = (proc.stderr or "").strip().splitlines()[-3:]
        return {"error": f"{role} child exited {proc.returncode}: "
                         + " | ".join(tail), "launched": launched}
    doc = json.loads(out.read_text(encoding="utf-8"))
    doc["launched"] = launched
    doc["cal"] = [cal_launch] + doc.get("cal", [])
    return doc


def closed_loop(seconds: float, traced_run: bool,
                round_fn: Callable[[int, bool], Dict]) -> List[Dict]:
    """Run rounds back to back while the next one, judged by the longest
    so far, still ends within ``seconds``.

    There is always at least one round.  A traced run alternates
    untraced and traced rounds, starting untraced, and runs at least one
    of each.
    """
    rounds: List[Dict] = []
    start = time.monotonic()
    longest = 0.0
    while True:
        traced = traced_run and len(rounds) % 2 == 1
        began = time.monotonic()
        record = round_fn(len(rounds), traced)
        longest = max(longest, time.monotonic() - began)
        record["traced"] = traced
        rounds.append(record)
        if traced_run and len(rounds) < 2:
            continue
        if time.monotonic() - start + longest > seconds:
            return rounds


def child_round(doc: Dict, traced: bool) -> Dict:
    """Fill in a fresh-process round's set-up and wall times.

    An untraced child takes a calibration sample between operations, so
    its wall time is the sum of the operations' times; a traced child
    takes none, and its wall time is its whole measured phase.
    """
    doc["setup"] = doc["t_ready"] - doc["launched"]
    if traced:
        doc["wall"] = doc["t_done"] - doc["t_ready"]
    else:
        doc["wall"] = sum(op["ms"] for op in doc["ops"]) / 1e3
    doc["latencies_ms"] = [doc["wall"] * 1e3]
    return doc


def startups(ctx, role: str) -> Tuple[List[float], List[float], int]:
    """Start ``ctx.scale.setups`` children of ``role`` that stop as soon
    as they are ready: their set-up times, the calibration samples taken
    around them, and how many failed."""
    times: List[float] = []
    samples: List[float] = []
    failed = 0
    for k in range(ctx.scale.setups):
        doc = run_child(ctx, role, ctx.workdir / f"startup{k}",
                        ["--setup-only"])
        shutil.rmtree(ctx.workdir / f"startup{k}", ignore_errors=True)
        if "error" in doc:
            failed += 1
            continue
        times.append(doc["t_ready"] - doc["launched"])
        samples += doc["cal"]
    return times, samples, failed


def child_outcome(ctx, rounds: List[Dict], expected, rederived: bool,
                  startup) -> "Outcome":
    """The outcome of a workload whose rounds are fresh processes; set-up
    time is sampled in every untraced round and in ``startup``."""
    times, samples, startup_failed = startup
    problems: List[str] = []
    attempted, failed, first = account(rounds, expected, problems)
    plain = [r for r in rounds if not r["traced"] and "setup" in r]
    if startup_failed:
        problems.append(f"{startup_failed} set-up-only children failed")
    return Outcome(
        rounds, times + [r["setup"] for r in plain],
        attempted + ctx.scale.setups * (not ctx.traced),
        failed + startup_failed, problems, expected is not None, first,
        rederived=rederived,
        cal_samples=samples + [x for r in plain for x in r["cal"]],
    )


def peak_rss_mb() -> float:
    """The larger of this process's peak RSS and its largest
    descendant's (Linux reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


@dataclass
class Outcome:
    """What a workload hands back to the reporter."""

    rounds: List[Dict]
    #: Measured set-up times.
    setup_samples: List[float]
    attempted: int
    failed: int
    problems: List[str]
    committed: bool
    digests: Dict[str, str]
    #: Traced set-up processes (reprice-warm): their layer totals.
    setup_totals: List[Dict] = field(default_factory=list)
    #: Whether a subset of cells was re-derived through the scalar route
    #: (always, when there are no committed digests to hold it to).
    rederived: bool = False
    #: Calibration samples taken over the untraced part of the run.
    cal_samples: List[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.rederived = self.rederived or not self.committed

    def end_to_end(self, raw: bool = False) -> Dict[str, float]:
        """The end-to-end metrics at nominal host speed (see
        ``calibrate``), or as measured with ``raw``."""
        plain = [r for r in self.rounds if not r["traced"] and "wall" in r]
        if not plain or not self.setup_samples or not self.cal_samples:
            return {}
        scale = 1.0 if raw else calibrate.factor(self.cal_samples)
        walls = [r["wall"] for r in plain]
        latencies = [ms for r in plain for ms in r["latencies_ms"]]
        # A fresh-process round reports its own peak (the process or its
        # largest worker); this process is then only the harness.
        rss = [r["rss_mb"] for r in plain if "rss_mb" in r]
        return {
            "wall_s": statistics.median(walls) * scale,
            "setup_s": statistics.median(self.setup_samples) * scale,
            "cells_per_s": (sum(r["cells"] for r in plain) / sum(walls)
                            / scale),
            "op_p50_ms": percentile(latencies, 50) * scale,
            "op_p90_ms": percentile(latencies, 90) * scale,
            "peak_rss_mb": statistics.mean(rss) if rss else peak_rss_mb(),
        }

    def per_layer(self) -> Dict[str, float]:
        plain = [r["wall"] for r in self.rounds
                 if not r["traced"] and "wall" in r]
        traced = [r for r in self.rounds if r["traced"] and "totals" in r]
        overhead = 0.0
        if plain and traced:
            overhead = (
                statistics.median(r["wall"] for r in traced)
                / statistics.median(plain) - 1.0
            )
        return spans.layer_metrics([r["totals"] for r in traced], overhead)

    def setup_layers(self) -> Dict[str, float]:
        """Nonzero layer figures of one traced set-up, on average."""
        if not self.setup_totals:
            return {}
        values = spans.layer_metrics(self.setup_totals, 0.0)
        return {k: v for k, v in values.items()
                if v and k != "bench.trace_overhead_frac"}


def account(rounds: List[Dict], expected: Optional[Dict[str, str]],
            problems: List[str]) -> Tuple[int, int, Dict[str, str]]:
    """Count attempted and failed operations over all rounds.

    An operation fails when it raised or was refused, when its digest
    differs from ``expected`` (the committed digests, or else the first
    execution of the same operation in this run), or when a round-level
    check failed.  ``problems`` collects the reasons.
    """
    reference = dict(expected) if expected is not None else {}
    first: Dict[str, str] = {}
    attempted = failed = 0
    for index, record in enumerate(rounds):
        if "error" in record:
            problems.append(f"round {index}: {record['error']}")
            attempted += record["weight"]
            failed += record["weight"]
            continue
        round_bad = bool(record.get("problems"))
        problems.extend(
            f"round {index}: {p}" for p in record.get("problems", []))
        weights = []
        for op in record["ops"]:
            weight = op.get("weight", 1)
            bad = weight - op.get("ok_weight", weight if op["ok"] else 0)
            want = reference.get(op["name"], first.get(op["name"]))
            if op["ok"] and op["digest"] is not None:
                first.setdefault(op["name"], op["digest"])
                if want is not None and op["digest"] != want:
                    problems.append(
                        f"round {index}: {op['name']}: digest "
                        f"{op['digest']} != {want}"
                    )
                    bad = weight
                    # A zero-weight op carries a round-level result.
                    round_bad = round_bad or weight == 0
            elif not op["ok"]:
                problems.append(f"round {index}: {op['name']}: {op['error']}")
            weights.append((weight, bad))
        attempted += sum(weight for weight, _bad in weights)
        failed += sum(weight if round_bad else bad for weight, bad in weights)
    return attempted, failed, first


# ----------------------------------------------------------------------
# paper-cold
# ----------------------------------------------------------------------
def paper_cold(ctx) -> Outcome:
    from repro.experiments.registry import list_experiments

    # Every seed regenerates the same artifacts: all are held to the
    # committed digests, and any other seed also re-derives its cells.
    expected = committed(ctx, "paper-cold", checks.SHIPPED_SEED)
    check = expected is None or ctx.seed != checks.SHIPPED_SEED

    def one_round(index: int, traced: bool) -> Dict:
        flags = (["--traced"] if traced else []) + (
            ["--check"] if index == 0 and check else [])
        doc = run_child(ctx, "paper-cold", ctx.workdir / f"round{index}",
                        flags)
        shutil.rmtree(ctx.workdir / f"round{index}", ignore_errors=True)
        if "error" in doc:
            doc["weight"] = len(list_experiments())
            return doc
        return child_round(doc, traced)

    startup = ([], [], 0) if ctx.traced else startups(ctx, "paper-cold")
    rounds = closed_loop(ctx.seconds, ctx.traced, one_round)
    return child_outcome(ctx, rounds, expected, check, startup)


def paper_cold_child(opts, scale: Scale) -> Dict:
    from repro.experiments.common import (
        blocksize_curves, speed_size_grid, suite_for,
    )
    from repro.experiments.registry import list_experiments, run_experiment

    settings = reduced_settings(scale.paper_length, scale.paper_traces,
                                TRACE_SEED)
    tracer = spans.Tracer() if opts.traced else None
    counter = None if opts.traced else spans.CellCounter()
    spans.import_layers()
    t_ready = time.monotonic()
    cal = [] if opts.traced else [calibrate.sample()]
    if opts.setup_only:
        return {"t_ready": t_ready, "cal": cal}
    (tracer or counter).install()
    ops, results = [], {}
    for eid in list_experiments():
        start = time.perf_counter()
        error = ""
        try:
            result = run_experiment(eid, settings)
            results[eid] = result
            if not result.ok:
                error = result.text
        except Exception as exc:  # noqa: BLE001 — a failed operation
            error = f"{type(exc).__name__}: {exc}"
        ops.append({"name": eid,
                    "ms": (time.perf_counter() - start) * 1e3,
                    "ok": not error, "error": error})
        if cal:
            cal.append(calibrate.sample())
    t_done = time.monotonic()
    rss_mb = peak_rss_mb()
    (tracer or counter).uninstall()
    for op in ops:
        op["digest"] = (checks.digest(results[op["name"]].data)
                        if op["ok"] else None)
    grids = [speed_size_grid(settings, a) for a in settings.assocs]
    curves = blocksize_curves(settings)
    ops.append({"name": "grids", "ms": 0.0, "ok": True, "error": "",
                "weight": 0, "digest": checks.digest([grids, curves])})
    problems: List[str] = []
    if opts.check:
        rng = random.Random(opts.seed)
        traces = list(suite_for(settings).values())
        assoc_index = rng.randrange(len(settings.assocs))
        problems += checks.check_grid(
            grids[assoc_index], traces, settings.sizes_each_bytes,
            settings.assocs[assoc_index], TRACE_SEED, rng)
        problems += checks.check_curves(
            curves, traces, settings.block_sizes_words,
            settings.latencies_ns, settings.transfer_rates, TRACE_SEED, rng)
    doc = {"t_ready": t_ready, "t_done": t_done, "ops": ops,
           "problems": problems, "cal": cal, "rss_mb": rss_mb}
    if tracer is not None:
        totals = tracer.totals(t_done - t_ready)
        doc["totals"] = totals
        doc["cells"] = (totals.get("replaykernel.outcomes", 0)
                        + totals.get("fastpath.replays", 0)
                        + totals.get("engine.runs", 0))
    else:
        doc["cells"] = counter.cells
    return doc


# ----------------------------------------------------------------------
# reprice-warm
# ----------------------------------------------------------------------
def reprice_queries(scale: Scale, seed: int):
    """The design queries: (name, sweep function name, kwargs).

    The paper's full pricing axes — the 16-point cycle axis and the 5x5
    latency x transfer-rate grid — over the reduced organizations, with
    the cycle times shifted by a ``seed``-drawn 0–3.5 ns and the
    latencies by 0–35 ns.  Only pricing axes differ from the set-up's
    sweeps, so every query hits the warm cache.
    """
    from repro.experiments.common import ExperimentSettings

    reduced = reduced_settings(scale.reprice_length, scale.reprice_traces,
                               TRACE_SEED)
    full = ExperimentSettings(full=True, n_jobs=1, pass_cache_dir="",
                              stack_pass=False, sample="")
    rng = random.Random(seed)
    cycle_shift, latency_shift = rng.randrange(8) * 0.5, rng.randrange(8) * 5
    queries = [
        (f"speed-size assoc={assoc}", "run_speed_size_sweep", dict(
            sizes_each_bytes=reduced.sizes_each_bytes,
            cycle_times_ns=[c + cycle_shift for c in full.cycle_times_ns],
            assoc=assoc, seed=TRACE_SEED))
        for assoc in reduced.assocs
    ]
    queries.append(("block-size 5x5", "run_blocksize_sweep", dict(
        block_sizes_words=reduced.block_sizes_words,
        latencies_ns=[lat + latency_shift for lat in full.latencies_ns],
        transfer_rates=full.transfer_rates, seed=TRACE_SEED)))
    return reduced, queries


def reprice_setup_child(opts, scale: Scale) -> Dict:
    """Fill a fresh pass cache with every organization the queries use,
    through the fastest exact route: one stack walk per trace covers the
    direct-mapped organizations, the rest take scalar passes."""
    from repro.core.sweep import run_blocksize_sweep, run_speed_size_sweep
    from repro.sim.passcache import PassCache
    from repro.trace.suite import build_suite

    settings = reduced_settings(scale.reprice_length, scale.reprice_traces,
                                TRACE_SEED)
    tracer = None
    if opts.traced:
        tracer = spans.Tracer()
        tracer.install()
    t_start = time.monotonic()
    suite = build_suite(length=settings.trace_length,
                        names=settings.trace_names, seed=TRACE_SEED)
    cache = PassCache(Path(opts.workdir) / "passcache")
    for assoc in settings.assocs:
        run_speed_size_sweep(
            suite, settings.sizes_each_bytes, settings.cycle_times_ns,
            assoc=assoc, seed=TRACE_SEED, pass_cache=cache,
            functional_strategy="stack")
    run_blocksize_sweep(
        suite, settings.block_sizes_words, settings.latencies_ns,
        settings.transfer_rates, seed=TRACE_SEED, pass_cache=cache,
        functional_strategy="stack")
    doc = {"t_done": time.monotonic(), "entries": len(cache)}
    if tracer is not None:
        tracer.uninstall()
        doc["totals"] = tracer.totals(doc["t_done"] - t_start)
    return doc


def reprice_warm(ctx) -> Outcome:
    import repro.core.sweep as sweep
    from repro.sim.passcache import PassCache
    from repro.trace.suite import build_suite

    expected = committed(ctx, "reprice-warm", ctx.seed)
    problems: List[str] = []
    setups, setup_totals, cal_samples, cache_dir = [], [], [], None
    for k in range(ctx.scale.setups):
        doc = run_child(ctx, "reprice-setup", ctx.workdir / f"setup{k}",
                        ["--traced"] if ctx.traced else [])
        if "error" in doc:
            problems.append(f"setup {k}: {doc['error']}")
            continue
        setups.append(doc["t_done"] - doc["launched"])
        cal_samples += doc["cal"] + [calibrate.sample()]
        if "totals" in doc:
            setup_totals.append(doc["totals"])
        if cache_dir is not None:
            shutil.rmtree(cache_dir.parent, ignore_errors=True)
        cache_dir = ctx.workdir / f"setup{k}" / "passcache"
    reduced, queries = reprice_queries(ctx.scale, ctx.seed)
    if cache_dir is None:
        return Outcome([], [], len(queries), len(queries), problems,
                       expected is not None, {})
    suite = build_suite(length=reduced.trace_length,
                        names=reduced.trace_names, seed=TRACE_SEED)
    traces = list(suite.values())
    cache = PassCache(cache_dir)
    tracer = spans.Tracer()
    first_results: Dict[str, object] = {}

    def one_round(index: int, traced: bool) -> Dict:
        if traced:
            tracer.spans.clear()
            tracer.unique_passes.clear()
            tracer.install()
        ops, results = [], []
        if not traced:
            cal_samples.append(calibrate.sample())
        t_start = time.perf_counter()
        for name, fn_name, kwargs in queries:
            before = (cache.counters.misses, cache.counters.puts)
            start = time.perf_counter()
            error, result = "", None
            try:
                result = getattr(sweep, fn_name)(
                    traces, pass_cache=cache, **kwargs)
            except Exception as exc:  # noqa: BLE001 — a failed operation
                error = f"{type(exc).__name__}: {exc}"
            ms = (time.perf_counter() - start) * 1e3
            if not error and (cache.counters.misses, cache.counters.puts) \
                    != before:
                error = "pass-cache miss or functional pass while measured"
            ops.append({"name": name, "ms": ms, "ok": not error,
                        "error": error})
            if not traced:
                cal_samples.append(calibrate.sample())
            results.append(result)
        wall = time.perf_counter() - t_start
        doc = {"wall": wall, "ops": ops,
               "latencies_ms": [op["ms"] for op in ops], "cells": 0}
        if not traced:
            # The calibration samples between queries are not measured.
            doc["wall"] = sum(doc["latencies_ms"]) / 1e3
        if traced:
            tracer.uninstall()
            doc["totals"] = tracer.totals(wall)
        for op, (name, fn_name, kwargs), result in zip(ops, queries, results):
            op["digest"] = checks.digest(result) if op["ok"] else None
            if op["ok"]:
                first_results.setdefault(name, (result, kwargs))
                doc["cells"] += len(traces) * (
                    len(kwargs["sizes_each_bytes"])
                    * len(kwargs["cycle_times_ns"])
                    if fn_name == "run_speed_size_sweep"
                    else len(kwargs["block_sizes_words"]) * len(result))
        return doc

    rounds = closed_loop(ctx.seconds, ctx.traced, one_round)
    if expected is None:
        # One speed-size query (chosen by the seed) and the block-size
        # query; the other queries are held to their repeat digests.
        rng = random.Random(ctx.seed)
        speed = sorted(n for n in first_results if n.startswith("speed"))
        picked = [rng.choice(speed)] if speed else []
        picked += [n for n in first_results if n.startswith("block")]
        for name in picked:
            result, kwargs = first_results[name]
            if "assoc" in kwargs:
                found = checks.check_grid(
                    result, traces, kwargs["sizes_each_bytes"],
                    kwargs["assoc"], TRACE_SEED, rng)
            else:
                found = checks.check_curves(
                    result, traces, kwargs["block_sizes_words"],
                    kwargs["latencies_ns"], kwargs["transfer_rates"],
                    TRACE_SEED, rng)
            if found:
                rounds[0].setdefault("problems", []).extend(found)
    attempted, failed, first = account(rounds, expected, problems)
    if len(setups) < ctx.scale.setups:
        attempted += ctx.scale.setups
        failed += ctx.scale.setups - len(setups)
    return Outcome(rounds, setups, attempted, failed, problems,
                   expected is not None, first, setup_totals,
                   cal_samples=cal_samples)


# ----------------------------------------------------------------------
# campaign-grid
# ----------------------------------------------------------------------
def campaign_cycles(scale: Scale, seed: int) -> List[float]:
    """The sweep's cycle times, each shifted by a seed-drawn 0–3.5 ns."""
    rng = random.Random(seed)
    return [c + rng.randrange(8) * 0.5 for c in scale.campaign_cycles_ns]


def campaign_argv(workdir: Path, scale: Scale, seed: int) -> List[str]:
    return [
        "campaign", "run", str(workdir / "campaign"),
        "--pass-cache", str(workdir / "passcache"), "--stack-pass",
        "--sizes-kb", ",".join(str(s) for s in scale.campaign_sizes_kb),
        "--cycles-ns",
        ",".join(f"{c:g}" for c in campaign_cycles(scale, seed)),
        "--traces", ",".join(scale.campaign_traces),
        "--length", str(scale.campaign_length),
        "--seed", str(TRACE_SEED), "--jobs", str(CAMPAIGN_JOBS),
    ]


def campaign_runs(scale: Scale) -> int:
    return (len(scale.campaign_sizes_kb) * len(scale.campaign_cycles_ns)
            * len(scale.campaign_traces))


def campaign_grid(ctx) -> Outcome:
    expected = committed(ctx, "campaign-grid", ctx.seed)
    runs = campaign_runs(ctx.scale)

    def one_round(index: int, traced: bool) -> Dict:
        flags = (["--traced"] if traced else []) + (
            ["--check"] if index == 0 and expected is None else [])
        doc = run_child(ctx, "campaign-grid", ctx.workdir / f"round{index}",
                        flags)
        shutil.rmtree(ctx.workdir / f"round{index}", ignore_errors=True)
        if "error" in doc:
            doc["weight"] = runs
            return doc
        return child_round(doc, traced)

    startup = ([], [], 0) if ctx.traced else startups(ctx, "campaign-grid")
    rounds = closed_loop(ctx.seconds, ctx.traced, one_round)
    return child_outcome(ctx, rounds, expected, expected is None, startup)


def campaign_child(opts, scale: Scale) -> Dict:
    import repro.cli
    from repro.sim.campaign import Campaign, stats_to_dict
    from repro.sim.resilience import CampaignManifest
    from repro.trace.suite import build_suite

    workdir = Path(opts.workdir)
    tracer = spans.Tracer(span_dir=workdir / "spans") if opts.traced else None
    argv = campaign_argv(workdir, scale, opts.seed)
    spans.import_layers()
    t_ready = time.monotonic()
    cal = [] if opts.traced else [calibrate.sample()]
    if opts.setup_only:
        return {"t_ready": t_ready, "cal": cal}
    if tracer is not None:
        tracer.span_dir.mkdir(parents=True, exist_ok=True)
        tracer.install()
    t_start = time.monotonic()
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        code = repro.cli.main(argv)
    t_done = time.monotonic()
    if cal:
        cal.append(calibrate.sample())
    doc: Dict = {"t_ready": t_ready, "t_done": t_done, "problems": [],
                 "cal": cal, "rss_mb": peak_rss_mb()}
    if tracer is not None:
        tracer.uninstall()
        tracer.collect_workers()
        doc["totals"] = tracer.totals(t_done - t_start)
    campaign = Campaign(workdir / "campaign")
    ok_runs = CampaignManifest.for_campaign(campaign).counts().get("ok", 0)
    documents = [stats_to_dict(stats) for stats in campaign.results()]
    runs = campaign_runs(scale)
    doc["cells"] = ok_runs
    doc["ops"] = [{
        "name": "campaign", "ms": (t_done - t_start) * 1e3,
        "ok": code == 0 and ok_runs == runs,
        "error": "" if code == 0 else printed.getvalue()[-300:],
        "weight": runs, "ok_weight": ok_runs,
        "digest": checks.digest(documents),
    }]
    if opts.check:
        suite = build_suite(length=scale.campaign_length,
                            names=scale.campaign_traces, seed=TRACE_SEED)
        doc["problems"] = checks.check_campaign_runs(
            workdir / "campaign", suite, scale.campaign_sizes_kb,
            campaign_cycles(scale, opts.seed), TRACE_SEED,
            random.Random(opts.seed))
    return doc


WORKLOADS = {
    "paper-cold": paper_cold,
    "reprice-warm": reprice_warm,
    "campaign-grid": campaign_grid,
}

CHILDREN = {
    "paper-cold": paper_cold_child,
    "reprice-setup": reprice_setup_child,
    "campaign-grid": campaign_child,
}
