"""Command-line interface: ``repro-sim``.

Main subcommands:

* ``repro-sim experiment <id|all> [--full] [--length N] [--traces a,b]
  [--keep-going]`` — regenerate one of the paper's tables/figures (see
  DESIGN.md §5);
* ``repro-sim simulate [--size-kb N] [--assoc A] [--block-words W]
  [--cycle-ns T] [--trace NAME] [--engine] [--metrics] [--metrics-out F]
  [--trace-out F]`` — run one configuration on one trace and print its
  statistics; ``--metrics`` adds the cycle-attribution ledger (with the
  conservation invariant checked) and host profiling, ``--trace-out``
  dumps a Chrome ``trace_event`` timeline;
* ``repro-sim traces [--length N]`` — print the Table 1 analogue for the
  synthetic suite;
* ``repro-sim lint [paths] [--rule ID] [--format text|json]`` — static
  invariant checking (reprolint) over the repo's own source: wall-clock
  and entropy calls in simulation code, float cycle arithmetic, bare
  writes bypassing the atomic persistence primitive, silent exception
  swallowing, registry/schema drift (see ``docs/invariants.md``);
  ``--self-test`` runs every rule against its fixtures,
  ``--write-baseline`` ratchets pre-existing violations,
  ``--update-fingerprints`` refreshes the REPRO008 schema ratchet;
* ``repro-sim campaign run|enqueue|worker|drain|status|report|fsck
  <dir>`` — fault-tolerant sweep execution over a persisted campaign
  directory: ``run`` executes a (size x cycle-time) sweep with worker
  isolation, per-run timeouts and retries
  (``--jobs/--timeout/--retries/--keep-going``; add ``--metrics`` to
  persist per-run telemetry RunReports) on an in-process worker pool;
  ``enqueue`` materializes the same sweep into the durable on-disk work
  queue ``<dir>/spool/`` without executing it, so a killed coordinator
  loses nothing; ``worker`` runs one persistent lease-holding worker
  against an enqueued spool (launch any number, on any schedule;
  SIGTERM drains gracefully); ``drain`` runs workers until the spool
  empties, folds completions into the manifest and prints the fleet's
  ``fabric`` counters; ``status``
  prints the manifest journal (plus spool occupancy when one exists;
  ``--json`` emits a machine-readable document with manifest counts and
  spool/fabric blocks);
  ``report`` aggregates stored RunReports (slowest runs, stall
  breakdowns, throughput percentiles); ``fsck`` validates every stored
  result's checksum, flags stray temp files and stale leases, and
  optionally quarantines/repairs (``--repair``);
* ``repro-sim bench run|diff|history`` — the continuous performance
  ratchet (see ``docs/internals.md``): ``run`` executes the bench
  suites with ``--repeat`` repetitions, prints per-metric medians and
  appends them as schema-versioned records to an append-only JSONL
  history (exit 1 when a suite's own correctness gate fails); ``diff``
  gates one commit's records against the baseline's median ± a
  MAD-derived noise band (exit 1 on regression; identical reruns
  always pass); ``history`` prints per-metric trajectories;
* ``repro-sim cache stats|gc|verify <dir>`` — maintain a persistent
  functional-pass cache (see ``docs/internals.md``): ``stats`` prints
  the on-disk footprint, ``gc`` evicts least-recently-modified entries
  down to ``--max-entries``/``--max-bytes`` budgets, ``verify``
  validates every entry's checksum (``--repair`` quarantines).  The
  ``simulate``, ``advise`` and ``campaign run`` subcommands accept
  ``--pass-cache DIR`` to reuse functional passes across invocations.
  Every fastpath pass is one filtered per-organization pass, shared by
  the organization's timing siblings (see ``docs/internals.md``);
  results are bit-identical to the reference pass.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from typing import List, Optional

from .experiments.common import ExperimentSettings
from .experiments.registry import list_experiments, run_experiment
from .sim.config import baseline_config
from .sim.engine import simulate
from .sim.fastpath import fast_simulate
from .trace.dinero import read_din, write_din
from .trace.stats import compute_stats, stats_table
from .trace.suite import ALL_TRACES, DEFAULT_LENGTH, build_suite, build_trace
from .units import KB


def _settings_from(args: argparse.Namespace) -> ExperimentSettings:
    names = tuple(args.traces.split(",")) if args.traces else ALL_TRACES
    return ExperimentSettings(
        trace_length=args.length,
        trace_names=names,
        seed=args.seed,
        full=args.full,
    )


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .errors import ReproError
    from .experiments.common import failed_result

    settings = _settings_from(args)
    ids = list_experiments() if args.id == "all" else [args.id]
    failures = 0
    for experiment_id in ids:
        try:
            result = run_experiment(experiment_id, settings)
        except ReproError as exc:
            if not args.keep_going:
                raise
            result = failed_result(experiment_id, exc)
        if not result.ok:
            failures += 1
        print(f"== {result.experiment_id}: {result.title} ==")
        print(result.text)
        print()
    return 1 if failures else 0


def _print_counters(registry) -> None:
    """Print one line per subsystem whose counters ``registry`` holds."""
    from .sim.telemetry import render_counters

    for line in render_counters(registry.as_dict()):
        print(line)


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .sim.passcache import PassCache, cache_metrics
    from .sim.telemetry import (
        CycleLedger, EventTracer, MetricsRegistry, Telemetry,
        build_run_report,
    )

    registry = MetricsRegistry()
    with registry.span("trace"):
        trace = build_trace(args.trace, length=args.length, seed=args.seed)
    if args.spec:
        from .sim.specfiles import load_spec

        config = load_spec(args.spec, args.vary)
    else:
        config = baseline_config(
            cache_size_bytes=args.size_kb * KB,
            block_words=args.block_words,
            assoc=args.assoc,
            cycle_ns=args.cycle_ns,
        )
    use_engine = args.engine
    if not use_engine:
        from .errors import ConfigurationError
        from .sim.fastpath import check_fastpath_supported

        try:
            check_fastpath_supported(config)
        except ConfigurationError:
            use_engine = True  # spec needs engine features
    pass_cache = None
    if args.pass_cache:
        if not use_engine:
            pass_cache = PassCache(args.pass_cache)
        else:
            print("note: --pass-cache applies to fastpath runs only; "
                  "this engine run bypasses it", file=sys.stderr)
    want_metrics = args.metrics or args.metrics_out
    telemetry = None
    if want_metrics or args.trace_out:
        telemetry = Telemetry(
            ledger=CycleLedger() if want_metrics else None,
            tracer=EventTracer() if args.trace_out else None,
        )
    with registry.span("simulate"), cache_metrics(pass_cache, registry):
        if use_engine:
            stats = simulate(config, trace, telemetry=telemetry)
        else:
            from .core.sweep import run_functional_passes

            # The route's counters ride with --metrics.
            stream = run_functional_passes(
                [(config, trace, 0)], cache=pass_cache,
                registry=registry if want_metrics else None,
            )[0]
            stats = fast_simulate(
                config, trace, telemetry=telemetry, stream=stream
            )
    print(f"trace: {trace.name} ({len(trace)} references, "
          f"{stats.n_refs} measured)")
    print(f"warm-up: {len(trace) - stats.n_refs} reference(s) before the "
          f"boundary at reference {trace.warm_boundary}; statistics "
          f"snapshot at cycle {stats.warm_cycles} of {stats.total_cycles}")
    print(f"system: {config.describe()}")
    print(f"cycles: {stats.cycles}  ({stats.cycles_per_reference:.3f}/ref)")
    print(f"execution time: {stats.execution_time_ns / 1e6:.3f} ms")
    print(f"read miss ratio: {stats.read_miss_ratio:.4f} "
          f"(load {stats.load_miss_ratio:.4f}, "
          f"ifetch {stats.ifetch_miss_ratio:.4f})")
    print(f"traffic: read {stats.read_traffic_ratio:.3f} W/read, write "
          f"{stats.write_traffic_ratio_full:.3f}/"
          f"{stats.write_traffic_ratio_dirty:.3f} W/ref (full/dirty)")
    print(f"write buffer: {stats.buffer.pushes} pushes, "
          f"{stats.buffer.full_stalls} full stalls, "
          f"{stats.buffer.match_stalls} read-match stalls")
    _print_counters(registry)
    if telemetry is not None and telemetry.ledger is not None:
        report = build_run_report(
            stats, telemetry.ledger,
            run_identifier=f"{trace.name}-cli",
            simulator="engine" if use_engine else "fastpath",
            n_refs_total=len(trace), config=config, registry=registry,
        )
        print("cycle attribution (measured):")
        print(telemetry.ledger.render(stats.cycles))
        print(f"host: {report.total_wall_s:.3f}s wall "
              f"({report.refs_per_sec:,.0f} refs/s), "
              f"peak RSS {report.peak_rss_kb or 0} KiB")
        if args.metrics_out:
            import json as _json

            with open(args.metrics_out, "w", encoding="utf-8") as handle:
                _json.dump(report.to_dict(), handle, indent=1)
            print(f"metrics written to {args.metrics_out}")
        if not report.conserved:
            print("error: cycle-conservation invariant VIOLATED",
                  file=sys.stderr)
            return 1
    if telemetry is not None and telemetry.tracer is not None:
        telemetry.tracer.dump(args.trace_out)
        print(f"event trace written to {args.trace_out} "
              f"({len(telemetry.tracer)} event(s), "
              f"{telemetry.tracer.dropped} dropped)")
    return 0


def _cmd_traces(args: argparse.Namespace) -> int:
    suite = build_suite(length=args.length, seed=args.seed)
    print(stats_table([compute_stats(t) for t in suite.values()]))
    return 0


def _cmd_din(args: argparse.Namespace) -> int:
    """Simulate an external din/dinp trace file, or export a synthetic
    trace to din format."""
    if args.export:
        trace = build_trace(args.export, length=args.length, seed=args.seed)
        write_din(trace, args.path, with_pids=True)
        print(f"wrote {len(trace)} references to {args.path} (dinp format)")
        return 0
    trace = read_din(args.path, name=args.path,
                     warm_boundary=args.warm_boundary)
    config = baseline_config(
        cache_size_bytes=args.size_kb * KB,
        block_words=args.block_words,
        assoc=args.assoc,
        cycle_ns=args.cycle_ns,
    )
    from .core.sweep import simulate_jobs

    [stats] = simulate_jobs([(config, trace, 0)])
    print(f"trace: {args.path} ({len(trace)} references)")
    print(f"system: {config.describe()}")
    print(f"read miss ratio: {stats.read_miss_ratio:.4f}")
    print(f"cycles/reference: {stats.cycles_per_reference:.3f}")
    print(f"execution time: {stats.execution_time_ns / 1e6:.3f} ms")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description=(
            "Reproduction of 'Performance Tradeoffs in Cache Design' "
            "(Przybylski, Horowitz & Hennessy, ISCA 1988)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    exp = sub.add_parser("experiment", help="regenerate a paper artifact")
    exp.add_argument(
        "id",
        help=f"experiment id or 'all'; one of: {', '.join(list_experiments())}",
    )
    exp.add_argument("--full", action="store_true",
                     help="paper-scale grids (slow)")
    exp.add_argument("--length", type=int, default=120_000,
                     help="trace length in references")
    exp.add_argument("--traces", default="",
                     help="comma-separated subset of trace names")
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--keep-going", action="store_true",
                     help="render failed experiments as flagged "
                          "placeholders instead of aborting the batch")
    exp.set_defaults(func=_cmd_experiment)

    simp = sub.add_parser("simulate", help="run one configuration")
    simp.add_argument("--trace", default="mu3", choices=ALL_TRACES)
    simp.add_argument("--length", type=int, default=DEFAULT_LENGTH)
    simp.add_argument("--size-kb", type=int, default=64,
                      help="size of EACH split cache in KB")
    simp.add_argument("--assoc", type=int, default=1)
    simp.add_argument("--block-words", type=int, default=4)
    simp.add_argument("--cycle-ns", type=float, default=40.0)
    simp.add_argument("--engine", action="store_true",
                      help="use the reference engine instead of the fastpath")
    simp.add_argument("--spec", default="",
                      help="JSON system specification file (overrides the "
                           "size/assoc/block/cycle flags)")
    simp.add_argument("--vary", action="append", default=[],
                      help="variation file applied on top of --spec "
                           "(repeatable, applied in order)")
    simp.add_argument("--seed", type=int, default=0)
    simp.add_argument("--metrics", action="store_true",
                      help="collect the cycle-attribution ledger and "
                           "host profiling metrics; verifies the "
                           "cycle-conservation invariant")
    simp.add_argument("--metrics-out", default="",
                      help="write the RunReport metrics document (JSON) "
                           "to this path (implies --metrics)")
    simp.add_argument("--trace-out", default="",
                      help="write a Chrome trace_event JSON timeline of "
                           "misses and stalls to this path")
    simp.add_argument("--pass-cache", default="",
                      help="directory of a persistent functional-pass "
                           "cache to reuse across invocations "
                           "(fastpath runs only)")
    simp.set_defaults(func=_cmd_simulate)

    tr = sub.add_parser("traces", help="describe the synthetic trace suite")
    tr.add_argument("--length", type=int, default=DEFAULT_LENGTH)
    tr.add_argument("--seed", type=int, default=0)
    tr.set_defaults(func=_cmd_traces)

    din = sub.add_parser(
        "din", help="simulate a din/dinp trace file, or export one"
    )
    din.add_argument("path", help="trace file to read (or write)")
    din.add_argument("--export", default="", choices=("",) + ALL_TRACES,
                     help="write this synthetic trace to PATH instead")
    din.add_argument("--length", type=int, default=DEFAULT_LENGTH,
                     help="length when exporting")
    din.add_argument("--warm-boundary", type=int, default=0)
    din.add_argument("--size-kb", type=int, default=64)
    din.add_argument("--assoc", type=int, default=1)
    din.add_argument("--block-words", type=int, default=4)
    din.add_argument("--cycle-ns", type=float, default=40.0)
    din.add_argument("--seed", type=int, default=0)
    din.set_defaults(func=_cmd_din)

    adv = sub.add_parser(
        "advise",
        help="rank buildable (size, cycle) rungs from a RAM ladder",
    )
    adv.add_argument(
        "rungs", nargs="+",
        help="rungs as TOTALKB:CYCLENS, e.g. 16:40 64:50 256:60",
    )
    adv.add_argument("--length", type=int, default=60_000)
    adv.add_argument("--traces", default="mu3,rd2n4")
    adv.add_argument("--seed", type=int, default=0)
    adv.add_argument("--pass-cache", default="",
                     help="directory of a persistent functional-pass "
                          "cache backing the advisor's sweep")
    adv.add_argument("--jobs", type=int, default=1,
                     help="worker processes for the sweep's functional "
                          "passes and then its grid pricing")
    adv.set_defaults(func=_cmd_advise)

    rep = sub.add_parser(
        "report",
        help="run every experiment and write a markdown report",
    )
    rep.add_argument("-o", "--output", default="paper_report.md")
    rep.add_argument("--full", action="store_true")
    rep.add_argument("--length", type=int, default=120_000)
    rep.add_argument("--traces", default="")
    rep.add_argument("--seed", type=int, default=0)
    rep.set_defaults(func=_cmd_report)

    lint = sub.add_parser(
        "lint",
        help="static invariant checks (reprolint) over the source tree",
    )
    lint.add_argument("paths", nargs="*",
                      help="files/directories to lint (default: src)")
    lint.add_argument("--rule", action="append", default=[],
                      help="run only this rule id (repeatable)")
    lint.add_argument("--format", choices=("text", "json"),
                      default="text")
    lint.add_argument("--self-test", action="store_true",
                      help="check every rule catches its fixture "
                           "violations and stays silent on clean code")
    lint.add_argument("--baseline", default="",
                      help="baseline file (default: "
                           "<root>/lint-baseline.json)")
    lint.add_argument("--write-baseline", action="store_true",
                      help="accept all current violations into the "
                           "baseline (ratchet starting point)")
    lint.add_argument("--update-fingerprints", action="store_true",
                      help="regenerate the REPRO008 schema fingerprint "
                           "file after a deliberate schema change")
    lint.add_argument("--graph-stats", action="store_true",
                      help="print project-graph statistics (modules, "
                           "functions, call edges, summary counts) "
                           "after the run")
    lint.add_argument("--why", default="",
                      metavar="RULE[:PATH]",
                      help="explain a graph rule: print the call "
                           "chain(s) behind REPRO001/REPRO003 (or the "
                           "REPRO014 findings) for modules matching "
                           "PATH, then exit")
    lint.set_defaults(func=_cmd_lint)

    camp = sub.add_parser(
        "campaign",
        help="fault-tolerant sweep execution over a results directory",
    )
    csub = camp.add_subparsers(dest="campaign_command", required=True)

    # What `run` and `enqueue` share: the sweep they describe.
    sweep = argparse.ArgumentParser(add_help=False)
    sweep.add_argument("directory", help="campaign results directory")
    sweep.add_argument("--sizes-kb", default="4,16,64",
                       help="comma-separated per-cache sizes in KB")
    sweep.add_argument("--cycles-ns", default="20,40,80",
                       help="comma-separated cycle times in ns")
    sweep.add_argument("--assoc", type=int, default=1)
    sweep.add_argument("--block-words", type=int, default=4)
    sweep.add_argument("--traces", default="",
                       help="comma-separated subset of trace names")
    sweep.add_argument("--length", type=int, default=120_000)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--engine", action="store_true",
                       help="use the reference engine (supports "
                            "cooperative timeout cancellation)")
    sweep.add_argument("--pass-cache", default="",
                       help="directory of a persistent functional-pass "
                            "cache shared by the sweep's workers "
                            "(incompatible with --engine)")
    sweep.add_argument("--stack-pass", action="store_true",
                       help="no effect, accepted for old scripts: "
                            "every worker takes one pass per "
                            "organization and trace for all of its "
                            "cycle times")
    # What `run`, `worker` and `drain` share: how each job executes.
    execution = argparse.ArgumentParser(add_help=False)
    execution.add_argument("--timeout", type=_positive_seconds,
                           default=None,
                           help="per-run wall-clock timeout in seconds")
    execution.add_argument("--retries", type=_int_at_least(0), default=2,
                           help="retries after a failed attempt "
                                "(max attempts = retries + 1)")
    execution.add_argument("--metrics", action="store_true",
                           help="persist per-run telemetry RunReports "
                                "under <dir>/metrics/; `run` and "
                                "`drain` also write a sweep summary")
    # What `worker` and `drain` share: the lease a spool job runs under.
    lease = argparse.ArgumentParser(add_help=False)
    lease.add_argument("--ttl", type=_positive_seconds, default=30.0,
                       help="lease time-to-live in seconds; a heartbeat "
                            "stalled this long forfeits the lease")
    lease.add_argument("--heartbeat", type=_positive_seconds,
                       default=None,
                       help="renew the lease every N seconds from a "
                            "background thread while a job runs")

    crun = csub.add_parser(
        "run", parents=[sweep, execution],
        help="execute a (size x cycle time) sweep resiliently",
    )
    crun.add_argument("--jobs", type=_int_at_least(1), default=1,
                      help="concurrent isolated worker processes")
    crun.add_argument("--keep-going", action="store_true",
                      help="finish the sweep even when runs exhaust "
                           "their retries; failures stay journaled in "
                           "the manifest")
    crun.set_defaults(func=_cmd_campaign_run)

    cenq = csub.add_parser(
        "enqueue", parents=[sweep],
        help="materialize a sweep into <dir>/spool/ without running it",
    )
    cenq.set_defaults(func=_cmd_campaign_enqueue)

    cwork = csub.add_parser(
        "worker", parents=[execution, lease],
        help="run one persistent lease-holding worker against an "
             "enqueued spool (SIGTERM drains gracefully)",
    )
    cwork.add_argument("directory", help="campaign results directory")
    cwork.add_argument("--name", default="",
                       help="worker identity recorded in leases "
                            "(default: host:pid)")
    cwork.add_argument("--max-jobs", type=int, default=None,
                       help="exit after publishing this many jobs")
    cwork.set_defaults(func=_cmd_campaign_worker)

    cdrain = csub.add_parser(
        "drain", parents=[execution, lease],
        help="run workers until the spool empties; fold completions "
             "into the manifest",
    )
    cdrain.add_argument("directory", help="campaign results directory")
    cdrain.add_argument("--jobs", type=_int_at_least(1), default=1,
                        help="concurrent workers draining the spool")
    cdrain.set_defaults(func=_cmd_campaign_drain)

    cstat = csub.add_parser(
        "status", help="print the campaign manifest journal"
    )
    cstat.add_argument("directory")
    cstat.add_argument("--json", action="store_true",
                       help="machine-readable output: manifest counts "
                            "plus spool/fabric blocks when a spool "
                            "exists")
    cstat.set_defaults(func=_cmd_campaign_status)

    crep = csub.add_parser(
        "report",
        help="aggregate stored RunReport metrics: slowest runs, stall "
             "breakdowns, throughput percentiles",
    )
    crep.add_argument("directory")
    crep.add_argument("--slowest", type=int, default=5,
                      help="how many slowest runs to list")
    crep.set_defaults(func=_cmd_campaign_report)

    cfsck = csub.add_parser(
        "fsck", help="validate every stored result's checksum"
    )
    cfsck.add_argument("directory")
    cfsck.add_argument("--repair", action="store_true",
                       help="quarantine corrupt files and delete stray "
                            "temp files instead of only reporting them")
    cfsck.set_defaults(func=_cmd_campaign_fsck)

    cache = sub.add_parser(
        "cache",
        help="maintain a persistent functional-pass cache directory",
    )
    cachesub = cache.add_subparsers(dest="cache_command", required=True)

    cstats = cachesub.add_parser(
        "stats", help="print the cache's on-disk footprint"
    )
    cstats.add_argument("directory", help="pass-cache directory")
    cstats.set_defaults(func=_cmd_cache_stats)

    cgc = cachesub.add_parser(
        "gc",
        help="evict least-recently-modified entries to fit budgets",
    )
    cgc.add_argument("directory", help="pass-cache directory")
    cgc.add_argument("--max-entries", type=int, default=None,
                     help="keep at most this many entries")
    cgc.add_argument("--max-bytes", type=int, default=None,
                     help="keep at most this many bytes of entries")
    cgc.set_defaults(func=_cmd_cache_gc)

    cverify = cachesub.add_parser(
        "verify",
        help="validate every entry's checksum and payload shape",
    )
    cverify.add_argument("directory", help="pass-cache directory")
    cverify.add_argument("--repair", action="store_true",
                         help="quarantine corrupt entries and delete "
                              "stray temp files instead of only "
                              "reporting them")
    cverify.set_defaults(func=_cmd_cache_verify)

    bench = sub.add_parser(
        "bench",
        help="run and ratchet benchmark suites "
             "(append-only JSONL history with a MAD noise-band gate)",
    )
    benchsub = bench.add_subparsers(dest="bench_command", required=True)

    brun = benchsub.add_parser(
        "run",
        help="run local bench suites with N repetitions; report (and "
             "optionally append) per-metric medians",
    )
    brun.add_argument("--suites", default="all",
                      help="comma-separated suite names (default: all)")
    brun.add_argument("--repeat", type=int, default=3,
                      help="repetitions per suite; the recorded value "
                           "is the median")
    brun.add_argument("--length", type=int, default=20_000,
                      help="trace length in references")
    brun.add_argument("--seed", type=int, default=0,
                      help="replacement seed")
    brun.add_argument("--history", default="",
                      help="append records to this JSONL history file")
    brun.add_argument("--commit", default="",
                      help="commit id for new records (default: "
                           "REPRO_BENCH_COMMIT or git rev-parse)")
    brun.add_argument("--host", default="",
                      help="host fingerprint override (default: "
                           "platform-derived)")
    brun.set_defaults(func=_cmd_bench_run)

    bdiff = benchsub.add_parser(
        "diff",
        help="gate one commit's records against the history's noise "
             "band; exit 1 on regression",
    )
    bdiff.add_argument("--history", required=True,
                       help="JSONL history file")
    bdiff.add_argument("--commit", default="",
                       help="candidate commit (default: the history's "
                            "last record)")
    bdiff.add_argument("--mad-scale", type=float, default=4.0,
                       help="noise-band width in MADs")
    bdiff.add_argument("--rel-floor", type=float, default=0.05,
                       help="minimum band as a fraction of the "
                            "baseline median")
    bdiff.add_argument("--min-baseline", type=int, default=1,
                       help="prior records needed before a metric "
                            "gates (fewer report 'new')")
    bdiff.add_argument("--host", default="",
                       help="compare against baselines from this host "
                            "fingerprint (default: the current host's)")
    bdiff.add_argument("--any-host", action="store_true",
                       help="compare against the whole history "
                            "regardless of which host recorded it")
    bdiff.set_defaults(func=_cmd_bench_diff)

    bhist = benchsub.add_parser(
        "history", help="print per-metric trajectories from a history"
    )
    bhist.add_argument("--history", required=True,
                       help="JSONL history file")
    bhist.add_argument("--metric", default="",
                       help="only this metric (name or suite.name)")
    bhist.add_argument("--last", type=int, default=10,
                       help="show at most this many recent records "
                            "per metric")
    bhist.set_defaults(func=_cmd_bench_history)
    return parser


def _int_at_least(low: int):
    """An argparse ``type=``: an integer no smaller than ``low``."""
    def parse(raw: str) -> int:
        with contextlib.suppress(ValueError):
            if int(raw) >= low:
                return int(raw)
        raise argparse.ArgumentTypeError(
            f"must be an integer >= {low}, got {raw!r}"
        )

    return parse


def _positive_seconds(raw: str) -> float:
    """An argparse ``type=``: a finite number of seconds above zero."""
    with contextlib.suppress(ValueError):
        if 0 < float(raw) < math.inf:
            return float(raw)
    raise argparse.ArgumentTypeError(
        f"must be a positive number of seconds, got {raw!r}"
    )


def _parse_float_list(raw: str, flag: str) -> List[float]:
    from .errors import ConfigurationError

    values = []
    for item in raw.split(","):
        item = item.strip()
        if not item:
            raise ConfigurationError(f"{flag}: empty value in {raw!r}")
        try:
            values.append(float(item))
        except ValueError:
            raise ConfigurationError(f"{flag}: invalid number {item!r}")
    return values


def _cmd_lint(args: argparse.Namespace) -> int:
    import json as _json
    from pathlib import Path

    from .lint import (
        Baseline, all_rules, find_repo_root, lint_paths, load_config,
        run_self_test,
    )
    from .lint.framework import LintInputError, collect_sources
    from .lint.rules_structure import write_fingerprints

    if args.self_test:
        ok, report = run_self_test()
        print(report)
        return 0 if ok else 1

    paths = [Path(p) for p in (args.paths or ["src"])]
    for path in paths:
        if not path.exists():
            print(f"repro-sim lint: error: no such path: {path}",
                  file=sys.stderr)
            return 2
    root = find_repo_root(paths[0])
    try:
        config = load_config(root)
    except LintInputError as exc:
        print(f"repro-sim lint: error: {exc}", file=sys.stderr)
        return 2
    rules = all_rules(config)
    if args.rule:
        known = {r.rule_id for r in rules}
        unknown = [r for r in args.rule if r not in known]
        if unknown:
            print(
                f"repro-sim lint: error: unknown rule(s) "
                f"{', '.join(unknown)}; available: "
                f"{', '.join(sorted(known))}",
                file=sys.stderr,
            )
            return 2
        rules = [r for r in rules if r.rule_id in args.rule]

    if args.update_fingerprints:
        sources = collect_sources(paths, root)
        schemas = write_fingerprints(
            sources, config, root / config.fingerprints_path
        )
        print(f"fingerprints for {len(schemas)} schema(s) written to "
              f"{config.fingerprints_path}")
        return 0

    if args.why:
        from .lint.rules_interproc import explain_why

        rule_spec, _, path_filter = args.why.partition(":")
        try:
            chains = explain_why(
                collect_sources(paths, root), config,
                rule_spec.strip(), path_filter.strip() or None,
            )
        except ValueError as exc:
            print(f"repro-sim lint: error: {exc}", file=sys.stderr)
            return 2
        if chains:
            print("\n".join(chains))
        else:
            scope = f" under {path_filter.strip()}" if path_filter \
                else ""
            print(f"no {rule_spec.strip()} chains{scope} in the "
                  f"analyzed files")
        return 0

    baseline_path = (
        Path(args.baseline) if args.baseline
        else root / "lint-baseline.json"
    )
    try:
        result = lint_paths(
            paths, root=root, config=config, rules=rules,
            baseline_path=baseline_path,
        )
    except LintInputError as exc:
        print(f"repro-sim lint: error: {exc}", file=sys.stderr)
        return 2
    if args.write_baseline:
        sources = {s.rel: s for s in result.sources}
        pairs = [
            (v, sources[v.path].source_line(v.line)
             if v.path in sources else "")
            for v in list(result.violations) + list(result.baselined)
        ]
        Baseline.from_violations(pairs).save(baseline_path)
        print(f"{len(pairs)} violation(s) baselined to {baseline_path}")
        return 0
    graph_stats = result.graph_stats() if args.graph_stats else None
    if args.format == "json":
        payload = result.to_dict()
        if graph_stats is not None:
            payload["graph"] = graph_stats.to_dict()
        print(_json.dumps(payload, indent=1))
    else:
        print(result.render())
        if graph_stats is not None:
            print(graph_stats.render())
    return 0 if result.clean else 1


def _campaign_sweep(args: argparse.Namespace):
    """The ``(SweepSpec, jobs)`` that `campaign run` or `enqueue`
    describes.

    A bad sweep raises :exc:`~repro.errors.CampaignError` or
    :exc:`~repro.errors.ConfigurationError` before anything is written.
    """
    from .sim.workqueue import SweepSpec

    spec = SweepSpec(
        sizes_kb=tuple(_parse_float_list(args.sizes_kb, "--sizes-kb")),
        cycles_ns=tuple(_parse_float_list(args.cycles_ns, "--cycles-ns")),
        assoc=args.assoc,
        block_words=args.block_words,
        trace_names=tuple(
            t.strip() for t in args.traces.split(",")
        ) if args.traces else (),
        length=args.length,
        seed=args.seed,
        simulator="engine" if args.engine else "fastpath",
        pass_cache_dir=args.pass_cache,
    )
    return spec, spec.build_jobs()


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    from .errors import CampaignError, ConfigurationError
    from .sim.campaign import Campaign
    from .sim.resilience import CampaignExecutor, RetryPolicy

    def usage_error(message) -> int:
        print(f"repro-sim campaign run: error: {message}", file=sys.stderr)
        return 2

    try:
        _spec, jobs = _campaign_sweep(args)
    except (CampaignError, ConfigurationError) as exc:
        return usage_error(exc)
    executor = CampaignExecutor(
        Campaign(args.directory),
        jobs=args.jobs,
        timeout_s=args.timeout,
        retry=RetryPolicy(max_attempts=args.retries + 1),
        keep_going=args.keep_going,
        collect_metrics=args.metrics,
    )
    try:
        report = executor.run_sweep(jobs)
    except CampaignError as exc:
        print(executor.manifest.render())
        print(f"campaign aborted: {exc}")
        return 1
    print(report.render())
    return 0 if report.all_ok else 1


def _cmd_campaign_enqueue(args: argparse.Namespace) -> int:
    from .errors import CampaignError, ConfigurationError
    from .sim.campaign import Campaign
    from .sim.workqueue import WorkQueue

    try:
        spec, jobs = _campaign_sweep(args)
        queue = WorkQueue.for_campaign(Campaign(args.directory))
        queue.save_spec(spec)
    except (CampaignError, ConfigurationError) as exc:
        print(f"repro-sim campaign enqueue: error: {exc}",
              file=sys.stderr)
        return 2
    ids = queue.enqueue_jobs(jobs)
    print(f"spooled {len(ids)} job(s) into {queue.directory}")
    print(queue.render_status())
    return 0


def _worker_settings(args: argparse.Namespace) -> dict:
    """The spool-worker keywords `worker` and `drain` share."""
    from .sim.resilience import RetryPolicy

    return dict(
        ttl_s=args.ttl, heartbeat_s=args.heartbeat, timeout_s=args.timeout,
        retry=RetryPolicy(max_attempts=args.retries + 1),
        collect_metrics=args.metrics,
    )


def _spool_spec(args: argparse.Namespace):
    """The spool in ``args.directory`` and the sweep it holds, for
    `worker` and `drain`.  Raises before anything is created, so a
    directory with no spool (or a spool this version cannot run) stays
    as it was."""
    from pathlib import Path

    from .sim.campaign import SPOOL_DIRNAME
    from .sim.workqueue import WorkQueue

    queue = WorkQueue(Path(args.directory) / SPOOL_DIRNAME)
    return queue, queue.load_spec()


def _cmd_campaign_worker(args: argparse.Namespace) -> int:
    from .errors import CampaignError
    from .sim.campaign import Campaign
    from .sim.workqueue import spool_fleet

    try:
        queue, spec = _spool_spec(args)
    except CampaignError as exc:
        print(f"repro-sim campaign worker: error: {exc}", file=sys.stderr)
        return 2
    campaign = Campaign(args.directory)
    _ids, (worker,) = spool_fleet(
        campaign, spec.build_jobs(), [args.name], **_worker_settings(args)
    )
    worker.install_signal_handlers()
    processed = worker.run(max_jobs=args.max_jobs)
    queue.sync_manifest(campaign)
    print(f"worker {worker.name}: published {processed} job(s) in "
          f"{worker.lifetime_s:.1f}s")
    print(queue.render_status())
    return 0


def _cmd_campaign_drain(args: argparse.Namespace) -> int:
    from .errors import CampaignError
    from .sim.campaign import Campaign
    from .sim.telemetry import MetricsRegistry
    from .sim.workqueue import drain_spool

    try:
        queue, spec = _spool_spec(args)
        manifest, fabric = drain_spool(
            Campaign(args.directory), spec=spec, workers=args.jobs,
            **_worker_settings(args)
        )
    except CampaignError as exc:
        print(f"repro-sim campaign drain: error: {exc}", file=sys.stderr)
        return 2
    print(manifest.render())
    print(queue.render_status())
    registry = MetricsRegistry()
    registry.count_many("fabric", fabric)
    _print_counters(registry)
    return 0 if not manifest.incomplete() else 1


def _campaign_status_doc(campaign, manifest) -> dict:
    """Machine-readable campaign status, from durable state only.

    Everything here comes off disk (manifest journal, stored results,
    spool occupancy, published done records) — never from the
    observer-local counters of a live :class:`WorkQueue`, which are
    zeros in a fresh status process.
    """
    doc = {
        "directory": str(campaign.directory),
        "counts": manifest.counts(),
        "runs": len(manifest.runs),
        "stored_results": len(campaign),
        "complete": bool(manifest.runs) and not manifest.incomplete(),
    }
    if campaign.spool_dir.is_dir():
        from .sim.workqueue import WorkQueue

        queue = WorkQueue.for_campaign(campaign)
        done = queue.done_records()
        doc["spool"] = queue.status()
        doc["fabric"] = {
            "done_records": len(done),
            "max_lease_epoch": max((r.epoch for r in done), default=0),
            "total_attempts": sum(r.attempts for r in done),
            "quarantines": sum(r.quarantines for r in done),
        }
    return doc


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    import json as json_mod

    from .errors import CampaignError
    from .sim.campaign import Campaign
    from .sim.resilience import CampaignManifest
    from .sim.workqueue import WorkQueue

    campaign = Campaign(args.directory)
    queue = WorkQueue.for_campaign(campaign)
    if queue.spec_path.exists():
        # Checked before the manifest loads (a load may repair it), so
        # a spool this version cannot run leaves the directory as it was.
        try:
            queue.load_spec()
        except CampaignError as exc:
            print(f"repro-sim campaign status: error: {exc}",
                  file=sys.stderr)
            return 2
    manifest = CampaignManifest.for_campaign(campaign)
    if args.json:
        doc = _campaign_status_doc(campaign, manifest)
        print(json_mod.dumps(doc, indent=2, sort_keys=True))
        if not manifest.runs:
            return 0
        return 0 if doc["complete"] else 1
    if not manifest.runs:
        print(f"{args.directory}: no manifest "
              f"({len(campaign)} result file(s) on disk)")
    else:
        print(manifest.render())
        stored = len(campaign)
        if stored != len(manifest.runs):
            print(f"note: {stored} result file(s) on disk vs "
                  f"{len(manifest.runs)} journaled run(s)")
    if campaign.spool_dir.is_dir():
        print(queue.render_status())
    if not manifest.runs:
        return 0
    return 0 if not manifest.incomplete() else 1


def _cmd_campaign_report(args: argparse.Namespace) -> int:
    from .errors import CorruptResultError
    from .sim.campaign import Campaign
    from .sim.telemetry import (
        RunReport, aggregate_reports, render_summary, stored_fabric,
    )

    campaign = Campaign(args.directory)
    reports = []
    skipped = 0
    for payload in campaign.load_reports():
        try:
            reports.append(RunReport.from_dict(payload))
        except CorruptResultError as exc:
            skipped += 1
            print(f"note: skipping invalid run report: {exc}",
                  file=sys.stderr)
    if not reports:
        print(f"{args.directory}: no metrics stored "
              f"(run the sweep with --metrics)")
        return 1
    if skipped:
        print(f"note: {skipped} invalid run report(s) skipped",
              file=sys.stderr)
    summary = aggregate_reports(
        reports, slowest=args.slowest,
        fabric=stored_fabric(campaign.load_summary()),
    )
    print(render_summary(summary))
    return 1 if summary["violations"] else 0


def _cmd_campaign_fsck(args: argparse.Namespace) -> int:
    from .sim.campaign import Campaign

    campaign = Campaign(args.directory)
    report = campaign.fsck(repair=args.repair)
    print(report.render())
    if report.clean or args.repair:
        return 0
    return 1


def _cmd_report(args: argparse.Namespace) -> int:
    from .experiments.registry import run_all

    settings = _settings_from(args)
    lines = [
        "# Reproduction report — Performance Tradeoffs in Cache Design",
        "",
        f"Traces: {', '.join(settings.trace_names)} at "
        f"{settings.trace_length} references; "
        f"{'full' if settings.full else 'reduced'} grids.",
        "",
    ]
    for result in run_all(settings):
        lines.append(f"## {result.experiment_id}: {result.title}")
        lines.append("")
        lines.append("```")
        lines.append(result.text)
        lines.append("```")
        lines.append("")
        print(f"done: {result.experiment_id}")
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines))
    print(f"report written to {args.output}")
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    from .core.advisor import LadderRung, advisor_table, recommend_design
    from .core.sweep import run_speed_size_sweep
    from .sim.telemetry import MetricsRegistry

    rungs = []
    for text in args.rungs:
        total_kb, cycle = text.split(":")
        rungs.append(LadderRung(int(total_kb) * KB, float(cycle)))
    suite = build_suite(
        length=args.length, names=tuple(args.traces.split(",")),
        seed=args.seed,
    )
    # Grid must bracket the ladder: derive axes from the rungs.
    sizes_each = sorted({max(r.total_size_bytes // 2, KB) for r in rungs})
    extended = sorted(
        {s // 2 for s in sizes_each} | set(sizes_each)
        | {s * 2 for s in sizes_each}
    )
    cycles = sorted({r.cycle_ns for r in rungs} | {20.0, 80.0})
    registry = MetricsRegistry()
    pass_cache = None
    if args.pass_cache:
        from .sim.passcache import PassCache

        pass_cache = PassCache(args.pass_cache)
    grid = run_speed_size_sweep(
        suite, extended, cycles, seed=args.seed, n_jobs=args.jobs,
        pass_cache=pass_cache, registry=registry,
    )
    print(advisor_table(recommend_design(grid, rungs)))
    _print_counters(registry)
    return 0


def _cmd_cache_stats(args: argparse.Namespace) -> int:
    from .sim.passcache import PassCache

    stats = PassCache(args.directory).disk_stats()
    print(f"{args.directory}: {stats['entries']} entr"
          f"{'y' if stats['entries'] == 1 else 'ies'}, "
          f"{stats['bytes']:,} bytes, "
          f"{stats['quarantined']} quarantined file(s)")
    return 0


def _cmd_cache_gc(args: argparse.Namespace) -> int:
    from .sim.passcache import PassCache

    cache = PassCache(args.directory)
    if args.max_entries is None and args.max_bytes is None:
        print("repro-sim cache gc: error: pass --max-entries and/or "
              "--max-bytes", file=sys.stderr)
        return 2
    removed = cache.gc(
        max_entries=args.max_entries, max_bytes=args.max_bytes
    )
    stats = cache.disk_stats()
    print(f"evicted {len(removed)} entr"
          f"{'y' if len(removed) == 1 else 'ies'}; "
          f"{stats['entries']} remain ({stats['bytes']:,} bytes)")
    return 0


def _cmd_cache_verify(args: argparse.Namespace) -> int:
    from .sim.passcache import PassCache

    report = PassCache(args.directory).verify(repair=args.repair)
    print(report.render())
    if report.clean or args.repair:
        return 0
    return 1


def _cmd_bench_run(args: argparse.Namespace) -> int:
    from .errors import ConfigurationError, CorruptResultError, ReproError
    from .sim.benchhistory import (
        BENCH_SUITES,
        BenchHistory,
        current_commit,
        host_fingerprint,
        run_bench_suites,
    )

    if args.history:
        # Reject a corrupt history before any suite runs, so no
        # measurement is taken only to be lost at append time.
        try:
            BenchHistory(args.history).load()
        except CorruptResultError as exc:
            print(f"repro-sim bench run: error: {exc}", file=sys.stderr)
            return 2
    names = (
        sorted(BENCH_SUITES)
        if args.suites in ("", "all")
        else [s.strip() for s in args.suites.split(",") if s.strip()]
    )
    commit = args.commit or current_commit()
    host = args.host or host_fingerprint()
    try:
        records, noise = run_bench_suites(
            names, repeat=args.repeat, length=args.length,
            seed=args.seed, commit=commit, host=host,
        )
    except ReproError as exc:
        # A bad suite name or count is a usage error (2); any other
        # error is a suite failing its own checks (1).  Nothing is kept.
        print(f"repro-sim bench run: error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigurationError) else 1
    for record in records:
        spread = noise.get((record.suite, record.metric), 0.0)
        print(f"{record.suite}.{record.metric:<16} "
              f"{record.value:>12.6g} {record.unit:<7} "
              f"(median of {record.repetitions}, MAD {spread:.3g})")
    if args.history:
        written = BenchHistory(args.history).append(records)
        print(f"{written} record(s) appended to {args.history} "
              f"@ {commit or '(no commit)'}")
    return 0


def _cmd_bench_diff(args: argparse.Namespace) -> int:
    from .errors import ConfigurationError, CorruptResultError
    from .sim.benchhistory import (
        BenchHistory,
        DiffPolicy,
        diff_history,
        host_fingerprint,
        render_diff,
    )

    try:
        records = BenchHistory(args.history).load()
        policy = DiffPolicy(
            mad_scale=args.mad_scale,
            rel_floor=args.rel_floor,
            min_baseline=args.min_baseline,
        )
    except (CorruptResultError, ConfigurationError) as exc:
        print(f"repro-sim bench diff: error: {exc}", file=sys.stderr)
        return 2
    if not records:
        print(f"{args.history}: no bench history")
        return 0
    if not args.any_host:
        # Timings from other machines are noise, not baseline: gate
        # against records from one host unless explicitly widened.
        host = args.host or host_fingerprint()
        records = [r for r in records if r.host == host]
        if not records:
            print(f"{args.history}: no bench history from host {host} "
                  f"(use --any-host to compare across hosts)")
            return 0
    commit = args.commit or records[-1].commit
    deltas = diff_history(records, commit=commit, policy=policy)
    print(render_diff(deltas, commit))
    regressions = [d for d in deltas if d.status == "regression"]
    return 1 if regressions else 0


def _cmd_bench_history(args: argparse.Namespace) -> int:
    from .errors import CorruptResultError
    from .sim.benchhistory import BenchHistory, sparkline

    try:
        series = BenchHistory(args.history).series()
    except CorruptResultError as exc:
        print(f"repro-sim bench history: error: {exc}", file=sys.stderr)
        return 2
    if not series:
        print(f"{args.history}: no bench history")
        return 0
    for (suite, metric), records in sorted(series.items()):
        if args.metric and f"{suite}.{metric}" != args.metric \
                and metric != args.metric:
            continue
        trend = sparkline(
            [r.value for r in records],
            width=args.last if args.last > 0 else len(records),
        )
        print(f"{suite}.{metric} ({records[-1].unit or '-'}, "
              f"{records[-1].direction})  {trend}:")
        for record in records[-args.last:]:
            print(f"  {record.commit or '(no commit)':<14} "
                  f"{record.value:>12.6g}  x{record.repetitions} "
                  f"on {record.host or '(unknown host)'}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
