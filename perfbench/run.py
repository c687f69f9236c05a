"""End-to-end and per-layer benchmark of the cache-design simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-cold --seed 0 \
        --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no spans recorded;
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it print every metric by name with its unit and kind,
the run's stamp, and any failed check.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import sys
from pathlib import Path

#: Environment variables that would change the simulator's route.
ROUTE_ENV = (
    "REPRO_FULL", "REPRO_JOBS", "REPRO_PASS_CACHE", "REPRO_STACK_PASS",
    "REPRO_SAMPLE",
)

#: Metric kind of each unit: every metric is a host time, a host memory
#: figure or a count.
UNIT_KIND = {
    "s": "host time", "ms": "host time", "1/s": "count per host second",
    "MB": "host memory", "bytes": "count", "count": "count",
    "frac": "count ratio", "events/ref": "count ratio",
}

#: Printed in every report: the benchmark measures cost, never accuracy.
VALIDATION_NOTE = (
    "The cache model is not validated against hardware; this benchmark "
    "reports host time, host memory and counts only, and no accuracy "
    "figure."
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=("paper-cold", "reprice-warm",
                                 "campaign-grid"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the smoke test")
    parser.add_argument("--record-digest", action="store_true",
                        help="with --seed 0, check this run without the "
                             "committed digests, then write its digests "
                             "to digests.json")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--check", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is None and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    return args


def stamp(seed: int) -> dict:
    import numpy
    from repro.sim.benchhistory import current_commit, host_fingerprint

    return {
        "host": host_fingerprint(), "nproc": os.cpu_count() or 1,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "commit": current_commit() or "unknown", "seed": seed,
    }


def declared_metrics(root: Path, traced: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        entry["name"]: entry["unit"]
        for entry in spec["per_layer" if traced else "end_to_end"]
    }


def report(args, outcome, scale, root: Path) -> dict:
    import calibrate

    values = outcome.per_layer() if args.trace else outcome.end_to_end()
    raw = {} if args.trace else outcome.end_to_end(raw=True)
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in declared_metrics(root, bool(args.trace)).items()
        if name in values
    }
    failed_frac = outcome.failed / max(1, outcome.attempted)
    info = {
        "workload": args.workload, "trace": args.trace,
        "stamp": stamp(args.seed),
        "calibration": {
            "nominal_s": calibrate.NOMINAL_S,
            "samples": len(outcome.cal_samples),
            "factor": (calibrate.factor(outcome.cal_samples)
                       if outcome.cal_samples else None),
        },
        "raw_end_to_end": raw,
        "scale": dataclasses.asdict(scale),
        "rounds": len(outcome.rounds),
        "peak_rss_mb_self_children": [
            resource.getrusage(who).ru_maxrss / 1024.0
            for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
        ],
        "round_walls_s": [
            [r["traced"], round(r["wall"], 4)]
            for r in outcome.rounds if "wall" in r
        ],
        "setups_s": [round(t, 4) for t in outcome.setup_samples],
        "traced_rounds": sum(1 for r in outcome.rounds if r["traced"]),
        "output_check": " + ".join(
            ["committed digests"] * outcome.committed
            + ["scalar re-derivation"] * outcome.rederived
            + ["repeat digests"]),
        "failed_frac": failed_frac,
        "problems": outcome.problems[:20],
        "setup_layers": outcome.setup_layers() if args.trace else {},
        "digests": outcome.digests,
        "reconcile": [
            {key: r["totals"][key] for key in
             ("bench.wall_s", "bench.covered_s", "bench.main_self_s")}
            for r in outcome.rounds if r.get("totals")
        ],
    }
    mode = "traced" if args.trace else "untraced"
    print(f"perfbench {args.workload} ({mode}, {info['rounds']} rounds)  "
          + "  ".join(
              f"{k}={v}" for k, v in info["stamp"].items()))
    for name, entry in metrics.items():
        kind = UNIT_KIND[entry["unit"]]
        measured = ""
        if name in raw and raw[name] != entry["value"]:
            kind += " at nominal host speed"
            measured = f" (measured {raw[name]:.6g})"
        print(f"  {name:32s} {entry['value']:>16.6g} {entry['unit']:<11s}"
              f"{kind}{measured}")
    print(f"  {'failed_frac':32s} {failed_frac:>16.6g} {'frac':<11s}"
          f"count ratio ({outcome.failed} of {outcome.attempted} operations)")
    for name, value in sorted(info["setup_layers"].items()):
        print(f"  set-up layer (per set-up)        {name:28s} {value:.6g}")
    for problem in outcome.problems[:20]:
        print(f"  FAILED CHECK: {problem}")
    print(f"  output check: {info['output_check']}")
    print(f"  note: {VALIDATION_NOTE}")
    print("# report " + json.dumps(info, sort_keys=True))
    return metrics


def child_main(args, scale) -> int:
    import workloads

    doc = workloads.CHILDREN[args.child](args, scale)
    Path(args.out).write_text(json.dumps(doc), encoding="utf-8")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a checkout: src/repro "
              "is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    for name in ROUTE_ENV:
        os.environ.pop(name, None)
    import workloads

    scale = workloads.SMOKE if args.smoke else workloads.FULL
    if args.child:
        return child_main(args, scale)
    workdir = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ctx = argparse.Namespace(
        root=root, workdir=workdir, seed=args.seed, seconds=args.seconds,
        traced=bool(args.trace), smoke=args.smoke, scale=scale,
        record=args.record_digest,
    )
    try:
        outcome = workloads.WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    metrics = report(args, outcome, scale, root)
    if args.record_digest:
        import checks

        if args.seed != checks.SHIPPED_SEED or outcome.failed or args.smoke:
            print("perfbench: digests are recorded only from a clean run "
                  f"with --seed {checks.SHIPPED_SEED}", file=sys.stderr)
            return 1
        checks.record_committed(
            args.workload, workloads.workload_spec(args.workload, scale),
            outcome.digests)
    print(json.dumps({
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
