"""Benchmark history: the repo's continuous performance ratchet.

Every benchmark this repository keeps a trajectory for is a local suite
in :data:`BENCH_SUITES`, run by ``repro-sim bench run``
(:func:`run_bench_suites`); that is the one way a measurement becomes a
record.  Each suite checks its own correctness property and bounds and
raises :exc:`~repro.errors.CorruptResultError` when one fails, so a
number lands in the history only when the run behind it was right.

* :class:`BenchRecord` is the one common shape every benchmark lands
  in: suite, metric, value, unit, gating direction, the commit and host
  that produced it, and how many repetitions the value summarizes.
  Records serialize through :func:`record_to_dict` (schema-versioned
  and checksummed, ratcheted by reprolint REPRO008);

* :class:`BenchHistory` is an append-only JSONL store of those records.
  Appends rewrite the whole file through
  :func:`~repro.sim.campaign.atomic_write_text`, so a crash leaves
  either the old history or the new one — never a torn tail line
  (reprolint REPRO003 holds this module to that contract);

* :func:`diff_history` is the gate.  For each (suite, metric) the
  baseline is every record from *other* commits; the noise band is
  ``max(mad_scale * MAD, rel_floor * |median|, abs_floor)`` around the
  baseline median (MAD = median absolute deviation, robust to the odd
  slow CI runner).  A candidate outside the band against its gating
  direction is a regression; a bit-identical rerun sits exactly on the
  median and always passes;

* :data:`BENCH_SUITES` are the suites ``repro-sim bench run`` executes
  with N repetitions, recording the per-metric median (the
  per-repetition MAD is reported alongside as the local noise floor).
  Their metrics' units and directions are declared in
  :data:`_SUITE_METRICS`.

Wall-clock reads here measure the *simulator*, never the simulation:
they land only in benchmark records, not in simulated state, which is
why the ``perf_counter`` calls carry REPRO001 waivers.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ConfigurationError, CorruptResultError
from .campaign import WriterFn, atomic_write_text, payload_checksum

#: Version of one serialized benchmark record (a JSONL line).
BENCH_SCHEMA = 1

#: Gating directions: ``higher`` / ``lower`` say which way is better
#: (and therefore which way a regression points); ``info`` metrics are
#: recorded for the trajectory but never gate.
DIRECTIONS = ("higher", "lower", "info")


# ----------------------------------------------------------------------
# The common record
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class BenchRecord:
    """One benchmark measurement: a point on one metric's trajectory."""

    suite: str
    metric: str
    value: float
    unit: str = ""
    direction: str = "info"
    commit: str = ""
    host: str = ""
    repetitions: int = 1

    def __post_init__(self):
        if not self.suite or not self.metric:
            raise ConfigurationError(
                f"benchmark record needs a suite and a metric: "
                f"suite={self.suite!r} metric={self.metric!r}"
            )
        if self.direction not in DIRECTIONS:
            raise ConfigurationError(
                f"bench direction must be one of {DIRECTIONS}: "
                f"{self.direction!r}"
            )
        if self.repetitions < 1:
            raise ConfigurationError(
                f"repetitions must be >= 1: {self.repetitions}"
            )

    @property
    def key(self) -> Tuple[str, str]:
        return (self.suite, self.metric)


def record_to_dict(record: BenchRecord) -> Dict:
    """Serialize one record as a sealed, schema-versioned document."""
    doc = {
        "schema": BENCH_SCHEMA,
        "suite": record.suite,
        "metric": record.metric,
        "value": float(record.value),
        "unit": record.unit,
        "direction": record.direction,
        "commit": record.commit,
        "host": record.host,
        "repetitions": record.repetitions,
        "checksum": "",
    }
    doc["checksum"] = payload_checksum(
        {k: v for k, v in doc.items() if k != "checksum"}
    )
    return doc


def record_from_dict(payload: Dict) -> BenchRecord:
    """Inverse of :func:`record_to_dict`, validating as it goes.

    Unknown keys a future schema may add are ignored (the checksum
    covers whatever was sealed at write time); a wrong schema marker,
    checksum mismatch or malformed field raises
    :exc:`~repro.errors.CorruptResultError`.
    """
    if not isinstance(payload, dict):
        raise CorruptResultError(
            f"benchmark record is {type(payload).__name__}, expected object"
        )
    if payload.get("schema") != BENCH_SCHEMA:
        raise CorruptResultError(
            f"benchmark record schema {payload.get('schema')!r} is not "
            f"the supported version {BENCH_SCHEMA}"
        )
    stored = payload.get("checksum")
    expected = payload_checksum(
        {k: v for k, v in payload.items() if k != "checksum"}
    )
    if stored != expected:
        raise CorruptResultError(
            f"benchmark record checksum mismatch (stored "
            f"{str(stored)[:12]}…, computed {expected[:12]}…)"
        )
    value = payload.get("value")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CorruptResultError(
            f"benchmark record value {value!r} is not a number"
        )
    repetitions = payload.get("repetitions", 1)
    if isinstance(repetitions, bool) or not isinstance(repetitions, int):
        raise CorruptResultError(
            f"benchmark record repetitions {repetitions!r} is not an integer"
        )
    try:
        return BenchRecord(
            suite=str(payload.get("suite", "")),
            metric=str(payload.get("metric", "")),
            value=float(value),
            unit=str(payload.get("unit", "")),
            direction=str(payload.get("direction", "info")),
            commit=str(payload.get("commit", "")),
            host=str(payload.get("host", "")),
            repetitions=repetitions,
        )
    except ConfigurationError as exc:
        raise CorruptResultError(f"benchmark record is malformed: {exc}") \
            from exc


def host_fingerprint() -> str:
    """A short, stable description of the measuring host.

    Built only from platform facts (OS, architecture, interpreter,
    core count) — comparable across runs of the same runner class, and
    an honest flag when two histories came from different hardware.
    """
    return "-".join((
        platform.system().lower() or "unknown",
        platform.machine() or "unknown",
        f"py{platform.python_version()}",
        f"c{os.cpu_count() or 1}",
    ))


def current_commit(cwd: Optional[Union[str, Path]] = None) -> str:
    """The current git commit (short), or ``""`` outside a checkout.

    ``REPRO_BENCH_COMMIT`` overrides the lookup — CI sets it to the
    workflow's SHA so records gate on what triggered the run, not on
    whatever the runner happens to have checked out.
    """
    override = os.environ.get("REPRO_BENCH_COMMIT", "")
    if override:
        return override
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=str(cwd) if cwd is not None else None,
        )
    except (OSError, subprocess.SubprocessError):
        return ""
    if proc.returncode != 0:
        return ""
    return proc.stdout.strip()


# ----------------------------------------------------------------------
# The append-only store
# ----------------------------------------------------------------------
class BenchHistory:
    """An append-only JSONL store of :class:`BenchRecord` documents.

    One record per line, in append order — the file *is* the
    trajectory.  Every mutation goes through the atomic writer (the
    whole file is staged and renamed), so a crash mid-append leaves the
    previous history intact; a torn or tampered line surfaces as
    :exc:`~repro.errors.CorruptResultError` naming the line, never as a
    silently shortened baseline.
    """

    def __init__(
        self,
        path: Union[str, Path],
        writer: Optional[WriterFn] = None,
    ) -> None:
        self.path = Path(path)
        self._writer: WriterFn = writer or atomic_write_text

    def load(self) -> List[BenchRecord]:
        """Every record, in append order; raises on corruption."""
        if not self.path.exists():
            return []
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError as exc:
            raise CorruptResultError(
                f"{self.path}: unreadable: {exc}", path=self.path
            ) from exc
        records = []
        for number, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorruptResultError(
                    f"{self.path.name}:{number}: malformed JSON: {exc}",
                    path=self.path,
                ) from exc
            try:
                records.append(record_from_dict(payload))
            except CorruptResultError as exc:
                raise CorruptResultError(
                    f"{self.path.name}:{number}: {exc}", path=self.path
                ) from exc
        return records

    def append(self, records: Sequence[BenchRecord]) -> int:
        """Append records atomically; returns how many were written.

        The existing file is validated first, so an append never buries
        corruption deeper into the history — it fails loudly instead.
        """
        records = list(records)
        if not records:
            return 0
        self.load()
        prefix = ""
        if self.path.exists():
            prefix = self.path.read_text(encoding="utf-8")
            if prefix and not prefix.endswith("\n"):
                prefix += "\n"
        lines = [
            json.dumps(record_to_dict(record), sort_keys=True,
                       separators=(",", ":"))
            for record in records
        ]
        self._writer(self.path, prefix + "\n".join(lines) + "\n")
        return len(lines)

    def series(self) -> Dict[Tuple[str, str], List[BenchRecord]]:
        """Records grouped per (suite, metric), each in append order."""
        grouped: Dict[Tuple[str, str], List[BenchRecord]] = {}
        for record in self.load():
            grouped.setdefault(record.key, []).append(record)
        return grouped


# ----------------------------------------------------------------------
# Noise-band math and the diff gate
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    """Plain median (mean of the middle pair on even counts)."""
    ordered = sorted(values)
    if not ordered:
        raise ConfigurationError("median of an empty sequence")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def mad(values: Sequence[float]) -> float:
    """Median absolute deviation — the robust spread estimator.

    Unlike a standard deviation, one CI runner having a bad day moves
    the MAD hardly at all; and for a baseline of identical reruns it is
    exactly zero, which the band floors below absorb.
    """
    center = median(values)
    return median([abs(v - center) for v in values])


@dataclasses.dataclass(frozen=True)
class DiffPolicy:
    """How wide the tolerated noise band is around the baseline median.

    ``tolerance = max(mad_scale * MAD, rel_floor * |median|,
    abs_floor)``.  The MAD term adapts to each metric's observed noise;
    the relative floor keeps a dead-quiet baseline (identical reruns,
    MAD = 0) from flagging sub-percent jitter; the absolute floor
    guards metrics whose median is zero.  Defaults flag a 10% move on a
    quiet metric (10% > rel_floor) while staying silent on reruns.
    """

    mad_scale: float = 4.0
    rel_floor: float = 0.05
    abs_floor: float = 1e-9
    #: Baselines smaller than this report ``new`` instead of gating.
    min_baseline: int = 1

    def __post_init__(self):
        if self.mad_scale <= 0 or self.rel_floor < 0 or self.abs_floor < 0:
            raise ConfigurationError(
                f"diff policy out of range: mad_scale={self.mad_scale}, "
                f"rel_floor={self.rel_floor}, abs_floor={self.abs_floor}"
            )
        if self.min_baseline < 1:
            raise ConfigurationError(
                f"min_baseline must be >= 1: {self.min_baseline}"
            )

    def tolerance(self, baseline: Sequence[float]) -> float:
        center = median(baseline)
        return max(
            self.mad_scale * mad(baseline),
            self.rel_floor * abs(center),
            self.abs_floor,
        )


@dataclasses.dataclass(frozen=True)
class MetricDelta:
    """One metric's verdict from :func:`diff_history`."""

    suite: str
    metric: str
    value: float
    unit: str
    direction: str
    status: str  # "ok" | "regression" | "improved" | "new" | "info"
    baseline_n: int = 0
    baseline_median: float = 0.0
    tolerance: float = 0.0

    def render(self) -> str:
        base = f"{self.suite}.{self.metric:<20} {self.value:>12.4g}"
        if self.unit:
            base += f" {self.unit}"
        if self.status in ("new", "info"):
            return f"  {self.status:<10} {base}"
        delta = self.value - self.baseline_median
        return (
            f"  {self.status:<10} {base}  vs median "
            f"{self.baseline_median:.4g} ± {self.tolerance:.4g} "
            f"({delta:+.4g}, n={self.baseline_n})"
        )


def diff_history(
    records: Sequence[BenchRecord],
    commit: str = "",
    policy: Optional[DiffPolicy] = None,
) -> List[MetricDelta]:
    """Gate the candidate commit's records against everyone else's.

    The candidate for each (suite, metric) is its *latest* record with
    the candidate commit (default: the commit of the last record in
    the history); the baseline is every record of the same metric from
    other commits.  ``info`` metrics and metrics with no baseline
    never gate — they report ``info`` / ``new``.  A metric with no
    candidate record (one of a retired suite, still in an old history)
    is not reported at all.
    """
    policy = policy or DiffPolicy()
    records = list(records)
    if not commit:
        if not records:
            return []
        commit = records[-1].commit
    grouped: Dict[Tuple[str, str], List[BenchRecord]] = {}
    for record in records:
        grouped.setdefault(record.key, []).append(record)
    deltas = []
    for key in sorted(grouped):
        candidates = [r for r in grouped[key] if r.commit == commit]
        if not candidates:
            continue
        candidate = candidates[-1]
        baseline = [
            r.value for r in grouped[key] if r.commit != commit
        ]
        if candidate.direction == "info":
            status, center, tolerance = "info", 0.0, 0.0
        elif len(baseline) < policy.min_baseline:
            status, center, tolerance = "new", 0.0, 0.0
        else:
            center = median(baseline)
            tolerance = policy.tolerance(baseline)
            worse = (
                candidate.value < center - tolerance
                if candidate.direction == "higher"
                else candidate.value > center + tolerance
            )
            better = (
                candidate.value > center + tolerance
                if candidate.direction == "higher"
                else candidate.value < center - tolerance
            )
            status = (
                "regression" if worse else "improved" if better else "ok"
            )
        deltas.append(MetricDelta(
            suite=candidate.suite, metric=candidate.metric,
            value=candidate.value, unit=candidate.unit,
            direction=candidate.direction, status=status,
            baseline_n=len(baseline), baseline_median=center,
            tolerance=tolerance,
        ))
    return deltas


#: Levels of the trend sparkline, lowest to highest.
_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 32) -> str:
    """Unicode trend line of a series, oldest to newest.

    Each value maps to one of eight block heights scaled between the
    series min and max; a flat series (every value equal, e.g. the
    bit-identical reruns the diff gate is built around) renders at the
    lowest level so any later movement is visible.  Only the newest
    ``width`` values are drawn — the tail is what a trend glance is
    for.
    """
    if width < 1:
        raise ConfigurationError(f"sparkline width must be >= 1: {width}")
    tail = [float(v) for v in values][-width:]
    if not tail:
        return ""
    lo, hi = min(tail), max(tail)
    if hi <= lo:
        return _SPARK_LEVELS[0] * len(tail)
    top = len(_SPARK_LEVELS) - 1
    return "".join(
        _SPARK_LEVELS[round((v - lo) / (hi - lo) * top)] for v in tail
    )


def render_diff(deltas: Sequence[MetricDelta], commit: str = "") -> str:
    """Terminal rendering of a diff, regressions first."""
    order = {"regression": 0, "improved": 1, "ok": 2, "new": 3, "info": 4}
    tallies: Dict[str, int] = {}
    for delta in deltas:
        tallies[delta.status] = tallies.get(delta.status, 0) + 1
    header = f"bench diff{f' @ {commit}' if commit else ''}: " + (
        ", ".join(
            f"{tallies[s]} {s}" for s in order if s in tallies
        ) or "no candidate records"
    )
    lines = [header]
    for delta in sorted(
        deltas, key=lambda d: (order[d.status], d.suite, d.metric)
    ):
        lines.append(delta.render())
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Local bench suites (`repro-sim bench run`)
# ----------------------------------------------------------------------
#: (unit, direction) of every metric the local suites emit.
_SUITE_METRICS: Dict[str, Dict[str, Tuple[str, str]]] = {
    "pass_route": {
        f"{grid}_{metric}": unit_direction
        for grid in ("lru", "random", "columnar")
        for metric, unit_direction in (
            ("s", ("s", "lower")), ("speedup", ("ratio", "higher")),
        )
    },
    "replay_kernel": {
        f"{prefix}{metric}": unit_direction
        for prefix in ("", "burst_")
        for metric, unit_direction in (
            ("scalar_s", ("s", "lower")),
            ("batch_s", ("s", "lower")),
            ("speedup", ("ratio", "higher")),
        )
    },
    "passcache_route": {
        "cold_s": ("s", "lower"),
        "warm_s": ("s", "lower"),
        "speedup": ("ratio", "higher"),
    },
    "telemetry": {
        "runs": ("count", "info"),
        "refs_per_sec_p10": ("refs/s", "higher"),
        "refs_per_sec_p50": ("refs/s", "higher"),
        "refs_per_sec_p90": ("refs/s", "higher"),
        "total_wall_s": ("s", "lower"),
    },
    "reprolint": {
        "lint_wall_s": ("s", "lower"),
        "files": ("count", "info"),
        "graph_modules": ("count", "info"),
        "graph_functions": ("count", "info"),
        "graph_call_edges": ("count", "info"),
    },
}


def _bench_pass_route(length: int, seed: int) -> Dict[str, float]:
    """Cold functional passes: the sweep route against the reference.

    Each grid runs from an unpaired trace: once as a
    :func:`~repro.sim.fastpath.functional_pass` loop (the Cache-object
    oracle) and three times as one
    :func:`~repro.core.sweep.run_functional_passes` call, whose best
    time is ``{grid}_s``: the route takes tens of milliseconds, so one
    scheduler preemption in a single timing could fail its bound,
    while the reference loop runs for seconds.  The grids are 16 LRU
    organizations (size x block x assoc), the 8 RANDOM (size x assoc)
    organizations of the paper's set-associativity figures, and 8
    direct-mapped (size x block) organizations, whose residual loop is
    empty.  Each bound fails the
    per-reference loop the filtered pass replaced, which read 8-9x,
    5-6x and about 5.7x on the three grids at 60k references on a
    2-core VM; the filtered pass read 21-32x, 13-18x and 25-40x.
    Raises unless every stream is bit-identical to its reference, the
    route takes one pass per organization, and each grid's speedup
    meets its bound.
    """
    from ..core.policy import ReplacementKind
    from ..core.sweep import run_functional_passes
    from ..cpu.processor import pair_couplets
    from ..trace.suite import build_trace
    from ..units import KB
    from .config import baseline_config
    from .fastpath import functional_pass
    from .passcache import stream_to_dict
    from .telemetry import MetricsRegistry

    lru, rand = ReplacementKind.LRU, ReplacementKind.RANDOM
    grids = (
        ("lru", 12.0, [
            baseline_config(cache_size_bytes=size * KB, block_words=block,
                            assoc=assoc, replacement=lru)
            for size in (4, 8, 16, 32)
            for block in (4, 8)
            for assoc in (1, 2)
        ]),
        ("random", 8.0, [
            baseline_config(cache_size_bytes=size * KB, assoc=assoc,
                            replacement=rand)
            for size in (4, 8, 16, 32)
            for assoc in (2, 4)
        ]),
        ("columnar", 6.0, [
            baseline_config(cache_size_bytes=size * KB, block_words=block,
                            assoc=1, replacement=rand)
            for size in (4, 8, 16, 32)
            for block in (4, 8)
        ]),
    )
    trace = build_trace("mu3", length=length, seed=seed)
    metrics: Dict[str, float] = {}
    for name, bound, configs in grids:
        t0 = time.perf_counter()  # reprolint: disable=REPRO001
        couplets = pair_couplets(trace)
        reference = [
            functional_pass(config, trace, couplets=couplets, seed=seed)
            for config in configs
        ]
        reference_s = time.perf_counter() - t0  # reprolint: disable=REPRO001
        timings = []
        for _ in range(3):
            registry = MetricsRegistry()
            t0 = time.perf_counter()  # reprolint: disable=REPRO001
            streams = run_functional_passes(
                [(config, trace, seed) for config in configs],
                registry=registry,
            )
            timings.append(
                time.perf_counter() - t0  # reprolint: disable=REPRO001
            )
        route_s = min(timings)
        passes = registry.counters.get("stackpass.passes", 0)
        if passes != len(configs) or any(
            stream_to_dict(ref) != stream_to_dict(stream)
            for ref, stream in zip(reference, streams)
        ):
            raise CorruptResultError(
                f"pass_route bench: {name} grid took {passes} pass(es) "
                f"for {len(configs)} organizations or diverged from the "
                f"reference pass"
            )
        speedup = reference_s / route_s if route_s > 0 else 0.0
        if speedup < bound:
            raise CorruptResultError(
                f"pass_route bench: {name} grid speedup {speedup:.2f}x "
                f"is under its {bound:g}x bound"
            )
        metrics[f"{name}_s"] = route_s
        metrics[f"{name}_speedup"] = speedup
    return metrics


def _bench_replay_kernel(length: int, seed: int) -> Dict[str, float]:
    """Scalar ``replay()`` against batch grid pricing over two streams.

    The mu3 stream (``length`` references, 16 KB) is priced at five
    clocks and the configured buffer depth.  The ``burst_`` metrics
    price rd1n5's start-up store sweep, a run of about 1 850 write
    misses in its first 4 000 references (whatever ``length`` is), at
    the same clocks and depths 1 to 12, where the buffer saturates and
    the kernel's write-miss burst form does most of the work; 6x is
    about a third of its speedup on a 2-core x86_64 VM (18x, against
    3x without the burst form).  Raises unless every batch outcome
    equals its scalar one and the burst speedup meets its bound.
    """
    from ..core.sweep import run_functional_passes
    from ..trace.suite import build_trace
    from ..units import KB
    from .config import baseline_config
    from .fastpath import replay
    from .replaykernel import BatchReplayKernel, TimingPoint

    config = baseline_config(cache_size_bytes=16 * KB)
    clocks = (20.0, 30.0, 40.0, 56.0, 80.0)
    cases = (
        ("", build_trace("mu3", length=length, seed=seed),
         (config.l1.write_buffer_depth,), None),
        ("burst_", build_trace("rd1n5", length=4000, seed=seed),
         (1, 2, 4, 8, 12), 6.0),
    )
    metrics: Dict[str, float] = {}
    for prefix, trace, depths, bound in cases:
        stream = run_functional_passes([(config, trace, seed)])[0]
        points = [
            TimingPoint(
                memory=config.memory, cycle_ns=cycle_ns,
                write_buffer_depth=depth,
            )
            for cycle_ns in clocks for depth in depths
        ]
        t0 = time.perf_counter()  # reprolint: disable=REPRO001
        scalar = [
            replay(
                stream, point.memory, point.cycle_ns,
                write_buffer_depth=point.write_buffer_depth,
            )
            for point in points
        ]
        scalar_s = time.perf_counter() - t0  # reprolint: disable=REPRO001
        t0 = time.perf_counter()  # reprolint: disable=REPRO001
        batch = BatchReplayKernel(stream).replay_grid(points)
        batch_s = time.perf_counter() - t0  # reprolint: disable=REPRO001
        if scalar != batch:
            raise CorruptResultError(
                f"replay_kernel bench: scalar and batch pricing of "
                f"{trace.name} diverged"
            )
        speedup = scalar_s / batch_s if batch_s > 0 else 0.0
        if bound is not None and speedup < bound:
            raise CorruptResultError(
                f"replay_kernel bench: {trace.name} {prefix}speedup "
                f"{speedup:.2f}x is under its {bound:g}x bound"
            )
        metrics[f"{prefix}scalar_s"] = scalar_s
        metrics[f"{prefix}batch_s"] = batch_s
        metrics[f"{prefix}speedup"] = speedup
    return metrics


def _bench_passcache_route(length: int, seed: int) -> Dict[str, float]:
    """Cold-then-warm sweep passes against a throwaway pass cache.

    Both sides are one :func:`~repro.core.sweep.run_functional_passes`
    call with ``cache=`` over the 8 organizations of a 2-trace x 4-size
    grid.  Raises unless the cold side persists every pass, the warm
    side hits on every one of them (misses == 0, hits == puts), and the
    warm streams are bit-identical to the cold ones.
    """
    import shutil
    import tempfile

    from ..core.sweep import run_functional_passes
    from ..trace.suite import build_trace
    from ..units import KB
    from .config import baseline_config
    from .passcache import PassCache, stream_to_dict

    jobs = [
        (baseline_config(cache_size_bytes=size * KB), trace, seed)
        for trace in (
            build_trace(name, length=length, seed=seed)
            for name in ("mu3", "rd2n4")
        )
        for size in (2, 4, 8, 16)
    ]
    directory = tempfile.mkdtemp(prefix="repro-bench-cache-")
    try:
        cold_cache = PassCache(directory)
        t0 = time.perf_counter()  # reprolint: disable=REPRO001
        cold = run_functional_passes(jobs, cache=cold_cache)
        cold_s = time.perf_counter() - t0  # reprolint: disable=REPRO001
        warm_cache = PassCache(directory)
        t0 = time.perf_counter()  # reprolint: disable=REPRO001
        warm = run_functional_passes(jobs, cache=warm_cache)
        warm_s = time.perf_counter() - t0  # reprolint: disable=REPRO001
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    if (
        cold_cache.counters.puts != len(jobs)
        or warm_cache.counters.misses
        or warm_cache.counters.hits != cold_cache.counters.puts
    ):
        raise CorruptResultError(
            f"passcache_route bench: {len(jobs)} passes, cold "
            f"{cold_cache.counters}, warm {warm_cache.counters}"
        )
    if any(
        stream_to_dict(a) != stream_to_dict(b) for a, b in zip(cold, warm)
    ):
        raise CorruptResultError(
            "passcache_route bench: warm streams differ from cold ones"
        )
    return {
        "cold_s": cold_s,
        "warm_s": warm_s,
        "speedup": cold_s / warm_s if warm_s > 0 else 0.0,
    }


def _bench_telemetry(length: int, seed: int) -> Dict[str, float]:
    """A metered campaign sweep: per-run throughput and conservation.

    A :class:`~repro.sim.resilience.CampaignExecutor` with
    ``collect_metrics=True`` and 2 jobs runs mu3 and rd2n4 at 4 and
    16 KB and 20 and 40 ns into a throwaway campaign directory.  Raises
    unless every run completes and the sweep summary shows every
    RunReport's cycle buckets adding up to its cycle count.
    """
    import tempfile

    from ..trace.suite import build_suite
    from ..units import KB
    from .campaign import Campaign
    from .config import baseline_config
    from .resilience import CampaignExecutor, sweep_jobs

    traces = build_suite(length=length, seed=seed, names=["mu3", "rd2n4"])
    configs = [
        baseline_config(cache_size_bytes=size * KB, cycle_ns=cycle_ns)
        for size in (4, 16)
        for cycle_ns in (20.0, 40.0)
    ]
    jobs = sweep_jobs(configs, list(traces.values()), seed=seed)
    with tempfile.TemporaryDirectory(prefix="repro-bench-campaign-") as tmp:
        campaign = Campaign(tmp)
        report = CampaignExecutor(
            campaign, jobs=2, collect_metrics=True
        ).run_sweep(jobs)
        summary = (
            json.loads(campaign.summary_path.read_text(encoding="utf-8"))
            if campaign.summary_path.is_file() else {}
        )
    if not report.all_ok or summary.get("runs") != len(jobs):
        raise CorruptResultError(
            f"telemetry bench: {report.render()}; "
            f"{summary.get('runs', 0)} RunReport(s) summarized"
        )
    if not summary["all_conserved"]:
        raise CorruptResultError(
            f"telemetry bench: cycle conservation violated by "
            f"{', '.join(summary['violations'])}"
        )
    return {
        name: float(summary[name])
        for name in _SUITE_METRICS["telemetry"]
    }


def _bench_reprolint(length: int, seed: int) -> Dict[str, float]:
    """One timed lint of the package's own source tree.

    Lints the ``src/`` directory holding this package with the baseline
    and configuration ``repro-sim lint src/`` applies, and raises with
    the rendered violations unless the lint is clean.  Each timed lint
    starts without a memoized project graph, as a ``repro-sim lint``
    process does, so every repetition builds it.  Records the graph's
    shape beside the time; the graph the lint built is memoized, so
    reading its counts does not rebuild it.  ``length`` and ``seed`` do
    not apply.
    """
    from ..lint import lint_paths
    from ..lint.projectgraph import clear_graph_memo

    src = Path(__file__).resolve().parents[2]
    root = src.parent
    if not (root / "pyproject.toml").is_file():
        raise ConfigurationError(
            f"reprolint bench: {src} is not a source checkout (no "
            f"pyproject.toml beside it)"
        )
    clear_graph_memo()
    t0 = time.perf_counter()  # reprolint: disable=REPRO001
    result = lint_paths([src], root=root)
    lint_wall_s = time.perf_counter() - t0  # reprolint: disable=REPRO001
    if not result.clean:
        raise CorruptResultError(f"reprolint bench:\n{result.render()}")
    graph = result.graph_stats()
    return {
        "lint_wall_s": lint_wall_s,
        "files": result.files_checked,
        "graph_modules": graph.modules,
        "graph_functions": graph.functions,
        "graph_call_edges": graph.call_edges,
    }


#: The local suites, by name.  Each runner returns ``{metric: value}``
#: matching its :data:`_SUITE_METRICS` declaration.
BENCH_SUITES: Dict[str, Callable[[int, int], Dict[str, float]]] = {
    "pass_route": _bench_pass_route,
    "replay_kernel": _bench_replay_kernel,
    "passcache_route": _bench_passcache_route,
    "telemetry": _bench_telemetry,
    "reprolint": _bench_reprolint,
}


def run_bench_suites(
    names: Sequence[str],
    repeat: int = 3,
    length: int = 20_000,
    seed: int = 0,
    commit: str = "",
    host: str = "",
) -> Tuple[List[BenchRecord], Dict[Tuple[str, str], float]]:
    """Run local suites ``repeat`` times; median each metric.

    Returns ``(records, noise)``: one record per (suite, metric) whose
    value is the median over the repetitions, and the per-metric MAD of
    those same repetitions — the local noise floor, worth printing next
    to the medians so a wide band is visible at record time.
    """
    if repeat < 1:
        raise ConfigurationError(f"repeat must be >= 1: {repeat}")
    unknown = [n for n in names if n not in BENCH_SUITES]
    if unknown:
        raise ConfigurationError(
            f"unknown bench suite(s) {', '.join(unknown)}; available: "
            f"{', '.join(sorted(BENCH_SUITES))}"
        )
    samples: Dict[Tuple[str, str], List[float]] = {}
    for _ in range(repeat):
        for name in names:
            for metric, value in BENCH_SUITES[name](length, seed).items():
                samples.setdefault((name, metric), []).append(value)
    records = []
    noise = {}
    for (suite, metric), values in samples.items():
        unit, direction = _SUITE_METRICS[suite][metric]
        records.append(BenchRecord(
            suite=suite, metric=metric, value=median(values), unit=unit,
            direction=direction, commit=commit, host=host,
            repetitions=repeat,
        ))
        noise[(suite, metric)] = mad(values)
    return records, noise
