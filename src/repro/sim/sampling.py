"""Trace-interval sampling with stratified error bounds.

The filtered per-organization pass (:mod:`repro.sim.stackpass`) made each
functional pass cheap; what remains is trace *length* — every pass
still visits every reference.  This module removes that wall for long
traces the way SimPoint-style interval selection does for CPU
simulation: simulate a few *representative* intervals and recombine
their results into a whole-trace estimate with an explicit error bar.

The pipeline, all seeded and deterministic:

1. **Segmentation** — the measured region (past the trace's warm
   boundary) splits into fixed-size windows of ``interval_refs``
   references; a short final window is kept and weighted by its length.

2. **Features** — one vectorized streaming pass computes, per interval:
   the reference mix (ifetch/load/store fractions), the distinct-block
   and never-seen-before block fractions (working-set size and delta),
   and a log2-bucketed reuse-distance histogram at a fixed 4-word block
   granularity.  Feature extraction is organization-independent, so one
   pass serves every swept configuration.

3. **Clustering** — seeded k-means (k-means++ initialization driven by
   ``random.Random(plan.seed)``) over z-normalized feature vectors.
   Identical intervals collapse: ``k`` is clamped to the number of
   *distinct* feature points, so a perfectly uniform trace degenerates
   to one cluster.  Each cluster's representative is the member nearest
   its centroid (earliest interval on ties).

4. **Warm-up** — each representative interval becomes a standalone
   trace: the R2000-style warm prefix
   (:func:`repro.trace.multiprogram.with_warm_prefix`) built from the
   ``warm_refs`` references preceding the interval primes cache state,
   and the interval body is the measured region.  Interval traces have
   their own content fingerprints, so they flow through the
   :mod:`~repro.sim.passcache` and the per-organization pass unchanged.
   Every functional pass here, representative or exact, is made by
   :func:`repro.core.sweep.run_functional_passes`, the route exact
   sweeps take.

5. **Estimation** — a stratified estimator recombines representative
   results.  Denominators (reads, writes, references per cluster) are
   *exact*, counted from the trace; only the per-event rates come from
   the representatives.  The combined read-miss-ratio estimate is
   ``m̂ = Σ_c W_c·m_c`` with ``W_c = R_c / R`` (cluster read share) and
   its confidence half-width is the stratified binomial bound
   ``z·sqrt(Σ_c W_c²·m_c(1−m_c)·(1−r_c/R_c)/r_c)`` where ``r_c`` is the
   representative's read count (the finite-population factor makes a
   fully-sampled cluster contribute zero variance).  Cycle counts and
   memory traffic scale by exact per-cluster reference counts.  An
   estimate whose half-width exceeds ``plan.ci_bound`` is *refused*
   (:exc:`~repro.errors.SamplingError`) — sampling never silently
   returns a number with an error bar wider than the caller tolerates.

Validation mode (``plan.validate``) periodically runs the exact
fastpath alongside the estimate and records the true absolute error.
Every step counts into the :class:`~repro.sim.telemetry.MetricsRegistry`
its caller passes as ``registry=``, under ``sampling.*``: selections,
intervals, clusters, representatives, reference totals, estimates,
refusals and validations, with the worst true error as the gauge
``sampling.true_error_max``.  Sampling is strictly opt-in: nothing in
the exact pipeline changes unless a plan is passed.
"""

from __future__ import annotations

import dataclasses
import math
import random
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError, SamplingError
from ..trace.multiprogram import warm_prefix
from ..trace.record import RefKind, Trace
from .fastpath import (
    EventStream,
    ReplayOutcome,
    check_fastpath_supported,
    replay,
)
from .statistics import BufferCounters, CacheCounters, SimStats

if TYPE_CHECKING:  # pragma: no cover — import cycle guard only
    from .config import SystemConfig
    from .passcache import PassCache
    from .telemetry import MetricsRegistry

#: Reuse-distance histogram buckets (log2-spaced; the last absorbs the
#: tail) and the fixed feature-extraction block granularity in words.
_RD_BUCKETS = 16
_BLOCK_SHIFT = 2  # 4-word blocks

#: k-means iteration cap; assignments almost always stabilize earlier.
_KMEANS_ITERS = 32


@dataclasses.dataclass(frozen=True)
class SamplingPlan:
    """How to segment, cluster and bound one sampled estimate."""

    interval_refs: int = 20_000
    n_clusters: int = 6
    #: Warm-up window preceding each representative interval, in
    #: references; ``-1`` means "one interval" (``interval_refs``).
    warm_refs: int = -1
    seed: int = 0
    #: Maximum tolerated confidence half-width on the read miss ratio;
    #: estimates beyond it are refused with :exc:`SamplingError`.
    ci_bound: float = 0.02
    confidence_z: float = 1.96
    validate: bool = False
    #: In batch contexts, every ``validate_period``-th job also runs the
    #: exact functional pass to measure true error.
    validate_period: int = 4

    def __post_init__(self):
        if self.interval_refs < 1:
            raise SamplingError(
                f"interval_refs must be >= 1: {self.interval_refs}"
            )
        if self.n_clusters < 1:
            raise SamplingError(
                f"n_clusters must be >= 1: {self.n_clusters}"
            )
        if self.ci_bound <= 0 or self.confidence_z <= 0:
            raise SamplingError(
                f"ci_bound and confidence_z must be positive: "
                f"{self.ci_bound}, {self.confidence_z}"
            )
        if self.validate_period < 1:
            raise SamplingError(
                f"validate_period must be >= 1: {self.validate_period}"
            )

    @property
    def warm_window(self) -> int:
        return self.interval_refs if self.warm_refs < 0 else self.warm_refs

    @classmethod
    def parse(cls, spec: str) -> "SamplingPlan":
        """Build a plan from a ``key=value,...`` spec string.

        Recognized keys: ``interval``, ``k`` (or ``clusters``),
        ``warm``, ``seed``, ``ci``, ``z``, ``period``.  The spec
        ``""``, ``"default"``, ``"1"`` or ``"on"`` selects the
        defaults.
        """
        spec = (spec or "").strip()
        if spec.lower() in ("", "default", "1", "on", "true"):
            return cls()
        kwargs: Dict[str, object] = {}
        keys = {
            "interval": ("interval_refs", int),
            "k": ("n_clusters", int),
            "clusters": ("n_clusters", int),
            "warm": ("warm_refs", int),
            "seed": ("seed", int),
            "ci": ("ci_bound", float),
            "z": ("confidence_z", float),
            "period": ("validate_period", int),
        }
        for token in spec.split(","):
            token = token.strip()
            if not token:
                continue
            if "=" not in token:
                raise SamplingError(
                    f"bad sampling spec token {token!r}; expected key=value"
                )
            key, _, raw = token.partition("=")
            entry = keys.get(key.strip().lower())
            if entry is None:
                raise SamplingError(
                    f"unknown sampling spec key {key.strip()!r}; known: "
                    f"{', '.join(sorted(keys))}"
                )
            field_name, cast = entry
            try:
                kwargs[field_name] = cast(raw.strip())
            except ValueError as exc:
                raise SamplingError(
                    f"bad sampling spec value {raw.strip()!r} for "
                    f"{key.strip()}: {exc}"
                ) from exc
        return cls(**kwargs)  # type: ignore[arg-type]

    def describe(self) -> str:
        return (
            f"interval={self.interval_refs} k={self.n_clusters} "
            f"warm={self.warm_window} seed={self.seed} "
            f"ci={self.ci_bound:g}"
        )


@dataclasses.dataclass
class ClusterInfo:
    """One stratum: member intervals, exact denominators, representative."""

    members: List[int]
    rep: int            #: representative interval index
    rep_refs: int       #: measured references in the representative
    refs: int           #: exact references across all members
    ifetches: int
    loads: int
    stores: int

    @property
    def reads(self) -> int:
        return self.ifetches + self.loads


@dataclasses.dataclass
class SampledSelection:
    """Deterministic interval selection for one (trace, plan) pair."""

    trace_name: str
    trace_fingerprint: str
    plan: SamplingPlan
    n_refs_full: int        #: full trace length (what an exact walk costs)
    measured_refs: int
    intervals: List[Tuple[int, int]]   #: absolute (start, stop) windows
    assignment: List[int]              #: interval index -> cluster index
    clusters: List[ClusterInfo]
    rep_traces: List[Trace]            #: warm-prefixed interval traces

    @property
    def n_intervals(self) -> int:
        return len(self.intervals)

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    @property
    def refs_sampled(self) -> int:
        """References simulated per configuration, warm prefixes included."""
        return sum(len(t) for t in self.rep_traces)

    @property
    def reads_total(self) -> int:
        return sum(c.reads for c in self.clusters)


@dataclasses.dataclass
class SampledPassGroup:
    """A sampled job's functional result: selection + one stream per
    cluster representative (what ``run_functional_passes(sampling=...)``
    returns in place of a single :class:`EventStream`)."""

    selection: SampledSelection
    streams: List[EventStream]


@dataclasses.dataclass
class SampledEstimate:
    """A whole-trace estimate with its confidence interval."""

    stats: SimStats
    read_miss_ratio: float
    ci_half_width: float
    ci_bound: float
    confidence_z: float
    n_intervals: int
    n_clusters: int
    refs_full: int
    refs_sampled: int
    trace_fingerprint: str
    plan_spec: str
    true_read_miss_ratio: Optional[float] = None
    true_cycles: Optional[int] = None

    @property
    def refs_reduction(self) -> float:
        """Exact-walk references per sampled reference (the speed lever)."""
        if not self.refs_sampled:
            return 0.0
        return self.refs_full / self.refs_sampled

    @property
    def abs_error(self) -> Optional[float]:
        """|true − estimated| read miss ratio, when validation ran."""
        if self.true_read_miss_ratio is None:
            return None
        return abs(self.true_read_miss_ratio - self.read_miss_ratio)


# ----------------------------------------------------------------------
# Segmentation and features
# ----------------------------------------------------------------------
def _interval_bounds(trace: Trace, plan: SamplingPlan) -> List[Tuple[int, int]]:
    """Fixed-size windows over the measured region, short tail kept."""
    warm = trace.warm_boundary
    n = len(trace)
    if warm >= n:
        raise SamplingError(
            f"trace {trace.name!r} has no measured region to sample "
            f"(warm boundary {warm} of {n} references)"
        )
    step = plan.interval_refs
    return [
        (start, min(start + step, n)) for start in range(warm, n, step)
    ]


def _interval_features(
    trace: Trace, bounds: Sequence[Tuple[int, int]]
) -> Tuple[np.ndarray, np.ndarray]:
    """One streaming pass: per-interval feature matrix and ref-mix counts.

    Returns ``(features, mix)`` where ``features`` is
    ``(n_intervals, 5 + _RD_BUCKETS)`` — reference-mix fractions,
    distinct-block fraction, new-block fraction, reuse-distance
    histogram fractions — and ``mix`` is the exact
    ``(n_intervals, 3)`` ifetch/load/store counts the estimator's
    denominators come from.
    """
    n = len(trace)
    warm = trace.warm_boundary
    step = bounds[0][1] - bounds[0][0] if len(bounds) == 1 else (
        bounds[1][0] - bounds[0][0]
    )
    n_iv = len(bounds)
    lengths = np.array([stop - start for start, stop in bounds], dtype=np.int64)
    # Previous-occurrence index of each reference's (pid, block), over
    # the whole trace so warm-region history counts as "seen".
    combined = (trace.pids.astype(np.int64) << 40) | (
        trace.addrs >> _BLOCK_SHIFT
    )
    order = np.argsort(combined, kind="stable")
    svals = combined[order]
    prev = np.full(n, -1, dtype=np.int64)
    if n > 1:
        same = svals[1:] == svals[:-1]
        prev[order[1:][same]] = order[:-1][same]
    iv_index = np.repeat(np.arange(n_iv, dtype=np.int64), lengths)
    kinds_m = trace.kinds[warm:].astype(np.int64)
    prev_m = prev[warm:]
    pos_m = np.arange(warm, n, dtype=np.int64)
    mix = np.bincount(
        iv_index * 3 + kinds_m, minlength=n_iv * 3
    ).reshape(n_iv, 3)
    seen = prev_m >= 0
    dist = pos_m[seen] - prev_m[seen]
    bucket = np.minimum(
        np.floor(np.log2(dist)).astype(np.int64), _RD_BUCKETS - 1
    )
    rd = np.bincount(
        iv_index[seen] * _RD_BUCKETS + bucket, minlength=n_iv * _RD_BUCKETS
    ).reshape(n_iv, _RD_BUCKETS)
    new = np.bincount(iv_index[~seen], minlength=n_iv)
    # First touch of a block *within its interval*: previous occurrence
    # (if any) lies before the interval's start.
    iv_start = warm + iv_index * step
    first_here = prev_m < iv_start
    distinct = np.bincount(iv_index[first_here], minlength=n_iv)
    denom = lengths.astype(np.float64)
    features = np.column_stack([
        mix / denom[:, None],
        distinct / denom,
        new / denom,
        rd / denom[:, None],
    ])
    return features, mix


def _kmeans(
    points: np.ndarray, k: int, seed: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Seeded k-means; returns ``(assignment, centers)``.

    ``k`` clamps to the number of *distinct* points, so a degenerate
    input (every interval identical) collapses to a single cluster.
    Initialization is k-means++ driven by ``random.Random(seed)``; all
    arithmetic is deterministic for fixed inputs.
    """
    n = len(points)
    distinct = np.unique(points, axis=0)
    k = min(k, len(distinct))
    if k <= 1:
        return np.zeros(n, dtype=np.int64), points.mean(
            axis=0, keepdims=True
        )
    rng = random.Random(seed)
    centers = [distinct[rng.randrange(len(distinct))]]
    while len(centers) < k:
        d2 = np.min(
            ((distinct[:, None, :] - np.asarray(centers)[None, :, :]) ** 2)
            .sum(axis=2),
            axis=1,
        )
        total = float(d2.sum())
        if total <= 0.0:  # pragma: no cover — distinct points exclude this
            break
        pick = int(np.searchsorted(np.cumsum(d2), rng.random() * total))
        centers.append(distinct[min(pick, len(distinct) - 1)])
    centers_arr = np.asarray(centers, dtype=np.float64)
    assign = np.zeros(n, dtype=np.int64)
    for _ in range(_KMEANS_ITERS):
        d2 = ((points[:, None, :] - centers_arr[None, :, :]) ** 2).sum(axis=2)
        assign = d2.argmin(axis=1)
        updated = centers_arr.copy()
        for c in range(len(centers_arr)):
            members = points[assign == c]
            if len(members):
                updated[c] = members.mean(axis=0)
        if np.array_equal(updated, centers_arr):
            break
        centers_arr = updated
    return assign, centers_arr


def select_intervals(
    trace: Trace,
    plan: SamplingPlan,
    registry: Optional["MetricsRegistry"] = None,
) -> SampledSelection:
    """Segment, featurize and cluster one trace; memoized by content.

    The selection depends only on the trace contents and the plan —
    never on the cache configuration — so one selection serves every
    organization in a sweep.  Each use counts into ``registry`` (built
    or memoized alike): one selection, its intervals, clusters and
    representatives, and the references an exact walk would touch
    against those its representatives simulate.
    """
    key = (trace.content_fingerprint(), plan.interval_refs,
           plan.n_clusters, plan.warm_window, plan.seed)
    selection = _SELECTION_CACHE.get(key)
    if selection is None:
        selection = _build_selection(trace, plan)
        _SELECTION_CACHE[key] = selection
    if registry is not None:
        registry.count_many("sampling", {
            "selections": 1,
            "intervals": selection.n_intervals,
            "clusters": selection.n_clusters,
            "representatives": len(selection.rep_traces),
            "refs_full": selection.n_refs_full,
            "refs_sampled": selection.refs_sampled,
        })
    return selection


_SELECTION_CACHE: Dict[Tuple, SampledSelection] = {}


def clear_selection_cache() -> None:
    """Drop memoized selections (tests use this to bound memory)."""
    _SELECTION_CACHE.clear()


def _build_selection(trace: Trace, plan: SamplingPlan) -> SampledSelection:
    bounds = _interval_bounds(trace, plan)
    features, mix = _interval_features(trace, bounds)
    # z-normalize columns so the mix fractions and the histogram tail
    # weigh comparably; constant columns stay put.
    mean = features.mean(axis=0)
    std = features.std(axis=0)
    std[std == 0.0] = 1.0
    normalized = (features - mean) / std
    assign, centers = _kmeans(normalized, plan.n_clusters, plan.seed)
    clusters: List[ClusterInfo] = []
    rep_traces: List[Trace] = []
    compact: List[int] = [-1] * len(centers)
    # Clusters ordered by representative interval for stable output.
    reps: List[Tuple[int, int]] = []
    for c in range(len(centers)):
        members = np.flatnonzero(assign == c)
        if not len(members):
            continue
        d2 = ((normalized[members] - centers[c]) ** 2).sum(axis=1)
        reps.append((int(members[d2.argmin()]), c))
    reps.sort()
    assignment = [0] * len(bounds)
    for new_index, (rep, c) in enumerate(reps):
        compact[c] = new_index
        members = [int(m) for m in np.flatnonzero(assign == c)]
        for m in members:
            assignment[m] = new_index
        start, stop = bounds[rep]
        clusters.append(ClusterInfo(
            members=members,
            rep=rep,
            rep_refs=stop - start,
            refs=int(sum(bounds[m][1] - bounds[m][0] for m in members)),
            ifetches=int(mix[members, 0].sum()),
            loads=int(mix[members, 1].sum()),
            stores=int(mix[members, 2].sum()),
        ))
        rep_traces.append(_interval_trace(trace, start, stop, plan))
    return SampledSelection(
        trace_name=trace.name,
        trace_fingerprint=trace.content_fingerprint(),
        plan=plan,
        n_refs_full=len(trace),
        measured_refs=len(trace) - trace.warm_boundary,
        intervals=bounds,
        assignment=assignment,
        clusters=clusters,
        rep_traces=rep_traces,
    )


def _interval_trace(
    trace: Trace, start: int, stop: int, plan: SamplingPlan
) -> Trace:
    """One representative interval as a standalone warm-prefixed trace."""
    name = f"{trace.name}@{start}"
    body = trace.slice(start, stop, name=name).with_warm_boundary(0)
    h_start = max(0, start - plan.warm_window)
    if h_start >= start:
        return body
    prefix = warm_prefix(trace.slice(h_start, start))
    kinds, addrs, pids = prefix.kinds, prefix.addrs, prefix.pids
    ifetch = int(RefKind.IFETCH)
    if int(kinds[-1]) == ifetch and int(body.kinds[0]) != ifetch:
        # Couplet pairing would merge the prefix's trailing ifetch with
        # the body's leading data reference, pulling that couplet — and
        # its measured references — into the warm region.  Re-touching
        # the prefix's most recent data block keeps the warm boundary
        # on a couplet boundary without warming any new block.
        data = np.flatnonzero(kinds != ifetch)
        j = int(data[-1]) if len(data) else len(kinds) - 1
        kinds = np.append(kinds, np.uint8(int(RefKind.LOAD)))
        addrs = np.append(addrs, addrs[j])
        pids = np.append(pids, pids[j])
    return Trace(
        np.concatenate([kinds, body.kinds]),
        np.concatenate([addrs, body.addrs]),
        np.concatenate([pids, body.pids]),
        name=name,
        warm_boundary=len(kinds),
    )


# ----------------------------------------------------------------------
# The stratified estimator
# ----------------------------------------------------------------------
def _cluster_scales(
    cluster: ClusterInfo, stream: EventStream
) -> Tuple[float, float, float, float]:
    """(ifetch, load, store, refs) scale factors for one stratum.

    Each scales the representative's event counts up to the cluster's
    exact denominator; an empty representative side falls back to the
    reference-count scale so a sparse interval cannot zero a stratum.
    """
    refs_scale = (
        cluster.refs / stream.n_refs_measured
        if stream.n_refs_measured else 0.0
    )
    i_scale = (
        cluster.ifetches / stream.icache.reads
        if stream.icache.reads else refs_scale
    )
    d_scale = (
        cluster.loads / stream.dcache.reads
        if stream.dcache.reads else refs_scale
    )
    w_scale = (
        cluster.stores / stream.dcache.writes
        if stream.dcache.writes else refs_scale
    )
    return i_scale, d_scale, w_scale, refs_scale


def estimate_miss_ratio(
    selection: SampledSelection, streams: Sequence[EventStream]
) -> float:
    """The stratified read-miss-ratio estimate from streams alone."""
    reads = selection.reads_total
    if not reads:
        return 0.0
    misses = 0.0
    for cluster, stream in zip(selection.clusters, streams):
        i_scale, d_scale, _w, _r = _cluster_scales(cluster, stream)
        misses += stream.icache.read_misses * i_scale
        misses += stream.dcache.read_misses * d_scale
    return misses / reads


def _ci_half_width(
    selection: SampledSelection,
    streams: Sequence[EventStream],
    z: float,
) -> float:
    """Stratified binomial confidence half-width on the read miss ratio."""
    reads = selection.reads_total
    if not reads:
        return 0.0
    variance = 0.0
    for cluster, stream in zip(selection.clusters, streams):
        r = stream.icache.reads + stream.dcache.reads
        if not r or not cluster.reads:
            continue
        m = (stream.icache.read_misses + stream.dcache.read_misses) / r
        weight = cluster.reads / reads
        fpc = max(0.0, 1.0 - r / cluster.reads)
        variance += weight * weight * m * (1.0 - m) * fpc / r
    return z * math.sqrt(variance)


def estimate_cycles(
    selection: SampledSelection, outcomes: Sequence[ReplayOutcome]
) -> float:
    """Estimated measured cycle count at one timing point."""
    return sum(
        outcome.cycles * (cluster.refs / cluster.rep_refs)
        for cluster, outcome in zip(selection.clusters, outcomes)
        if cluster.rep_refs
    )


def estimate_stats(
    selection: SampledSelection,
    streams: Sequence[EventStream],
    outcomes: Sequence[ReplayOutcome],
    cycle_ns: float,
    registry: Optional["MetricsRegistry"] = None,
) -> SampledEstimate:
    """Recombine representative results into a whole-trace estimate.

    ``streams`` and ``outcomes`` are parallel to
    ``selection.clusters``.  Raises :exc:`SamplingError` when the
    confidence half-width exceeds the plan's ``ci_bound``.  Counts
    ``sampling.estimates`` or ``sampling.refusals`` into ``registry``.
    """
    plan = selection.plan
    half = _ci_half_width(selection, streams, plan.confidence_z)
    if half > plan.ci_bound:
        if registry is not None:
            registry.count("sampling.refusals")
        raise SamplingError(
            f"sampled estimate for {selection.trace_name!r} refused: "
            f"{plan.confidence_z:g}-sigma half-width {half:.4f} exceeds "
            f"the ci bound {plan.ci_bound:g}; enlarge intervals or k, "
            f"or raise ci="
        )
    icache = [0.0] * 9
    dcache = [0.0] * 9
    # A stratified estimate is fractional until the final rounding;
    # the "frac" suffix marks it as such for the integer-cycle lint.
    cycles_frac = total_mem_reads = total_mem_writes = total_mem_busy = 0.0
    couplets = pushes = full_stalls = match_stalls = 0.0
    max_occupancy = 0
    for cluster, stream, outcome in zip(selection.clusters, streams, outcomes):
        i_scale, d_scale, w_scale, refs_scale = _cluster_scales(
            cluster, stream
        )
        icache[1] += stream.icache.read_misses * i_scale
        icache[5] += stream.icache.fetched_words * i_scale
        dcache[1] += stream.dcache.read_misses * d_scale
        dcache[5] += stream.dcache.fetched_words * d_scale
        dcache[6] += stream.dcache.writeback_blocks * d_scale
        dcache[7] += stream.dcache.writeback_words_full * d_scale
        dcache[8] += stream.dcache.writeback_words_dirty * d_scale
        dcache[3] += stream.dcache.write_misses * w_scale
        dcache[4] += stream.dcache.bypass_writes * w_scale
        cycles_frac += outcome.cycles * refs_scale
        total_mem_reads += outcome.memory_reads * refs_scale
        total_mem_writes += outcome.memory_writes * refs_scale
        total_mem_busy += outcome.memory_busy_cycles * refs_scale
        couplets += stream.n_couplets_measured * refs_scale
        pushes += outcome.buffer.pushes * refs_scale
        full_stalls += outcome.buffer.full_stalls * refs_scale
        match_stalls += outcome.buffer.match_stalls * refs_scale
        max_occupancy = max(max_occupancy, outcome.buffer.max_occupancy)
    ifetches = sum(c.ifetches for c in selection.clusters)
    loads = sum(c.loads for c in selection.clusters)
    stores = sum(c.stores for c in selection.clusters)
    est_stats = SimStats(
        trace_name=selection.trace_name,
        config_summary=streams[0].config_summary if streams else "",
        cycle_ns=cycle_ns,
        cycles=int(round(cycles_frac)),
        total_cycles=int(round(cycles_frac)),
        warm_cycles=0,
        n_refs=selection.measured_refs,
        n_couplets=int(round(couplets)),
        icache=CacheCounters(
            reads=ifetches,
            read_misses=int(round(icache[1])),
            fetched_words=int(round(icache[5])),
        ),
        dcache=CacheCounters(
            reads=loads,
            read_misses=int(round(dcache[1])),
            writes=stores,
            write_misses=int(round(dcache[3])),
            bypass_writes=int(round(dcache[4])),
            fetched_words=int(round(dcache[5])),
            writeback_blocks=int(round(dcache[6])),
            writeback_words_full=int(round(dcache[7])),
            writeback_words_dirty=int(round(dcache[8])),
        ),
        lower=None,
        buffer=BufferCounters(
            pushes=int(round(pushes)),
            full_stalls=int(round(full_stalls)),
            match_stalls=int(round(match_stalls)),
            max_occupancy=max_occupancy,
        ),
        memory_reads=int(round(total_mem_reads)),
        memory_writes=int(round(total_mem_writes)),
        memory_busy_cycles=int(round(total_mem_busy)),
    )
    if registry is not None:
        registry.count("sampling.estimates")
    return SampledEstimate(
        stats=est_stats,
        read_miss_ratio=estimate_miss_ratio(selection, streams),
        ci_half_width=half,
        ci_bound=plan.ci_bound,
        confidence_z=plan.confidence_z,
        n_intervals=selection.n_intervals,
        n_clusters=selection.n_clusters,
        refs_full=selection.n_refs_full,
        refs_sampled=selection.refs_sampled,
        trace_fingerprint=selection.trace_fingerprint,
        plan_spec=plan.describe(),
    )


# ----------------------------------------------------------------------
# End-to-end sampled simulation
# ----------------------------------------------------------------------
def check_sampling_supported(config: "SystemConfig") -> None:
    """Raise :class:`ConfigurationError` if the sampled route cannot
    price ``config``.

    Representative intervals are priced memory-direct (the estimator
    scales memory-side counters only), so a machine with lower cache
    levels is refused rather than estimated without them.
    """
    check_fastpath_supported(config)
    if config.levels:
        raise ConfigurationError(
            "sampling supports single-level systems only; price lower "
            "cache levels exactly"
        )


def _count_validation(
    registry: Optional["MetricsRegistry"], error: float
) -> None:
    """Count one validation; ``sampling.true_error_max`` keeps the worst
    true error seen."""
    if registry is None:
        return
    registry.count("sampling.validations")
    worst = registry.gauges.get("sampling.true_error_max", 0.0)
    registry.gauge("sampling.true_error_max", max(worst, round(error, 6)))


def _exact_stream(
    config: "SystemConfig",
    trace: Trace,
    seed: int,
    cache: Optional["PassCache"],
) -> EventStream:
    """The exact functional pass of one job, through the sweep route."""
    # Function-level import: core.sweep imports this module.
    from ..core.sweep import run_functional_passes

    return run_functional_passes([(config, trace, seed)], cache=cache)[0]


def sampled_fast_simulate(
    config: "SystemConfig",
    trace: Trace,
    plan: SamplingPlan,
    seed: int = 0,
    cache: Optional["PassCache"] = None,
    registry: Optional["MetricsRegistry"] = None,
) -> SampledEstimate:
    """Sampled drop-in for :func:`repro.sim.fastpath.fast_simulate`.

    Simulates only the representative intervals (with warm prefixes)
    and recombines them.  With ``plan.validate`` the exact fastpath
    also runs and the estimate carries the true miss ratio and cycle
    count alongside the estimated ones.  The ``sampling.*`` counters
    land in ``registry``.
    """
    # Function-level import: core.sweep imports this module.
    from ..core.sweep import run_functional_passes

    check_sampling_supported(config)
    selection = select_intervals(trace, plan, registry=registry)
    streams = run_functional_passes(
        [(config, rep, seed) for rep in selection.rep_traces], cache=cache,
    )
    outcomes = [
        replay(
            stream, config.memory, config.cycle_ns,
            write_buffer_depth=config.l1.write_buffer_depth,
        )
        for stream in streams
    ]
    estimate = estimate_stats(
        selection, streams, outcomes, config.cycle_ns, registry=registry,
    )
    if plan.validate:
        exact_stream = _exact_stream(config, trace, seed, cache)
        exact_outcome = replay(
            exact_stream, config.memory, config.cycle_ns,
            write_buffer_depth=config.l1.write_buffer_depth,
        )
        exact_reads = exact_stream.icache.reads + exact_stream.dcache.reads
        exact_misses = (
            exact_stream.icache.read_misses + exact_stream.dcache.read_misses
        )
        estimate.true_read_miss_ratio = (
            exact_misses / exact_reads if exact_reads else 0.0
        )
        estimate.true_cycles = exact_outcome.cycles
        _count_validation(registry, estimate.abs_error or 0.0)
    return estimate


def sampled_simulate(
    config: "SystemConfig",
    trace: Trace,
    seed: int = 0,
    plan_spec: str = "",
    cache_dir: str = "",
    validate: bool = False,
):
    """Campaign-friendly sampled runner returning plain ``SimStats``.

    Module-level (so ``functools.partial`` over it pickles into worker
    processes) and keyed by the plan *spec string* rather than a plan
    object.  ``validate`` runs the exact fastpath alongside every call —
    campaign workers have no shared job index to period on.
    """
    plan = SamplingPlan.parse(plan_spec)
    if validate:
        plan = dataclasses.replace(plan, validate=True)
    cache = None
    if cache_dir:
        from .passcache import PassCache

        cache = PassCache(cache_dir)
    return sampled_fast_simulate(
        config, trace, plan, seed=seed, cache=cache
    ).stats


def validate_group(
    config: "SystemConfig",
    trace: Trace,
    group: SampledPassGroup,
    seed: int = 0,
    cache: Optional["PassCache"] = None,
    registry: Optional["MetricsRegistry"] = None,
) -> float:
    """Measure one job's true functional miss-ratio error.

    Runs the exact functional pass (cache-aware) and returns
    ``|true − estimated|`` on the read miss ratio, counting it into
    ``registry`` — the periodic ground-truth check batch sampling uses.
    """
    exact = _exact_stream(config, trace, seed, cache)
    reads = exact.icache.reads + exact.dcache.reads
    true_ratio = (
        (exact.icache.read_misses + exact.dcache.read_misses) / reads
        if reads else 0.0
    )
    error = abs(true_ratio - estimate_miss_ratio(group.selection, group.streams))
    _count_validation(registry, error)
    return error
