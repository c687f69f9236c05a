"""Design-space sweep drivers.

These functions are the reproduction's equivalent of the paper's
simulation farm: they run the two-phase fastpath over cartesian grids of
organizational and temporal parameters and aggregate the results into
the containers the analysis modules consume.

The cost structure mirrors the paper's macro-expansion trick: one
functional cache pass per *organization* per trace, then cheap timing
replays for every cycle time / memory speed — see
:mod:`repro.sim.fastpath`.  Every functional pass is a filtered
per-organization pass (:mod:`repro.sim.stackpass`), shared by the
organization's timing siblings.

Import note: this module imports the simulators, so it is exported from
the top-level :mod:`repro` package rather than :mod:`repro.core` (whose
``__init__`` must stay substrate-free).
"""

from __future__ import annotations

import dataclasses
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..cpu.processor import CoupletStream, pair_couplets
from ..errors import AnalysisError, ConfigurationError
from ..sim.config import SystemConfig, baseline_config
from ..sim.fastpath import (
    EventStream,
    ReplayOutcome,
    assemble_stats,
    fast_simulate,
)
from ..sim.replaykernel import (
    BatchReplayKernel,
    TimingPoint,
    archive_scope,
)
from ..sim.passcache import PassCache, cache_metrics
from ..sim.stackpass import (
    pass_key,
    sibling_stream,
    stack_functional_passes,
)
from ..sim.statistics import SimStats
from ..trace.record import Trace

if TYPE_CHECKING:  # pragma: no cover — import cycle guard only
    from ..sim.telemetry import MetricsRegistry
from ..units import quantize_ns
from .metrics import (
    GM_FLOOR,
    AggregateMetrics,
    BlockSizeCurve,
    SpeedSizeGrid,
    TraceRunSummary,
    aggregate,
    geometric_mean,
)
from .policy import ReplacementKind
from .timing import DEFAULT_CYCLE_NS, MemoryTiming

def _span(registry: Optional["MetricsRegistry"], name: str):
    """The registry's span context when metrics are on; no-op otherwise."""
    return registry.span(name) if registry is not None else nullcontext()


def _as_trace_list(traces) -> List[Trace]:
    if isinstance(traces, Mapping):
        return list(traces.values())
    return list(traces)


#: Per-worker trace table installed by :func:`_pool_init`; indexed by
#: the ``slot`` field of a pass task.  Module-level because pool
#: initializers can only reach globals.
_WORKER_TRACES: List[Trace] = []


def _pool_init(traces: List[Trace]) -> None:
    """Process-pool initializer: receive each unique trace exactly once.

    Shipping traces here instead of inside every task means an
    N-config x M-trace grid pickles M traces per worker rather than
    N x M — for the paper's 16-size grids that is a 16x cut in
    serialization volume.
    """
    global _WORKER_TRACES
    _WORKER_TRACES = traces


#: One unit of functional-pass work: ``(trace slot, members)``, each
#: member a ``(job index, config, seed)``.  The members are timing
#: siblings (one :func:`~repro.sim.stackpass.pass_key`), so the task is
#: one pass plus relabelled copies.
PassTask = Tuple[int, List[Tuple[int, SystemConfig, int]]]


def _plan_tasks(
    jobs: Sequence[Tuple[SystemConfig, Trace, int]],
    pending: Sequence[int],
) -> Tuple[List[PassTask], List[Trace]]:
    """Group the pending jobs into pass tasks and dedupe their traces.

    One task per distinct pass, in first-seen order: jobs that differ
    only in timing parameters join one task.  ``unique_traces`` holds
    one trace per distinct content fingerprint, in first-seen order;
    the slot indirection is what lets :func:`_pool_init` ship each
    trace to each worker exactly once.
    """
    slot_of: Dict[str, int] = {}
    unique_traces: List[Trace] = []
    tasks: Dict[Tuple, PassTask] = {}
    for k in pending:
        config, trace, seed = jobs[k]
        fingerprint = trace.content_fingerprint()
        slot = slot_of.get(fingerprint)
        if slot is None:
            slot = slot_of[fingerprint] = len(unique_traces)
            unique_traces.append(trace)
        tasks.setdefault(pass_key(config, trace, seed), (slot, []))[1].append(
            (k, config, seed)
        )
    return list(tasks.values()), unique_traces


def _run_task(
    task: PassTask,
    traces: Sequence[Trace],
    couplets: Optional[CoupletStream],
) -> Tuple[List[int], List[EventStream]]:
    """Run one pass task; returns its job indices and their streams."""
    slot, members = task
    trace = traces[slot]
    streams = stack_functional_passes(
        [(config, trace, seed) for _k, config, seed in members],
        couplets=couplets,
    )
    return [k for k, _config, _seed in members], streams


def _task_job(task: PassTask):
    """Module-level pass task for the process pool."""
    return _run_task(task, _WORKER_TRACES, None)


def run_functional_passes(
    jobs: Sequence[Tuple[SystemConfig, Trace, int]],
    n_jobs: int = 1,
    cache: Optional["PassCache"] = None,
    registry: Optional["MetricsRegistry"] = None,
) -> List[EventStream]:
    """Run many functional passes, optionally across processes.

    This is the library's stand-in for the paper's farm of 10–20
    MicroVAX II workstations: the expensive organization passes are
    independent and distribute perfectly.

    ``cache`` is a :class:`~repro.sim.passcache.PassCache`: hits are
    loaded from disk in the parent and only the misses are simulated
    (and then persisted, one entry per pass), so a repeated sweep over
    the same organizations performs zero functional passes.  Results
    always come back in job order.

    Every miss group of timing siblings (same trace contents,
    organization, policy and seed) takes one pass
    (:func:`~repro.sim.stackpass.stack_functional_passes`), and the
    siblings get relabelled copies; streams are bit-identical to the
    reference :func:`~repro.sim.fastpath.functional_pass`.  With a
    ``registry`` the passes and reused streams land in it as
    ``stackpass.*`` counters.  With ``n_jobs > 1`` the passes run as
    tasks over a process pool that receives each trace once; otherwise
    they run in-process and pair each distinct trace content once.
    """
    jobs = list(jobs)
    results: List[Optional[EventStream]] = [None] * len(jobs)
    if cache is not None:
        pending = []
        for k, (config, trace, seed) in enumerate(jobs):
            stream = cache.get(config, trace, seed)
            if stream is None:
                pending.append(k)
            else:
                results[k] = stream
    else:
        pending = list(range(len(jobs)))
    if not pending:
        return results
    tasks, traces = _plan_tasks(jobs, pending)
    done: List[Tuple[List[int], List[EventStream]]] = []
    if n_jobs <= 1 or len(tasks) <= 1:
        pair_memo: Dict[str, CoupletStream] = {}
        for task in tasks:
            trace = traces[task[0]]
            fingerprint = trace.content_fingerprint()
            stream_in = pair_memo.get(fingerprint)
            if stream_in is None:
                stream_in = pair_memo[fingerprint] = pair_couplets(trace)
            done.append(_run_task(task, traces, stream_in))
    else:
        with ProcessPoolExecutor(
            max_workers=n_jobs, initializer=_pool_init, initargs=(traces,),
        ) as pool:
            for task, (indices, streams) in zip(
                tasks, pool.map(_task_job, tasks)
            ):
                expected = [k for k, _config, _seed in task[1]]
                if indices != expected:
                    raise AnalysisError(
                        f"functional-pass results out of order: "
                        f"expected jobs {expected}, got {indices}"
                    )
                done.append((indices, streams))
    for indices, streams in done:
        for k, stream in zip(indices, streams):
            # A task runs on one trace per content; restore the job's
            # own trace name.
            name = jobs[k][1].name
            if stream.trace_name != name:
                stream = dataclasses.replace(stream, trace_name=name)
            results[k] = stream
    if cache is not None:
        # Timing siblings share one cache key: persist each pass once.
        for _slot, members in tasks:
            k = members[0][0]
            config, trace, seed = jobs[k]
            cache.put(config, trace, seed, results[k])
    if registry is not None:
        registry.count("stackpass.passes", len(tasks))
        registry.count("stackpass.reused_streams", len(pending) - len(tasks))
    return results


def sibling_passes(
    jobs: Sequence[Tuple[SystemConfig, Trace, int]],
    cache: Optional["PassCache"] = None,
) -> List[EventStream]:
    """One functional pass for a group of timing siblings.

    Every job is a ``(config, trace, seed)`` triple, and all of them
    must share one :func:`~repro.sim.stackpass.pass_key`: they differ
    only in cycle time, memory timing, write-buffer depth or trace name.
    The first job takes its pass through :func:`run_functional_passes`
    — with a ``cache``, one get and, on a miss, one put — and every
    other job gets a copy relabelled with its own trace name and
    configuration (:func:`~repro.sim.stackpass.sibling_stream`).
    """
    jobs = list(jobs)
    key = pass_key(*jobs[0])
    if any(pass_key(*job) != key for job in jobs[1:]):
        raise ConfigurationError(
            "sibling jobs must share one trace and one organization up "
            "to timing"
        )
    stream = run_functional_passes(jobs[:1], cache=cache)[0]
    return [stream] + [
        sibling_stream(stream, config, trace)
        for config, trace, _seed in jobs[1:]
    ]


def simulate_siblings(
    jobs: Sequence[Tuple[SystemConfig, Trace, int]],
    cache: Optional["PassCache"] = None,
) -> List[SimStats]:
    """:func:`~repro.sim.fastpath.fast_simulate` for a group of timing
    siblings: one pass (:func:`sibling_passes`), then one
    :class:`~repro.sim.replaykernel.BatchReplayKernel` grid over every
    job's timing.  Each :class:`SimStats` carries its own job's labels
    and equals that job's ``fast_simulate``.  Memory-direct
    organizations only: the kernel prices no lower levels.
    """
    jobs = list(jobs)
    assert not any(config.levels for config, _trace, _seed in jobs), (
        "the batch kernel prices memory-direct organizations only"
    )
    streams = sibling_passes(jobs, cache)
    outcomes = BatchReplayKernel(streams[0]).replay_grid([
        TimingPoint(
            memory=config.memory, cycle_ns=config.cycle_ns,
            write_buffer_depth=config.l1.write_buffer_depth,
        )
        for config, _trace, _seed in jobs
    ])
    return [
        assemble_stats(stream, outcome, config.cycle_ns)
        for stream, outcome, (config, _trace, _seed)
        in zip(streams, outcomes, jobs)
    ]


#: Per-worker event-stream table installed by :func:`_replay_pool_init`;
#: indexed by the ``slot`` field of a packed replay job.  Same shipping
#: pattern as :data:`_WORKER_TRACES`: the streams cross the process
#: boundary once, in the initializer, not once per job.
_WORKER_STREAMS: List[EventStream] = []


def _replay_pool_init(streams: List[EventStream]) -> None:
    global _WORKER_STREAMS
    _WORKER_STREAMS = streams


def _replay_job(args):
    """Module-level batch-replay job (picklable for the process pool).

    Prices one stream at the points the parent could not serve and
    returns ``(job index, outcomes, kernel stats)`` so the parent can
    verify result order and record the outcomes.  The worker kernel
    keeps a private memo: the parent owns any outcome archive.
    """
    index, slot, points = args
    with archive_scope(None):
        kernel = BatchReplayKernel(_WORKER_STREAMS[slot])
        outcomes = kernel.replay_grid(points)
    return index, outcomes, kernel.stats


def _price_streams(
    streams: Sequence[EventStream],
    points: Sequence[TimingPoint],
    n_jobs: int,
    registry: Optional["MetricsRegistry"],
) -> List[List[ReplayOutcome]]:
    """Price every stream at every timing point; one outcome row each.

    The batch kernel prices a stream's whole grid in one call;
    ``n_jobs > 1`` first prices the points the kernels' memos lack over
    processes (see :func:`_price_shards`).  Every row is then served by
    its own kernel's :meth:`~BatchReplayKernel.replay_grid`, and each
    kernel's counters land in ``registry`` as ``replay.*``.
    """
    points = list(points)
    # One kernel at a time, so each one's tables die with its row.
    kernels = (BatchReplayKernel(stream) for stream in streams)
    if n_jobs > 1:
        kernels = list(kernels)
        _price_shards(kernels, points, n_jobs)
    rows = []
    for kernel in kernels:
        rows.append(kernel.replay_grid(points))
        if registry is not None:
            registry.count_many("replay", kernel.stats.as_dict())
    return rows


def _price_shards(
    kernels: Sequence[BatchReplayKernel],
    points: List[TimingPoint],
    n_jobs: int,
) -> None:
    """Price the kernels' unpriced points over a process pool (worthwhile
    on warm sweeps, where replay is essentially the entire cost).

    The parent resolves what the memos already hold and ships each
    distinct unpriced point once, with the first kernel that needs it;
    the outcomes come back into that kernel's memo via
    :meth:`~BatchReplayKernel.absorb`.  With fewer than two streams to
    price the pool is not worth starting and nothing happens here.
    """
    global _WORKER_STREAMS
    claims: Dict[int, set] = {}
    packed = []
    for k, kernel in enumerate(kernels):
        todo = kernel.unpriced(points, claims)
        if todo:
            packed.append((k, k, todo))
    if len(packed) <= 1:
        return
    streams = [kernel.stream for kernel in kernels]
    try:
        fork_ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover — fork-less platform
        fork_ctx = None
    if fork_ctx is not None:
        # Forked workers inherit the parent's stream table, so the
        # (large) event buffers never cross the process boundary;
        # only the small outcome lists come back.
        _WORKER_STREAMS = streams
        pool_kwargs = dict(mp_context=fork_ctx)
    else:  # pragma: no cover — spawn platforms ship explicitly
        pool_kwargs = dict(
            initializer=_replay_pool_init,
            initargs=(streams,),
        )
    try:
        with ProcessPoolExecutor(max_workers=n_jobs, **pool_kwargs) as pool:
            for job, result in zip(packed, pool.map(_replay_job, packed)):
                index, outcomes, stats = result
                if index != job[0]:
                    raise AnalysisError(
                        f"batch-replay results out of order: expected "
                        f"job {job[0]}, got {index}"
                    )
                kernels[index].absorb(job[2], outcomes, stats)
    finally:
        _WORKER_STREAMS = []


def _run_grid(
    configs: Sequence[SystemConfig],
    traces: Sequence[Trace],
    points: Sequence[TimingPoint],
    seed: int,
    n_jobs: int,
    pass_cache: Optional["PassCache"],
    registry: Optional["MetricsRegistry"],
) -> Tuple[List[EventStream], List[List[ReplayOutcome]]]:
    """Both phases of a sweep: one functional pass per (organization,
    trace), then every resulting stream priced at every timing point.

    Returns ``(streams, outcome rows)``, in (organization, trace)
    order.  With a ``registry`` the pass-cache, stack-pass and replay
    counters land in it; the pass cache's are the delta of its counters
    over the functional passes.
    """
    # The batch kernel prices memory-direct organizations only; every
    # sweep builds its configs from baseline_config.
    assert not any(config.levels for config in configs), (
        "sweep organizations must have no lower cache levels"
    )
    with cache_metrics(pass_cache, registry), \
            _span(registry, "sweep.functional_passes"):
        streams = run_functional_passes(
            [(config, trace, seed) for config in configs for trace in traces],
            n_jobs=n_jobs,
            cache=pass_cache,
            registry=registry,
        )
    with _span(registry, "sweep.price_grid"):
        rows = _price_streams(streams, points, n_jobs, registry)
    return streams, rows


def run_speed_size_sweep(
    traces,
    sizes_each_bytes: Sequence[int],
    cycle_times_ns: Sequence[float],
    assoc: int = 1,
    block_words: int = 4,
    memory: Optional[MemoryTiming] = None,
    replacement: ReplacementKind = ReplacementKind.RANDOM,
    write_buffer_depth: int = 4,
    seed: int = 0,
    n_jobs: int = 1,
    pass_cache: Optional["PassCache"] = None,
    registry: Optional["MetricsRegistry"] = None,
    functional_strategy: Optional[str] = None,
) -> SpeedSizeGrid:
    """Sweep (cache size x cycle time); aggregate over the trace suite.

    ``sizes_each_bytes`` sizes *each* of the split caches (the paper
    varies the pair together); the returned grid is indexed by total L1
    size.  This one sweep backs Figures 3-1 through 3-4 and, repeated
    per associativity, Figures 4-1 through 4-5.  ``pass_cache`` reuses
    persisted passes across invocations (see
    :mod:`repro.sim.passcache`).

    The functional passes go through :func:`run_functional_passes`: one
    pass per organization per trace.  Each stream is then priced
    across its whole cycle-time column in one
    :class:`~repro.sim.replaykernel.BatchReplayKernel` invocation.
    ``n_jobs`` sizes both parallel phases: the pass tasks run over a
    pool of that many processes, then the streams are sharded over as
    many pricing workers.  ``functional_strategy`` is accepted and
    ignored; every organization takes the same route.

    ``registry`` (a :class:`~repro.sim.telemetry.MetricsRegistry`) is
    the only way counters leave the sweep: it times the two phases as
    ``sweep.functional_passes`` / ``sweep.price_grid`` spans and
    collects the ``passcache.*``, ``stackpass.*`` and ``replay.*``
    counters.  Without one the sweep keeps no counters.
    """
    return run_speed_size_sweeps(
        traces, sizes_each_bytes, [(cycle_times_ns, memory)],
        assoc=assoc, block_words=block_words, replacement=replacement,
        write_buffer_depth=write_buffer_depth, seed=seed, n_jobs=n_jobs,
        pass_cache=pass_cache, registry=registry,
    )[0]


def run_speed_size_sweeps(
    traces,
    sizes_each_bytes: Sequence[int],
    timings: Sequence[Tuple[Sequence[float], Optional[MemoryTiming]]],
    assoc: int = 1,
    block_words: int = 4,
    replacement: ReplacementKind = ReplacementKind.RANDOM,
    write_buffer_depth: int = 4,
    seed: int = 0,
    n_jobs: int = 1,
    pass_cache: Optional["PassCache"] = None,
    registry: Optional["MetricsRegistry"] = None,
) -> List[SpeedSizeGrid]:
    """Speed–size sweeps of one set of organizations at several timings.

    ``timings`` holds one ``(cycle_times_ns, memory)`` pair per sweep
    (``memory=None`` is the default :class:`MemoryTiming`); the result
    holds one grid per pair, each equal to the
    :func:`run_speed_size_sweep` of that pair.  The sweeps differ only
    in timing, so their organizations are timing siblings: one
    functional pass per (size, trace) serves them all, and each stream
    is priced at every sweep's points by one kernel.  §6's scaling study
    is three such sweeps.
    """
    traces = _as_trace_list(traces)
    if not traces:
        raise AnalysisError("no traces supplied")
    sizes = sorted(sizes_each_bytes)
    timings = [
        (sorted(cycle_times_ns), memory or MemoryTiming())
        for cycle_times_ns, memory in timings
    ]
    # The pass depends on the organization only; the first sweep's
    # memory labels the streams.
    configs = [
        baseline_config(
            cache_size_bytes=size,
            block_words=block_words,
            assoc=assoc,
            replacement=replacement,
            write_buffer_depth=write_buffer_depth,
            memory=timings[0][1],
        )
        for size in sizes
    ]
    points = [
        TimingPoint(
            memory=memory, cycle_ns=cycle_ns,
            write_buffer_depth=write_buffer_depth,
        )
        for cycles_ns, memory in timings
        for cycle_ns in cycles_ns
    ]
    streams, outcome_rows = _run_grid(
        configs, traces, points, seed, n_jobs, pass_cache, registry,
    )
    grids = []
    lo = 0
    for cycles_ns, _memory in timings:
        hi = lo + len(cycles_ns)
        grids.append(_speed_size_grid(
            sizes, cycles_ns, len(traces), streams,
            [row[lo:hi] for row in outcome_rows],
        ))
        lo = hi
    return grids


def _speed_size_grid(
    sizes: List[int],
    cycles_ns: List[float],
    n_traces: int,
    all_streams: Sequence[EventStream],
    outcome_rows: Sequence[Sequence[ReplayOutcome]],
) -> SpeedSizeGrid:
    """Aggregate one sweep's streams and outcome rows, in (size, trace)
    order, into its grid over the trace suite."""
    n_i, n_j = len(sizes), len(cycles_ns)
    exec_gm = np.empty((n_i, n_j))
    cpr_gm = np.empty((n_i, n_j))
    per_size_metrics: List[AggregateMetrics] = []
    for i in range(n_i):
        lo = i * n_traces
        streams = all_streams[lo: lo + n_traces]
        rows = outcome_rows[lo: lo + n_traces]
        # The miss and traffic ratios depend on the organization only,
        # so one summary per (size, trace) — built from the first
        # cycle-time column — covers them; the per-column reduction
        # needs nothing beyond each outcome's cycle count.
        size_summaries = [
            TraceRunSummary.from_stats(
                assemble_stats(stream, row[0], cycles_ns[0])
            )
            for stream, row in zip(streams, rows)
        ]
        per_size_metrics.append(aggregate(size_summaries))
        n_refs = [stream.n_refs_measured for stream in streams]
        for j, cycle_ns in enumerate(cycles_ns):
            exec_gm[i, j] = geometric_mean(
                max(row[j].cycles * cycle_ns, GM_FLOOR) for row in rows
            )
            cpr_gm[i, j] = geometric_mean(
                max(row[j].cycles / refs if refs else 0.0, GM_FLOOR)
                for row, refs in zip(rows, n_refs)
            )
    return SpeedSizeGrid(
        total_sizes=[2 * s for s in sizes],
        cycle_times_ns=list(cycles_ns),
        execution_ns=exec_gm,
        cycles_per_reference=cpr_gm,
        read_miss_ratio=np.array(
            [m.read_miss_ratio for m in per_size_metrics]
        ),
        load_miss_ratio=np.array(
            [m.load_miss_ratio for m in per_size_metrics]
        ),
        ifetch_miss_ratio=np.array(
            [m.ifetch_miss_ratio for m in per_size_metrics]
        ),
        read_traffic_ratio=np.array(
            [m.read_traffic_ratio for m in per_size_metrics]
        ),
        write_traffic_ratio_full=np.array(
            [m.write_traffic_ratio_full for m in per_size_metrics]
        ),
        write_traffic_ratio_dirty=np.array(
            [m.write_traffic_ratio_dirty for m in per_size_metrics]
        ),
    )


def run_associativity_sweeps(
    traces,
    sizes_each_bytes: Sequence[int],
    cycle_times_ns: Sequence[float],
    assocs: Sequence[int] = (1, 2, 4, 8),
    **kwargs,
) -> Dict[int, SpeedSizeGrid]:
    """One speed–size grid per set size (§4's experiment).

    Total size is held constant as associativity changes — the sweep
    sizes each cache identically and halves the number of sets as the
    ways double, exactly as Figure 4-1 specifies.  Random replacement is
    the paper's choice and the default.
    """
    return {
        assoc: run_speed_size_sweep(
            traces, sizes_each_bytes, cycle_times_ns, assoc=assoc, **kwargs
        )
        for assoc in assocs
    }


def run_blocksize_sweep(
    traces,
    block_sizes_words: Sequence[int],
    latencies_ns: Sequence[float],
    transfer_rates: Sequence[float],
    cache_size_each_bytes: int = 64 * 1024,
    cycle_ns: float = DEFAULT_CYCLE_NS,
    write_buffer_depth: int = 4,
    seed: int = 0,
    n_jobs: int = 1,
    pass_cache: Optional["PassCache"] = None,
    registry: Optional["MetricsRegistry"] = None,
    functional_strategy: Optional[str] = None,
) -> Dict[Tuple[int, float], BlockSizeCurve]:
    """Sweep block size against memory latency and transfer rate (§5).

    Returns curves keyed by ``(latency_cycles, transfer_rate)`` where
    the latency label is the paper's quantized count (e.g. 100 ns at a
    40 ns clock is "3 cycles"; the simulated read adds one address
    cycle on top, as in footnote 13).  Each latency variation sets the
    read, write-op and recovery times equal, per §5.

    Latencies that quantize to the same cycle count describe the same
    simulated memory, so colliding keys are priced once (first
    occurrence wins; the outcomes are identical by construction).  The
    memory grid is priced per stream in one batch-kernel call; see
    :func:`run_speed_size_sweep` for the functional passes, ``n_jobs``,
    ``pass_cache`` and ``registry``.
    ``functional_strategy`` is accepted and ignored.
    """
    traces = _as_trace_list(traces)
    if not traces:
        raise AnalysisError("no traces supplied")
    block_sizes = sorted(block_sizes_words)
    configs = [
        baseline_config(
            cache_size_bytes=cache_size_each_bytes,
            block_words=block_words,
            cycle_ns=cycle_ns,
            write_buffer_depth=write_buffer_depth,
        )
        for block_words in block_sizes
    ]
    # One functional pass per (block size, trace); the memory grid is
    # built once — not per block size — and deduplicated by quantized
    # key before any replay runs.
    base_memory = MemoryTiming()
    unique_memories: List[Tuple[Tuple[int, float], MemoryTiming]] = []
    seen_keys = set()
    for latency_ns in latencies_ns:
        for transfer_rate in transfer_rates:
            key = (quantize_ns(latency_ns, cycle_ns), transfer_rate)
            if key in seen_keys:
                continue
            seen_keys.add(key)
            unique_memories.append((
                key,
                base_memory.with_latency_ns(latency_ns)
                .with_transfer_rate(transfer_rate),
            ))
    points = [
        TimingPoint(
            memory=mem, cycle_ns=cycle_ns,
            write_buffer_depth=write_buffer_depth,
        )
        for _key, mem in unique_memories
    ]
    all_streams, outcome_rows = _run_grid(
        configs, traces, points, seed, n_jobs, pass_cache, registry,
    )
    curves: Dict[Tuple[int, float], Dict[int, AggregateMetrics]] = {}
    for b_index, block_words in enumerate(block_sizes):
        lo = b_index * len(traces)
        for p_index, (key, _mem) in enumerate(unique_memories):
            summaries = [
                TraceRunSummary.from_stats(
                    assemble_stats(stream, row[p_index], cycle_ns)
                )
                for stream, row in zip(
                    all_streams[lo: lo + len(traces)],
                    outcome_rows[lo: lo + len(traces)],
                )
            ]
            curves.setdefault(key, {})[block_words] = aggregate(summaries)
    result: Dict[Tuple[int, float], BlockSizeCurve] = {}
    for (latency_cycles, transfer_rate), by_block in curves.items():
        result[(latency_cycles, transfer_rate)] = BlockSizeCurve(
            latency_ns=latency_cycles * cycle_ns,
            transfer_rate=transfer_rate,
            block_sizes_words=block_sizes,
            execution_ns=np.array(
                [by_block[b].execution_time_ns for b in block_sizes]
            ),
            load_miss_ratio=np.array(
                [by_block[b].load_miss_ratio for b in block_sizes]
            ),
            ifetch_miss_ratio=np.array(
                [by_block[b].ifetch_miss_ratio for b in block_sizes]
            ),
        )
    return result


def run_point(
    config: SystemConfig,
    traces,
    seed: int = 0,
    n_jobs: int = 1,
    pass_cache: Optional["PassCache"] = None,
) -> AggregateMetrics:
    """Evaluate one configuration over the suite (fastpath).

    One functional pass per trace, spread over ``n_jobs`` processes and
    served from ``pass_cache`` where it holds them (see
    :func:`run_functional_passes`).  A memory-direct configuration is
    then priced by the batch kernel, in-process; one with lower cache
    levels by scalar :func:`~repro.sim.fastpath.replay`.
    """
    traces = _as_trace_list(traces)
    streams = run_functional_passes(
        [(config, trace, seed) for trace in traces],
        n_jobs=n_jobs, cache=pass_cache,
    )
    if config.levels:
        # The batch kernel prices memory-direct organizations only.
        stats = [
            fast_simulate(config, trace, seed=seed, stream=stream)
            for trace, stream in zip(traces, streams)
        ]
    else:
        point = TimingPoint(
            memory=config.memory, cycle_ns=config.cycle_ns,
            write_buffer_depth=config.l1.write_buffer_depth,
        )
        stats = [
            assemble_stats(stream, row[0], config.cycle_ns)
            for stream, row in zip(
                streams, _price_streams(streams, [point], 1, None)
            )
        ]
    return aggregate([TraceRunSummary.from_stats(s) for s in stats])
