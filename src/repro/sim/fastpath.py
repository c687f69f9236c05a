"""Two-phase simulation: one functional pass, many timing replays.

The paper amortized its exploration cost by macro-expanding parameters
into compiled simulators and farming runs to 10–20 workstations.  The
equivalent trick here exploits a structural property of the model: for a
fixed cache *organization*, the stream of memory events (read misses,
dirty write backs, bypassing write misses) is independent of every
*temporal* parameter — cycle time, memory latency, transfer rate, write
buffer depth.  So:

1. :func:`functional_pass` simulates the caches once per organization
   and records a compact event stream plus warm-start hit/miss counters;
2. :func:`replay` re-prices that event stream for any timing in
   O(events) rather than O(references), reusing the *same*
   :class:`~repro.memory.mainmemory.MainMemory`,
   :class:`~repro.sim.engine.LowerCacheLevel` and
   :class:`~repro.cache.writebuffer.TimedWriteBuffer` classes the engine
   uses, built by the engine's own
   :func:`~repro.sim.engine.build_hierarchy`, so contention, recovery,
   stale-read stalls, buffer-full stalls and lower-level hits and misses
   are modeled identically.  An L1 event stream depends on nothing below
   L1, so lower cache levels are part of the timing, not of the pass.

``tests/sim/test_fastpath_vs_engine.py`` asserts cycle-for-cycle equality
with :class:`~repro.sim.engine.Engine` across organizations and clocks.

:func:`functional_pass` drives the :class:`~repro.cache.cache.Cache`
objects the engine also uses, which makes it the reference oracle for
functional passes; no production code calls it.  Production streams
come from the filtered per-organization pass
(:func:`repro.sim.stackpass.organization_pass`), through
:func:`repro.core.sweep.run_functional_passes` (sweeps, the
pass cache, campaign workers) or :func:`fast_simulate`.  The tests,
the ``pass_route`` bench suite and the benchmark's output checks hold
it bit-identical to the reference.

When one stream is priced against a whole timing *grid*,
:class:`repro.sim.replaykernel.BatchReplayKernel` vectorizes the
uncontended stretches of this replay loop and hands the contended tail
to an exact scalar state machine — bit-identical outcomes, one kernel
call per stream (see ``docs/internals.md``, "The batch replay
kernel").  Telemetry-enabled replays stay on :func:`replay`: the
kernel takes no ``telemetry`` handle.  The kernel prices memory-direct
organizations only; machines with lower cache levels (§6) take scalar
:func:`replay`.

The fastpath supports the configuration family all the paper's sweeps
use: split L1, write-back, no fetch on write miss, whole-block fetch,
blocking misses, any lower cache levels.  Everything else goes through
the engine.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Optional, Sequence

from ..cache.cache import Cache, key_block_addr, key_pid
from ..cache.writebuffer import TimedWriteBuffer
from ..core.policy import MissHandling, WriteMissPolicy, WritePolicy
from ..core.timing import MemoryTiming
from ..cpu.processor import NO_REF, CoupletStream, pair_couplets
from ..errors import ConfigurationError
from ..memory.mainmemory import MainMemory
from ..trace.record import RefKind, Trace
from .config import LowerLevelSpec, SystemConfig
from .engine import build_hierarchy
from .statistics import BufferCounters, CacheCounters, SimStats
from .telemetry import Telemetry

_STORE = int(RefKind.STORE)

#: d-side event codes within an eventful couplet.
_D_NONE = 0
_D_WRITE_HIT = 1
_D_READ_MISS = 2
_D_WRITE_MISS = 3

#: The parallel per-event buffers of an :class:`EventStream`, in
#: serialization order.  Each is an ``array('q')`` (signed 64-bit)
#: rather than a ``List[int]``: an event costs 8 bytes instead of a
#: ~28-byte boxed int, which cuts both resident memory and the pickling
#: bill when streams cross the process-pool boundary or land in the
#: persistent pass cache (:mod:`repro.sim.passcache`).
EVENT_FIELDS = (
    "ev_gap", "ev_imiss", "ev_iaddr", "ev_ipid", "ev_dtype",
    "ev_daddr", "ev_dpid", "ev_vaddr", "ev_vpid",
)


@dataclass
class EventStream:
    """Timing-independent record of one (organization, trace) pass.

    The nine ``ev_*`` buffers are ``array('q')`` in practice (see
    :data:`EVENT_FIELDS`); any integer sequence satisfies :func:`replay`.
    """

    trace_name: str
    config_summary: str
    i_block_words: int
    d_block_words: int
    n_couplets: int
    n_couplets_measured: int
    n_refs_measured: int
    warm_event_index: int
    warm_base_offset: int
    end_base: int
    ev_gap: Sequence[int]
    ev_imiss: Sequence[int]
    ev_iaddr: Sequence[int]
    ev_ipid: Sequence[int]
    ev_dtype: Sequence[int]
    ev_daddr: Sequence[int]
    ev_dpid: Sequence[int]
    ev_vaddr: Sequence[int]
    ev_vpid: Sequence[int]
    icache: CacheCounters
    dcache: CacheCounters

    @property
    def n_events(self) -> int:
        return len(self.ev_gap)


@dataclass(frozen=True)
class ReplayOutcome:
    """Timing-dependent results of re-pricing an event stream."""

    cycles: int
    total_cycles: int
    warm_cycles: int
    memory_reads: int
    memory_writes: int
    memory_busy_cycles: int
    buffer: BufferCounters
    #: The first lower level's counters over the whole run (the engine's
    #: ``SimStats.lower`` semantics), or ``None`` memory-direct.
    lower: Optional[CacheCounters] = None


def check_fastpath_supported(config: SystemConfig) -> None:
    """Raise :class:`ConfigurationError` if ``config`` needs the engine."""
    l1 = config.l1
    if l1.unified:
        raise ConfigurationError("fastpath requires a split L1")
    if l1.policy.write_policy is not WritePolicy.WRITE_BACK:
        raise ConfigurationError("fastpath requires a write-back D-cache")
    if l1.policy.write_miss is not WriteMissPolicy.NO_ALLOCATE:
        raise ConfigurationError("fastpath requires no-allocate write misses")
    if l1.policy.miss_handling is not MissHandling.BLOCKING:
        raise ConfigurationError("fastpath requires blocking misses")
    assert l1.i_geometry is not None
    for geometry in (l1.i_geometry, l1.d_geometry):
        if geometry.fetch_words != geometry.block_words:
            raise ConfigurationError("fastpath requires whole-block fetch")
    if l1.timing.read_hit_cycles != 1 or l1.timing.write_hit_cycles != 2:
        raise ConfigurationError(
            "fastpath assumes 1-cycle read hits and 2-cycle write hits"
        )
    if config.translation is not None:
        raise ConfigurationError(
            "fastpath supports virtual caches only; physical-cache mode "
            "(translation) requires the engine"
        )


def functional_pass(
    config: SystemConfig,
    trace: Trace,
    couplets: Optional[CoupletStream] = None,
    seed: int = 0,
) -> EventStream:
    """Run the caches functionally once; record the event stream.

    The result depends only on the cache organizations (and replacement
    seed), never on cycle time or memory speed.
    """
    check_fastpath_supported(config)
    l1 = config.l1
    assert l1.i_geometry is not None
    if couplets is None:
        couplets = pair_couplets(trace)
    icache = Cache(l1.i_geometry, l1.policy, seed=seed + 101)
    dcache = Cache(l1.d_geometry, l1.policy, seed=seed)
    i_offset_bits = l1.i_geometry.offset_bits
    d_offset_bits = l1.d_geometry.offset_bits
    i_block = l1.i_geometry.block_words
    d_block = l1.d_geometry.block_words
    i_mask = ~(i_block - 1)
    d_mask = ~(d_block - 1)
    iread = icache.access_read
    dread = dcache.access_read
    dwrite = dcache.access_write
    ci = CacheCounters()
    cd = CacheCounters()
    ev_gap = array("q")
    ev_imiss = array("q")
    ev_iaddr = array("q")
    ev_ipid = array("q")
    ev_dtype = array("q")
    ev_daddr = array("q")
    ev_dpid = array("q")
    ev_vaddr = array("q")
    ev_vpid = array("q")
    i_addr = couplets.i_addr
    i_pid = couplets.i_pid
    d_kind = couplets.d_kind
    d_addr = couplets.d_addr
    d_pid = couplets.d_pid
    warm_k = couplets.warm_couplet
    if warm_k >= len(i_addr):
        raise ConfigurationError(
            "warm boundary leaves nothing to measure; shorten it"
        )
    snap_i = ci.snapshot()
    snap_d = cd.snapshot()
    warm_event_index = 0
    warm_base_offset = 0
    base_acc = 0
    for k in range(len(i_addr)):
        if k == warm_k:
            snap_i = ci.snapshot()
            snap_d = cd.snapshot()
            warm_event_index = len(ev_gap)
            warm_base_offset = base_acc
        imiss = False
        ia = i_addr[k]
        ip = -1
        if ia != NO_REF:
            ip = i_pid[k]
            ci.reads += 1
            ires = iread(ip, ia)
            if not ires.hit:
                imiss = True
                ci.read_misses += 1
                ci.fetched_words += ires.fetched_words
                # Split I-caches never hold dirty data, so victims are
                # clean and silently dropped.
        dtype = _D_NONE
        dk = d_kind[k]
        da = dp = -1
        vaddr = vpid = -1
        if dk != NO_REF:
            da = d_addr[k]
            dp = d_pid[k]
            if dk == _STORE:
                cd.writes += 1
                dres = dwrite(dp, da)
                if dres.hit:
                    dtype = _D_WRITE_HIT
                else:
                    dtype = _D_WRITE_MISS
                    cd.write_misses += 1
                    cd.bypass_writes += 1
            else:
                cd.reads += 1
                dres = dread(dp, da)
                if not dres.hit:
                    dtype = _D_READ_MISS
                    cd.read_misses += 1
                    cd.fetched_words += dres.fetched_words
                    if dres.victim_key is not None:
                        vpid = key_pid(dres.victim_key)
                        vaddr = key_block_addr(dres.victim_key) << d_offset_bits
                        cd.writeback_blocks += 1
                        cd.writeback_words_full += d_block
                        cd.writeback_words_dirty += dres.victim_dirty_words
        if imiss or dtype in (_D_READ_MISS, _D_WRITE_MISS):
            ev_gap.append(base_acc)
            base_acc = 0
            ev_imiss.append(1 if imiss else 0)
            ev_iaddr.append((ia & i_mask) if imiss else -1)
            ev_ipid.append(ip if imiss else -1)
            ev_dtype.append(dtype)
            ev_daddr.append((da & d_mask) if dtype == _D_READ_MISS else da)
            ev_dpid.append(dp)
            ev_vaddr.append(vaddr)
            ev_vpid.append(vpid)
        else:
            base_acc += 2 if dtype == _D_WRITE_HIT else 1
    return EventStream(
        trace_name=trace.name,
        config_summary=config.describe(),
        i_block_words=i_block,
        d_block_words=d_block,
        n_couplets=len(i_addr),
        n_couplets_measured=len(i_addr) - warm_k,
        n_refs_measured=couplets.n_warm_refs,
        warm_event_index=warm_event_index,
        warm_base_offset=warm_base_offset,
        end_base=base_acc,
        ev_gap=ev_gap,
        ev_imiss=ev_imiss,
        ev_iaddr=ev_iaddr,
        ev_ipid=ev_ipid,
        ev_dtype=ev_dtype,
        ev_daddr=ev_daddr,
        ev_dpid=ev_dpid,
        ev_vaddr=ev_vaddr,
        ev_vpid=ev_vpid,
        icache=ci.since(snap_i),
        dcache=cd.since(snap_d),
    )


def replay(
    stream: EventStream,
    memory: MemoryTiming,
    cycle_ns: float,
    write_buffer_depth: int = 4,
    telemetry: Optional[Telemetry] = None,
    levels: Sequence[LowerLevelSpec] = (),
    seed: int = 0,
) -> ReplayOutcome:
    """Re-price an event stream under one temporal parameter set.

    ``levels`` are the machine's lower cache levels; the L1 write buffer
    and every miss go to the first of them, built with the engine's own
    :func:`~repro.sim.engine.build_hierarchy` from the replacement
    ``seed``.  An L1 event stream depends on nothing below L1, so one
    stream serves the organization with and without them.

    ``telemetry`` enables the cycle-attribution ledger / event tracer.
    Gap cycles between events are pure L1 service; eventful couplets
    build the same per-half segment lists the engine does and charge
    them through the same :meth:`CycleLedger.charge_couplet
    <repro.sim.telemetry.CycleLedger.charge_couplet>`, so the two
    simulators' attributions are identical, not merely close.
    """
    mem, below, lower_levels = build_hierarchy(
        memory, cycle_ns, levels, seed=seed
    )
    wb = TimedWriteBuffer(write_buffer_depth, below)
    tel = telemetry
    if tel is not None and tel.ledger is None and tel.tracer is None:
        tel = None
    ledger = tel.ledger if tel is not None else None
    if tel is not None:
        mem.record_segments = True
    now = 0
    now_at_last_event = 0
    warm_now = -1
    warm_mem = (0, 0, 0)
    widx = stream.warm_event_index
    i_block = stream.i_block_words
    d_block = stream.d_block_words
    ev_gap = stream.ev_gap
    ev_imiss = stream.ev_imiss
    ev_iaddr = stream.ev_iaddr
    ev_ipid = stream.ev_ipid
    ev_dtype = stream.ev_dtype
    ev_daddr = stream.ev_daddr
    ev_dpid = stream.ev_dpid
    ev_vaddr = stream.ev_vaddr
    ev_vpid = stream.ev_vpid
    read_block = below.read_block
    drain = wb.background_drain
    match = wb.resolve_read_match
    push = wb.push
    for e in range(len(ev_gap)):
        if e == widx:
            warm_now = now + stream.warm_base_offset
            warm_mem = (mem.reads, mem.writes, mem.busy_cycles)
            if ledger is not None:
                ledger.mark_warm(stream.warm_base_offset)
        gap = ev_gap[e]
        if gap and ledger is not None:
            # Hit service between events (1 cycle per couplet, 2 for
            # write hits) — matches the engine's per-couplet fallback.
            ledger.charge("l1_service", gap)
        now += gap
        start = now
        end = start + 1
        i_segs = d_segs = None
        if ev_imiss[e]:
            drain(start)
            t = match(ev_ipid[e], ev_iaddr[e], i_block, start)
            done, _first = read_block(ev_ipid[e], ev_iaddr[e], i_block, t, 0)
            if done > end:
                end = done
            if tel is not None:
                i_segs = [("wb_match_stall", t - start)] if t > start else []
                i_segs.extend(_fetch_segments(below, mem, t, done))
        dt = ev_dtype[e]
        if dt == _D_WRITE_HIT:
            if start + 2 > end:
                end = start + 2
            if tel is not None:
                d_segs = [("l1_service", 2)]
        elif dt == _D_READ_MISS:
            drain(start)
            t = match(ev_dpid[e], ev_daddr[e], d_block, start)
            overlap = 0
            va = ev_vaddr[e]
            if va >= 0:
                push(ev_vpid[e], va, d_block, t)
                overlap = d_block
            done, _first = read_block(ev_dpid[e], ev_daddr[e], d_block, t, overlap)
            if done > end:
                end = done
            if tel is not None:
                d_segs = [("wb_match_stall", t - start)] if t > start else []
                d_segs.extend(_fetch_segments(below, mem, t, done))
        elif dt == _D_WRITE_MISS:
            release = push(ev_dpid[e], ev_daddr[e], 1, start + 1)
            tail = start + 2
            if release > tail:
                tail = release
            if tail > end:
                end = tail
            if tel is not None:
                d_segs = [("l1_service", 2)]
                if tail > start + 2:
                    d_segs.append(("wb_full_stall", tail - start - 2))
        if tel is not None:
            tel.note_couplet(start, end, i_segs, d_segs)
        now = end
        now_at_last_event = now
    if warm_now < 0:
        # The warm boundary lies after the final event.
        warm_now = now_at_last_event + stream.warm_base_offset
        warm_mem = (mem.reads, mem.writes, mem.busy_cycles)
        if ledger is not None:
            ledger.mark_warm(stream.warm_base_offset)
    if stream.end_base and ledger is not None:
        ledger.charge("l1_service", stream.end_base)
    now += stream.end_base
    if ledger is not None:
        ledger.verify(now, now - warm_now)
    return ReplayOutcome(
        cycles=now - warm_now,
        total_cycles=now,
        warm_cycles=warm_now,
        memory_reads=mem.reads - warm_mem[0],
        memory_writes=mem.writes - warm_mem[1],
        memory_busy_cycles=mem.busy_cycles - warm_mem[2],
        buffer=BufferCounters(
            pushes=wb.pushes,
            full_stalls=wb.full_stalls,
            match_stalls=wb.match_stalls,
            max_occupancy=wb.max_occupancy,
        ),
        lower=lower_levels[0].counters.snapshot() if lower_levels else None,
    )


def _fetch_segments(below, mem: MainMemory, t: int, done: int):
    """Attribution of a fetch issued at ``t`` that completed at ``done``,
    as the engine's :meth:`~repro.sim.engine.L1Port._miss_segments`
    charges it: memory's own breakdown, or one ``lower_fetch`` span."""
    if below is mem:
        return mem.last_read_segments
    return [("lower_fetch", done - t)]


def assemble_stats(
    stream: EventStream,
    outcome: ReplayOutcome,
    cycle_ns: float,
) -> SimStats:
    """Combine a functional pass and one replay into :class:`SimStats`."""
    return SimStats(
        trace_name=stream.trace_name,
        config_summary=stream.config_summary,
        cycle_ns=cycle_ns,
        cycles=outcome.cycles,
        total_cycles=outcome.total_cycles,
        warm_cycles=outcome.warm_cycles,
        n_refs=stream.n_refs_measured,
        n_couplets=stream.n_couplets_measured,
        icache=stream.icache,
        dcache=stream.dcache,
        lower=outcome.lower,
        buffer=outcome.buffer,
        memory_reads=outcome.memory_reads,
        memory_writes=outcome.memory_writes,
        memory_busy_cycles=outcome.memory_busy_cycles,
    )


def fast_simulate(
    config: SystemConfig,
    trace: Trace,
    couplets: Optional[CoupletStream] = None,
    seed: int = 0,
    telemetry: Optional[Telemetry] = None,
    stream: Optional[EventStream] = None,
) -> SimStats:
    """Drop-in equivalent of :func:`repro.sim.engine.simulate` for
    fastpath-supported configurations.

    ``stream``, when given, is the functional pass already made for
    ``(config, trace, seed)`` (e.g. by
    :func:`repro.core.sweep.run_functional_passes`); only the replay
    runs.  Without it this runs one per-organization pass
    (:func:`repro.sim.stackpass.organization_pass`), then one
    :func:`replay`.
    """
    if stream is None:
        # Function-level import: stackpass imports this module.
        from .stackpass import organization_pass

        stream = organization_pass(config, trace, couplets=couplets, seed=seed)
    outcome = replay(
        stream, config.memory, config.cycle_ns,
        write_buffer_depth=config.l1.write_buffer_depth,
        telemetry=telemetry, levels=config.levels, seed=seed,
    )
    return assemble_stats(stream, outcome, config.cycle_ns)
