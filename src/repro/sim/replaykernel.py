"""Vectorized batch-replay kernel: price whole timing grids per stream.

The paper's methodology is one expensive organization pass followed by
thousands of cheap timing replays; :mod:`repro.sim.passcache` already
drives warm-sweep functional passes to zero, which leaves the pure-Python
:func:`repro.sim.fastpath.replay` loop as ~100% of warm sweep time — and
it runs once per grid point per stream.  This module re-prices one
:class:`~repro.sim.fastpath.EventStream` across an entire grid of
:class:`TimingPoint`\\ s (cycle time x memory timing x write-buffer
depth) in a single call, cycle-for-cycle identical to ``replay()``.

The kernel exploits a closed form for the dominant event population.
While the write buffer is empty, every event that does not push into it
(instruction misses, clean-victim read misses, their write-hit
companions) ends with the memory port exactly one recovery period behind
the event's own end — so the next such event prices to

    end[e] - end[e-1] = max(gap[e], recovery) + class_cost

where ``class_cost`` is a per-class constant (read latency + transfer,
doubled with an interleaving recovery for combined i+d misses).  The
increment is independent of absolute time, which turns whole stretches
of buffer-free events — port-recovery contention included — into prefix
sums.  The kernel therefore:

1. classifies events and builds the shared cumulative tables once per
   stream (class counts, ``max(gap, R)`` sums per distinct recovery);
2. precomputes the quantized per-event-class memory costs (read-block,
   writeback, write-op, recovery) once per timing point;
3. prices maximal buffer-free stretches in O(1) each from the tables;
4. prices saturated write-miss bursts in O(min(run, depth)) arithmetic
   each (plus a one-comparison-per-event scan for the run's end): with
   the buffer full and the port exactly one drain (``op_rec = write_op
   + recovery`` > 0) behind the previous end, a pure write miss whose
   gap is below ``op_rec`` forces the head out and ends ``op_rec +
   address + tc_head`` later, restoring that state — so a run of them,
   up to the first other event, long gap, warm boundary or stream end,
   advances by a sum over the drained entries;
5. walks the remaining events — write misses, dirty-victim pushes, and
   their aftermath until the buffer drains and the port re-enters the
   end+recovery invariant — with an exact inlined scalar state machine
   (write-buffer full/match stalls, busy-port overlap), seeded with the
   stretch-exit state.

Step 1 runs lazily, on the first point a kernel actually prices.  A
kernel serves each point from its memo of priced outcomes when it can;
inside :func:`archive_scope` that memo is the row of a shared
:class:`OutcomeArchive` addressed by :func:`stream_digest` — a digest of
everything the pricing reads from the stream — so a (stream contents,
quantized cost) cell priced by any kernel in the scope is served to
every later one, and a kernel whose every point is archived builds no
tables.  The archive holds outcomes as immutable tuples, never
streams, and every caller receives a fresh outcome.  ``KernelStats.archived_outcomes`` (published
as ``replay.archived_outcomes``) counts the outcomes served that way.
The experiment registry runs each experiment inside such a scope (see
:mod:`repro.experiments.common`); everywhere else a kernel keeps a
private memo and never hashes its stream.

``tests/sim/test_replaykernel.py`` asserts equality with ``replay()``
across the fastpath validation matrix, including forced buffer-full and
stale-read stalls, and over drawn store runs.  Telemetry-enabled
replays (cycle ledger / event tracer) always use the scalar path — the
ledger's per-couplet segment lists are inherently sequential — which is
why this module takes no ``telemetry`` argument; see
``docs/internals.md``.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.timing import MemoryTiming
from ..errors import ConfigurationError
from .fastpath import (
    _D_READ_MISS,
    _D_WRITE_HIT,
    _D_WRITE_MISS,
    EVENT_FIELDS,
    EventStream,
    ReplayOutcome,
)
from .statistics import BufferCounters

#: Event kinds: ``imiss + 2 * dclass`` with dclass 0 = none, 1 = write
#: hit, 2 = clean read miss, 3 = dirty read miss (victim push), 4 =
#: bypassing write miss.  dclass <= 2 never touches the write buffer.
_DC_NONE, _DC_WH, _DC_RM_CLEAN, _DC_RM_VICTIM, _DC_WM = 0, 1, 2, 3, 4

#: How many most-recent pushes the precomputed overlap bitmasks cover.
#: Buffer occupancy beyond this (write_buffer_depth > 8) falls back to
#: scanning the buffered entries, exactly like ``replay()``.
_LOOKBACK = 8


@dataclass(frozen=True)
class TimingPoint:
    """One temporal grid point: everything ``replay()`` varies.

    The cartesian axes of the paper's figures (cycle time, memory
    latency/transfer rate, write-buffer depth) all collapse into a flat
    sequence of these.
    """

    memory: MemoryTiming
    cycle_ns: float
    write_buffer_depth: int = 4

    def __post_init__(self) -> None:
        if self.cycle_ns <= 0:
            raise ConfigurationError(
                f"cycle time must be positive: {self.cycle_ns}"
            )
        if self.write_buffer_depth < 1:
            raise ConfigurationError(
                f"write buffer depth must be >= 1: {self.write_buffer_depth}"
            )


@dataclass
class KernelStats:
    """Counters describing how a batch of replays was priced.

    ``vectorized_events``/``scalar_events`` count event-grid cells
    (events x timing points), so their ratio is the fraction of replay
    work the closed forms (stretches and write-miss bursts) absorbed.
    ``archived_outcomes`` counts the delivered outcomes (a share of
    ``batch_outcomes``) that another kernel had already priced into the
    active :class:`OutcomeArchive`; it stays zero outside
    :func:`archive_scope`.  Sweeps fold each kernel's counters into
    their :class:`~repro.sim.telemetry.MetricsRegistry` as ``replay.*``
    (nonzero ones only), so kernel fallbacks
    (``replay.scalar_replays``) show next to the vectorized work they
    displaced.
    """

    batch_outcomes: int = 0
    archived_outcomes: int = 0
    scalar_replays: int = 0
    vectorized_events: int = 0
    scalar_events: int = 0
    contended_runs: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "batch_outcomes": self.batch_outcomes,
            "archived_outcomes": self.archived_outcomes,
            "scalar_replays": self.scalar_replays,
            "vectorized_events": self.vectorized_events,
            "scalar_events": self.scalar_events,
            "contended_runs": self.contended_runs,
        }


#: A priced outcome as memos and archives hold it: the
#: :class:`~repro.sim.fastpath.ReplayOutcome` fields in declaration
#: order, buffer counters flattened last.  A tuple cannot be mutated, so
#: no caller can alter a held outcome; each delivery builds a fresh one.
_Priced = Tuple[int, ...]


def _outcome(priced: _Priced) -> ReplayOutcome:
    return ReplayOutcome(*priced[:6], BufferCounters(*priced[6:]))


def _priced(outcome: ReplayOutcome) -> _Priced:
    buffer = outcome.buffer
    return (
        outcome.cycles, outcome.total_cycles, outcome.warm_cycles,
        outcome.memory_reads, outcome.memory_writes,
        outcome.memory_busy_cycles, buffer.pushes, buffer.full_stalls,
        buffer.match_stalls, buffer.max_occupancy,
    )


def stream_digest(stream: EventStream) -> bytes:
    """Digest of everything :meth:`BatchReplayKernel._price_point` reads
    from a stream: the nine event buffers, the block sizes and the warm
    and end offsets.  Streams with equal digests price identically at
    every timing point, whatever organization or trace produced them.
    """
    h = hashlib.sha256(np.array(
        [stream.i_block_words, stream.d_block_words,
         stream.warm_event_index, stream.warm_base_offset,
         stream.end_base],
        dtype=np.int64,
    ).tobytes())
    for name in EVENT_FIELDS:
        # A view of an array('q') buffer: hashed without a copy.
        buf = np.ascontiguousarray(getattr(stream, name), dtype=np.int64)
        h.update(np.int64(len(buf)).tobytes())
        h.update(buf)
    return h.digest()


class OutcomeArchive:
    """Priced outcomes addressed by content, shared across kernels.

    One row per distinct :func:`stream_digest`, mapping a quantized cost
    tuple to the outcome it prices to (held immutable, see
    :data:`_Priced`); a kernel built inside :func:`archive_scope` uses
    its stream's row as its memo.  The archive holds outcomes only,
    never the streams they came from.
    """

    def __init__(self) -> None:
        self._rows: Dict[bytes, Dict[tuple, _Priced]] = {}

    def row(self, stream: EventStream) -> Dict[tuple, _Priced]:
        """The (live, shared) outcome row of ``stream``'s contents."""
        return self._rows.setdefault(stream_digest(stream), {})

    def __len__(self) -> int:
        """How many outcomes the archive holds."""
        return sum(len(row) for row in self._rows.values())

    def clear(self) -> None:
        self._rows.clear()


#: The archive kernels built in this context price into, if any.
_ACTIVE_ARCHIVE: ContextVar[Optional[OutcomeArchive]] = ContextVar(
    "replay_outcome_archive", default=None
)


@contextmanager
def archive_scope(archive: Optional[OutcomeArchive]):
    """Build every kernel in the block over ``archive``'s rows.

    Outside any scope (or under ``archive_scope(None)``) a kernel keeps
    a private memo and never hashes its stream.
    """
    token = _ACTIVE_ARCHIVE.set(archive)
    try:
        yield archive
    finally:
        _ACTIVE_ARCHIVE.reset(token)


def active_archive() -> Optional[OutcomeArchive]:
    """The archive of the innermost :func:`archive_scope`, or None."""
    return _ACTIVE_ARCHIVE.get()


class _Costs:
    """Quantized per-event-class cycle costs of one timing point.

    Computed once per point and shared by the stretch formulas and the
    scalar walk, exactly mirroring what
    :class:`~repro.memory.mainmemory.MainMemory` pre-quantizes.
    """

    __slots__ = (
        "latency", "t_iblock", "t_dblock", "t_word", "recovery",
        "address", "write_op", "head_victim", "rd_i", "rd_d", "depth",
    )

    def __init__(self, point: TimingPoint, i_block: int, d_block: int) -> None:
        memory = point.memory
        cycle_ns = point.cycle_ns
        self.latency = memory.latency_cycles(cycle_ns)
        self.t_iblock = memory.transfer_cycles(i_block)
        self.t_dblock = memory.transfer_cycles(d_block)
        self.t_word = memory.transfer_cycles(1)
        self.recovery = memory.recovery_cycles(cycle_ns)
        self.address = memory.address_cycles
        self.write_op = memory.write_cycles(1, cycle_ns) - \
            memory.write_handoff_cycles(1)
        #: The dirty victim crosses the one-word-wide cache data path
        #: during the latency period; the fetch transfer begins at
        #: max(latency, d_block) (see :meth:`MainMemory.start_read`).
        self.head_victim = self.latency if self.latency > d_block else d_block
        self.rd_i = self.latency + self.t_iblock
        self.rd_d = self.latency + self.t_dblock
        self.depth = point.write_buffer_depth

    def key(self) -> tuple:
        """Every cost :meth:`BatchReplayKernel._price_point` reads (the
        rest derive from these and the stream's block sizes)."""
        return (
            self.latency, self.t_iblock, self.t_dblock, self.t_word,
            self.recovery, self.address, self.write_op, self.depth,
        )


class BatchReplayKernel:
    """Prices one event stream across many timing points in one call.

    :meth:`replay_grid` prices every point; the first point that has to
    be priced classifies the stream's events and builds the shared
    cumulative tables, so a kernel whose every point is already priced
    builds none.  Build one kernel per stream and reuse it for every
    grid the stream is priced against — all per-stream precomputation
    is shared.

    Priced outcomes live in the kernel's memo, keyed by the quantized
    cost tuple.  Inside :func:`archive_scope` the memo is the active
    :class:`OutcomeArchive`'s row for the stream's contents, so every
    kernel over a content-identical stream shares it; otherwise it is
    the kernel's own.
    """

    def __init__(self, stream: EventStream) -> None:
        self.stream = stream
        self.n_events = stream.n_events
        self.stats = KernelStats()
        archive = active_archive()
        #: Priced outcomes keyed by quantized cost tuple (replay_grid).
        self._memo: Dict[tuple, _Priced] = (
            {} if archive is None else archive.row(stream)
        )
        #: Memo keys this kernel priced itself; every other hit was
        #: priced by another kernel and counts as archived.
        self._own: Set[tuple] = set()
        #: Event-kind codes; None until :meth:`_build_tables` runs.
        self._kinds: Optional[List[int]] = None

    # ------------------------------------------------------------------
    def _build_tables(self) -> None:
        """Classify the events and build every timing-independent table."""
        stream = self.stream
        n = self.n_events
        gap = np.asarray(stream.ev_gap, dtype=np.int64)
        self._gap_np = gap
        dtype = np.asarray(stream.ev_dtype, dtype=np.int64)
        imiss = np.asarray(stream.ev_imiss, dtype=np.int64) != 0
        victim = np.asarray(stream.ev_vaddr, dtype=np.int64) >= 0
        dclass = np.select(
            [dtype == _D_WRITE_HIT,
             (dtype == _D_READ_MISS) & ~victim,
             (dtype == _D_READ_MISS) & victim,
             dtype == _D_WRITE_MISS],
            [_DC_WH, _DC_RM_CLEAN, _DC_RM_VICTIM, _DC_WM],
            _DC_NONE,
        )
        self._dclass = dclass
        self._kinds = (imiss.astype(np.int64) + 2 * dclass).tolist()

        # Exclusive cumulative class counts (length n + 1): stretch
        # [a, b) sums become two table lookups per point.
        has_i = imiss.astype(np.int64)
        rm_clean = (dclass == _DC_RM_CLEAN).astype(np.int64)
        self._cum_i = _excl_cumsum(has_i)
        self._cum_d = _excl_cumsum(rm_clean)
        self._cum_id = _excl_cumsum(has_i * rm_clean)
        #: Per distinct recovery value: exclusive cumsum of max(gap, R)
        #: and the next-gap-exceeding-R jump table.
        self._cum_gap_r: Dict[int, Tuple[List[int], List[int]]] = {}

        # next_push[e]: first index >= e whose event pushes into the
        # write buffer (dclass >= 3); n when none remain.  The variant
        # also stopping at write hits is only needed for the degenerate
        # rd_i < 2 timing corner (see _price_point).
        self._next_push = _next_member(dclass >= _DC_RM_VICTIM, n)
        self._next_push_or_wh: Optional[List[int]] = None

        # Lookback overlap masks.  The write buffer drains FIFO, so at
        # any instant its entries are exactly the most recent ``len``
        # pushes — and address overlap is timing-independent.  Bit m-1
        # of ``lbm_*[e]`` says whether event e's instruction/data read
        # overlaps the entry pushed by the (m)-th most recent push
        # before e, for m up to _LOOKBACK.  One table therefore answers
        # every point's stale-read match query in O(1): with ``nb``
        # buffered entries the match exists iff a bit below ``nb`` is
        # set, and the drained prefix ends at ``nb - lowest_set_bit``.
        lbm_i = np.zeros(n, dtype=np.int64)
        lbm_d = np.zeros(n, dtype=np.int64)
        push_at = np.flatnonzero(dclass >= _DC_RM_VICTIM)
        if len(push_at):
            pos = np.searchsorted(push_at, np.arange(n), side="left") - 1
            iaddr_np = np.asarray(stream.ev_iaddr, dtype=np.int64)
            ipid_np = np.asarray(stream.ev_ipid, dtype=np.int64)
            daddr_np = np.asarray(stream.ev_daddr, dtype=np.int64)
            dpid_np = np.asarray(stream.ev_dpid, dtype=np.int64)
            vaddr_np = np.asarray(stream.ev_vaddr, dtype=np.int64)
            vpid_np = np.asarray(stream.ev_vpid, dtype=np.int64)
            d_read = dtype == _D_READ_MISS
            i_block = stream.i_block_words
            d_block = stream.d_block_words
            for m in range(1, min(_LOOKBACK, len(push_at)) + 1):
                sel = pos - (m - 1)
                src = push_at[np.maximum(sel, 0)]
                is_wm = dclass[src] == _DC_WM
                x_pid = np.where(is_wm, dpid_np[src], vpid_np[src])
                x_lo = np.where(is_wm, daddr_np[src], vaddr_np[src])
                x_hi = x_lo + np.where(is_wm, 1, d_block)
                valid = sel >= 0
                bit = 1 << (m - 1)
                lbm_i |= bit * (
                    valid & imiss & (ipid_np == x_pid)
                    & (iaddr_np < x_hi) & (x_lo < iaddr_np + i_block)
                )
                lbm_d |= bit * (
                    valid & d_read & (dpid_np == x_pid)
                    & (daddr_np < x_hi) & (x_lo < daddr_np + d_block)
                )
        self._lbm_i = lbm_i.tolist()
        self._lbm_d = lbm_d.tolist()
        self._conflict_bits = lbm_i | lbm_d
        #: Lazily built per occupancy nb: first index >= e whose reads
        #: overlap one of the nb most recent pushes.
        self._ncf_by_nb: List[Optional[List[int]]] = [None] * (_LOOKBACK + 1)

        #: Event-kind list with write-hit events re-coded out of the
        #: fast range (3 -> 19), for the rd_i < 2 timing corner where a
        #: write hit can outlast its instruction fetch.  Built lazily.
        self._kinds_strict: Optional[List[int]] = None

        # The scalar walk indexes these millions of times; plain lists
        # of pre-boxed ints beat array('q') access.
        self._gap = list(stream.ev_gap)
        self._iaddr = list(stream.ev_iaddr)
        self._ipid = list(stream.ev_ipid)
        self._daddr = list(stream.ev_daddr)
        self._dpid = list(stream.ev_dpid)
        self._vaddr = list(stream.ev_vaddr)
        self._vpid = list(stream.ev_vpid)

    # ------------------------------------------------------------------
    def replay_grid(self, points: Sequence[TimingPoint]) -> List[ReplayOutcome]:
        """Replay the stream at every timing point; outcomes in order.

        Cycle-for-cycle identical to calling
        ``replay(stream, p.memory, p.cycle_ns, p.write_buffer_depth)``
        for each point.  Every outcome is a fresh object built from the
        memo's immutable record, so mutating it leaves the memo (and any
        archive behind it) intact.
        """
        points = list(points)
        if not points:
            return []
        self.stats.batch_outcomes += len(points)
        if self.n_events == 0:
            return [self._empty_outcome() for _ in points]
        # Replay cost is a pure function of the *quantized* cycle costs,
        # so timing points that round to the same integer costs (e.g.
        # neighbouring cycle times against one memory part) are priced
        # once and shared.  The scalar path cannot do this: it never
        # sees more than one point at a time.
        out: List[ReplayOutcome] = []
        memo = self._memo
        own = self._own
        for point in points:
            costs = self._costs(point)
            key = costs.key()
            priced = memo.get(key)
            if priced is None:
                priced = memo[key] = self._price_point(costs)
                own.add(key)
            elif key not in own:
                self.stats.archived_outcomes += 1
            out.append(_outcome(priced))
        return out

    # ------------------------------------------------------------------
    def unpriced(
        self, points: Sequence[TimingPoint], claims: Dict[int, Set[tuple]]
    ) -> List[TimingPoint]:
        """The points whose outcome is neither in the memo nor claimed
        yet, one per distinct cost key; this call claims them.

        ``claims`` maps a memo to the cost keys claimed for it; pass one
        dict to every kernel of a batch, so kernels sharing an archive
        row claim each point once between them.  A sharded sweep prices
        the claimed points elsewhere, hands the outcomes to
        :meth:`absorb`, and then serves the whole grid from the memo
        through :meth:`replay_grid`.
        """
        if self.n_events == 0:
            return []
        claimed = claims.setdefault(id(self._memo), set())
        todo = []
        for point in points:
            key = self._costs(point).key()
            if key not in self._memo and key not in claimed:
                claimed.add(key)
                todo.append(point)
        return todo

    def absorb(
        self,
        points: Sequence[TimingPoint],
        outcomes: Sequence[ReplayOutcome],
        priced_by: KernelStats,
    ) -> None:
        """Record outcomes another kernel priced for this stream.

        ``priced_by`` is that kernel's stats: its event and run counts
        fold into this kernel's, which delivers the outcomes; its
        ``batch_outcomes`` do not, so no cell is counted twice.
        """
        for point, outcome in zip(points, outcomes):
            key = self._costs(point).key()
            self._memo[key] = _priced(outcome)
            self._own.add(key)
        stats = self.stats
        stats.vectorized_events += priced_by.vectorized_events
        stats.scalar_events += priced_by.scalar_events
        stats.contended_runs += priced_by.contended_runs

    def _costs(self, point: TimingPoint) -> "_Costs":
        stream = self.stream
        return _Costs(point, stream.i_block_words, stream.d_block_words)

    # ------------------------------------------------------------------
    def _empty_outcome(self) -> ReplayOutcome:
        stream = self.stream
        warm_now = stream.warm_base_offset
        return ReplayOutcome(
            cycles=stream.end_base - warm_now,
            total_cycles=stream.end_base,
            warm_cycles=warm_now,
            memory_reads=0,
            memory_writes=0,
            memory_busy_cycles=0,
            buffer=BufferCounters(),
        )

    # ------------------------------------------------------------------
    def _ncf_table(self, nb: int) -> List[int]:
        tbl = self._ncf_by_nb[nb]
        if tbl is None:
            mask = (self._conflict_bits & ((1 << nb) - 1)) != 0
            tbl = _next_member(mask, self.n_events)
            self._ncf_by_nb[nb] = tbl
        return tbl

    # ------------------------------------------------------------------
    def _gap_r_table(self, recovery: int) -> Tuple[List[int], List[int]]:
        tables = self._cum_gap_r.get(recovery)
        if tables is None:
            tables = (
                _excl_cumsum(np.maximum(self._gap_np, recovery)),
                _next_member(self._gap_np > recovery, self.n_events),
            )
            self._cum_gap_r[recovery] = tables
        return tables

    # ------------------------------------------------------------------
    def _price_point(self, costs: _Costs) -> _Priced:
        if self._kinds is None:
            self._build_tables()
        stream = self.stream
        n = self.n_events
        widx = stream.warm_event_index
        wboff = stream.warm_base_offset
        i_block = stream.i_block_words
        d_block = stream.d_block_words

        # Hot-loop locals.
        latency = costs.latency
        t_dblock = costs.t_dblock
        t_word = costs.t_word
        recovery = costs.recovery
        address = costs.address
        rd_i = costs.rd_i
        rd_d = costs.rd_d
        head_victim = costs.head_victim
        depth = costs.depth
        #: Port-horizon advance past a drain's handoff, and the drain's
        #: busy cost beyond its transfer (start_write in MainMemory).
        op_rec = costs.write_op + recovery
        addr_op = costs.address + costs.write_op

        gaps = self._gap
        iaddr = self._iaddr
        ipid = self._ipid
        daddr = self._daddr
        dpid = self._dpid
        vaddr = self._vaddr
        vpid = self._vpid
        cum_i = self._cum_i
        cum_d = self._cum_d
        cum_id = self._cum_id
        lbm_i = self._lbm_i
        lbm_d = self._lbm_d
        ncf_by = self._ncf_by_nb
        cum_gap_r, next_gap_gt = self._gap_r_table(recovery)

        # The fast per-kind steps need every event to end exactly at its
        # last read's completion; a write hit riding an instruction miss
        # can outlast the fetch only when rd_i < 2 (address_cycles of
        # zero and the latency quantizing away).  In that corner the
        # event kinds swap to a variant that routes every write-hit
        # event (code 3 -> 19) through the exact scalar step.
        wh_ok = rd_i >= 2
        if wh_ok:
            kinds = self._kinds
            next_stop = self._next_push
        else:
            kinds = self._kinds_strict
            if kinds is None:
                kinds = [19 if kk == 3 else kk for kk in self._kinds]
                self._kinds_strict = kinds
            next_stop = self._next_push_or_wh
            if next_stop is None:
                dclass = self._dclass
                next_stop = _next_member(
                    (dclass >= _DC_RM_VICTIM) | (dclass == _DC_WH), n
                )
                self._next_push_or_wh = next_stop

        end_prev = 0          # absolute end cycle of the previous event
        free_at = 0           # memory port horizon
        buf: List = []        # write buffer: (ready, tc, push_event)
        nb = 0                # len(buf), tracked to avoid len() calls
        reads = writes = busy = 0
        pushes = full_stalls = match_stalls = max_occ = 0
        warm_now = 0
        warm_reads = warm_writes = warm_busy = 0
        vec_events = 0
        in_run = False
        runs = 0

        e = 0
        for stop in (widx, n):
            while e < stop:
                k = kinds[e]
                if k <= 5:
                    # ---- push-free event (imiss / clean read miss /
                    # covered write hit) ------------------------------
                    if free_at - end_prev == recovery and (
                        nb == 0
                        or (nb <= _LOOKBACK and buf[-1][0] <= end_prev)
                    ):
                        # ---- closed-form stretch: O(1) from tables --
                        # With the port exactly one recovery behind the
                        # previous event's end, each push-free event
                        # adds max(gap, R) + class_cost.  Buffered
                        # entries (all released at or before end_prev)
                        # cannot drain while gaps stay within the
                        # recovery period, and cannot match before
                        # their first address overlap, so the same form
                        # holds with a non-empty buffer up to whichever
                        # stop comes first.
                        j = next_stop[e]
                        if nb:
                            g = next_gap_gt[e]
                            if g < j:
                                j = g
                            tbl = ncf_by[nb]
                            if tbl is None:
                                tbl = self._ncf_table(nb)
                            c = tbl[e]
                            if c < j:
                                j = c
                        if j > stop:
                            j = stop
                        if j > e:
                            di = cum_i[j] - cum_i[e]
                            dd = cum_d[j] - cum_d[e]
                            end_prev += (cum_gap_r[j] - cum_gap_r[e]) \
                                + rd_i * di + rd_d * dd \
                                + recovery * (cum_id[j] - cum_id[e])
                            free_at = end_prev + recovery
                            reads += di + dd
                            busy += rd_i * di + rd_d * dd
                            vec_events += j - e
                            in_run = False
                            e = j
                            continue
                        # a drain or match is due at e itself: fall
                        # into the general step below.
                    start = end_prev + gaps[e]
                    while nb:
                        entry = buf[0]
                        ready = entry[0]
                        begins = ready if ready > free_at else free_at
                        if begins >= start:
                            break
                        del buf[0]
                        nb -= 1
                        tc = entry[1]
                        free_at = begins + address + tc + op_rec
                        writes += 1
                        busy += addr_op + tc
                    if nb == 0:
                        s0 = start if start > free_at else free_at
                        if k & 1:
                            done = s0 + rd_i
                            reads += 1
                            busy += rd_i
                            if k >= 4:
                                done += recovery + rd_d
                                reads += 1
                                busy += rd_d
                        else:
                            done = s0 + rd_d
                            reads += 1
                            busy += rd_d
                        end_prev = done
                        free_at = done + recovery
                        in_run = False
                        e += 1
                        continue
                    if nb <= _LOOKBACK:
                        # Exact inline step for any lookback-covered
                        # occupancy, stale-read matches included: a
                        # match drains FIFO through the last overlapping
                        # entry before the read issues.
                        mask = (1 << nb) - 1
                        if k & 1:
                            t = start
                            mi = lbm_i[e] & mask
                            if mi:
                                match_stalls += 1
                                cnt = nb - (mi & -mi).bit_length() + 1
                                nb -= cnt
                                for _ in range(cnt):
                                    entry = buf[0]
                                    del buf[0]
                                    ready = entry[0]
                                    begins = ready if ready > free_at \
                                        else free_at
                                    tc = entry[1]
                                    handoff = begins + address + tc
                                    free_at = handoff + op_rec
                                    writes += 1
                                    busy += addr_op + tc
                                    if handoff > t:
                                        t = handoff
                            begins = t if t > free_at else free_at
                            done = begins + rd_i
                            free_at = done + recovery
                            reads += 1
                            busy += rd_i
                            if k == 5:
                                # The fetch left the port past start, so
                                # drains are done; only a data-side
                                # match can still stall.
                                t = start
                                if nb:
                                    md = lbm_d[e] & ((1 << nb) - 1)
                                    if md:
                                        match_stalls += 1
                                        cnt = nb \
                                            - (md & -md).bit_length() + 1
                                        nb -= cnt
                                        for _ in range(cnt):
                                            entry = buf[0]
                                            del buf[0]
                                            ready = entry[0]
                                            begins = ready \
                                                if ready > free_at \
                                                else free_at
                                            tc = entry[1]
                                            handoff = \
                                                begins + address + tc
                                            free_at = handoff + op_rec
                                            writes += 1
                                            busy += addr_op + tc
                                            if handoff > t:
                                                t = handoff
                                begins = t if t > free_at else free_at
                                done = begins + rd_d
                                free_at = done + recovery
                                reads += 1
                                busy += rd_d
                        else:  # k == 4: clean data read miss only
                            t = start
                            md = lbm_d[e] & mask
                            if md:
                                match_stalls += 1
                                cnt = nb - (md & -md).bit_length() + 1
                                nb -= cnt
                                for _ in range(cnt):
                                    entry = buf[0]
                                    del buf[0]
                                    ready = entry[0]
                                    begins = ready if ready > free_at \
                                        else free_at
                                    tc = entry[1]
                                    handoff = begins + address + tc
                                    free_at = handoff + op_rec
                                    writes += 1
                                    busy += addr_op + tc
                                    if handoff > t:
                                        t = handoff
                            begins = t if t > free_at else free_at
                            done = begins + rd_d
                            free_at = done + recovery
                            reads += 1
                            busy += rd_d
                        end_prev = done
                        in_run = False
                        e += 1
                        continue
                    # deep buffer (> _LOOKBACK): exact scalar scan.
                elif k == 8:
                    if nb == depth and op_rec and free_at - end_prev == op_rec:
                        # ---- saturated write-miss burst ----------------
                        # Full buffer, port one drain behind the last
                        # end: while gaps stay below op_rec nothing
                        # drains on its own, so each write miss forces
                        # the head out and ends op_rec + address + its
                        # tc after the previous event, leaving the port
                        # one drain behind again.  Every entry's ready
                        # is at or before end_prev, hence before the
                        # port horizon.  The run ends at the first other
                        # event, long gap or stop.  Scanning for it costs
                        # a comparison per event; a jump table would cost
                        # a build per stream and op_rec, also on streams
                        # with almost no bursts.
                        j = e
                        while j < stop and kinds[j] == 8 \
                                and gaps[j] < op_rec:
                            j += 1
                        if j > e:
                            n_burst = j - e
                            # The first m drains are the old entries;
                            # the last m pushes survive (nb == depth).
                            m = n_burst if n_burst < nb else nb
                            step = op_rec + address
                            tc_sum = (n_burst - m) * t_word
                            for i in range(m):
                                tc_sum += buf[i][1]
                            end_prev += n_burst * step + tc_sum
                            survivors = []
                            t = end_prev
                            for i in range(n_burst - 1, n_burst - m - 1, -1):
                                survivors.append((t, t_word, e + i))
                                t -= step + (buf[i][1] if i < nb else t_word)
                            del buf[:m]
                            buf.extend(reversed(survivors))
                            free_at = end_prev + op_rec
                            writes += n_burst
                            pushes += n_burst
                            full_stalls += n_burst
                            busy += n_burst * addr_op + tc_sum
                            vec_events += n_burst
                            in_run = False
                            e = j
                            continue
                    # ---- pure write miss --------------------------------
                    # No reads; the push is the whole event.  Exact for
                    # any occupancy short of a forced (buffer-full)
                    # drain: pending entries drain up to start + 1 and
                    # the entry releases there, leaving the port alone.
                    start = end_prev + gaps[e]
                    limit = start + 1
                    if nb == 1:
                        # Dominant shape: one pending entry that drains
                        # before the new release — reuse its slot.
                        entry = buf[0]
                        ready = entry[0]
                        begins = ready if ready > free_at else free_at
                        if begins < limit:
                            tc = entry[1]
                            free_at = begins + address + tc + op_rec
                            writes += 1
                            busy += addr_op + tc
                            buf[0] = (limit, t_word, e)
                            pushes += 1
                            end_prev = start + 2
                            in_run = False
                            e += 1
                            continue
                    elif nb == 0:
                        buf.append((limit, t_word, e))
                        pushes += 1
                        nb = 1
                        if max_occ == 0:
                            max_occ = 1
                        end_prev = start + 2
                        in_run = False
                        e += 1
                        continue
                    while nb:
                        entry = buf[0]
                        ready = entry[0]
                        begins = ready if ready > free_at else free_at
                        if begins >= limit:
                            break
                        del buf[0]
                        nb -= 1
                        tc = entry[1]
                        free_at = begins + address + tc + op_rec
                        writes += 1
                        busy += addr_op + tc
                    if nb < depth:
                        buf.append((limit, t_word, e))
                        pushes += 1
                        nb += 1
                        if nb > max_occ:
                            max_occ = nb
                        end_prev = start + 2
                        in_run = False
                        e += 1
                        continue
                    # buffer full: exact scalar step prices the stall.
                elif k == 6:
                    # ---- pure dirty read miss ---------------------------
                    # Drains run to start; with no stale-read match and
                    # room for the victim, the victim releases at start
                    # and the fetch prices with the victim-crossing
                    # head.
                    start = end_prev + gaps[e]
                    while nb:
                        entry = buf[0]
                        ready = entry[0]
                        begins = ready if ready > free_at else free_at
                        if begins >= start:
                            break
                        del buf[0]
                        nb -= 1
                        tc = entry[1]
                        free_at = begins + address + tc + op_rec
                        writes += 1
                        busy += addr_op + tc
                    if nb == 0 or (
                        nb <= _LOOKBACK
                        and not lbm_d[e] & ((1 << nb) - 1)
                    ):
                        if nb < depth:
                            buf.append((start, t_dblock, e))
                            pushes += 1
                            nb += 1
                            if nb > max_occ:
                                max_occ = nb
                            begins = start if start > free_at else free_at
                            done = begins + head_victim + t_dblock
                            end_prev = done
                            free_at = done + recovery
                            reads += 1
                            busy += head_victim + t_dblock
                            in_run = False
                            e += 1
                            continue
                    # match stall, full buffer, or deep buffer: scalar.
                elif k == 9:
                    # ---- instruction miss + write miss ------------------
                    # The fetch prices first (raising the port horizon
                    # past start + 1, so the write section cannot drain
                    # more); the entry then releases at start + 1.
                    start = end_prev + gaps[e]
                    while nb:
                        entry = buf[0]
                        ready = entry[0]
                        begins = ready if ready > free_at else free_at
                        if begins >= start:
                            break
                        del buf[0]
                        nb -= 1
                        tc = entry[1]
                        free_at = begins + address + tc + op_rec
                        writes += 1
                        busy += addr_op + tc
                    if nb <= _LOOKBACK and nb < depth and (
                        nb == 0 or not lbm_i[e] & ((1 << nb) - 1)
                    ):
                        s0 = start if start > free_at else free_at
                        done = s0 + rd_i
                        reads += 1
                        busy += rd_i
                        buf.append((start + 1, t_word, e))
                        pushes += 1
                        nb += 1
                        if nb > max_occ:
                            max_occ = nb
                        tail = start + 2
                        end_prev = done if done > tail else tail
                        free_at = done + recovery
                        in_run = False
                        e += 1
                        continue
                    # match stall or full buffer: exact scalar step.
                elif k == 7:
                    # ---- instruction miss + dirty read miss -------------
                    # Fetch, then the victim releases at start and the
                    # data read follows one recovery after the fetch.
                    start = end_prev + gaps[e]
                    while nb:
                        entry = buf[0]
                        ready = entry[0]
                        begins = ready if ready > free_at else free_at
                        if begins >= start:
                            break
                        del buf[0]
                        nb -= 1
                        tc = entry[1]
                        free_at = begins + address + tc + op_rec
                        writes += 1
                        busy += addr_op + tc
                    if nb <= _LOOKBACK and nb < depth and (
                        nb == 0
                        or not (lbm_i[e] | lbm_d[e]) & ((1 << nb) - 1)
                    ):
                        s0 = start if start > free_at else free_at
                        done_i = s0 + rd_i
                        buf.append((start, t_dblock, e))
                        pushes += 1
                        nb += 1
                        if nb > max_occ:
                            max_occ = nb
                        done = done_i + recovery + head_victim + t_dblock
                        end_prev = done
                        free_at = done + recovery
                        reads += 2
                        busy += rd_i + head_victim + t_dblock
                        in_run = False
                        e += 1
                        continue
                    # match stall or full buffer: exact scalar step.

                # ---- exact scalar step (stalls, deep buffers, write-
                # hit timing corner) ----------------------------------
                if k >= 16:
                    k -= 16
                dc = k >> 1
                if not in_run:
                    in_run = True
                    runs += 1
                start = end_prev + gaps[e]
                end = start + 1
                if k & 1:  # instruction miss
                    while buf:
                        entry = buf[0]
                        ready = entry[0]
                        begins = ready if ready > free_at else free_at
                        if begins >= start:
                            break
                        del buf[0]
                        tc = entry[1]
                        free_at = begins + address + tc + op_rec
                        writes += 1
                        busy += addr_op + tc
                    t = start
                    nb = len(buf)
                    if nb:
                        if nb <= _LOOKBACK:
                            need = lbm_i[e] & ((1 << nb) - 1)
                            match = nb - (need & -need).bit_length() \
                                if need else -1
                        else:
                            pid = ipid[e]
                            lo = iaddr[e]
                            hi = lo + i_block
                            match = -1
                            for i2, entry in enumerate(buf):
                                p = entry[2]
                                if kinds[p] >> 1 == _DC_WM:
                                    xpid, xlo, xw = dpid[p], daddr[p], 1
                                else:
                                    xpid, xlo, xw = vpid[p], vaddr[p], d_block
                                if xpid == pid and xlo < hi and lo < xlo + xw:
                                    match = i2
                        if match >= 0:
                            match_stalls += 1
                            for _ in range(match + 1):
                                entry = buf[0]
                                del buf[0]
                                ready = entry[0]
                                begins = ready if ready > free_at else free_at
                                tc = entry[1]
                                handoff = begins + address + tc
                                free_at = handoff + op_rec
                                writes += 1
                                busy += addr_op + tc
                                if handoff > t:
                                    t = handoff
                    begins = t if t > free_at else free_at
                    done = begins + rd_i
                    free_at = done + recovery
                    reads += 1
                    busy += rd_i
                    if done > end:
                        end = done
                if dc:
                    if dc == _DC_WH:
                        if start + 2 > end:
                            end = start + 2
                    elif dc == _DC_WM:
                        limit = start + 1
                        while buf:
                            entry = buf[0]
                            ready = entry[0]
                            begins = ready if ready > free_at else free_at
                            if begins >= limit:
                                break
                            del buf[0]
                            tc = entry[1]
                            free_at = begins + address + tc + op_rec
                            writes += 1
                            busy += addr_op + tc
                        release = limit
                        while len(buf) >= depth:
                            full_stalls += 1
                            entry = buf[0]
                            del buf[0]
                            ready = entry[0]
                            begins = ready if ready > free_at else free_at
                            tc = entry[1]
                            handoff = begins + address + tc
                            free_at = handoff + op_rec
                            writes += 1
                            busy += addr_op + tc
                            if handoff > release:
                                release = handoff
                        buf.append((release, t_word, e))
                        pushes += 1
                        if len(buf) > max_occ:
                            max_occ = len(buf)
                        tail = start + 2
                        if release > tail:
                            tail = release
                        if tail > end:
                            end = tail
                    else:  # read miss (clean or dirty victim)
                        while buf:
                            entry = buf[0]
                            ready = entry[0]
                            begins = ready if ready > free_at else free_at
                            if begins >= start:
                                break
                            del buf[0]
                            tc = entry[1]
                            free_at = begins + address + tc + op_rec
                            writes += 1
                            busy += addr_op + tc
                        t = start
                        nb = len(buf)
                        if nb:
                            if nb <= _LOOKBACK:
                                need = lbm_d[e] & ((1 << nb) - 1)
                                match = nb - (need & -need).bit_length() \
                                    if need else -1
                            else:
                                pid = dpid[e]
                                lo = daddr[e]
                                hi = lo + d_block
                                match = -1
                                for i2, entry in enumerate(buf):
                                    p = entry[2]
                                    if kinds[p] >> 1 == _DC_WM:
                                        xpid, xlo, xw = dpid[p], daddr[p], 1
                                    else:
                                        xpid, xlo, xw = \
                                            vpid[p], vaddr[p], d_block
                                    if xpid == pid and xlo < hi \
                                            and lo < xlo + xw:
                                        match = i2
                            if match >= 0:
                                match_stalls += 1
                                for _ in range(match + 1):
                                    entry = buf[0]
                                    del buf[0]
                                    ready = entry[0]
                                    begins = ready if ready > free_at \
                                        else free_at
                                    tc = entry[1]
                                    handoff = begins + address + tc
                                    free_at = handoff + op_rec
                                    writes += 1
                                    busy += addr_op + tc
                                    if handoff > t:
                                        t = handoff
                        head = latency
                        if dc == _DC_RM_VICTIM:
                            while buf:
                                entry = buf[0]
                                ready = entry[0]
                                begins = ready if ready > free_at else free_at
                                if begins >= t:
                                    break
                                del buf[0]
                                tc = entry[1]
                                free_at = begins + address + tc + op_rec
                                writes += 1
                                busy += addr_op + tc
                            release = t
                            while len(buf) >= depth:
                                full_stalls += 1
                                entry = buf[0]
                                del buf[0]
                                ready = entry[0]
                                begins = ready if ready > free_at else free_at
                                tc = entry[1]
                                handoff = begins + address + tc
                                free_at = handoff + op_rec
                                writes += 1
                                busy += addr_op + tc
                                if handoff > release:
                                    release = handoff
                            buf.append((release, t_dblock, e))
                            pushes += 1
                            if len(buf) > max_occ:
                                max_occ = len(buf)
                            head = head_victim
                        begins = t if t > free_at else free_at
                        done = begins + head + t_dblock
                        free_at = done + recovery
                        reads += 1
                        busy += head + t_dblock
                        if done > end:
                            end = done
                nb = len(buf)
                end_prev = end
                e += 1
            if stop == widx:
                # Snapshot before the first post-warm event (before its
                # gap and drains), exactly like the scalar replay.
                warm_now = end_prev + wboff
                warm_reads, warm_writes, warm_busy = reads, writes, busy
                widx = -1

        total = end_prev + stream.end_base

        stats = self.stats
        stats.vectorized_events += vec_events
        stats.scalar_events += n - vec_events
        stats.contended_runs += runs

        return (
            total - warm_now, total, warm_now,
            reads - warm_reads, writes - warm_writes, busy - warm_busy,
            pushes, full_stalls, match_stalls, max_occ,
        )


def _excl_cumsum(values: np.ndarray) -> List[int]:
    """Exclusive prefix sums as a plain-int list (length n + 1)."""
    out = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum(values, out=out[1:])
    return out.tolist()


def _next_member(mask: np.ndarray, n: int) -> List[int]:
    """``out[e]`` = first index >= e with ``mask`` set, else ``n``."""
    idx = np.flatnonzero(mask)
    if len(idx) == 0:
        return [n] * (n + 1)
    pos = np.searchsorted(idx, np.arange(n + 1), side="left")
    return np.where(
        pos < len(idx), idx[np.minimum(pos, len(idx) - 1)], n
    ).tolist()
