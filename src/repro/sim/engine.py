"""Reference cycle-accounting simulator.

This is the general, fully-featured simulator: split or unified L1,
any number of lower cache levels, write-back or write-through, all three
miss-handling modes, timed write buffers at every boundary, and the
synchronous-memory quantization of §2.  It processes one reference
couplet at a time, so its cost is O(references); the design-space sweeps
use the two-phase :mod:`repro.sim.fastpath` instead, which is validated
cycle-for-cycle against this engine.

Timing semantics (matching the paper's base system):

* a couplet issues at cycle ``now``; the CPU proceeds at the latest
  completion among its halves, with a one-cycle minimum;
* read hits complete at ``now + read_hit_cycles`` (1); write hits at
  ``now + write_hit_cycles`` (2: tags, then data);
* a read miss first checks the write buffer (stale-data stall), then
  occupies the level below from ``max(now, below.free_at)``; a dirty
  victim moves into the write buffer across the one-word-wide data path
  *during* the miss latency, delaying the refill only when moving the
  victim takes longer than the latency;
* write misses with the no-allocate policy bypass into the write buffer
  (two cycles unless the buffer is full);
* buffered writes drain greedily whenever the level below is idle, with
  reads taking priority on ties.

Approximation: lower cache levels check residency of a requested range
by its first word.  Because fills and write backs move aligned
power-of-two chunks, validity is uniform across any aligned chunk except
for single-word bypass writes, whose effect on timing is negligible.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from ..cache.cache import Cache, key_block_addr, key_pid
from ..cache.writebuffer import TimedWriteBuffer
from ..core.policy import MissHandling
from ..core.timing import MemoryTiming
from ..cpu.processor import NO_REF, CoupletStream, pair_couplets, sequentialize
from ..errors import ConfigurationError
from ..memory.mainmemory import MainMemory
from ..trace.record import RefKind, Trace
from ..vm.paging import PageMapper
from ..vm.tlb import TLB
from .config import LowerLevelSpec, SystemConfig, TranslationSpec
from .statistics import BufferCounters, CacheCounters, SimStats
from .telemetry import Telemetry, truncate_segments

_STORE = int(RefKind.STORE)

#: Word address region used for page-table walk reads (main memory does
#: not decode addresses; the constant only keeps walks distinguishable
#: in traces of memory operations).
_PAGE_TABLE_BASE = 1 << 42


class Translator:
    """Physical-cache front end: TLB lookup plus page-table walks.

    One translator is shared by the I and D ports (a single MMU).  A TLB
    hit is free — the lookup overlaps the first cache cycle, the common
    design.  A miss performs the configured number of page-table reads
    through the main-memory port, serialized against miss traffic, then
    refills the TLB.
    """

    def __init__(self, spec: TranslationSpec, memory: MainMemory,
                 seed: int = 0) -> None:
        self.spec = spec
        self.memory = memory
        self.mapper = PageMapper(
            page_words=spec.page_words,
            memory_frames=spec.memory_frames,
            seed=seed,
        )
        self.tlb = TLB(entries=spec.tlb_entries, assoc=spec.tlb_assoc)
        self.walks = 0

    def translate(self, pid: int, addr: int, now: int):
        """Return ``(physical address, time)`` after translation."""
        vpage = self.mapper.vpage(addr)
        if not self.tlb.access(pid, vpage):
            self.walks += 1
            for step in range(self.spec.walk_memory_reads):
                done, _first = self.memory.read_block(
                    0, _PAGE_TABLE_BASE + vpage + step, 1, now
                )
                now = done
        return self.mapper.translate(pid, addr), now


class LowerCacheLevel:
    """A cache level between L1 and memory, with its own write buffer.

    Implements the same duck-typed protocol as
    :class:`~repro.memory.mainmemory.MainMemory`: ``free_at``,
    ``read_block`` and ``write_block``.
    """

    def __init__(
        self, spec: LowerLevelSpec, cycle_ns: float, below, seed: int
    ) -> None:
        self.spec = spec
        self.cache = Cache(spec.geometry, spec.policy, seed=seed)
        self.port = spec.port
        self.below = below
        self.wb = TimedWriteBuffer(spec.write_buffer_depth, below)
        self._latency = spec.port.latency_cycles(cycle_ns)
        self._recovery = spec.port.recovery_cycles(cycle_ns)
        self._write_tail = spec.port.write_cycles(
            1, cycle_ns
        ) - spec.port.write_handoff_cycles(1)
        self._block_words = spec.geometry.block_words
        self._offset_bits = spec.geometry.offset_bits
        self.free_at = 0
        self.counters = CacheCounters()

    def transfer_cycles(self, words: int) -> int:
        return self.port.transfer_cycles(words)

    def _push_victim(self, victim_key: int, dirty_words: int, now: int) -> None:
        pid = key_pid(victim_key)
        addr = key_block_addr(victim_key) << self._offset_bits
        self.counters.writeback_blocks += 1
        self.counters.writeback_words_full += self._block_words
        self.counters.writeback_words_dirty += dirty_words
        self.wb.push(pid, addr, self._block_words, now)

    def read_block(
        self, pid: int, word_addr: int, words: int, now: int,
        overlap_cycles: int = 0,
    ):
        """Serve a block read from the level above.

        Returns ``(completion, first_word)`` like memory does.
        """
        self.wb.background_drain(now)
        now = self.wb.resolve_read_match(pid, word_addr, words, now)
        start = now if now > self.free_at else self.free_at
        res = self.cache.access_read(pid, word_addr)
        self.counters.reads += 1
        if res.hit:
            first = start + max(self._latency, overlap_cycles)
            done = first + self.port.transfer_cycles(words)
            self.free_at = done + self._recovery
            return done, first
        self.counters.read_misses += 1
        self.counters.fetched_words += res.fetched_words
        below_overlap = 0
        if res.victim_key is not None:
            self._push_victim(res.victim_key, res.victim_dirty_words, start)
            below_overlap = self._block_words
        fetch_words = res.fetched_words
        fetch_start = (word_addr // fetch_words) * fetch_words
        below_done, _below_first = self.below.read_block(
            pid, fetch_start, fetch_words,
            start + self.port.address_cycles, below_overlap,
        )
        first = below_done + self.port.transfer_cycles(1)
        done = below_done + self.port.transfer_cycles(words)
        floor = start + max(self._latency, overlap_cycles) + \
            self.port.transfer_cycles(words)
        if done < floor:
            done = floor
            first = floor - self.port.transfer_cycles(words) + \
                self.port.transfer_cycles(1)
        self.free_at = done + self._recovery
        return done, first

    def write_block(self, pid: int, word_addr: int, words: int, now: int) -> int:
        """Absorb a write back (or bypass write) from the level above;
        return the handoff-completion cycle."""
        self.wb.background_drain(now)
        start = now if now > self.free_at else self.free_at
        handoff = start + self.port.write_handoff_cycles(words)
        self.free_at = handoff + self._write_tail + self._recovery
        self.counters.writes += 1
        res = self.cache.write_words(pid, word_addr, words)
        if not res.hit:
            self.counters.write_misses += 1
        if res.bypass_write:
            self.counters.bypass_writes += words
            self.wb.push(pid, word_addr, words, handoff)
        if res.victim_key is not None:
            self._push_victim(res.victim_key, res.victim_dirty_words, handoff)
        return handoff


def build_hierarchy(
    memory: MemoryTiming,
    cycle_ns: float,
    levels: Sequence[LowerLevelSpec] = (),
    seed: int = 0,
) -> Tuple[MainMemory, object, List[LowerCacheLevel]]:
    """Build the memory side of a machine: main memory, then each lower
    cache level on top of the one below it.

    Returns ``(memory, below, lower_levels)``: ``below`` is what the L1
    write buffer and L1 misses talk to (the first lower level, or memory
    itself), and ``lower_levels`` lists the levels from L2 down.  Every
    level draws replacement victims from ``seed + 7``.  The engine and
    :func:`repro.sim.fastpath.replay` both build their hierarchy here,
    which is what keeps an L1 event stream's replay through lower
    levels identical to the engine's run.
    """
    main = MainMemory(memory, cycle_ns)
    below = main
    lower_levels: List[LowerCacheLevel] = []
    for spec in reversed(levels):
        level = LowerCacheLevel(spec, cycle_ns, below, seed=seed + 7)
        lower_levels.insert(0, level)
        below = level
    return main, below, lower_levels


class L1Port:
    """Timed wrapper around one CPU-facing cache."""

    def __init__(
        self,
        cache: Cache,
        read_hit_cycles: int,
        write_hit_cycles: int,
        below,
        wb: TimedWriteBuffer,
        miss_handling: MissHandling,
        translator: Optional[Translator] = None,
    ) -> None:
        self.cache = cache
        self.below = below
        self.wb = wb
        self.counters = CacheCounters()
        self._read_hit = read_hit_cycles
        self._write_hit = write_hit_cycles
        self._block_words = cache.geometry.block_words
        self._offset_bits = cache.geometry.offset_bits
        self._miss_handling = miss_handling
        self._translator = translator
        # Telemetry wiring (set by Engine.run when a Telemetry object is
        # passed): the port leaves the segment breakdown of its latest
        # access in ``last_segments`` for the couplet loop to charge.
        # Plain read hits leave ``None`` — they are pure L1 service, and
        # the fastpath cannot see them inside event couplets, so leaving
        # them implicit is what keeps the two simulators' ledgers equal.
        self.telemetry: Optional[Telemetry] = None
        self._below_is_memory = False
        self.last_segments = None

    def _push_victim(self, victim_key: int, dirty_words: int, now: int) -> None:
        pid = key_pid(victim_key)
        addr = key_block_addr(victim_key) << self._offset_bits
        c = self.counters
        c.writeback_blocks += 1
        c.writeback_words_full += self._block_words
        c.writeback_words_dirty += dirty_words
        self.wb.push(pid, addr, self._block_words, now)

    def _miss_segments(
        self, issue: int, now: int, t: int, done: int, completion: int,
        extra_l1: int = 0,
    ):
        """Attribution segments of a miss serviced through ``below``.

        ``issue`` is the couplet issue cycle, ``now`` the post-
        translation cycle, ``t`` the post-read-match cycle, ``done`` the
        fetch completion and ``completion`` the cycle the CPU resumes
        (earlier than ``done`` in the non-blocking miss modes, which is
        what the final truncation accounts for).
        """
        segments = []
        if now > issue:
            segments.append(("translation", now - issue))
        if t > now:
            segments.append(("wb_match_stall", t - now))
        if self._below_is_memory:
            segments.extend(self.below.last_read_segments)
        else:
            segments.append(("lower_fetch", done - t))
        if extra_l1:
            segments.append(("l1_service", extra_l1))
        return truncate_segments(segments, completion - issue)

    def read(self, pid: int, addr: int, now: int) -> int:
        """Serve a load or ifetch issued at ``now``; return completion."""
        tel = self.telemetry
        issue = now
        if self._translator is not None:
            # Physical cache: translate first; tags are physical and
            # process-agnostic.
            addr, now = self._translator.translate(pid, addr, now)
            pid = 0
        res = self.cache.access_read(pid, addr)
        c = self.counters
        c.reads += 1
        if res.hit:
            if tel is not None:
                self.last_segments = (
                    [("translation", now - issue),
                     ("l1_service", self._read_hit)]
                    if now > issue else None
                )
            return now + self._read_hit
        c.read_misses += 1
        fetch_words = res.fetched_words
        c.fetched_words += fetch_words
        fetch_start = (addr // fetch_words) * fetch_words
        self.wb.background_drain(now)
        t = self.wb.resolve_read_match(pid, fetch_start, fetch_words, now)
        overlap = 0
        if res.victim_key is not None:
            self._push_victim(res.victim_key, res.victim_dirty_words, t)
            overlap = self._block_words
        done, first = self.below.read_block(pid, fetch_start, fetch_words, t, overlap)
        if self._miss_handling is MissHandling.BLOCKING:
            completion = done
        elif self._miss_handling is MissHandling.LOAD_FORWARD:
            completion = first
        else:
            # Early continuation: the block streams from its first word;
            # the CPU resumes when the requested word goes past.
            offset = addr - fetch_start
            if offset == 0:
                completion = first
            else:
                completion = first - self.below.transfer_cycles(1) + \
                    self.below.transfer_cycles(offset + 1)
        if tel is not None:
            self.last_segments = self._miss_segments(
                issue, now, t, done, completion
            )
        return completion

    def write(self, pid: int, addr: int, now: int) -> int:
        """Serve a store issued at ``now``; return completion."""
        tel = self.telemetry
        issue = now
        if self._translator is not None:
            addr, now = self._translator.translate(pid, addr, now)
            pid = 0
        res = self.cache.access_write(pid, addr)
        c = self.counters
        c.writes += 1
        if res.hit and not res.bypass_write:
            if tel is not None:
                segments = [("l1_service", self._write_hit)]
                if now > issue:
                    segments.insert(0, ("translation", now - issue))
                self.last_segments = segments
            return now + self._write_hit
        if res.bypass_write:
            if not res.hit:
                c.write_misses += 1
            c.bypass_writes += 1
            release = self.wb.push(pid, addr, 1, now + 1)
            end = now + self._write_hit
            completion = end if end > release else release
            if tel is not None:
                segments = [("l1_service", self._write_hit)]
                if now > issue:
                    segments.insert(0, ("translation", now - issue))
                if completion > end:
                    segments.append(("wb_full_stall", completion - end))
                self.last_segments = segments
            return completion
        # Fetch-on-write (write-allocate): fetch the block like a read
        # miss, then the write completes one data cycle later.
        c.write_misses += 1
        fetch_words = res.fetched_words
        c.fetched_words += fetch_words
        fetch_start = (addr // fetch_words) * fetch_words
        self.wb.background_drain(now)
        t = self.wb.resolve_read_match(pid, fetch_start, fetch_words, now)
        overlap = 0
        if res.victim_key is not None:
            self._push_victim(res.victim_key, res.victim_dirty_words, t)
            overlap = self._block_words
        done, _first = self.below.read_block(pid, fetch_start, fetch_words, t, overlap)
        if tel is not None:
            self.last_segments = self._miss_segments(
                issue, now, t, done, done + 1, extra_l1=1
            )
        return done + 1


class Engine:
    """The reference simulator for a full :class:`SystemConfig`."""

    def __init__(self, config: SystemConfig, seed: int = 0) -> None:
        self.config = config
        self.memory, below, self.lower_levels = build_hierarchy(
            config.memory, config.cycle_ns, config.levels, seed=seed
        )
        l1 = config.l1
        self.wb = TimedWriteBuffer(l1.write_buffer_depth, below)
        self.translator = (
            Translator(config.translation, self.memory, seed=seed + 3)
            if config.translation is not None
            else None
        )
        if l1.unified:
            cache = Cache(l1.d_geometry, l1.policy, seed=seed)
            port = L1Port(
                cache, l1.timing.read_hit_cycles, l1.timing.write_hit_cycles,
                below, self.wb, l1.policy.miss_handling, self.translator,
            )
            self.iport = self.dport = port
        else:
            assert l1.i_geometry is not None
            dcache = Cache(l1.d_geometry, l1.policy, seed=seed)
            icache = Cache(l1.i_geometry, l1.policy, seed=seed + 101)
            self.dport = L1Port(
                dcache, l1.timing.read_hit_cycles, l1.timing.write_hit_cycles,
                below, self.wb, l1.policy.miss_handling, self.translator,
            )
            self.iport = L1Port(
                icache, l1.timing.read_hit_cycles, l1.timing.write_hit_cycles,
                below, self.wb, l1.policy.miss_handling, self.translator,
            )

    #: Couplets between cooperative-cancellation checks; a power of two
    #: so the hot loop's test is a single mask.
    CANCEL_CHECK_MASK = 0x0FFF

    def run(
        self,
        trace: Trace,
        couplets: Optional[CoupletStream] = None,
        cancel_check: Optional[Callable[[], None]] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> SimStats:
        """Simulate one trace; return warm-start statistics.

        ``couplets`` may be passed to reuse a prepaired stream across
        engine instances (the pairing is configuration independent).

        ``cancel_check`` is a cooperative-cancellation hook, invoked
        every :data:`CANCEL_CHECK_MASK` + 1 couplets; it aborts the run
        by raising (typically :exc:`~repro.errors.RunTimeoutError` from
        :func:`repro.sim.resilience.make_deadline_check`), which lets a
        campaign executor stop a over-budget simulation from inside the
        worker instead of killing the process.

        ``telemetry`` enables cycle attribution and event tracing (see
        :mod:`repro.sim.telemetry`).  Pass a *fresh* ledger per run; the
        run verifies cycle conservation on completion and raises
        :exc:`~repro.errors.SimulationError` if attribution leaks.
        """
        config = self.config
        if couplets is None:
            couplets = (
                sequentialize(trace) if config.l1.unified else pair_couplets(trace)
            )
        tel = telemetry
        if tel is not None and tel.ledger is None and tel.tracer is None:
            tel = None
        if tel is not None:
            for port in (self.iport, self.dport):
                port.telemetry = tel
                port._below_is_memory = port.below is self.memory
            self.memory.record_segments = True
        iport = self.iport
        dport = self.dport
        i_addr = couplets.i_addr
        i_pid = couplets.i_pid
        d_kind = couplets.d_kind
        d_addr = couplets.d_addr
        d_pid = couplets.d_pid
        warm_k = couplets.warm_couplet
        iread = iport.read
        dread = dport.read
        dwrite = dport.write
        now = 0
        warm_cycles = 0
        snap_i = iport.counters.snapshot()
        snap_d = dport.counters.snapshot()
        snap_mem = (0, 0, 0)
        if warm_k == 0:
            snap_mem = (self.memory.reads, self.memory.writes,
                        self.memory.busy_cycles)
        check_mask = self.CANCEL_CHECK_MASK
        if tel is None:
            for k in range(len(i_addr)):
                if cancel_check is not None and not (k & check_mask):
                    cancel_check()
                if k == warm_k:
                    warm_cycles = now
                    snap_i = iport.counters.snapshot()
                    snap_d = dport.counters.snapshot()
                    snap_mem = (self.memory.reads, self.memory.writes,
                                self.memory.busy_cycles)
                end = now + 1
                ia = i_addr[k]
                if ia != NO_REF:
                    t = iread(i_pid[k], ia, now)
                    if t > end:
                        end = t
                dk = d_kind[k]
                if dk != NO_REF:
                    if dk == _STORE:
                        t = dwrite(d_pid[k], d_addr[k], now)
                    else:
                        t = dread(d_pid[k], d_addr[k], now)
                    if t > end:
                        end = t
                now = end
        else:
            ledger = tel.ledger
            for k in range(len(i_addr)):
                if cancel_check is not None and not (k & check_mask):
                    cancel_check()
                if k == warm_k:
                    warm_cycles = now
                    snap_i = iport.counters.snapshot()
                    snap_d = dport.counters.snapshot()
                    snap_mem = (self.memory.reads, self.memory.writes,
                                self.memory.busy_cycles)
                    if ledger is not None:
                        ledger.mark_warm()
                end = now + 1
                i_segs = d_segs = None
                ia = i_addr[k]
                if ia != NO_REF:
                    t = iread(i_pid[k], ia, now)
                    if t > end:
                        end = t
                    i_segs = iport.last_segments
                dk = d_kind[k]
                if dk != NO_REF:
                    if dk == _STORE:
                        t = dwrite(d_pid[k], d_addr[k], now)
                    else:
                        t = dread(d_pid[k], d_addr[k], now)
                    if t > end:
                        end = t
                    d_segs = dport.last_segments
                tel.note_couplet(now, end, i_segs, d_segs)
                now = end
            if ledger is not None:
                ledger.verify(now, now - warm_cycles)
        if warm_k >= len(i_addr):
            raise ConfigurationError(
                "warm boundary leaves nothing to measure; shorten it"
            )
        lower = (
            self.lower_levels[0].counters.snapshot()
            if self.lower_levels
            else None
        )
        return SimStats(
            trace_name=trace.name,
            config_summary=config.describe(),
            cycle_ns=config.cycle_ns,
            cycles=now - warm_cycles,
            total_cycles=now,
            warm_cycles=warm_cycles,
            n_refs=couplets.n_warm_refs,
            n_couplets=len(i_addr) - warm_k,
            icache=iport.counters.since(snap_i),
            dcache=dport.counters.since(snap_d),
            lower=lower,
            buffer=BufferCounters(
                pushes=self.wb.pushes,
                full_stalls=self.wb.full_stalls,
                match_stalls=self.wb.match_stalls,
                max_occupancy=self.wb.max_occupancy,
            ),
            memory_reads=self.memory.reads - snap_mem[0],
            memory_writes=self.memory.writes - snap_mem[1],
            memory_busy_cycles=self.memory.busy_cycles - snap_mem[2],
        )


def simulate(
    config: SystemConfig,
    trace: Trace,
    couplets: Optional[CoupletStream] = None,
    seed: int = 0,
    cancel_check: Optional[Callable[[], None]] = None,
    telemetry: Optional[Telemetry] = None,
) -> SimStats:
    """One-shot convenience wrapper: build an engine and run one trace."""
    return Engine(config, seed=seed).run(
        trace, couplets=couplets, cancel_check=cancel_check,
        telemetry=telemetry,
    )
