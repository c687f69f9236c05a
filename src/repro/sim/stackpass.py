"""Per-organization functional passes: a columnar route and an inline loop.

The reference pass, :func:`repro.sim.fastpath.functional_pass`, drives
the :class:`~repro.cache.cache.Cache` objects the engine uses: one
``AccessResult``, one ``_locate`` tuple and one policy-object call per
reference.  :func:`organization_pass` produces the same
:class:`~repro.sim.fastpath.EventStream` by one of two routes, picked
from the organization itself:

**The columnar route** (both sides direct-mapped, any policy and seed:
with one block per set no victim is ever chosen).  A handful of numpy
passes over the couplet columns replace the per-reference loop.  The
references are stable-sorted by set; an I fetch misses iff the previous
fetch to its set has another key; on the D side the resident key is the
key of the last load to the set (store misses bypass), a load miss
starts an *epoch* of its set and evicts the previous one, and a
victim's dirty words are the distinct ``(epoch, word)`` pairs of that
epoch's store hits, so no per-block bit mask caps the block size.
Event gaps and the warm marks come from one cumulative sum of
per-couplet base cycles.

**The inline loop** (every other organization):

* **I-side**: one key list per set under the organization's own
  replacement policy.  Only LRU moves a hit to the tail; a miss into a
  full set evicts through the policy's ``victim`` (seed ``seed + 101``,
  as the reference seeds its I-cache), so RANDOM draws from the same
  generator in the same order as the ``Cache`` does.
* **D-side**: the same key lists (seed ``seed``) plus a dirty word mask
  per resident block.  The organization is write-back with
  no-allocate write misses and whole-block fetch, so a store miss
  bypasses the set and a resident key implies every word is valid.

Counters live in locals and fold into
:class:`~repro.sim.statistics.CacheCounters` at the end.  The loop
mirrors the reference statement for statement (warm snapshot, event
emission, address masking).  Both routes' streams are bit-identical to
the reference, so :func:`~repro.sim.fastpath.replay`,
:mod:`~repro.sim.replaykernel` and :mod:`~repro.sim.passcache` consume
them unchanged.  No option selects a route: the organization decides,
so a caller cannot ask for the slow one where the fast one is exact.

**Sibling sharing.**  A stream depends on the trace contents, the I/D
geometry, the replacement policy and the seed, never on timing.
:func:`stack_functional_passes` takes a group of *timing siblings*
(jobs that differ only in cycle time, memory timing or write-buffer
depth), runs one pass and hands the others relabelled copies.
:func:`repro.core.sweep.run_functional_passes` builds those groups.

**Why there is no shared walk.**  An earlier design derived every LRU
and direct-mapped organization over a trace from one Mattson-style
stack walk (LRU inclusion).  Once the inline pass existed the walk no
longer paid for itself, even on LRU grids; ``docs/internals.md`` ("The
per-organization pass") has the measurements.

``tests/sim/test_stackpass.py`` and ``tests/sim/test_routes.py`` hold
every stream bit-identical to the reference across generated
organizations, every replacement policy and the degenerate corners.
The module and :func:`stack_functional_passes` keep their names for
callers that bind them.
"""

from __future__ import annotations

import dataclasses
from array import array
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cache.cache import _PID_SHIFT
from ..cache.replacement import make_policy
from ..core.geometry import CacheGeometry
from ..core.policy import ReplacementKind
from ..cpu.processor import NO_REF, CoupletStream, pair_couplets
from ..errors import ConfigurationError
from ..trace.record import RefKind, Trace
from .config import L1Spec, SystemConfig
from .fastpath import EVENT_FIELDS, EventStream, check_fastpath_supported
from .statistics import CacheCounters

_STORE = int(RefKind.STORE)

# d-side event codes, mirroring fastpath.
_D_NONE = 0
_D_WRITE_HIT = 1
_D_READ_MISS = 2
_D_WRITE_MISS = 3

_ADDR_MASK = (1 << _PID_SHIFT) - 1


def pass_key(config: SystemConfig, trace: Trace, seed: int) -> Tuple:
    """What a functional pass depends on: trace contents, I/D geometry,
    cache policy and seed.  Jobs with equal keys are timing siblings."""
    l1 = config.l1
    return (
        trace.content_fingerprint(), l1.i_geometry, l1.d_geometry,
        l1.policy, seed,
    )


def organization_pass(
    config: SystemConfig,
    trace: Trace,
    couplets: Optional[CoupletStream] = None,
    seed: int = 0,
) -> EventStream:
    """One organization's EventStream from inline per-set models.

    Same signature and bit-identical stream as
    :func:`~repro.sim.fastpath.functional_pass`, which stays as the
    :class:`~repro.cache.cache.Cache`-object reference it is tested
    against.  Any fastpath-supported organization is accepted; one that
    is direct-mapped on both sides takes the columnar route.
    """
    check_fastpath_supported(config)
    if couplets is None:
        couplets = pair_couplets(trace)
    if couplets.warm_couplet >= len(couplets):
        raise ConfigurationError(
            "warm boundary leaves nothing to measure; shorten it"
        )
    l1 = config.l1
    i_geometry = l1.i_geometry
    d_geometry = l1.d_geometry
    assert i_geometry is not None
    if i_geometry.assoc == 1 and d_geometry.assoc == 1:
        events, marks, counts = _direct_mapped_pass(
            i_geometry, d_geometry, couplets,
        )
    else:
        events, marks, counts = _inline_pass(l1, couplets, seed)
    warm_event_index, warm_base_offset, end_base = marks
    (i_reads, i_read_misses, d_reads, d_read_misses, d_writes,
     d_write_misses, wb_blocks, wb_words_dirty) = counts
    i_block = i_geometry.block_words
    d_block = d_geometry.block_words
    return EventStream(
        trace_name=trace.name,
        config_summary=config.describe(),
        i_block_words=i_block,
        d_block_words=d_block,
        n_couplets=len(couplets),
        n_couplets_measured=len(couplets) - couplets.warm_couplet,
        n_refs_measured=couplets.n_warm_refs,
        warm_event_index=warm_event_index,
        warm_base_offset=warm_base_offset,
        end_base=end_base,
        **dict(zip(EVENT_FIELDS, events)),
        icache=CacheCounters(
            reads=i_reads,
            read_misses=i_read_misses,
            fetched_words=i_read_misses * i_block,
        ),
        dcache=CacheCounters(
            reads=d_reads,
            read_misses=d_read_misses,
            writes=d_writes,
            write_misses=d_write_misses,
            bypass_writes=d_write_misses,
            fetched_words=d_read_misses * d_block,
            writeback_blocks=wb_blocks,
            writeback_words_full=wb_blocks * d_block,
            writeback_words_dirty=wb_words_dirty,
        ),
    )


#: What a route returns: the nine event buffers in ``EVENT_FIELDS``
#: order; ``(warm_event_index, warm_base_offset, end_base)``; and the
#: measured counts ``(i reads, i read misses, d reads, d read misses, d
#: writes, d write misses, write-back blocks, dirty write-back words)``.
_Route = Tuple[List[array], Tuple[int, int, int], Tuple[int, ...]]


def _inline_pass(l1: L1Spec, couplets: CoupletStream, seed: int) -> _Route:
    """The per-reference loop over inline per-set key lists."""
    i_geometry = l1.i_geometry
    i_block = i_geometry.block_words
    i_offset_bits = i_geometry.offset_bits
    i_index_mask = i_geometry.n_sets - 1
    i_assoc = i_geometry.assoc
    d_geometry = l1.d_geometry
    d_block = d_geometry.block_words
    d_offset_bits = d_geometry.offset_bits
    d_index_mask = d_geometry.n_sets - 1
    d_word_mask = d_block - 1
    d_assoc = d_geometry.assoc
    i_mask = ~(i_block - 1)
    d_mask = ~(d_block - 1)
    shift = _PID_SHIFT
    i_addr = couplets.i_addr
    i_pid = couplets.i_pid
    d_kind = couplets.d_kind
    d_addr = couplets.d_addr
    d_pid = couplets.d_pid
    warm_k = couplets.warm_couplet
    # A key list is in fill order, or LRU-first under LRU, so its
    # positions are the cache's order-list positions and the policy's
    # victim choice applies to it unchanged.
    replacement = l1.policy.replacement
    lru = replacement is ReplacementKind.LRU
    i_evict = make_policy(replacement, seed=seed + 101).victim
    d_evict = make_policy(replacement, seed=seed).victim
    i_sets: List[List[int]] = [[] for _ in range(i_geometry.n_sets)]
    d_sets: List[List[int]] = [[] for _ in range(d_geometry.n_sets)]
    d_dirty: Dict[int, int] = {}
    ev_gap = array("q")
    ev_imiss = array("q")
    ev_iaddr = array("q")
    ev_ipid = array("q")
    ev_dtype = array("q")
    ev_daddr = array("q")
    ev_dpid = array("q")
    ev_vaddr = array("q")
    ev_vpid = array("q")
    # Counters are tracked as locals (attribute stores per couplet would
    # dominate the pass) and folded into CacheCounters at the end.
    i_reads = i_read_misses = 0
    d_reads = d_read_misses = d_writes = d_write_misses = 0
    d_wb_blocks = d_wb_words_dirty = 0
    warm = (0,) * 8
    warm_event_index = 0
    warm_base_offset = 0
    base_acc = 0
    for k in range(len(i_addr)):
        if k == warm_k:
            warm = (
                i_reads, i_read_misses, d_reads, d_read_misses,
                d_writes, d_write_misses, d_wb_blocks, d_wb_words_dirty,
            )
            warm_event_index = len(ev_gap)
            warm_base_offset = base_acc
        imiss = False
        ia = i_addr[k]
        ip = -1
        if ia != NO_REF:
            ip = i_pid[k]
            i_reads += 1
            key = (ip << shift) | (ia >> i_offset_bits)
            lst = i_sets[key & i_index_mask]
            if key in lst:
                if lru and lst[-1] != key:
                    lst.remove(key)
                    lst.append(key)
            else:
                # Split I-caches never hold dirty data, so victims are
                # clean and silently dropped.
                imiss = True
                i_read_misses += 1
                if len(lst) == i_assoc:
                    i_evict(lst, i_assoc)
                lst.append(key)
        dtype = _D_NONE
        dk = d_kind[k]
        da = dp = -1
        vaddr = vpid = -1
        if dk != NO_REF:
            da = d_addr[k]
            dp = d_pid[k]
            key = (dp << shift) | (da >> d_offset_bits)
            lst = d_sets[key & d_index_mask]
            if dk == _STORE:
                d_writes += 1
                if key in lst:
                    dtype = _D_WRITE_HIT
                    if lru and lst[-1] != key:
                        lst.remove(key)
                        lst.append(key)
                    d_dirty[key] = d_dirty.get(key, 0) | (1 << (da & d_word_mask))
                else:
                    dtype = _D_WRITE_MISS
                    d_write_misses += 1
            else:
                d_reads += 1
                if key in lst:
                    if lru and lst[-1] != key:
                        lst.remove(key)
                        lst.append(key)
                else:
                    dtype = _D_READ_MISS
                    d_read_misses += 1
                    if len(lst) == d_assoc:
                        victim = d_evict(lst, d_assoc)
                        vmask = d_dirty.pop(victim, 0)
                        if vmask:
                            vpid = victim >> shift
                            vaddr = (victim & _ADDR_MASK) << d_offset_bits
                            d_wb_blocks += 1
                            d_wb_words_dirty += bin(vmask).count("1")
                    lst.append(key)
        if imiss or dtype == _D_READ_MISS or dtype == _D_WRITE_MISS:
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
    counts = (
        i_reads, i_read_misses, d_reads, d_read_misses,
        d_writes, d_write_misses, d_wb_blocks, d_wb_words_dirty,
    )
    events = [
        ev_gap, ev_imiss, ev_iaddr, ev_ipid, ev_dtype,
        ev_daddr, ev_dpid, ev_vaddr, ev_vpid,
    ]
    return (
        events,
        (warm_event_index, warm_base_offset, base_acc),
        tuple(total - before for total, before in zip(counts, warm)),
    )


def _q(values: np.ndarray) -> array:
    """A column as the ``array('q')`` an EventStream buffer is."""
    return array("q", values.astype(np.int64).tobytes())


def _block_keys(pid: np.ndarray, addr: np.ndarray, offset_bits: int):
    """The cache's block key ``(pid << 44) | block`` as its two halves
    ``(key >> 44, key & _ADDR_MASK)``: exact in int64 for any pid and
    address, and equal halves mean equal keys."""
    block = addr >> offset_bits
    return pid | (block >> _PID_SHIFT), block & _ADDR_MASK


def _by_set(low: np.ndarray, n_sets: int):
    """A stable order of references by set index, and at each position
    of that order the position where its set's run begins."""
    sets = low & (n_sets - 1)
    if n_sets <= 1 << 16:
        # Small keys take numpy's linear-time radix sort.
        sets = sets.astype(np.uint16)
    order = np.argsort(sets, kind="stable")
    sets = sets[order]
    new_run = np.ones(len(order), dtype=bool)
    new_run[1:] = sets[1:] != sets[:-1]
    return order, np.maximum.accumulate(
        np.where(new_run, np.arange(len(order)), 0)
    )


def _previous(running: np.ndarray) -> np.ndarray:
    """A running "last marked position" column shifted one step, so
    each position sees the last mark strictly before it (-1 if none)."""
    before = np.empty_like(running)
    before[:1] = -1
    before[1:] = running[:-1]
    return before


def _direct_mapped_pass(
    i_geometry: CacheGeometry, d_geometry: CacheGeometry,
    couplets: CoupletStream,
) -> _Route:
    """The columnar route: numpy passes over the couplet columns, with
    no per-reference loop (the derivation is in the module docstring).
    With one block per set, a set's contents at any reference follow
    from the earlier references to that set alone, so a stable sort by
    set puts each reference next to the ones that decide it."""
    i_addr, i_pid, d_kind, d_addr, d_pid = couplets.columns
    warm_k = couplets.warm_couplet

    i_at = np.flatnonzero(i_addr != NO_REF)
    high, low = _block_keys(i_pid[i_at], i_addr[i_at], i_geometry.offset_bits)
    order, _run_start = _by_set(low, i_geometry.n_sets)
    high, low = high[order], low[order]
    # Equal keys share a set, so comparing with the previous fetch in
    # set order needs no set check.
    hit = np.zeros(len(order), dtype=bool)
    hit[1:] = (high[1:] == high[:-1]) & (low[1:] == low[:-1])
    i_miss = np.empty(len(order), dtype=bool)
    i_miss[order] = ~hit

    d_at = np.flatnonzero(d_kind != NO_REF)
    word_addr = d_addr[d_at]
    high, low = _block_keys(d_pid[d_at], word_addr, d_geometry.offset_bits)
    order, run_start = _by_set(low, d_geometry.n_sets)
    pos = np.arange(len(order))
    high, low = high[order], low[order]
    load = d_kind[d_at][order] != _STORE
    last_load = _previous(np.maximum.accumulate(np.where(load, pos, -1)))
    at = np.maximum(last_load, 0)
    hit = (last_load >= 0) & (high[at] == high) & (low[at] == low)
    load_miss = load & ~hit
    epoch = np.maximum.accumulate(np.where(load_miss, pos, -1))
    # Dirty words per epoch; no per-block bit mask, so any block size.
    written = hit & ~load
    dirty_epoch = epoch[written]
    word = word_addr[order][written] & (d_geometry.block_words - 1)
    by_pair = np.lexsort((word, dirty_epoch))
    dirty_epoch, word = dirty_epoch[by_pair], word[by_pair]
    distinct = np.ones(len(word), dtype=bool)
    distinct[1:] = (
        (dirty_epoch[1:] != dirty_epoch[:-1]) | (word[1:] != word[:-1])
    )
    dirty = np.bincount(dirty_epoch[distinct], minlength=len(order))
    # A load miss evicts the previous epoch of its set; a victim with
    # no dirty word is dropped silently.
    victim = _previous(epoch)
    victim_words = np.where(
        load_miss & (victim >= run_start), dirty[np.maximum(victim, 0)], 0,
    )
    d_type = np.where(
        load,
        np.where(hit, _D_NONE, _D_READ_MISS),
        np.where(hit, _D_WRITE_HIT, _D_WRITE_MISS),
    )
    # Back to reference order.
    back = np.empty_like(order)
    back[order] = pos
    d_type = d_type[back]
    victim_words = victim_words[back]
    wb = np.flatnonzero(victim_words)
    victim = victim[back[wb]]
    wb_words = victim_words[wb]
    wb_couplet = d_at[wb]

    n = len(couplets)
    i_miss_at = np.zeros(n, dtype=bool)
    i_miss_at[i_at] = i_miss
    d_type_at = np.zeros(n, dtype=np.int64)
    d_type_at[d_at] = d_type
    eventful = i_miss_at | (d_type_at >= _D_READ_MISS)
    base = np.where(d_type_at == _D_WRITE_HIT, 2, 1)
    base[eventful] = 0
    cum = np.cumsum(base)
    ev = np.flatnonzero(eventful)
    at_event = cum[ev]
    warm_event_index = int(np.searchsorted(ev, warm_k))
    # Base cycles since the last event before the warm boundary, and
    # since the last event of all.
    since = np.concatenate(([0], at_event))
    marks = (
        warm_event_index,
        int(cum[warm_k] - base[warm_k] - since[warm_event_index]),
        int(cum[-1] - since[-1]),
    )

    imiss = i_miss_at[ev]
    dtype = d_type_at[ev]
    d_mask = ~(d_geometry.block_words - 1)
    daddr = d_addr[ev]
    slot = np.searchsorted(ev, wb_couplet)
    vaddr = np.full(len(ev), -1, dtype=np.int64)
    vaddr[slot] = low[victim] << d_geometry.offset_bits
    vpid = np.full(len(ev), -1, dtype=np.int64)
    vpid[slot] = high[victim]
    events = [_q(column) for column in (
        np.diff(at_event, prepend=0),
        imiss,
        np.where(imiss, i_addr[ev] & ~(i_geometry.block_words - 1), -1),
        np.where(imiss, i_pid[ev], -1),
        dtype,
        np.where(dtype == _D_READ_MISS, daddr & d_mask, daddr),
        d_pid[ev],
        vaddr,
        vpid,
    )]

    i_from = int(np.searchsorted(i_at, warm_k))
    d_from = int(np.searchsorted(d_at, warm_k))
    wb_from = int(np.searchsorted(wb_couplet, warm_k))
    # Counts of the four d-side codes, in code order.
    load_hits, store_hits, load_misses, store_misses = (
        int(count) for count in np.bincount(d_type[d_from:], minlength=4)
    )
    counts = (
        len(i_at) - i_from,
        int(np.count_nonzero(i_miss[i_from:])),
        load_hits + load_misses,
        load_misses,
        store_hits + store_misses,
        store_misses,
        len(wb) - wb_from,
        int(wb_words[wb_from:].sum()),
    )
    return events, marks, counts


def stack_functional_passes(
    jobs: Sequence[Tuple[SystemConfig, Trace, int]],
    couplets: Optional[CoupletStream] = None,
) -> List[EventStream]:
    """One pass for a group of timing siblings.

    Every job is a ``(config, trace, seed)`` triple, and all of them
    must share one :func:`pass_key`: the same trace contents and the
    same organization up to timing parameters.  The first job takes
    :func:`organization_pass`; every other job gets a copy of its
    stream relabelled with its own trace name and configuration, with
    counters of its own.
    """
    jobs = list(jobs)
    if not jobs:
        return []
    config, trace, seed = jobs[0]
    key = pass_key(config, trace, seed)
    if any(pass_key(*job) != key for job in jobs[1:]):
        raise ConfigurationError(
            "functional-pass jobs must share one trace and one "
            "organization up to timing; group them by pass_key first"
        )
    stream = organization_pass(config, trace, couplets=couplets, seed=seed)
    return [stream] + [
        dataclasses.replace(
            stream,
            trace_name=job_trace.name,
            config_summary=job_config.describe(),
            icache=stream.icache.snapshot(),
            dcache=stream.dcache.snapshot(),
        )
        for job_config, job_trace, _seed in jobs[1:]
    ]
