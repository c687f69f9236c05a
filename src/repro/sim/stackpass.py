"""Per-organization functional passes: one filtered pass.

The reference pass, :func:`repro.sim.fastpath.functional_pass`, drives
the :class:`~repro.cache.cache.Cache` objects the engine uses: one
``AccessResult``, one ``_locate`` tuple and one policy-object call per
reference.  :func:`organization_pass` produces the same
:class:`~repro.sim.fastpath.EventStream` for any organization in three
stages:

**A columnar front end.**  Per side, the references are stable-sorted
by set, so a set's references are adjacent and still in trace order,
and each is compared with the previous access to its set.  A reference
with the same key is a hit under LRU, FIFO and RANDOM and changes no
replacement state (under LRU its block is already the most recently
used), so it is *filtered*: it never enters a loop.  On the D side the
organization is write-back with no-allocate write misses and
whole-block fetch, so a store miss leaves its block absent; a D
reference is filtered only once an earlier load of its same-key run has
made the block resident.  A run's head, and in a store-headed run its
stores and its first load, stay.

**A residual per-set loop** over the references that stay, in trace
order, with one key list per set they touch under the organization's
replacement policy (seed ``seed + 101`` on the I side, as the reference
seeds its I-cache, and ``seed`` on the D side).  Every miss stays, so
RANDOM draws from the same generator in the same order as the
``Cache`` does.  The loop hands back miss flags, each hit's *epoch*
(the fill position of its block) and, per eviction, the victim's epoch.
With one block per set the loop is empty: a kept fetch misses, a D
reference hits iff its key is the key of the set's last load, and a
load miss evicts the previous epoch of its set.

**A columnar back end.**  A victim's dirty words are the distinct
``(epoch, word)`` pairs of its epoch's store hits, filtered ones
included, so no per-block bit mask caps the block size.  Event gaps and
the warm marks come from one cumulative sum of per-couplet base cycles,
and the measured counts from masked sums past ``warm_couplet``.

The stream is bit-identical to the reference, so
:func:`~repro.sim.fastpath.replay`, :mod:`~repro.sim.replaykernel` and
:mod:`~repro.sim.passcache` consume it unchanged.

**Sibling sharing.**  A stream depends on the trace contents, the I/D
geometry, the replacement policy and the seed, never on timing.
:func:`stack_functional_passes` takes a group of *timing siblings*
(jobs that differ only in cycle time, memory timing or write-buffer
depth), runs one pass and hands the others relabelled copies.
:func:`repro.core.sweep.run_functional_passes` builds those groups.

**Why there is no shared walk.**  An earlier design derived every LRU
and direct-mapped organization over a trace from one Mattson-style
stack walk (LRU inclusion).  Once a per-organization pass existed the
walk no longer paid for itself, even on LRU grids; ``docs/internals.md``
("The per-organization pass") has the measurements.

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
from ..cache.replacement import LRUPolicy, ReplacementPolicy, make_policy
from ..core.geometry import CacheGeometry
from ..cpu.processor import NO_REF, CoupletStream, pair_couplets
from ..errors import ConfigurationError
from ..trace.record import RefKind, Trace
from .config import SystemConfig
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
    """One organization's EventStream from the filtered pass.

    Same signature and bit-identical stream as
    :func:`~repro.sim.fastpath.functional_pass`, which stays as the
    :class:`~repro.cache.cache.Cache`-object reference it is tested
    against.  Any fastpath-supported organization is accepted.
    """
    check_fastpath_supported(config)
    if couplets is None:
        couplets = pair_couplets(trace)
    warm_k = couplets.warm_couplet
    if warm_k >= len(couplets):
        raise ConfigurationError(
            "warm boundary leaves nothing to measure; shorten it"
        )
    l1 = config.l1
    i_geometry = l1.i_geometry
    d_geometry = l1.d_geometry
    assert i_geometry is not None
    replacement = l1.policy.replacement
    i_addr, i_pid, d_kind, d_addr, d_pid = couplets.columns

    i_at = np.flatnonzero(i_addr != NO_REF)
    order, sets, high, low, same = _front(
        i_pid[i_at], i_addr[i_at], i_geometry,
    )
    # A fetch with the key of the previous fetch to its set hits.
    miss = ~same
    if i_geometry.assoc > 1:
        miss, _epoch, _victim = _residual(
            miss, np.ones(len(order), dtype=bool), order, sets, high, low,
            i_geometry.assoc, make_policy(replacement, seed=seed + 101),
        )
    i_miss = np.empty(len(order), dtype=bool)
    i_miss[order] = miss

    d_at = np.flatnonzero(d_kind != NO_REF)
    word_addr = d_addr[d_at]
    order, sets, high, low, same = _front(
        d_pid[d_at], word_addr, d_geometry,
    )
    pos = np.arange(len(order))
    load = d_kind[d_at][order] != _STORE
    last_load = _previous(np.maximum.accumulate(np.where(load, pos, -1)))
    if d_geometry.assoc == 1:
        # Store misses bypass, so the resident key is the key of the
        # last load to the set; a load miss starts an epoch of its set
        # and evicts the previous one.
        at = np.maximum(last_load, 0)
        hit = (last_load >= 0) & (high[at] == high) & (low[at] == low)
        epoch = np.maximum.accumulate(np.where(load & ~hit, pos, -1))
        victim = _previous(epoch)
        victim[hit | ~load | (victim < 0) | (sets[victim] != sets)] = -1
    else:
        # A same-key reference hits once a load of its run has made the
        # block resident; until then a store may miss and bypass.
        run_head = np.maximum.accumulate(np.where(same, 0, pos))
        miss, epoch, victim = _residual(
            ~same | (last_load < run_head), load, order, sets, high, low,
            d_geometry.assoc, make_policy(replacement, seed=seed),
        )
        hit = ~miss
    # Dirty words per epoch are the distinct (epoch, word) pairs of its
    # store hits; no per-block bit mask, so any block size.
    written = hit & ~load
    shift = d_geometry.offset_bits
    pairs = np.sort(
        (epoch[written] << shift)
        | (word_addr[order][written] & (d_geometry.block_words - 1))
    )
    distinct = np.ones(len(pairs), dtype=bool)
    distinct[1:] = pairs[1:] != pairs[:-1]
    dirty = np.bincount(pairs[distinct] >> shift, minlength=len(order))
    # A victim with no dirty word is dropped silently.
    victim_words = np.where(victim >= 0, dirty[victim], 0)
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

    imiss = i_miss_at[ev]
    dtype = d_type_at[ev]
    d_mask = ~(d_geometry.block_words - 1)
    daddr = d_addr[ev]
    slot = np.searchsorted(ev, wb_couplet)
    vaddr = np.full(len(ev), -1, dtype=np.int64)
    vaddr[slot] = low[victim] << shift
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
    i_reads = len(i_at) - i_from
    i_read_misses = int(np.count_nonzero(i_miss[i_from:]))
    wb_blocks = len(wb) - wb_from
    i_block = i_geometry.block_words
    d_block = d_geometry.block_words
    return EventStream(
        trace_name=trace.name,
        config_summary=config.describe(),
        i_block_words=i_block,
        d_block_words=d_block,
        n_couplets=n,
        n_couplets_measured=n - warm_k,
        n_refs_measured=couplets.n_warm_refs,
        warm_event_index=warm_event_index,
        warm_base_offset=int(
            cum[warm_k] - base[warm_k] - since[warm_event_index]
        ),
        end_base=int(cum[-1] - since[-1]),
        **dict(zip(EVENT_FIELDS, events)),
        icache=CacheCounters(
            reads=i_reads,
            read_misses=i_read_misses,
            fetched_words=i_read_misses * i_block,
        ),
        dcache=CacheCounters(
            reads=load_hits + load_misses,
            read_misses=load_misses,
            writes=store_hits + store_misses,
            write_misses=store_misses,
            bypass_writes=store_misses,
            fetched_words=load_misses * d_block,
            writeback_blocks=wb_blocks,
            writeback_words_full=wb_blocks * d_block,
            writeback_words_dirty=int(wb_words[wb_from:].sum()),
        ),
    )


def _q(values: np.ndarray) -> array:
    """A column as the ``array('q')`` an EventStream buffer is."""
    return array("q", values.astype(np.int64).tobytes())


def _front(
    pid: np.ndarray, addr: np.ndarray, geometry: CacheGeometry,
) -> Tuple[np.ndarray, ...]:
    """One side's references in a stable order by set, so the references
    to a set are adjacent and still in trace order.  Returns the order
    and, in that order, each reference's set index; the halves
    ``(key >> 44, key & _ADDR_MASK)`` of the cache's block key
    ``(pid << 44) | block`` (exact in int64 for any pid and address;
    equal halves mean equal keys); and whether the reference has the key
    of the previous access to its set."""
    block = addr >> geometry.offset_bits
    high = pid | (block >> _PID_SHIFT)
    low = block & _ADDR_MASK
    sets = low & (geometry.n_sets - 1)
    if geometry.n_sets <= 1 << 16:
        # Small keys take numpy's linear-time radix sort.
        sets = sets.astype(np.uint16)
    order = np.argsort(sets, kind="stable")
    sets, high, low = sets[order], high[order], low[order]
    # Equal keys share a set, so comparing with the previous reference
    # in set order needs no set check.
    same = np.zeros(len(order), dtype=bool)
    same[1:] = (high[1:] == high[:-1]) & (low[1:] == low[:-1])
    return order, sets, high, low, same


def _previous(running: np.ndarray) -> np.ndarray:
    """A running "last marked position" column shifted one step, so
    each position sees the last mark strictly before it (-1 if none)."""
    before = np.empty_like(running)
    before[:1] = -1
    before[1:] = running[:-1]
    return before


def _residual(
    kept: np.ndarray, load: np.ndarray, order: np.ndarray,
    sets: np.ndarray, high: np.ndarray, low: np.ndarray, assoc: int,
    policy: ReplacementPolicy,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The per-set loop over the ``kept`` references, in trace order.

    Every column is in set order (see :func:`_front`).  A key list per
    touched set is in fill order, or LRU-first under LRU, so its
    positions are the cache's order-list positions and ``policy``'s
    victim choice applies to it unchanged; every miss is kept, so a
    RANDOM policy draws in the ``Cache``'s order.  A reference left out
    hits and changes nothing.  Returns, in set order, the miss flags;
    each hit's and load miss's epoch (the set-order position of the load
    that filled its block); and each evicting load's victim epoch, -1
    where nothing is evicted.
    """
    at = np.flatnonzero(kept)
    at = at[np.argsort(order[at])]
    lru = isinstance(policy, LRUPolicy)
    evict = policy.victim
    # One key list per set touched, numbered in set order.
    touched = np.ones(len(sets), dtype=bool)
    touched[1:] = sets[1:] != sets[:-1]
    set_no = np.cumsum(touched) - 1
    lists: List[List[int]] = [[] for _ in range(int(touched.sum()))]
    fills: Dict[int, int] = {}
    missed: List[int] = []
    hit_at: List[int] = []
    hit_epoch: List[int] = []
    evicted: List[int] = []
    victims: List[int] = []
    for h, l, s, is_load, p in zip(
        high[at].tolist(), low[at].tolist(), set_no[at].tolist(),
        load[at].tolist(), at.tolist(),
    ):
        # The exact cache key, as a Python int: no int64 packing.
        key = (h << _PID_SHIFT) | l
        lst = lists[s]
        if key in lst:
            if lru and lst[-1] != key:
                lst.remove(key)
                lst.append(key)
            hit_at.append(p)
            hit_epoch.append(fills[key])
            continue
        missed.append(p)
        if is_load:
            if len(lst) == assoc:
                evicted.append(p)
                victims.append(fills.pop(evict(lst, assoc)))
            lst.append(key)
            fills[key] = p
    pos = np.arange(len(order))
    miss = np.zeros(len(order), dtype=bool)
    miss[missed] = True
    epoch = np.where(miss & load, pos, -1)
    epoch[hit_at] = hit_epoch
    # A left-out reference shares the epoch of the last kept one before
    # it: the first load of its run.
    epoch = epoch[np.maximum.accumulate(np.where(kept, pos, 0))]
    victim = np.full(len(order), -1, dtype=np.int64)
    victim[evicted] = victims
    return miss, epoch, victim


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
