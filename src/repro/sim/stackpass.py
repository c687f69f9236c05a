"""Per-organization functional passes from inline set models.

The reference pass, :func:`repro.sim.fastpath.functional_pass`, drives
the :class:`~repro.cache.cache.Cache` objects the engine uses: one
``AccessResult``, one ``_locate`` tuple and one policy-object call per
reference.  :func:`organization_pass` produces the same
:class:`~repro.sim.fastpath.EventStream` from inline set models
instead:

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
emission, address masking), so the stream is bit-identical and
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
stack walk (LRU inclusion).  Once this inline pass existed the walk no
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

from ..cache.cache import _PID_SHIFT
from ..cache.replacement import make_policy
from ..core.policy import ReplacementKind
from ..cpu.processor import NO_REF, CoupletStream, pair_couplets
from ..errors import ConfigurationError
from ..trace.record import RefKind, Trace
from .config import SystemConfig
from .fastpath import EventStream, check_fastpath_supported
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
    against.  Any fastpath-supported organization is accepted.
    """
    check_fastpath_supported(config)
    if couplets is None:
        couplets = pair_couplets(trace)
    l1 = config.l1
    i_geometry = l1.i_geometry
    assert i_geometry is not None
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
    if warm_k >= len(i_addr):
        raise ConfigurationError(
            "warm boundary leaves nothing to measure; shorten it"
        )
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
    ci = CacheCounters(
        reads=i_reads - warm[0],
        read_misses=i_read_misses - warm[1],
        fetched_words=(i_read_misses - warm[1]) * i_block,
    )
    wb_blocks = d_wb_blocks - warm[6]
    cd = CacheCounters(
        reads=d_reads - warm[2],
        read_misses=d_read_misses - warm[3],
        writes=d_writes - warm[4],
        write_misses=d_write_misses - warm[5],
        bypass_writes=d_write_misses - warm[5],
        fetched_words=(d_read_misses - warm[3]) * d_block,
        writeback_blocks=wb_blocks,
        writeback_words_full=wb_blocks * d_block,
        writeback_words_dirty=d_wb_words_dirty - warm[7],
    )
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
        icache=ci,
        dcache=cd,
    )


def stack_functional_passes(
    jobs: Sequence[Tuple[SystemConfig, Trace, int]],
    couplets: Optional[CoupletStream] = None,
) -> List[EventStream]:
    """One inline pass for a group of timing siblings.

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
