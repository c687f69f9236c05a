"""Single-pass multi-configuration functional simulation.

:func:`repro.sim.fastpath.functional_pass` walks the whole trace once
per cache *organization*, which makes the cold half of an N-organization
sweep cost N trace walks.  This module collapses those walks into one
using the classic stack-algorithm observation (Mattson et al. 1970):
under LRU, the set of blocks resident in an A-way set is exactly the A
most recently touched distinct blocks that map to it — the *inclusion
property*.  Walking the trace once while maintaining, for every distinct
``(block size, set count)`` pair in the grid, per-set LRU lists capped
at the largest swept associativity lets us record each reference's
position from the MRU end.  An organization with associativity ``A``
hits exactly when that recorded position is ``< A``, so every
organization sharing the pair is priced from the same walk.

Three structural facts shape the implementation:

* **I-side sharing is exact.**  The I-cache sees only reads, so LRU
  inclusion holds and one position column per ``(block, sets)`` pair
  serves every associativity (the *set-refinement forest*: the same
  walk refines into every geometry in the grid).
* **D-side state is re-derived per geometry.**  Under write-back with
  no-allocate write misses, a store that hits in a *larger* cache but
  misses in a smaller one updates recency/dirty state only in the
  larger — inclusion breaks, so sharing one superset structure across
  associativities would be wrong.  Instead each distinct D-geometry
  replays an exact in-line LRU model (per-set key lists plus a dirty
  word mask) during stream derivation.  Derivation reads the in-memory
  couplet arrays, not the trace, so it is much cheaper than a scalar
  :func:`~repro.sim.fastpath.functional_pass`; organizations differing
  only in temporal parameters (cycle time, memory timing, write-buffer
  depth) share one derived stream outright.
* **Fallback is explicit.**  Only LRU caches obey inclusion; FIFO and
  RANDOM organizations with associativity > 1 take a per-organization
  inline pass (:func:`organization_pass`), counted in
  :attr:`StackPassStats.fallback_passes`: the same derivation loop fed
  by an inline I-side set model instead of a walk's column, with each
  side's replacement policy applied to its key lists (RANDOM draws
  from the same seeded generator, in the same order, as the
  :class:`~repro.cache.cache.Cache` objects of the scalar pass).
  Direct-mapped caches are eligible under *any* replacement policy —
  with one way there is never a choice of victim, so the policies
  coincide (and the RANDOM seed cannot influence the outcome).

The produced :class:`~repro.sim.fastpath.EventStream` objects are
bit-identical to what :func:`functional_pass` — the reference pass —
emits for the same organization (the replication below mirrors its
loop line for line), so :func:`~repro.sim.fastpath.replay`,
:mod:`~repro.sim.replaykernel`, and :mod:`~repro.sim.passcache`
consume them unchanged.  ``tests/sim/test_stackpass.py`` and
``tests/sim/test_routes.py`` pin that bit-equality across randomized
grids, every replacement policy and every degenerate corner.
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

#: Stack-position sentinel for "not resident at any tracked depth".
#: Larger than any real associativity, small enough for ``array('i')``.
_COLD = 1 << 30

_ADDR_MASK = (1 << _PID_SHIFT) - 1


@dataclasses.dataclass
class StackPassStats:
    """Counters describing how a batch of functional passes was served.

    Published to a :class:`~repro.sim.telemetry.MetricsRegistry` under
    ``stackpass.*``.
    """

    walks: int = 0              #: shared stack walks over a trace
    derived_streams: int = 0    #: streams derived from a walk's columns
    reused_streams: int = 0     #: streams cloned from a same-geometry sibling
    fallback_passes: int = 0    #: per-organization inline passes (ineligible)

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)

    def publish(self, registry) -> None:
        """Mirror the counters into a metrics registry; stats that saw
        no pass at all (every stream a cache hit) publish nothing."""
        counts = self.as_dict()
        if not any(counts.values()):
            return
        for name, value in counts.items():
            registry.count(f"stackpass.{name}", value)


def stack_supported(config: SystemConfig) -> bool:
    """True when ``config`` can be derived from a shared stack walk.

    Requires fastpath support plus the inclusion property: LRU
    replacement, or associativity 1 on both sides (where the
    replacement policy never gets a choice of victim).
    """
    try:
        check_fastpath_supported(config)
    except ConfigurationError:
        return False
    l1 = config.l1
    if l1.policy.replacement is ReplacementKind.LRU:
        return True
    assert l1.i_geometry is not None
    return l1.i_geometry.assoc == 1 and l1.d_geometry.assoc == 1


def _walk_istacks(
    couplets: CoupletStream,
    plans: Dict[int, Dict[int, int]],
) -> Dict[Tuple[int, int], "array[int]"]:
    """One trace walk; returns a position column per (offset_bits, sets).

    ``plans`` maps I-side ``offset_bits`` to ``{n_sets: max_assoc}``.
    For every tracked pair the returned ``array('i')`` holds, at each
    couplet index carrying an I-ref, the referenced block's distance
    from the MRU end of its set's LRU list just before the access
    (:data:`_COLD` when absent).  An A-way organization hits exactly
    when that position is ``< A``.
    """
    n = len(couplets.i_addr)
    i_addr = couplets.i_addr
    i_pid = couplets.i_pid
    columns: Dict[Tuple[int, int], "array[int]"] = {}
    # One tracker group per distinct block size so the block key is
    # computed once per group, not once per (block, sets) pair.
    groups = []
    for ob, by_sets in plans.items():
        trackers = []
        for n_sets, cap in by_sets.items():
            col = array("i", bytes(4 * n))
            columns[(ob, n_sets)] = col
            trackers.append((n_sets - 1, cap, [[] for _ in range(n_sets)], col))
        groups.append((ob, trackers))
    shift = _PID_SHIFT
    for k in range(n):
        ia = i_addr[k]
        if ia == NO_REF:
            continue
        ip = i_pid[k]
        for ob, trackers in groups:
            key = (ip << shift) | (ia >> ob)
            for index_mask, cap, sets, col in trackers:
                lst = sets[key & index_mask]
                if key in lst:
                    idx = lst.index(key)
                    last = len(lst) - 1
                    col[k] = last - idx
                    if idx != last:
                        del lst[idx]
                        lst.append(key)
                else:
                    col[k] = _COLD
                    lst.append(key)
                    if len(lst) > cap:
                        del lst[0]
    return columns


def _inline_icol(
    couplets: CoupletStream,
    config: SystemConfig,
    seed: int,
) -> "array[int]":
    """One organization's I-side miss column from an inline set model.

    Holds one key list per I-set under the organization's own
    replacement policy (seeded like the scalar pass's I-cache) and
    marks each I-ref that misses with :data:`_COLD`; hits stay 0.  The
    column therefore reads like a walk's position column for that one
    associativity, and :func:`_derive_stream` consumes it unchanged.
    """
    l1 = config.l1
    geometry = l1.i_geometry
    assert geometry is not None
    i_addr = couplets.i_addr
    i_pid = couplets.i_pid
    col = array("i", bytes(4 * len(i_addr)))
    offset_bits = geometry.offset_bits
    index_mask = geometry.n_sets - 1
    assoc = geometry.assoc
    lru = l1.policy.replacement is ReplacementKind.LRU
    evict = make_policy(l1.policy.replacement, seed=seed).victim
    sets: List[List[int]] = [[] for _ in range(geometry.n_sets)]
    shift = _PID_SHIFT
    for k in range(len(i_addr)):
        ia = i_addr[k]
        if ia == NO_REF:
            continue
        key = (i_pid[k] << shift) | (ia >> offset_bits)
        lst = sets[key & index_mask]
        if key in lst:
            if lru and lst[-1] != key:
                lst.remove(key)
                lst.append(key)
        else:
            col[k] = _COLD
            if len(lst) == assoc:
                evict(lst, assoc)
            lst.append(key)
    return col


def organization_pass(
    config: SystemConfig,
    trace: Trace,
    couplets: Optional[CoupletStream] = None,
    seed: int = 0,
) -> EventStream:
    """One organization's EventStream from inline per-set models.

    The per-organization route for organizations that cannot share a
    stack walk (multi-way FIFO and RANDOM): the same signature and the
    same bit-identical stream as
    :func:`~repro.sim.fastpath.functional_pass`, which stays as the
    :class:`~repro.cache.cache.Cache`-object reference it is tested
    against.  The I-side runs one set model over the couplets (seed
    ``seed + 101``, as the scalar pass seeds its I-cache), then
    :func:`_derive_stream` runs the D-side model (seed ``seed``) and
    emits the events.  Any fastpath-supported organization is accepted.
    """
    check_fastpath_supported(config)
    if couplets is None:
        couplets = pair_couplets(trace)
    icol = _inline_icol(couplets, config, seed + 101)
    return _derive_stream(config, trace, couplets, icol, seed)


def _derive_stream(
    config: SystemConfig,
    trace: Trace,
    couplets: CoupletStream,
    icol: Sequence[int],
    seed: int,
) -> EventStream:
    """Materialize one organization's EventStream from an I-side column.

    This mirrors :func:`~repro.sim.fastpath.functional_pass` statement
    for statement — same warm snapshotting, same event emission, same
    address masking — with the I-cache replaced by the precomputed
    position column (an I-ref misses when its entry is ``>=`` the
    I-side associativity) and the D-cache by an in-line exact model of
    the organization's replacement policy.  ``seed`` seeds the D-side
    policy exactly as :class:`~repro.cache.cache.Cache` does, so RANDOM
    victims are drawn from the same generator in the same order.
    """
    l1 = config.l1
    assert l1.i_geometry is not None
    i_block = l1.i_geometry.block_words
    d_geometry = l1.d_geometry
    d_block = d_geometry.block_words
    d_offset_bits = d_geometry.offset_bits
    d_index_mask = d_geometry.n_sets - 1
    d_word_mask = d_block - 1
    d_assoc = d_geometry.assoc
    i_assoc = l1.i_geometry.assoc
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
    # Whole-block fetch means a resident tag implies every word is
    # valid, so D-state is one key list per set plus a dirty word mask
    # per resident block (write-back dirties words; no-allocate write
    # misses bypass the cache entirely).  A key list is in fill order,
    # or LRU-first under LRU, so its positions are the cache's
    # order-list positions and the policy's victim choice applies to it
    # unchanged.
    lru = l1.policy.replacement is ReplacementKind.LRU
    evict = make_policy(l1.policy.replacement, seed=seed).victim
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
    # dominate derivation cost) and folded into CacheCounters at the end.
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
            if icol[k] >= i_assoc:
                imiss = True
                i_read_misses += 1
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
                        victim = evict(lst, d_assoc)
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


def _geometry_key(config: SystemConfig) -> Tuple[int, ...]:
    l1 = config.l1
    i = l1.i_geometry
    d = l1.d_geometry
    assert i is not None
    return (
        i.size_bytes, i.block_words, i.assoc,
        d.size_bytes, d.block_words, d.assoc,
    )


def stack_functional_passes(
    jobs: Sequence[Tuple[SystemConfig, Trace, int]],
    couplets: Optional[CoupletStream] = None,
    stats: Optional[StackPassStats] = None,
) -> List[EventStream]:
    """Derive one EventStream per job from a single shared trace walk.

    Every job is a ``(config, trace, seed)`` triple; all traces must
    carry identical contents (one walk covers the group) and every
    config must satisfy :func:`stack_supported` — callers route
    ineligible organizations through
    :func:`~repro.sim.fastpath.functional_pass` themselves.  The seed
    is accepted for signature parity with the scalar path but cannot
    influence an eligible organization's outcome (LRU is
    deterministic; with one way RANDOM never gets a choice), so
    streams for the same organization at different seeds are identical
    — exactly as they are from the scalar pass.
    """
    jobs = list(jobs)
    if not jobs:
        return []
    trace = jobs[0][1]
    for config, job_trace, _seed in jobs:
        if not stack_supported(config):
            raise ConfigurationError(
                f"organization is not stack-eligible: {config.describe()}"
            )
        if job_trace is not trace and (
            job_trace.content_fingerprint() != trace.content_fingerprint()
        ):
            raise ConfigurationError(
                "stack pass jobs must share one trace; group by "
                "content fingerprint first"
            )
    if couplets is None:
        couplets = pair_couplets(trace)
    if couplets.warm_couplet >= len(couplets.i_addr):
        raise ConfigurationError(
            "warm boundary leaves nothing to measure; shorten it"
        )
    # Refinement plan: one capped tracker per distinct (block, sets)
    # pair, capped at the deepest associativity that shares it.
    plans: Dict[int, Dict[int, int]] = {}
    for config, _job_trace, _seed in jobs:
        geometry = config.l1.i_geometry
        assert geometry is not None
        by_sets = plans.setdefault(geometry.offset_bits, {})
        n_sets = geometry.n_sets
        by_sets[n_sets] = max(by_sets.get(n_sets, 0), geometry.assoc)
    columns = _walk_istacks(couplets, plans)
    if stats is not None:
        stats.walks += 1
    results: List[EventStream] = []
    memo: Dict[Tuple[int, ...], EventStream] = {}
    for config, job_trace, seed in jobs:
        geometry_key = _geometry_key(config)
        cached = memo.get(geometry_key)
        if cached is None:
            i_geometry = config.l1.i_geometry
            assert i_geometry is not None
            icol = columns[(i_geometry.offset_bits, i_geometry.n_sets)]
            stream = _derive_stream(
                config, job_trace, couplets, icol, seed
            )
            memo[geometry_key] = stream
            if stats is not None:
                stats.derived_streams += 1
        else:
            # Same geometry, different temporal parameters (or trace
            # name): the event stream is identical, only the labels
            # and counter identities differ.
            stream = dataclasses.replace(
                cached,
                trace_name=job_trace.name,
                config_summary=config.describe(),
                icache=cached.icache.snapshot(),
                dcache=cached.dcache.snapshot(),
            )
            if stats is not None:
                stats.reused_streams += 1
        results.append(stream)
    return results
