"""CPU reference-issue model: instruction/data couplets.

The paper's CPU (§2) "is a pipelined machine capable of issuing
simultaneous instruction and data references.  If there are separate
instruction and data caches then, instruction and data references in the
trace [are] paired up without reordering any of the references.  These
couplets are issued at the same time and both must complete before the
CPU can proceed to the next reference or reference pair."

:func:`pair_couplets` performs exactly that pairing: an instruction
fetch immediately followed by a data reference forms one couplet; either
kind alone forms a degenerate couplet.  The result is a set of parallel
arrays the simulators iterate once per couplet.  Both builders work on
the numpy-backed :class:`~repro.trace.record.Trace` columns directly and
keep the int64 columns beside the lists, so columnar consumers never
convert the lists back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from ..trace.record import RefKind, Trace

#: Sentinel meaning "this half of the couplet is absent".
NO_REF = -1


@dataclass
class CoupletStream:
    """Parallel arrays describing the paired reference stream.

    ``i_addr[k]``/``i_pid[k]`` give couplet *k*'s instruction fetch
    (``NO_REF`` when absent); ``d_kind``/``d_addr``/``d_pid`` its data
    reference, with ``d_kind`` one of ``RefKind.LOAD``/``STORE`` values or
    ``NO_REF``.  ``warm_couplet`` is the first couplet whose references
    lie at or beyond the trace's warm boundary, and ``n_warm_refs``
    counts the references from that couplet on (the measured part).
    ``columns`` holds the same five lists as one ``(5, n)`` int64 array,
    rows in field order.
    """

    i_addr: List[int]
    i_pid: List[int]
    d_kind: List[int]
    d_addr: List[int]
    d_pid: List[int]
    warm_couplet: int
    n_refs: int
    n_warm_refs: int
    columns: np.ndarray = field(repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.i_addr)


def _stream(
    trace: Trace, couplet: np.ndarray, n_couplets: int, warm_couplet: int,
    n_warm_refs: int,
) -> CoupletStream:
    """Scatter every reference of ``trace`` into the couplet numbered
    ``couplet[ref]``: a fetch into the I half, a data reference into the
    D half."""
    is_ifetch = trace.kinds == int(RefKind.IFETCH)
    is_data = ~is_ifetch
    columns = np.full((5, n_couplets), NO_REF, dtype=np.int64)
    i_at = couplet[is_ifetch]
    columns[0, i_at] = trace.addrs[is_ifetch]
    columns[1, i_at] = trace.pids[is_ifetch]
    d_at = couplet[is_data]
    columns[2, d_at] = trace.kinds[is_data]
    columns[3, d_at] = trace.addrs[is_data]
    columns[4, d_at] = trace.pids[is_data]
    i_addr, i_pid, d_kind, d_addr, d_pid = columns.tolist()
    return CoupletStream(
        i_addr=i_addr,
        i_pid=i_pid,
        d_kind=d_kind,
        d_addr=d_addr,
        d_pid=d_pid,
        warm_couplet=warm_couplet,
        n_refs=len(trace),
        n_warm_refs=n_warm_refs,
        columns=columns,
    )


def pair_couplets(trace: Trace) -> CoupletStream:
    """Pair a trace into couplets without reordering references.

    Every reference starts a couplet unless it is a data reference right
    after an instruction fetch, which joins that fetch's couplet.
    """
    n = len(trace)
    is_ifetch = trace.kinds == int(RefKind.IFETCH)
    starts = np.ones(n, dtype=bool)
    starts[1:] = is_ifetch[1:] | ~is_ifetch[:-1]
    start_pos = np.flatnonzero(starts)
    # The first couplet starting at or beyond the warm boundary; a
    # boundary inside (or at the end of) the last couplet leaves nothing
    # to measure, which callers must guard against.
    warm_couplet = int(np.searchsorted(start_pos, trace.warm_boundary))
    n_warm_refs = (
        n - int(start_pos[warm_couplet]) if warm_couplet < len(start_pos)
        else 0
    )
    return _stream(
        trace, np.cumsum(starts) - 1, len(start_pos), warm_couplet,
        n_warm_refs,
    )


def sequentialize(trace: Trace) -> CoupletStream:
    """Build a degenerate stream with one reference per couplet.

    Used for unified (joint I/D) caches, where the CPU cannot issue the
    pair simultaneously and references are served one at a time.
    """
    n = len(trace)
    warm_couplet = min(trace.warm_boundary, n)
    return _stream(trace, np.arange(n), n, warm_couplet, n - warm_couplet)
