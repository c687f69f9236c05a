"""Multiprogrammed interleaving and warm-start prefix construction.

The paper's two trace families motivate the two tools here:

* The VAX/ATUM traces "include operating system references and exhibit
  real multiprogramming behaviour"; :func:`interleave` reproduces that by
  slicing per-process reference streams into scheduling quanta whose
  lengths follow a geometric distribution (memoryless context-switch
  intervals) and concatenating them in round-robin or random order.

* The R2000 traces prepend "all the unique references touched by the
  programs up to the time at which tracing was begun ... in the order of
  their most recent use", which makes warm-start results valid even for
  very large caches; :func:`warm_prefix` reproduces that construction.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from .record import Trace
from .workloads import Program


def _draw_quantum(rng: random.Random, mean_interval: float) -> int:
    """Draw a context-switch interval (geometric, mean ``mean_interval``)."""
    if mean_interval <= 1:
        return 1
    p = 1.0 / mean_interval
    n = 1
    while rng.random() > p:
        n += 1
    return n


def interleave(
    programs: Sequence[Program],
    length: int,
    mean_switch_interval: float = 10_000.0,
    scheduler: str = "round_robin",
    seed: int = 0,
    name: str = "multiprogram",
    warm_boundary: int = 0,
    *,
    _whole_final_quantum: bool = False,
) -> Trace:
    """Interleave per-process streams into one multiprogrammed trace.

    Parameters
    ----------
    programs:
        Stateful :class:`Program` instances; each keeps its own PC and
        data-model context across scheduling quanta.
    length:
        Total number of references to emit.  The final quantum asks its
        program only for the references that fill the trace (at most one
        couplet more, trimmed), so that program stops mid-quantum.
    mean_switch_interval:
        Mean number of references between context switches.  The paper
        randomly interleaved its uniprocess R2000 traces "to duplicate the
        distribution of context switch intervals seen in the VAX traces".
    scheduler:
        ``"round_robin"`` or ``"random"`` (random picks any *other*
        process at each switch).
    _whole_final_quantum:
        Run the final quantum out whole before trimming, so every program
        leaves in the state its whole schedule leaves it.  A history run
        whose programs a later :func:`interleave` resumes needs this; the
        trace itself is the same either way.
    """
    if not programs:
        raise ConfigurationError("need at least one program to interleave")
    if length <= 0:
        raise ConfigurationError(f"trace length must be positive, got {length}")
    if scheduler not in ("round_robin", "random"):
        raise ConfigurationError(f"unknown scheduler {scheduler!r}")
    rng = random.Random(seed)
    kinds: List[int] = []
    addrs: List[int] = []
    pids: List[int] = []
    current = 0
    while len(kinds) < length:
        program = programs[current]
        quantum = _draw_quantum(rng, mean_switch_interval)
        if not _whole_final_quantum:
            # A program emits couplets in order, so a short request is
            # a prefix of the whole quantum's references.
            quantum = min(quantum, length - len(kinds))
        chunk_kinds, chunk_addrs = program.generate(quantum)
        kinds.extend(chunk_kinds)
        addrs.extend(chunk_addrs)
        pids.extend([program.pid] * len(chunk_kinds))
        if scheduler == "round_robin" or len(programs) == 1:
            current = (current + 1) % len(programs)
        else:
            nxt = rng.randrange(len(programs) - 1)
            current = nxt if nxt < current else nxt + 1
    return Trace(
        kinds[:length], addrs[:length], pids[:length],
        name=name, warm_boundary=warm_boundary,
    )


def warm_prefix(
    history: Trace,
    interleave_chunk: int = 64,
    seed: int = 0,
) -> Trace:
    """Build the R2000-style warm-start prefix from a history run.

    Given a throwaway *history* trace (standing in for each program's
    execution before tracing began), return a prefix trace containing each
    unique ``(pid, kind-class, address)`` exactly once, ordered least
    recently used first, so that replaying prefix + body leaves any cache
    — of any organization or size — holding approximately what it would
    have held had the programs been simulated from their beginning.

    Within the LRU ordering, references from different processes are
    interleaved in chunks so the prefix also resembles a multiprogrammed
    stream; ``interleave_chunk`` bounds the run length per process.
    """
    if len(history) == 0:
        raise ConfigurationError("history trace is empty")
    # Last-use index per (pid, addr); remember whether the *last* touch
    # was a store so dirty state is warmed too.
    last_use: Dict[Tuple[int, int], Tuple[int, int]] = {}
    for index, (kind, addr, pid) in enumerate(
        zip(history.kinds.tolist(), history.addrs.tolist(), history.pids.tolist())
    ):
        last_use[(pid, addr)] = (index, kind)
    ordered = sorted(last_use.items(), key=lambda item: item[1][0])
    # Partition per process, preserving LRU order inside each process.
    per_pid: Dict[int, List[Tuple[int, int]]] = {}
    for (pid, addr), (_, kind) in ordered:
        per_pid.setdefault(pid, []).append((kind, addr))
    rng = random.Random(seed)
    kinds: List[int] = []
    addrs: List[int] = []
    pids: List[int] = []
    cursors = {pid: 0 for pid in per_pid}
    active = sorted(per_pid)
    while active:
        pid = active[rng.randrange(len(active))] if len(active) > 1 else active[0]
        run = per_pid[pid]
        start = cursors[pid]
        stop = min(start + interleave_chunk, len(run))
        for kind, addr in run[start:stop]:
            kinds.append(kind)
            addrs.append(addr)
            pids.append(pid)
        cursors[pid] = stop
        if stop >= len(run):
            active.remove(pid)
    return Trace(kinds, addrs, pids, name=f"{history.name}-prefix")


def with_warm_prefix(
    body: Trace,
    history: Trace,
    name: Optional[str] = None,
) -> Trace:
    """Prepend an R2000-style warm prefix to ``body``.

    The warm boundary of the result is the prefix length: statistics are
    gathered over the body only, while the prefix initializes cache
    contents for caches of any size — the property the paper relies on to
    trust its large-cache data points.
    """
    prefix = warm_prefix(history)
    combined = Trace(
        np.concatenate([prefix.kinds, body.kinds]),
        np.concatenate([prefix.addrs, body.addrs]),
        np.concatenate([prefix.pids, body.pids]),
        name=name or body.name,
        warm_boundary=len(prefix),
    )
    return combined
