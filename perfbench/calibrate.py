"""Host-speed calibration: a fixed reference kernel timed between operations.

On a shared virtual machine the host's speed drifts: the same round of
work can take 1.8 times as long a few minutes later, with CPU time
tracking wall time.  Raw wall times of runs made minutes apart then
spread more than any useful bound.  The benchmark therefore times a
fixed reference kernel between the operations it measures, and reports
every time of the run scaled to the kernel's nominal speed::

    nominal time = measured time * NOMINAL_S / median(kernel samples)

A change to the simulator moves the measured time and not the kernel,
so the nominal figure moves with it; a host that slows everything down
moves both, and the figure stays put.  The median over the whole run's
samples is steadier than scaling each operation by the samples next to
it: one 30 ms sample carries the host's fast jitter, which the long
operations average away.  The kernel mixes what the simulator spends
its time on: interpreted per-reference cache lookups over small Python
objects (the functional passes) and numpy array work (the replay
kernel), over megabytes of data: a kernel that fits in a core's
private caches varied more from process to process than the simulator
did.  It uses nothing from ``repro``, so no change to the program can
change the kernel.  README.md gives the measurements behind this.

``NOMINAL_S`` is the kernel's median time on a 2-core x86_64 virtual
machine (Python 3.11.7, numpy 2.4.6): nominal figures read as seconds
on that host at its usual speed.  Every report also prints the measured
figures.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Sequence

import numpy as np

#: Typical duration of one :func:`kernel` call on the reference host.
NOMINAL_S = 0.0060

#: Kernel calls per sample; the sample is their median.
REPEATS = 3

#: Sets of the kernel's 4-way cache: 16 384 small objects, so that, like
#: the simulator's caches and traces, the kernel's data spans megabytes
#: and not one core's private caches.
_N_SETS = 4096


class _Line:
    __slots__ = ("tag", "stamp")

    def __init__(self, tag: int, stamp: int) -> None:
        self.tag = tag
        self.stamp = stamp


_SETS = [[_Line(-1 - way, 0) for way in range(4)] for _ in range(_N_SETS)]
_KEYS = np.random.default_rng(2).integers(0, 1 << 16, 1 << 18,
                                         dtype=np.int32)


def kernel() -> int:
    """A fixed amount of work: 5 000 lookups in a 4-way LRU cache over a
    pseudo-random block stream, then a histogram of a 1 MB array.

    The cache's contents carry over from call to call; the work per call
    does not depend on them.
    """
    sets = _SETS
    x = 12345
    hits = 0
    for stamp in range(5000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        block = (x >> 8) if x & 3 else (x >> 16)
        lines = sets[block & (_N_SETS - 1)]
        tag = block >> 12
        for line in lines:
            if line.tag == tag:
                line.stamp = stamp
                hits += 1
                break
        else:
            victim = min(lines, key=lambda ln: ln.stamp)
            victim.tag = tag
            victim.stamp = stamp
    return hits + int(np.bincount(_KEYS).sum())


_warm = False


def sample() -> float:
    """The median time of ``REPEATS`` kernel calls, in seconds.

    The cyclic collector is paused while timing, so the program's heap
    size cannot reach into the kernel's time; the first call in a
    process also runs the kernel once untimed, to warm it up.
    """
    global _warm
    enabled = gc.isenabled()
    gc.disable()
    try:
        if not _warm:
            kernel()
            _warm = True
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def factor(samples: Sequence[float]) -> float:
    """Factor that turns times measured while ``samples`` were taken
    into nominal-speed times."""
    return NOMINAL_S / statistics.median(samples)
