"""Section 6: the multilevel-hierarchy argument, as passes and replays.

§6 concludes that "as the disparity between main memory times and CPU
cycle time continues to grow, the only way to deliver a consistent
proportion of the peak CPU performance is through the use of a
multilevel cache hierarchy", and that "the existence of a second level
cache modifies the speed–size tradeoff for the first level cache by
reducing the cost of first-level cache misses, making small, fast caches
a viable alternative."

This experiment prices a ladder of L1 sizes at a fast clock, with and
without a 256 KB unified second-level cache, and reports:

* the speedup the L2 delivers at each L1 size (largest for small L1s);
* the L1 size at which performance peaks in each scenario — with an L2
  the optimum shifts toward smaller, faster first-level caches.

An L1 event stream depends on nothing below L1, so each L1 organization
takes one functional pass (:func:`repro.core.sweep.simulate_jobs`, with
the settings' workers and pass cache) and its with-L2 and without-L2
cells are two replays of that stream: memory-direct on the batch
kernel, and through the L2 by scalar :func:`repro.sim.fastpath.replay`.
The cells are bit-identical to the reference engine's.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


from ..core.geometry import CacheGeometry
from ..core.metrics import geometric_mean
from ..core.report import format_table
from ..core.timing import MemoryTiming
from ..core.sweep import simulate_jobs
from ..sim.config import LowerLevelSpec, baseline_config
from ..units import KB
from .common import (
    ExperimentResult,
    ExperimentSettings,
    suite_for,
    sweep_options,
)

EXPERIMENT_ID = "sec6"
TITLE = "Multilevel cache hierarchies"

#: The two traces §6 runs on by default.
DEFAULT_TRACE_SUBSET = ("mu3", "rd2n4")


def l2_spec(size_bytes: int = 256 * KB, latency_ns: float = 60.0) -> LowerLevelSpec:
    """A unified second-level cache: SRAM-latency port, 16-word blocks."""
    return LowerLevelSpec(
        geometry=CacheGeometry(
            size_bytes=size_bytes, block_words=16, assoc=1
        ),
        port=MemoryTiming(
            latency_ns=latency_ns, transfer_rate=1.0, write_op_ns=0.0,
            recovery_ns=0.0, address_cycles=1,
        ),
    )


def run(settings: Optional[ExperimentSettings] = None) -> ExperimentResult:
    settings = settings or ExperimentSettings()
    names = tuple(
        n for n in DEFAULT_TRACE_SUBSET if n in settings.trace_names
    ) or settings.trace_names[:2]
    suite = suite_for(settings)
    traces = [suite[n] for n in names if n in suite]
    cycle_ns = 20.0
    l1_sizes = [2 * KB, 8 * KB, 32 * KB]
    if settings.full:
        l1_sizes = [2 * KB, 4 * KB, 8 * KB, 16 * KB, 32 * KB, 64 * KB]
    rows: List[List[object]] = []
    cells = []
    for size in l1_sizes:
        config = baseline_config(cache_size_bytes=size, cycle_ns=cycle_ns)
        cells.append(((size, False), config))
        cells.append(((size, True), config.with_levels((l2_spec(),))))
    jobs = [(key, config, trace) for key, config in cells for trace in traces]
    options = sweep_options(settings)
    # The with-L2 and without-L2 cells of one L1 organization are
    # timing siblings: they share one pass.
    all_stats = simulate_jobs(
        [(config, trace, settings.seed) for _key, config, trace in jobs],
        n_jobs=options["n_jobs"], pass_cache=options["pass_cache"],
    )
    execs: Dict[Tuple[int, bool], List[float]] = {}
    for (key, _config, _trace), stats in zip(jobs, all_stats):
        execs.setdefault(key, []).append(stats.execution_time_ns)
    exec_by = {key: geometric_mean(values) for key, values in execs.items()}
    for size in l1_sizes:
        base = exec_by[(size, False)]
        l2 = exec_by[(size, True)]
        rows.append([
            f"{2 * size // 1024}KB",
            base / min(exec_by.values()),
            l2 / min(exec_by.values()),
            f"{100 * (base / l2 - 1):.0f}%",
        ])
    table = format_table(
        ["TotalL1", "NoL2(norm)", "WithL2(norm)", "L2 speedup"],
        rows,
        title=f"20ns clock, 256KB unified L2 vs memory-direct",
    )
    best_no = min(l1_sizes, key=lambda s: exec_by[(s, False)])
    best_l2 = min(l1_sizes, key=lambda s: exec_by[(s, True)])
    gain_small = exec_by[(l1_sizes[0], False)] / exec_by[(l1_sizes[0], True)]
    gain_large = exec_by[(l1_sizes[-1], False)] / exec_by[(l1_sizes[-1], True)]
    text = (
        f"{table}\n\nThe L2 helps small first-level caches most "
        f"({100 * (gain_small - 1):.0f}% vs {100 * (gain_large - 1):.0f}%), "
        "reducing the penalty of an L1 miss and hence the pressure to grow "
        f"the L1: best L1 total {2 * best_no // 1024}KB without an L2, "
        f"{2 * best_l2 // 1024}KB or smaller with one."
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        text=text,
        data={
            "cycle_ns": cycle_ns,
            "execution": {
                f"{2 * s // 1024}KB@{'l2' if w else 'mem'}": v
                for (s, w), v in exec_by.items()
            },
            "l2_gain_small_l1": gain_small,
            "l2_gain_large_l1": gain_large,
            "best_l1_total_no_l2": 2 * best_no,
            "best_l1_total_with_l2": 2 * best_l2,
        },
    )
