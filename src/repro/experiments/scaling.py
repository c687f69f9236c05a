"""§6's technology-scaling claim, run as an experiment.

"If the entire system scales evenly, the basic tradeoffs do not change.
If all the temporal parameters are divided by a common factor, the shape
and position of the curves remain the same while the slopes, expressed
in nanoseconds per doubling, scale down.  Expressed as a fraction of the
cycle time per doubling, the slopes remain constant."

We run the speed–size sweep at the base memory and clocks, and again
with every nanosecond divided by two (clocks *and* memory).  The three
sweeps differ only in timing, so they share one functional pass per
organization and trace (:func:`~repro.core.sweep.run_speed_size_sweeps`).
The experiment reports slopes in ns/doubling (should halve) and in
cycle-fractions (should match), plus the corollary: when only the CPU
scales and memory does not, the miss penalty in cycles grows and the
fractional slopes *increase* — the pressure toward multilevel
hierarchies.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..core.equal_performance import slope_ns_per_doubling
from ..core.report import format_table
from ..core.sweep import run_speed_size_sweeps
from ..memory.buses import scaled_memory
from ..core.timing import MemoryTiming
from .common import (
    ExperimentResult,
    ExperimentSettings,
    suite_for,
    sweep_options,
)

EXPERIMENT_ID = "scaling"
TITLE = "Technology scaling of the speed-size tradeoff (§6)"


def _fraction_slopes(grid) -> List[float]:
    """Per-size slopes at the middle clock, as cycle-time fractions."""
    j = grid.n_cycles // 2
    t = grid.cycle_times_ns[j]
    out = []
    for i in range(grid.n_sizes - 1):
        slope = slope_ns_per_doubling(grid, i, j)
        out.append(slope / t if slope is not None else float("nan"))
    return out


def run(settings: Optional[ExperimentSettings] = None) -> ExperimentResult:
    settings = settings or ExperimentSettings()
    traces = suite_for(settings)
    sizes = settings.sizes_each_bytes[:4]
    base_cycles = [20.0, 28.0, 40.0, 60.0, 80.0]
    half_cycles = [t / 2 for t in base_cycles]
    base, halved, cpu_only = run_speed_size_sweeps(traces, sizes, [
        (base_cycles, None),
        # Everything halves: clocks and memory nanoseconds.
        (half_cycles, scaled_memory(MemoryTiming(), 0.5)),
        # Only the CPU halves: memory stays 1988-speed.
        (half_cycles, None),
    ], **sweep_options(settings))
    rows = []
    f_base = _fraction_slopes(base)
    f_halved = _fraction_slopes(halved)
    f_cpu = _fraction_slopes(cpu_only)
    for i in range(len(f_base)):
        rows.append([
            f"{base.total_sizes[i] // 1024}KB",
            f_base[i], f_halved[i], f_cpu[i],
        ])
    table = format_table(
        ["TotalL1", "base frac/dbl", "all-scaled frac/dbl",
         "CPU-only frac/dbl"],
        rows,
        title=(
            "Constant-performance slope as a fraction of the cycle time "
            "(middle clock)"
        ),
        precision=3,
    )
    # A zero base slope has no ratio to take: drop it like a NaN.
    pairs = [
        (b, h) for b, h in zip(f_base, f_halved)
        if not (np.isnan(b) or np.isnan(h)) and b != 0
    ]
    even_dev = max(abs(h / b - 1.0) for b, h in pairs) if pairs else float("nan")
    cpu_pairs = [
        (b, c) for b, c in zip(f_base, f_cpu)
        if not (np.isnan(b) or np.isnan(c)) and b != 0
    ]
    cpu_growth = (
        float(np.mean([c / b for b, c in cpu_pairs])) if cpu_pairs else
        float("nan")
    )
    text = (
        f"{table}\n\nEven scaling leaves the fractional slopes within "
        f"{100 * even_dev:.0f}% of the base — the tradeoff is shape-"
        "invariant, as §6 argues.  Scaling only the CPU multiplies them "
        f"by {cpu_growth:.2f}x on average: the growing cycle-count miss "
        "penalty drives designs toward bigger caches — or an L2."
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        text=text,
        data={
            "fraction_slopes_base": f_base,
            "fraction_slopes_all_scaled": f_halved,
            "fraction_slopes_cpu_only": f_cpu,
            "even_scaling_max_deviation": even_dev,
            "cpu_only_mean_growth": cpu_growth,
        },
    )
