"""Figure 5-1: miss ratios and execution time versus block size.

The default Harvard organization (64 KB I and D caches) against a 260 ns
latency memory, block size swept.  The paper's observations: the miss-
ratio-optimal block size is large (32 W on the data side, beyond 64 W on
the instruction side, "a reflection of the greater locality within the
instruction stream"), while "the block size that optimizes system
performance is significantly smaller than that which minimizes the miss
rate" — because each block-size doubling doubles the transfer term of
the miss penalty.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.blocksize import optimal_block_size_words
from ..core.report import format_table
from ..units import quantize_ns
from .common import ExperimentResult, ExperimentSettings, blocksize_curves

EXPERIMENT_ID = "fig5_1"
TITLE = "Block size vs miss ratio and execution time (260ns memory)"

#: §5: "with a 260ns latency memory" (12-cycle read for 4W at 40ns).
LATENCY_NS = 260.0


def run(settings: Optional[ExperimentSettings] = None) -> ExperimentResult:
    settings = settings or ExperimentSettings()
    # Both grids sweep 260 ns at 1 W/cycle: read the shared §5 sweep.
    curve = blocksize_curves(settings)[(quantize_ns(LATENCY_NS, 40.0), 1.0)]
    exec_norm = curve.execution_ns / curve.execution_ns.min()
    rows = []
    for k, block in enumerate(curve.block_sizes_words):
        rows.append([
            f"{block}W",
            float(curve.load_miss_ratio[k]),
            float(curve.ifetch_miss_ratio[k]),
            float(exec_norm[k]),
        ])
    table = format_table(
        ["Block", "LoadMiss", "IfetchMiss", "ExecTime(norm)"],
        rows,
        title="64KB I and D caches, 260ns latency, 1 W/cycle",
        precision=4,
    )
    d_best = curve.block_sizes_words[int(np.argmin(curve.load_miss_ratio))]
    i_best = curve.block_sizes_words[int(np.argmin(curve.ifetch_miss_ratio))]
    perf_best = optimal_block_size_words(curve)
    text = (
        f"{table}\n\nMiss-ratio-optimal block: {d_best}W data, {i_best}W "
        f"instruction (paper: 32W and >64W).  Performance-optimal block: "
        f"{perf_best:.1f}W — substantially smaller, as §5 argues."
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        text=text,
        data={
            "block_sizes": list(curve.block_sizes_words),
            "load_miss": curve.load_miss_ratio.tolist(),
            "ifetch_miss": curve.ifetch_miss_ratio.tolist(),
            "execution_norm": exec_norm.tolist(),
            "miss_optimal_data": d_best,
            "miss_optimal_ifetch": i_best,
            "performance_optimal": perf_best,
        },
    )
