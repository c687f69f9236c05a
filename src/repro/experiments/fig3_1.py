"""Figure 3-1: miss ratios and traffic ratios versus total L1 size.

"Figure 3-1 confirms the widely held belief that larger caches are
better, but that beyond a certain size, the incremental improvements are
small."  The curves plotted: instruction and load read-miss ratios, read
traffic ratio (block size x miss ratio), and the *two* write traffic
ratios — all dirty-victim words versus only the dirty words themselves.

Shape checks the data should satisfy (asserted by the bench):

* every miss curve is non-increasing with diminishing deltas;
* the RISC traces show lower miss rates than the VAX traces, with the
  instruction-side gap the larger one (the paper reports 29–46% for
  instructions versus 11.5–18% for loads);
* the full-block write traffic curve dominates the dirty-words curve.
"""

from __future__ import annotations

from typing import Optional


from ..core.charts import ascii_chart
from ..core.report import format_table, size_labels
from ..core.sweep import run_point
from ..sim.config import baseline_config
from ..trace.suite import RISC_TRACES, VAX_TRACES
from .common import (
    ExperimentResult,
    ExperimentSettings,
    speed_size_grid,
    suite_for,
    sweep_options,
)

EXPERIMENT_ID = "fig3_1"
TITLE = "Miss ratio and traffic ratios vs total L1 size"


def run(settings: Optional[ExperimentSettings] = None) -> ExperimentResult:
    settings = settings or ExperimentSettings()
    grid = speed_size_grid(settings, assoc=1)
    rows = []
    for i, total in enumerate(grid.total_sizes):
        rows.append([
            size_labels([total])[0],
            grid.read_miss_ratio[i],
            grid.load_miss_ratio[i],
            grid.ifetch_miss_ratio[i],
            grid.read_traffic_ratio[i],
            grid.write_traffic_ratio_full[i],
            grid.write_traffic_ratio_dirty[i],
        ])
    table = format_table(
        ["TotalL1", "ReadMiss", "LoadMiss", "IfetchMiss",
         "ReadTraffic", "WTrafFull", "WTrafDirty"],
        rows,
        title="Geometric means over the trace suite (direct mapped, 4W blocks)",
        precision=4,
    )
    # Family comparison at a representative mid size, as the paper does.
    suite = suite_for(settings)
    # Compare at a small-to-medium size, where the paper quotes the
    # family gaps ("for small and medium sized caches").
    mid_size = settings.sizes_each_bytes[1]
    config = baseline_config(cache_size_bytes=mid_size)
    family = {}
    options = sweep_options(settings)
    for name, members in (("vax", VAX_TRACES), ("risc", RISC_TRACES)):
        selected = [suite[t] for t in members if t in suite]
        if selected:
            family[name] = run_point(config, selected, **options)
    extra = ""
    if len(family) == 2:
        load_gap = 1 - family["risc"].load_miss_ratio / family["vax"].load_miss_ratio
        ifetch_gap = (
            1 - family["risc"].ifetch_miss_ratio / family["vax"].ifetch_miss_ratio
        )
        extra = (
            f"\n\nRISC vs VAX at {mid_size // 1024}KB per cache: load miss "
            f"{100 * load_gap:.0f}% lower, instruction miss "
            f"{100 * ifetch_gap:.0f}% lower (paper: 11.5-18% and 29-46%)."
        )
    chart = ascii_chart(
        {
            "load": list(zip(grid.total_sizes, grid.load_miss_ratio)),
            "ifetch": list(zip(grid.total_sizes, grid.ifetch_miss_ratio)),
            "read": list(zip(grid.total_sizes, grid.read_miss_ratio)),
        },
        width=56, height=12, log_x=True, log_y=True,
        title="Miss ratios vs total L1 size (log-log)",
        x_label="total size (bytes)", y_label="miss ratio",
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        text=table + "\n\n" + chart + extra,
        data={
            "total_sizes": list(grid.total_sizes),
            "read_miss_ratio": grid.read_miss_ratio.tolist(),
            "load_miss_ratio": grid.load_miss_ratio.tolist(),
            "ifetch_miss_ratio": grid.ifetch_miss_ratio.tolist(),
            "read_traffic_ratio": grid.read_traffic_ratio.tolist(),
            "write_traffic_ratio_full": grid.write_traffic_ratio_full.tolist(),
            "write_traffic_ratio_dirty": grid.write_traffic_ratio_dirty.tolist(),
            "family": {
                k: {
                    "load_miss_ratio": v.load_miss_ratio,
                    "ifetch_miss_ratio": v.ifetch_miss_ratio,
                }
                for k, v in family.items()
            },
        },
    )
