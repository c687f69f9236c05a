#!/usr/bin/env python
"""The §6 argument: keep a fast CPU fed with a multilevel hierarchy.

At a 20 ns clock the fixed-nanosecond main memory costs 14 cycles per
miss; no affordable L1 keeps up.  Inserting a 256 KB second-level cache
slashes the L1 miss penalty, which (a) restores performance and (b)
*shrinks* the optimal L1 — small, fast first-level caches become viable
again.  Both organizations share one L1 event stream: the example makes
one functional pass per L1 size and replays it with and without the L2.
"""

from repro import build_trace, fast_simulate
from repro.core.geometry import CacheGeometry
from repro.core.sweep import run_functional_passes
from repro.core.timing import MemoryTiming
from repro.sim.config import LowerLevelSpec, baseline_config
from repro.units import KB


def l2() -> LowerLevelSpec:
    return LowerLevelSpec(
        geometry=CacheGeometry(size_bytes=256 * KB, block_words=16),
        port=MemoryTiming(latency_ns=60.0, transfer_rate=1.0,
                          write_op_ns=0.0, recovery_ns=0.0),
    )


def main() -> None:
    trace = build_trace("rd2n4", length=80_000)
    cycle_ns = 20.0
    print(f"trace {trace.name}, {len(trace)} refs; CPU clock {cycle_ns}ns; "
          "memory 180ns latency (14-cycle miss penalty)\n")
    print(f"{'L1 total':>9} {'no L2':>12} {'with 256KB L2':>14} {'L2 gain':>8}")
    results = {}
    for size_each in (2 * KB, 8 * KB, 32 * KB):
        base = baseline_config(cache_size_bytes=size_each, cycle_ns=cycle_ns)
        machine = base.with_levels((l2(),))
        # Timing siblings: one pass serves both.
        flat_stream, deep_stream = run_functional_passes(
            [(base, trace, 0), (machine, trace, 0)]
        )
        flat = fast_simulate(base, trace, stream=flat_stream)
        deep = fast_simulate(machine, trace, stream=deep_stream)
        results[size_each] = (flat, deep)
        gain = flat.execution_time_ns / deep.execution_time_ns - 1
        print(f"{2 * size_each // 1024:>7}KB "
              f"{flat.execution_time_ns / 1e6:>10.3f}ms "
              f"{deep.execution_time_ns / 1e6:>12.3f}ms "
              f"{100 * gain:>7.0f}%")
    best_flat = min(results, key=lambda s: results[s][0].execution_time_ns)
    best_deep = min(results, key=lambda s: results[s][1].execution_time_ns)
    print(f"\nwithout an L2 the best L1 sampled is {2 * best_flat // 1024}KB "
          f"total; with one it is {2 * best_deep // 1024}KB total — the L2 "
          "reduces the miss penalty, and with it the pressure for a big, "
          "slow first level.  That is the paper's case for multilevel "
          "hierarchies.")


if __name__ == "__main__":
    main()
