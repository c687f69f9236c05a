"""Ablation: second-level cache design space (§6's closing point).

"Designing a second cache between the CPU/cache and main memory poses
the same set of questions as the first level of caching, but with a
different set of parameters, constraints and goals."  This bench runs a
small L2 design sweep — size and access latency — with a fixed small L1
at a fast clock, and checks the §6 structure: bigger L2s help with
diminishing returns, slower L2 arrays eat their own benefit, and even a
slow L2 beats none.  Every variant shares the L1's event stream, so the
sweep is one functional pass per trace and one replay per variant.
"""

from repro.core.geometry import CacheGeometry
from repro.core.metrics import geometric_mean
from repro.core.sweep import run_functional_passes
from repro.core.timing import MemoryTiming
from repro.sim.config import LowerLevelSpec, baseline_config
from repro.sim.fastpath import fast_simulate
from repro.trace.suite import build_suite
from repro.units import KB

from conftest import run_once

L2_SIZES_KB = [64, 256, 1024]
L2_LATENCIES_NS = [40.0, 80.0]


def l2_spec(size_kb: int, latency_ns: float) -> LowerLevelSpec:
    return LowerLevelSpec(
        geometry=CacheGeometry(size_bytes=size_kb * KB, block_words=16),
        port=MemoryTiming(latency_ns=latency_ns, transfer_rate=1.0,
                          write_op_ns=0.0, recovery_ns=0.0),
    )


def test_l2_design_space(benchmark, settings):
    suite = build_suite(
        length=min(settings.trace_length, 25_000),
        names=settings.trace_names[:2], seed=settings.seed,
    )
    base = baseline_config(cache_size_bytes=2 * KB, cycle_ns=20.0)
    variants = {"none": base}
    for size_kb in L2_SIZES_KB:
        for latency_ns in L2_LATENCIES_NS:
            variants[(size_kb, latency_ns)] = base.with_levels(
                (l2_spec(size_kb, latency_ns),)
            )
    traces = list(suite.values())

    def sweep():
        jobs = [(key, config, t) for key, config in variants.items()
                for t in traces]
        # The variants are timing siblings: one pass per trace.
        streams = run_functional_passes(
            [(config, t, 0) for _key, config, t in jobs]
        )
        execs = {}
        for (key, config, t), stream in zip(jobs, streams):
            stats = fast_simulate(config, t, stream=stream)
            execs.setdefault(key, []).append(stats.execution_time_ns)
        return {key: geometric_mean(values) for key, values in execs.items()}

    results = run_once(benchmark, sweep)
    print("\nL2 design sweep (4KB total L1 at 20ns):")
    print(f"  no L2: {results['none']:.3e} ns")
    for size_kb in L2_SIZES_KB:
        for latency_ns in L2_LATENCIES_NS:
            exec_ns = results[(size_kb, latency_ns)]
            print(f"  {size_kb:>5}KB @ {latency_ns:g}ns array: "
                  f"{exec_ns:.3e} ns "
                  f"({100 * (results['none'] / exec_ns - 1):+.0f}%)")
    # Any L2 beats none; growing the L2 never hurts at fixed latency;
    # the faster array wins at fixed size; and L2 size shows diminishing
    # returns — the first-level speed-size story, one level down.
    for key, exec_ns in results.items():
        if key != "none":
            assert exec_ns < results["none"]
    for latency_ns in L2_LATENCIES_NS:
        ladder = [results[(s, latency_ns)] for s in L2_SIZES_KB]
        assert ladder == sorted(ladder, reverse=True)
        gain_first = ladder[0] / ladder[1]
        gain_second = ladder[1] / ladder[2]
        assert gain_second < gain_first + 0.05
    for size_kb in L2_SIZES_KB:
        assert results[(size_kb, 40.0)] <= results[(size_kb, 80.0)]
