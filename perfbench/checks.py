"""Output checks: digests of simulated results and scalar re-derivation.

Two checks guard every run:

* **Digest.**  Each operation's simulated results are reduced to a
  canonical JSON form and hashed.  For the shipped seed the digests
  must equal the ones committed in ``digests.json``; for any seed,
  every repetition of an operation within a run must reproduce the
  digest of its first execution.
* **Re-derivation.**  For any other seed, a deterministic subset of
  cells is recomputed through the scalar route — one
  ``functional_pass`` and one ``replay`` per (organization, trace,
  timing point) — and must equal the delivered cell exactly.

Digest floats are written with 10 significant digits, and magnitudes
below 1e-9 (cancellation residue such as a 1e-13 deviation) are written
as zero, so that a libm difference in the last bit on another CPU does
not read as a wrong result.  Re-derivation compares floats exactly.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import math
import random
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

#: The seed whose digests ship with the benchmark.
SHIPPED_SEED = 0


def canonical(value):
    """A JSON-able, platform-stable form of a simulated result."""
    import numpy as np

    if isinstance(value, dict):
        return {
            (key if isinstance(key, str) else repr(canonical(key))):
                canonical(item)
            for key, item in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, np.ndarray):
        return canonical(value.tolist())
    if isinstance(value, np.generic):
        return canonical(value.item())
    if isinstance(value, enum.Enum):
        return canonical(value.value)
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if abs(value) < 1e-9:
            return "0"
        return format(value, ".10g")
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: canonical(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    raise TypeError(f"no canonical form for {type(value).__name__}")


def digest(value) -> str:
    """SHA-256 (first 16 hex digits) of a result's canonical form."""
    text = json.dumps(canonical(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_committed() -> Dict:
    if not DIGESTS_PATH.exists():
        return {}
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


def committed_digests(workload: str, spec: Dict, seed: int) -> Optional[Dict]:
    """The committed per-operation digests for this workload, or
    ``None`` when the seed or the workload's parameters differ from the
    ones they were recorded with."""
    entry = load_committed().get(workload)
    if not entry or seed != SHIPPED_SEED or entry.get("spec") != spec:
        return None
    return entry["digests"]


def record_committed(workload: str, spec: Dict, digests: Dict) -> None:
    doc = load_committed()
    doc[workload] = {"seed": SHIPPED_SEED, "spec": spec, "digests": digests}
    DIGESTS_PATH.write_text(
        json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


# ----------------------------------------------------------------------
# Scalar re-derivation
# ----------------------------------------------------------------------
def _scalar_outcomes(config, traces, memory, cycle_ns, seed):
    """(stream, outcome) per trace through the scalar route."""
    from repro.sim.fastpath import functional_pass, replay

    pairs = []
    for trace in traces:
        stream = functional_pass(config, trace, seed=seed)
        outcome = replay(
            stream, memory, cycle_ns,
            write_buffer_depth=config.l1.write_buffer_depth,
        )
        pairs.append((stream, outcome))
    return pairs


def speed_size_cell(traces, size_each: int, cycle_ns: float, assoc: int,
                    seed: int) -> float:
    """``SpeedSizeGrid.execution_ns`` at one (size, cycle time), derived
    the way :func:`repro.core.sweep.run_speed_size_sweep` defines it."""
    from repro.core.metrics import GM_FLOOR, geometric_mean
    from repro.sim.config import baseline_config

    config = baseline_config(cache_size_bytes=size_each, assoc=assoc)
    pairs = _scalar_outcomes(config, traces, config.memory, cycle_ns, seed)
    return geometric_mean(
        max(outcome.cycles * cycle_ns, GM_FLOOR) for _s, outcome in pairs
    )


def blocksize_cell(traces, block_words: int, latency_ns: float,
                   transfer_rate: float, seed: int, cycle_ns: float) -> float:
    """``BlockSizeCurve.execution_ns`` at one block size and memory, for
    :func:`repro.core.sweep.run_blocksize_sweep`'s default 64 KB caches."""
    from repro.core.metrics import TraceRunSummary, aggregate
    from repro.core.timing import MemoryTiming
    from repro.sim.config import baseline_config
    from repro.sim.fastpath import assemble_stats

    config = baseline_config(
        cache_size_bytes=64 * 1024, block_words=block_words,
        cycle_ns=cycle_ns,
    )
    memory = (
        MemoryTiming().with_latency_ns(latency_ns)
        .with_transfer_rate(transfer_rate)
    )
    pairs = _scalar_outcomes(config, traces, memory, cycle_ns, seed)
    return aggregate([
        TraceRunSummary.from_stats(assemble_stats(stream, outcome, cycle_ns))
        for stream, outcome in pairs
    ]).execution_time_ns


def check_grid(grid, traces, sizes_each: Sequence[int], assoc: int,
               seed: int, rng: random.Random) -> List[str]:
    """Re-derive one random cell of a speed–size grid."""
    i = rng.randrange(len(sizes_each))
    j = rng.randrange(len(grid.cycle_times_ns))
    cycle_ns = grid.cycle_times_ns[j]
    want = speed_size_cell(traces, sorted(sizes_each)[i], cycle_ns, assoc,
                           seed)
    got = float(grid.execution_ns[i, j])
    if got != want:
        return [f"speed-size assoc={assoc} size#{i} cycle={cycle_ns}: "
                f"delivered {got!r}, scalar {want!r}"]
    return []


def check_curves(curves, traces, block_sizes: Sequence[int],
                 latencies_ns: Sequence[float], rates: Sequence[float],
                 seed: int, rng: random.Random,
                 cycle_ns: float = 40.0) -> List[str]:
    """Re-derive one random cell of a block-size sweep."""
    from repro.units import quantize_ns

    first_latency: Dict[Tuple[int, float], float] = {}
    for latency in latencies_ns:
        for rate in rates:
            first_latency.setdefault((quantize_ns(latency, cycle_ns), rate),
                                     latency)
    key = rng.choice(sorted(first_latency))
    b = rng.randrange(len(block_sizes))
    block = sorted(block_sizes)[b]
    want = blocksize_cell(traces, block, first_latency[key], key[1], seed,
                          cycle_ns=cycle_ns)
    got = float(curves[key].execution_ns[b])
    if got != want:
        return [f"block-size {key} block={block}: delivered {got!r}, "
                f"scalar {want!r}"]
    return []


def check_campaign_runs(campaign_dir, suite, sizes_kb, cycles_ns, seed: int,
                        rng: random.Random, samples: int = 3) -> List[str]:
    """Re-derive a few persisted campaign runs; compare whole documents."""
    from repro.sim.campaign import Campaign, run_id, stats_to_dict
    from repro.sim.config import baseline_config
    from repro.sim.fastpath import assemble_stats
    from repro.units import KB

    campaign = Campaign(campaign_dir)
    problems = []
    names = sorted(suite)
    for _ in range(samples):
        config = baseline_config(
            cache_size_bytes=int(rng.choice(sizes_kb) * KB),
            cycle_ns=float(rng.choice(cycles_ns)),
        )
        trace = suite[rng.choice(names)]
        ((stream, outcome),) = _scalar_outcomes(
            config, [trace], config.memory, config.cycle_ns, seed,
        )
        want = stats_to_dict(assemble_stats(stream, outcome, config.cycle_ns))
        got = stats_to_dict(campaign.load(run_id(config, trace)))
        if got != want:
            problems.append(f"campaign run {trace.name} "
                            f"{config.describe()}: document differs")
    return problems
