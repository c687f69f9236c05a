"""Shared settings, grids and caching for the experiment modules.

Every experiment accepts an :class:`ExperimentSettings`; the default is a
*reduced* configuration (shorter traces, coarser grids) that regenerates
every figure's shape in minutes on a laptop.  Set ``full=True`` — or the
environment variable ``REPRO_FULL=1`` — for the paper-scale grids.

The expensive speed–size sweeps are memoized per (settings, assoc) so
that Figures 3-1 through 3-4, 4-2 through 4-5 and Table 3 share their
underlying simulations, and the §5 block-size sweep per settings so
that Figures 5-1 through 5-4 do, the way the paper's figures all read
from one raw-data archive.

Below the sweeps, priced replay outcomes are shared too: the registry
runs every experiment inside :func:`shared_outcomes`, which builds each
batch-replay kernel over this module's process-lifetime
:class:`~repro.sim.replaykernel.OutcomeArchive`.  A (stream contents,
quantized timing) cell that one experiment priced is then served to any
later one from the archive — §6's evenly scaled grid quantizes to the
base grid's cycle costs, and a large set-associative cache's stream
equals the direct-mapped one.  Each kernel builds its tables only when
a point misses, and a sweep's ``replay.archived_outcomes`` counter says
how many of its ``replay.batch_outcomes`` the archive served.  The
archive holds outcomes, never streams; :func:`clear_grid_cache` drops
it with the memoized sweeps.  Sweeps called outside the registry
(campaigns, the CLI ``sweep`` command, the benches) keep a private memo
per kernel and never hash a stream.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Dict, List, Tuple

from ..core.metrics import SpeedSizeGrid
from ..core.sweep import run_speed_size_sweep
from ..sim.replaykernel import OutcomeArchive, archive_scope
from ..trace.record import Trace
from ..trace.suite import ALL_TRACES, build_suite
from ..units import KB


def _env_full() -> bool:
    return os.environ.get("REPRO_FULL", "") not in ("", "0", "false")


def _env_jobs() -> int:
    try:
        return max(1, int(os.environ.get("REPRO_JOBS", "1")))
    except ValueError:
        return 1


def _env_pass_cache() -> str:
    """Directory of the persistent functional-pass cache, or ``""``.

    Set ``REPRO_PASS_CACHE=/path/to/dir`` to persist functional passes
    across experiment invocations (see :mod:`repro.sim.passcache`).
    """
    return os.environ.get("REPRO_PASS_CACHE", "")


@dataclass(frozen=True)
class ExperimentSettings:
    """Knobs shared by every experiment."""

    trace_length: int = 120_000
    trace_names: Tuple[str, ...] = ALL_TRACES
    seed: int = 0
    full: bool = field(default_factory=_env_full)
    n_jobs: int = field(default_factory=_env_jobs)
    pass_cache_dir: str = field(default_factory=_env_pass_cache)
    #: Accepted and ignored: every organization takes the same route.
    stack_pass: bool = field(default=False, compare=False)
    #: Accepted and ignored: every sweep is exact.
    sample: str = field(default="", compare=False)

    # ------------------------------------------------------------------
    # Grid definitions (reduced vs full)
    # ------------------------------------------------------------------
    @property
    def sizes_each_bytes(self) -> List[int]:
        """Per-cache sizes; the paper sweeps 2 KB–2 MB each."""
        if self.full:
            return [2 * KB * (2 ** k) for k in range(11)]  # 2KB..2MB
        return [2 * KB, 8 * KB, 32 * KB, 128 * KB, 512 * KB]

    @property
    def cycle_times_ns(self) -> List[float]:
        """CPU/cache cycle times; the paper sweeps 20–80 ns."""
        if self.full:
            return [float(t) for t in range(20, 81, 4)]
        return [20.0, 28.0, 40.0, 56.0, 60.0, 80.0]

    @property
    def assocs(self) -> List[int]:
        return [1, 2, 4, 8] if self.full else [1, 2, 4]

    @property
    def block_sizes_words(self) -> List[int]:
        if self.full:
            return [1, 2, 4, 8, 16, 32, 64, 128]
        return [2, 4, 8, 16, 32, 64]

    @property
    def latencies_ns(self) -> List[float]:
        """§5's memory latencies: 100–420 ns (3–11 cycles at 40 ns)."""
        if self.full:
            return [100.0, 180.0, 260.0, 340.0, 420.0]
        return [100.0, 260.0, 420.0]

    @property
    def transfer_rates(self) -> List[float]:
        """§5's backplane rates: 4 W/cycle down to 1 W per 4 cycles."""
        if self.full:
            return [4.0, 2.0, 1.0, 0.5, 0.25]
        return [4.0, 1.0, 0.25]

    def with_full(self, full: bool) -> "ExperimentSettings":
        return replace(self, full=full)


@dataclass
class ExperimentResult:
    """What every experiment returns: an id, a rendered report, and the
    structured numbers behind it (for tests and EXPERIMENTS.md).

    ``ok`` is False for a placeholder produced by a failed experiment in
    a keep-going batch (see :func:`failed_result`): the batch renders
    the failure explicitly instead of aborting the remaining artifacts.
    """

    experiment_id: str
    title: str
    text: str
    data: Dict[str, object]
    ok: bool = True

    def __str__(self) -> str:
        return f"== {self.experiment_id}: {self.title} ==\n{self.text}"


def failed_result(
    experiment_id: str, error: Exception
) -> ExperimentResult:
    """Placeholder for an experiment that failed in a keep-going batch."""
    return ExperimentResult(
        experiment_id=experiment_id,
        title="(failed)",
        text=f"FAILED: {type(error).__name__}: {error}",
        data={"error": str(error), "error_type": type(error).__name__},
        ok=False,
    )


def suite_for(settings: ExperimentSettings) -> Dict[str, Trace]:
    """The trace suite for a settings bundle (memoized by the suite)."""
    return build_suite(
        length=settings.trace_length,
        names=settings.trace_names,
        seed=settings.seed,
    )


# Cache of speed-size grids keyed by (settings, assoc).  The settings
# dataclass is frozen and hashable, so this is a straight dict memo.
_GRID_CACHE: Dict[Tuple[ExperimentSettings, int], SpeedSizeGrid] = {}


def _pass_cache_for(settings: ExperimentSettings):
    """The settings' persistent pass cache, or ``None`` when unset."""
    if not settings.pass_cache_dir:
        return None
    from ..sim.passcache import PassCache

    return PassCache(settings.pass_cache_dir)


def sweep_options(settings: ExperimentSettings) -> Dict[str, object]:
    """The sweep-driver keywords an experiment takes from its settings:
    the seed, the worker count and the pass cache."""
    return dict(
        seed=settings.seed,
        n_jobs=settings.n_jobs,
        pass_cache=_pass_cache_for(settings),
    )


def speed_size_grid(
    settings: ExperimentSettings, assoc: int = 1
) -> SpeedSizeGrid:
    """The (size x cycle time) sweep for one associativity, memoized."""
    key = (settings, assoc)
    if key not in _GRID_CACHE:
        suite = suite_for(settings)
        _GRID_CACHE[key] = run_speed_size_sweep(
            suite,
            sizes_each_bytes=settings.sizes_each_bytes,
            cycle_times_ns=settings.cycle_times_ns,
            assoc=assoc,
            **sweep_options(settings),
        )
    return _GRID_CACHE[key]


_BLOCKSIZE_CACHE: Dict[ExperimentSettings, Dict] = {}


def blocksize_curves(settings: ExperimentSettings) -> Dict:
    """The §5 block-size x memory-speed sweep, memoized per settings.

    Returns ``{(latency_cycles, transfer_rate): BlockSizeCurve}``.
    """
    from ..core.sweep import run_blocksize_sweep

    if settings not in _BLOCKSIZE_CACHE:
        suite = suite_for(settings)
        _BLOCKSIZE_CACHE[settings] = run_blocksize_sweep(
            suite,
            block_sizes_words=settings.block_sizes_words,
            latencies_ns=settings.latencies_ns,
            transfer_rates=settings.transfer_rates,
            **sweep_options(settings),
        )
    return _BLOCKSIZE_CACHE[settings]


#: Priced replay outcomes of every experiment run in this process.
_OUTCOME_ARCHIVE = OutcomeArchive()


def shared_outcomes():
    """Context in which every replay kernel prices into, and is served
    from, the experiment layer's outcome archive (the registry runs
    each experiment inside it)."""
    return archive_scope(_OUTCOME_ARCHIVE)


def clear_grid_cache() -> None:
    """Drop memoized sweeps and archived outcomes (tests use this to
    bound memory)."""
    _GRID_CACHE.clear()
    _BLOCKSIZE_CACHE.clear()
    _OUTCOME_ARCHIVE.clear()
