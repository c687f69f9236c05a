"""Every registered experiment runs end to end on tiny settings."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    ExperimentSettings,
    clear_grid_cache,
    list_experiments,
    run_experiment,
)

TINY = ExperimentSettings(
    trace_length=12_000, trace_names=("mu3", "rd2n4"), full=False
)


@pytest.fixture(scope="module", autouse=True)
def _clear_cache_after():
    yield
    clear_grid_cache()


class TestRegistry:
    def test_sixteen_experiments_registered(self):
        ids = list_experiments()
        assert len(ids) == 16
        assert ids[0] == "table1"
        assert "fig3_4" in ids and "sec6" in ids and "scaling" in ids

    def test_unknown_id_rejected(self):
        with pytest.raises(ConfigurationError):
            run_experiment("fig9_9")


@pytest.mark.parametrize("experiment_id", [
    "table1", "table2", "fig3_1", "fig3_2", "fig3_3", "fig3_4",
    "fig4_1", "fig4_2", "fig4_345", "fig5_1", "fig5_2", "fig5_3",
    "fig5_4", "table3", "sec6", "scaling",
])
def test_experiment_runs_and_reports(experiment_id):
    result = run_experiment(experiment_id, TINY)
    assert result.experiment_id == experiment_id
    assert result.text.strip()
    assert result.data
    assert str(result).startswith(f"== {experiment_id}")


class TestTable2Exactness:
    def test_no_mismatches_against_paper(self):
        result = run_experiment("table2", TINY)
        assert result.data["mismatches"] == []


def test_scaling_survives_a_zero_base_slope():
    # On these short traces the largest size's base slope is exactly
    # zero; its ratio pairs are dropped like NaN pairs, not divided by.
    result = run_experiment("scaling", ExperimentSettings(
        trace_length=3000, seed=7, full=False, n_jobs=1,
        pass_cache_dir="", stack_pass=False, sample="",
    ))
    assert result.ok
    assert 0.0 in result.data["fraction_slopes_base"]


@pytest.mark.parametrize("experiment_id", ["scaling", "fig5_1"])
def test_settings_reach_experiments_that_drive_sweeps(experiment_id, tmp_path):
    """Experiments that call the sweep drivers themselves honour the
    settings' sweep options: their passes land in the pass cache."""
    from repro.sim.passcache import PassCache

    result = run_experiment(experiment_id, ExperimentSettings(
        trace_length=3000, trace_names=("mu3",), full=False, n_jobs=1,
        pass_cache_dir=str(tmp_path / "pc"), sample="",
    ))
    assert result.ok
    assert len(PassCache(tmp_path / "pc")) > 0


def test_registry_runs_experiments_inside_the_outcome_archive(monkeypatch):
    """``run_experiment`` and ``run_all`` price every experiment through
    the experiment layer's archive; outside them no archive is active,
    and ``clear_grid_cache`` empties it."""
    from repro.experiments import common, registry
    from repro.sim.replaykernel import active_archive

    seen = []
    for experiment_id in list_experiments():
        monkeypatch.setitem(
            registry.EXPERIMENTS, experiment_id,
            lambda settings: seen.append(active_archive()),
        )
    run_experiment("fig3_1")
    registry.run_all()
    assert len(seen) == 1 + len(list_experiments())
    assert all(archive is common._OUTCOME_ARCHIVE for archive in seen)
    assert active_archive() is None


def test_archive_serves_later_experiments_and_clears():
    """A later sweep is served the cells an earlier one priced (§6's
    evenly scaled grid quantizes to the base grid's costs), and the
    archive empties with the memoized sweeps."""
    from repro.experiments import common

    clear_grid_cache()
    settings = ExperimentSettings(
        trace_length=3000, trace_names=("mu3",), full=False, n_jobs=1,
        pass_cache_dir="", sample="",
    )
    run_experiment("scaling", settings)
    # Three sweeps deliver 4 sizes x 5 clocks x 1 trace = 60 cells, but
    # the evenly scaled one repeats the base sweep's 20 cost keys.
    assert 0 < len(common._OUTCOME_ARCHIVE) <= 40
    clear_grid_cache()
    assert len(common._OUTCOME_ARCHIVE) == 0


ONE_TRACE = ExperimentSettings(
    trace_length=3000, trace_names=("mu3",), full=False, n_jobs=1,
    pass_cache_dir="", sample="",
)


def test_scaling_takes_one_pass_per_organization(counted_passes):
    """§6's three sweeps differ only in timing: 4 sizes x 1 trace take 4
    passes, not 12."""
    assert run_experiment("scaling", ONE_TRACE).ok
    assert len(counted_passes) == 4


def test_scaling_equals_three_independent_sweeps(monkeypatch):
    import numpy as np

    from repro.core.sweep import run_speed_size_sweep
    from repro.experiments import scaling

    shared = run_experiment("scaling", ONE_TRACE).data

    def independent(traces, sizes, timings, **options):
        return [
            run_speed_size_sweep(
                traces, sizes, cycles, memory=memory, **options
            )
            for cycles, memory in timings
        ]

    monkeypatch.setattr(scaling, "run_speed_size_sweeps", independent)
    clear_grid_cache()
    np.testing.assert_equal(
        shared, run_experiment("scaling", ONE_TRACE).data
    )


def test_sec6_prices_memory_direct_cells_on_the_kernel(monkeypatch,
                                                      counted_passes):
    """§6 takes one pass per L1 organization and trace; its with-L2
    cells take one scalar ``replay()`` each and its memory-direct cells
    none.  Every cell is its own ``fast_simulate``."""
    import dataclasses

    import repro.sim.fastpath as fastpath
    from repro.core.metrics import geometric_mean
    from repro.experiments.common import suite_for
    from repro.experiments.multilevel import l2_spec
    from repro.sim.config import baseline_config
    from repro.sim.fastpath import fast_simulate

    settings = dataclasses.replace(ONE_TRACE, trace_names=("mu3", "rd2n4"))
    replay = fastpath.replay
    levels = []

    def recording(*args, **kwargs):
        levels.append(kwargs["levels"])
        return replay(*args, **kwargs)

    monkeypatch.setattr(fastpath, "replay", recording)
    execution = run_experiment("sec6", settings).data["execution"]
    monkeypatch.undo()
    assert len(counted_passes) == 3 * 2
    assert len(levels) == 3 * 2 and all(levels)
    traces = list(suite_for(settings).values())
    for key, value in execution.items():
        total, where = key.split("@")
        config = baseline_config(
            cache_size_bytes=int(total[:-2]) * 512, cycle_ns=20.0,
        )
        if where == "l2":
            config = config.with_levels((l2_spec(),))
        assert value == geometric_mean(
            fast_simulate(config, trace).execution_time_ns
            for trace in traces
        )


def test_fig3_1_family_passes_come_from_the_pass_cache(counted_passes,
                                                       tmp_path):
    """The family comparison's organizations are the speed-size grid's:
    with the settings' pass cache they cost no pass of their own, and a
    warm cache serves fig3_1 whole."""
    import dataclasses

    settings = dataclasses.replace(
        ONE_TRACE, trace_names=("mu3", "rd2n4"),
        pass_cache_dir=str(tmp_path / "pc"),
    )
    clear_grid_cache()
    cold = run_experiment("fig3_1", settings)
    assert len(counted_passes) == len(settings.sizes_each_bytes) * 2
    counted_passes.clear()
    clear_grid_cache()
    warm = run_experiment("fig3_1", settings)
    assert counted_passes == []
    assert warm.data == cold.data
