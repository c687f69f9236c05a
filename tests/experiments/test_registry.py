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
