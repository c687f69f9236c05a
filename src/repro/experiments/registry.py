"""Registry mapping experiment ids to their run functions.

``repro-sim experiment <id>`` and the EXPERIMENTS.md generator both
resolve experiments here.  Ids follow the paper's artifact numbering.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..errors import ConfigurationError, ReproError
from .common import (
    ExperimentResult,
    ExperimentSettings,
    failed_result,
    shared_outcomes,
)
from . import (
    fig3_1,
    fig3_2,
    fig3_3,
    fig3_4,
    fig4_1,
    fig4_2,
    fig4_345,
    fig5_1,
    fig5_2,
    fig5_3,
    fig5_4,
    multilevel,
    scaling,
    table1,
    table2,
    table3,
)

RunFn = Callable[[Optional[ExperimentSettings]], ExperimentResult]

EXPERIMENTS: Dict[str, RunFn] = {
    module.EXPERIMENT_ID: module.run
    for module in (
        table1, table2,
        fig3_1, fig3_2, fig3_3, fig3_4,
        fig4_1, fig4_2, fig4_345,
        fig5_1, fig5_2, fig5_3, fig5_4,
        table3, multilevel, scaling,
    )
}


def list_experiments() -> List[str]:
    """All experiment ids, in paper order."""
    return list(EXPERIMENTS)


def run_experiment(
    experiment_id: str, settings: Optional[ExperimentSettings] = None
) -> ExperimentResult:
    """Run one experiment by id, pricing through the shared outcome
    archive (see :func:`~repro.experiments.common.shared_outcomes`)."""
    if experiment_id not in EXPERIMENTS:
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; "
            f"available: {', '.join(EXPERIMENTS)}"
        )
    with shared_outcomes():
        return EXPERIMENTS[experiment_id](settings)


def run_all(
    settings: Optional[ExperimentSettings] = None,
    keep_going: bool = False,
) -> List[ExperimentResult]:
    """Run every experiment (used to assemble EXPERIMENTS.md).

    With ``keep_going=True`` a failing experiment yields a placeholder
    :class:`ExperimentResult` (``ok=False``) flagging the failure, and
    the remaining artifacts still run — a partial report with the
    missing points marked beats no report at all.  Every experiment
    prices through the shared outcome archive, as in
    :func:`run_experiment`.
    """
    results = []
    for experiment_id, run in EXPERIMENTS.items():
        try:
            with shared_outcomes():
                results.append(run(settings))
        except ReproError as exc:
            if not keep_going:
                raise
            results.append(failed_result(experiment_id, exc))
    return results
