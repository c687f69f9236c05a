"""Bench: Section 6's multilevel-hierarchy study (passes plus replays)."""

from repro.experiments.registry import run_experiment

from conftest import run_once


def test_sec6(benchmark, settings):
    result = run_once(benchmark, run_experiment, "sec6", settings)
    print()
    print(result)
    # The L2 always helps at a fast clock, and helps the small L1 most —
    # which is what lets a multilevel design keep the L1 small and fast.
    assert result.data["l2_gain_small_l1"] > result.data["l2_gain_large_l1"]
    assert result.data["l2_gain_large_l1"] > 1.0
    # With an L2, the optimal L1 never grows.
    assert (
        result.data["best_l1_total_with_l2"]
        <= result.data["best_l1_total_no_l2"]
    )
