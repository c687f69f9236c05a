"""Smoke for the perf-ratchet loop: suite → record → store → diff.

Unlike the paper-artifact benches in this directory, this one exercises
the *harness* itself: it runs one real local bench suite under
pytest-benchmark, records the medians into a fresh history store beside
a synthetic baseline, and checks that the noise-band gate flags a
seeded 10% slowdown while waving an identical rerun through — the same
loop the CI perf-ratchet job runs against the persisted history.
"""

import dataclasses

from repro.sim.benchhistory import (
    BenchHistory,
    DiffPolicy,
    diff_history,
    run_bench_suites,
)

from conftest import run_once


def test_bench_history_ratchet_loop(benchmark, tmp_path):
    records, noise = run_once(
        benchmark, run_bench_suites, ["passcache_route"], 3, 4_000
    )
    assert all(record.value > 0 for record in records)
    assert all(value >= 0.0 for value in noise.values())

    history = BenchHistory(tmp_path / "bench-history.jsonl")
    # Three quiet baseline commits, then this run as the candidate.
    for commit in ("base1", "base2", "base3"):
        history.append([
            dataclasses.replace(record, commit=commit)
            for record in records
        ])
    history.append([
        dataclasses.replace(record, commit="candidate")
        for record in records
    ])
    policy = DiffPolicy(min_baseline=3)
    deltas = diff_history(
        history.load(), commit="candidate", policy=policy
    )
    assert deltas
    assert all(d.status == "ok" for d in deltas), (
        "bit-identical rerun must pass the gate"
    )

    # Seed a 10% slowdown on the cold-pass time and re-diff.
    slow = [
        dataclasses.replace(
            record, commit="slowpoke", value=record.value * 1.10
        )
        for record in records if record.metric == "cold_s"
    ]
    history.append(slow)
    deltas = diff_history(history.load(), commit="slowpoke", policy=policy)
    flagged = {d.metric: d.status for d in deltas}
    assert flagged["cold_s"] == "regression"
