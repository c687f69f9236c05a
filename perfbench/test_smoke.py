"""Smoke test of the benchmark itself, on tiny inputs.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_smoke.py

For every workload it runs one untraced and one traced run with
``--smoke --seconds 1`` and checks that

* the last line is the result object, correct, with every metric that
  BENCHMARK.json declares, each with its declared unit;
* each traced round's spans reconcile with its wall time: the self times
  of the main thread's spans add up to the time its top-level spans
  cover, and covered plus unattributed time is the round's wall time.
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@functools.lru_cache(maxsize=None)
def run_bench(workload: str, trace: int, seed: int = 5):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = next(
        json.loads(line[len("# report "):])
        for line in lines if line.startswith("# report ")
    )
    return result, report, proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_with_its_unit(workload, trace):
    result, report, stdout = run_bench(workload, trace)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True, report["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
        assert f"{metric['name']} " in stdout  # printed by name
    assert report["failed_frac"] == 0.0
    assert set(report["stamp"]) == {
        "host", "nproc", "python", "numpy", "commit", "seed"}
    if not trace:
        for metric in declared:
            assert result["metrics"][metric["name"]]["value"] > 0
        # Times are scaled by calibration samples; the measured figures
        # are reported too.
        assert report["calibration"]["samples"] >= 2
        assert sorted(report["raw_end_to_end"]) == sorted(
            m["name"] for m in declared)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_spans_reconcile_with_wall_time(workload):
    result, report, _stdout = run_bench(workload, 1)
    assert report["reconcile"], "no traced round"
    for entry in report["reconcile"]:
        wall = entry["bench.wall_s"]
        covered = entry["bench.covered_s"]
        assert 0.0 < covered <= wall
        assert entry["bench.main_self_s"] == pytest.approx(covered, rel=1e-9)
    unattributed = result["metrics"]["bench.unattributed_frac"]["value"]
    walls = sum(e["bench.wall_s"] for e in report["reconcile"])
    covered = sum(e["bench.covered_s"] for e in report["reconcile"])
    assert unattributed == pytest.approx((walls - covered) / walls)


def test_reprice_warm_never_misses_the_cache():
    result, _report, _stdout = run_bench("reprice-warm", 1)
    metrics = result["metrics"]
    assert metrics["fastpath.passes"]["value"] == 0
    assert metrics["passcache.hit_frac"]["value"] == 1


def test_paper_cold_counts_repeated_passes():
    result, _report, _stdout = run_bench("paper-cold", 1)
    metrics = result["metrics"]
    assert metrics["fastpath.passes"]["value"] > 0
    assert 0 < metrics["fastpath.unique_pass_frac"]["value"] < 1


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(
        json.dumps(SPEC), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
