"""Fault-tolerant campaign execution, end to end.

Every failure mode the resilience layer claims to survive is injected
deterministically here — worker crashes, hangs, transient errors,
ENOSPC, corrupted and truncated result files, kill-9 mid-save — with no
real clocks or sleeps in the loop (backoff goes through a recording
``sleep_fn``; "hangs" are virtual except for one real terminate-a-worker
check).  The flagship test is the 30-run sweep: >20% of runs are
sabotaged and the sweep must still complete, quarantine every corrupt
file, account for every run in the manifest, and leave all ``ok``
results byte-identical to a fault-free sweep.
"""

import json
import multiprocessing
import os
import signal
import tempfile
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.errors import (
    CampaignError,
    ConfigurationError,
    CorruptResultError,
    RunTimeoutError,
)
from repro.sim import faults, resilience
from repro.sim.campaign import (
    Campaign,
    payload_checksum,
    run_id,
    stats_from_dict,
    stats_to_dict,
)
from repro.sim.config import baseline_config
from repro.sim.engine import simulate
from repro.sim.fastpath import fast_simulate
from repro.sim.resilience import (
    CampaignExecutor,
    CampaignManifest,
    RetryPolicy,
    RunRecord,
    make_deadline_check,
    sweep_jobs,
)
from repro.trace.suite import ALL_TRACES, build_trace
from repro.units import KB


@pytest.fixture(scope="module")
def trace():
    return build_trace("mu3", length=2_000, seed=1)


@pytest.fixture(scope="module")
def trace_b():
    return build_trace("rd2n4", length=2_000, seed=1)


@pytest.fixture(scope="module")
def trace_c():
    return build_trace("savec", length=2_000, seed=1)


@pytest.fixture()
def config():
    return baseline_config(cache_size_bytes=4 * KB)


@pytest.fixture()
def stats(config, trace):
    return fast_simulate(config, trace)


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method",
)


def recording_context(reaped_elsewhere=False):
    """A fork context that records every worker it starts.

    With ``reaped_elsewhere`` its processes read as alive forever and
    refuse to be terminated — the state a worker is in when another
    thread's ``Process.start()`` reaped it.
    """
    context = multiprocessing.get_context("fork")
    started = []

    class Recording(context.Process):
        def start(self):
            started.append(self)
            super().start()

        if reaped_elsewhere:
            def is_alive(self):
                return True

            def terminate(self):
                raise AssertionError("terminated a finished worker")

    class Context:
        Pipe = staticmethod(context.Pipe)
        Process = Recording

    return Context(), started


def save_run(campaign, config, trace):
    """Store the run's ``fast_simulate`` result; return its run id."""
    identifier = run_id(config, trace)
    campaign.save(identifier, fast_simulate(config, trace))
    return identifier


def with_l2(config):
    """``config`` with one 64 KB lower level (an L2)."""
    from repro.core.geometry import CacheGeometry
    from repro.sim.config import LowerLevelSpec

    return config.with_levels((LowerLevelSpec(
        geometry=CacheGeometry(size_bytes=64 * KB, block_words=4),
    ),))


def make_executor(campaign, **kwargs):
    """An executor whose backoff sleeps are recorded, never slept."""
    sleeps = []
    kwargs.setdefault("sleep_fn", sleeps.append)
    kwargs.setdefault("retry", RetryPolicy(max_attempts=3))
    return CampaignExecutor(campaign, **kwargs), sleeps


# ----------------------------------------------------------------------
# Corruption detection on load (satellite: no bare JSONDecodeError/KeyError)
# ----------------------------------------------------------------------
class TestLoadValidation:
    def test_malformed_json_raises_corrupt(self, tmp_path, config, trace,
                                           stats):
        campaign = Campaign(tmp_path)
        identifier = run_id(config, trace)
        campaign.save(identifier, stats)
        campaign._path(identifier).write_text("{ not json")
        with pytest.raises(CorruptResultError):
            campaign.load(identifier)

    def test_missing_keys_raise_corrupt(self, tmp_path, config, trace):
        campaign = Campaign(tmp_path)
        identifier = run_id(config, trace)
        campaign._path(identifier).write_text(json.dumps({"run_id": identifier}))
        with pytest.raises(CorruptResultError):
            campaign.load(identifier)

    def test_missing_stats_fields_raise_corrupt(self, tmp_path, config,
                                                trace, stats):
        campaign = Campaign(tmp_path)
        identifier = run_id(config, trace)
        campaign.save(identifier, stats)
        payload = json.loads(campaign._path(identifier).read_text())
        del payload["stats"]["icache"]
        payload["checksum"] = payload_checksum(payload["stats"])
        campaign._path(identifier).write_text(json.dumps(payload))
        with pytest.raises(CorruptResultError):
            campaign.load(identifier)

    def test_checksum_mismatch_detected(self, tmp_path, config, trace,
                                        stats):
        campaign = Campaign(tmp_path)
        identifier = run_id(config, trace)
        campaign.save(identifier, stats)
        payload = json.loads(campaign._path(identifier).read_text())
        payload["stats"]["cycles"] += 1  # silent bitflip in the data
        campaign._path(identifier).write_text(json.dumps(payload))
        with pytest.raises(CorruptResultError, match="checksum"):
            campaign.load(identifier)

    def test_run_id_mismatch_detected(self, tmp_path, config, trace, stats):
        campaign = Campaign(tmp_path)
        identifier = run_id(config, trace)
        campaign.save("some-other-id", stats)
        campaign._path("some-other-id").rename(campaign._path(identifier))
        with pytest.raises(CorruptResultError, match="run id"):
            campaign.load(identifier)

    def test_legacy_schema1_still_loads(self, tmp_path, config, trace,
                                        stats):
        campaign = Campaign(tmp_path)
        identifier = run_id(config, trace)
        # The original on-disk shape: no schema, no checksum.
        campaign._path(identifier).write_text(json.dumps(
            {"run_id": identifier, "stats": stats_to_dict(stats)}
        ))
        assert campaign.load(identifier) == stats

    def test_missing_run_still_configuration_error(self, tmp_path):
        with pytest.raises(ConfigurationError):
            Campaign(tmp_path).load("nope")

    def test_stats_from_dict_tolerates_unknown_keys(self, stats):
        payload = stats_to_dict(stats)
        payload["from_the_future"] = {"v": 3}
        payload["icache"]["novel_counter"] = 7
        payload["buffer"]["novel_counter"] = 7
        assert stats_from_dict(payload) == stats

    def test_stats_from_dict_rejects_non_dict(self):
        with pytest.raises(CorruptResultError):
            stats_from_dict([1, 2, 3])


# ----------------------------------------------------------------------
# Atomic persistence (acceptance: kill -9 never leaves a partial *.json)
# ----------------------------------------------------------------------
class TestAtomicSave:
    def test_kill9_mid_write_leaves_no_partial_result(self, tmp_path,
                                                      config, trace, stats):
        campaign = Campaign(tmp_path, writer=faults.kill9_writer("mid-write"))
        identifier = run_id(config, trace)
        with pytest.raises(faults.InjectedCrash):
            campaign.save(identifier, stats)
        assert identifier not in campaign
        assert len(campaign) == 0
        assert list(campaign.results()) == []

    def test_kill9_before_rename_leaves_no_partial_result(self, tmp_path,
                                                          config, trace,
                                                          stats):
        campaign = Campaign(
            tmp_path, writer=faults.kill9_writer("pre-replace")
        )
        identifier = run_id(config, trace)
        with pytest.raises(faults.InjectedCrash):
            campaign.save(identifier, stats)
        assert len(campaign) == 0
        # The fully-written-but-unrenamed temp file is invisible to
        # results() and swept by fsck --repair.
        report = Campaign(tmp_path).fsck(repair=True)
        assert report.stray_tmp
        assert not list(tmp_path.glob(".tmp.*"))

    def test_save_recovers_after_transient_enospc(self, tmp_path, config,
                                                  trace, stats):
        campaign = Campaign(tmp_path, writer=faults.flaky_writer(fail_first=1))
        identifier = run_id(config, trace)
        with pytest.raises(OSError):
            campaign.save(identifier, stats)
        assert len(campaign) == 0  # failed write left nothing behind
        campaign.save(identifier, stats)  # second call heals
        assert campaign.load(identifier) == stats

    def test_saved_bytes_are_deterministic(self, tmp_path, config, trace,
                                           stats):
        a, b = Campaign(tmp_path / "a"), Campaign(tmp_path / "b")
        identifier = run_id(config, trace)
        a.save(identifier, stats)
        b.save(identifier, stats)
        assert (a._path(identifier).read_bytes()
                == b._path(identifier).read_bytes())


# ----------------------------------------------------------------------
# Quarantine and re-simulation
# ----------------------------------------------------------------------
class TestQuarantine:
    def test_run_resimulates_corrupt_file(self, tmp_path, config, trace):
        campaign = Campaign(tmp_path)
        identifier = save_run(campaign, config, trace)
        clean = campaign._path(identifier).read_bytes()
        faults.truncate_file(campaign._path(identifier))
        executor, _ = make_executor(campaign)
        (record,) = executor.run_sweep(sweep_jobs([config], [trace])).records
        # The corrupt file is not served: the run is simulated again and
        # stores the bytes the clean file held.
        assert (record.status, record.cached, record.attempts) == (
            "ok", False, 1,
        )
        assert campaign._path(identifier).read_bytes() == clean
        assert len(list(campaign.quarantine_dir.glob("*.json"))) == 1

    def test_results_quarantines_and_continues(self, tmp_path, trace):
        campaign = Campaign(tmp_path)
        for size in (2 * KB, 4 * KB, 8 * KB):
            save_run(campaign, baseline_config(cache_size_bytes=size), trace)
        victim = next(iter(campaign._result_paths()))
        faults.corrupt_file(victim)
        assert len(list(campaign.results())) == 2  # default: quarantine
        assert len(campaign) == 2
        assert len(list(campaign.quarantine_dir.glob("*"))) == 1

    def test_results_raise_mode(self, tmp_path, config, trace):
        campaign = Campaign(tmp_path)
        save_run(campaign, config, trace)
        faults.corrupt_file(next(iter(campaign._result_paths())))
        with pytest.raises(CorruptResultError):
            list(campaign.results(on_corrupt="raise"))

    def test_quarantine_names_never_collide(self, tmp_path, config, trace,
                                            stats):
        campaign = Campaign(tmp_path)
        identifier = run_id(config, trace)
        homes = []
        for _ in range(3):
            campaign.save(identifier, stats)
            homes.append(campaign.quarantine(identifier))
        assert len({h.name for h in homes}) == 3

    def test_fsck_reports_then_repairs(self, tmp_path, trace):
        campaign = Campaign(tmp_path)
        for size in (2 * KB, 4 * KB):
            save_run(campaign, baseline_config(cache_size_bytes=size), trace)
        faults.corrupt_file(next(iter(campaign._result_paths())))
        report = campaign.fsck()
        assert len(report.ok) == 1 and len(report.corrupt) == 1
        assert not report.clean
        assert len(campaign) == 2  # report-only mode touches nothing
        repaired = campaign.fsck(repair=True)
        assert len(repaired.quarantined) == 1
        assert campaign.fsck().clean


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(backoff_base_s=0.1, backoff_cap_s=100.0,
                             jitter=0.0)
        delays = [policy.delay_s("r", a) for a in (1, 2, 3, 4)]
        assert delays == [0.1, 0.2, 0.4, 0.8]

    def test_backoff_caps(self):
        policy = RetryPolicy(backoff_base_s=1.0, backoff_cap_s=2.0,
                             jitter=0.0)
        assert policy.delay_s("r", 10) == 2.0

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_base_s=1.0, jitter=0.5)
        once = policy.delay_s("some-run", 1)
        assert once == policy.delay_s("some-run", 1)
        assert 1.0 <= once <= 1.5
        assert once != policy.delay_s("other-run", 1)


# ----------------------------------------------------------------------
# Executor: isolation, timeout, retries
# ----------------------------------------------------------------------
class TestExecutor:
    def test_transient_crash_is_retried_to_success(self, tmp_path, config,
                                                   trace):
        campaign = Campaign(tmp_path)
        plan = faults.FaultPlan({0: faults.FaultSpec(faults.CRASH)})
        executor, sleeps = make_executor(campaign, fault_plan=plan)
        report = executor.run_sweep(sweep_jobs([config], [trace]))
        (record,) = report.records
        assert record.status == "ok"
        assert record.attempts == 2
        assert len(sleeps) == 1
        assert sleeps[0] == executor.retry.delay_s(record.run_id, 1)
        assert campaign.load(record.run_id) == fast_simulate(config, trace)

    def test_permanent_crash_contained_as_failed(self, tmp_path, trace):
        configs = [baseline_config(cache_size_bytes=s)
                   for s in (2 * KB, 4 * KB)]
        campaign = Campaign(tmp_path)
        plan = faults.FaultPlan({0: faults.always(faults.CRASH)})
        executor, _ = make_executor(campaign, fault_plan=plan)
        report = executor.run_sweep(sweep_jobs(configs, [trace]))
        assert [r.status for r in report.records] == ["failed", "ok"]
        assert "exit code" in report.records[0].error
        assert report.records[0].attempts == 3

    @needs_fork
    def test_workers_exit_with_their_own_status_at_two_jobs(self, tmp_path,
                                                            trace):
        # At jobs=2 the workers fork from the executor's pool threads,
        # where multiprocessing's own exit path fails and exits 1.  A
        # worker stopped at the end of the sweep exits 0; one that died
        # mid-attempt exits with its own code, which the failure
        # message reports.
        context, started = recording_context()
        configs = [baseline_config(cache_size_bytes=s)
                   for s in (2 * KB, 4 * KB, 8 * KB)]
        plan = faults.FaultPlan({0: faults.always(faults.CRASH)})
        executor, _ = make_executor(
            Campaign(tmp_path), jobs=2, mp_context=context,
            fault_plan=plan, retry=RetryPolicy(max_attempts=1),
        )
        report = executor.run_sweep(sweep_jobs(configs, [trace]))
        assert [r.status for r in report.records] == ["failed", "ok", "ok"]
        assert report.records[0].error == (
            "worker died without a result "
            f"(exit code {faults.CRASH_EXIT_CODE})"
        )
        codes = sorted(proc.exitcode for proc in started)
        assert codes == [0] * (len(codes) - 1) + [faults.CRASH_EXIT_CODE]

    def test_transient_worker_error_is_retried(self, tmp_path, config,
                                               trace):
        campaign = Campaign(tmp_path)
        plan = faults.FaultPlan({0: faults.FaultSpec(faults.ERROR)})
        executor, _ = make_executor(campaign, fault_plan=plan)
        report = executor.run_sweep(sweep_jobs([config], [trace]))
        assert report.records[0].status == "ok"
        assert report.records[0].attempts == 2

    def test_simulated_hang_exhausts_to_timeout(self, tmp_path, config,
                                                trace):
        campaign = Campaign(tmp_path)
        plan = faults.FaultPlan({0: faults.always(faults.HANG)})
        executor, sleeps = make_executor(
            campaign, fault_plan=plan, timeout_s=30.0
        )
        report = executor.run_sweep(sweep_jobs([config], [trace]))
        (record,) = report.records
        assert record.status == "timeout"
        assert record.attempts == 3
        assert len(sleeps) == 2  # backoff between the three attempts

    def test_real_hang_is_terminated(self, tmp_path, config, trace):
        # The one test that spends real wall time: a worker sleeping far
        # past the deadline is terminated by the parent (~0.3 s total).
        campaign = Campaign(tmp_path)
        plan = faults.FaultPlan({0: faults.always(faults.SLEEP)})
        executor, _ = make_executor(
            campaign, fault_plan=plan, timeout_s=0.3, grace_s=0.0,
            retry=RetryPolicy(max_attempts=1),
        )
        report = executor.run_sweep(sweep_jobs([config], [trace]))
        assert report.records[0].status == "timeout"
        assert "terminated" in report.records[0].error

    def test_enospc_on_save_is_retried(self, tmp_path, config, trace):
        campaign = Campaign(tmp_path)
        plan = faults.FaultPlan({0: faults.FaultSpec(faults.ENOSPC)})
        executor, _ = make_executor(campaign, fault_plan=plan)
        report = executor.run_sweep(sweep_jobs([config], [trace]))
        assert report.records[0].status == "ok"
        assert report.records[0].attempts == 2
        assert len(campaign) == 1

    def test_corrupted_save_is_quarantined_and_retried(self, tmp_path,
                                                       config, trace):
        campaign = Campaign(tmp_path)
        plan = faults.FaultPlan({0: faults.FaultSpec(faults.CORRUPT)})
        executor, _ = make_executor(campaign, fault_plan=plan)
        report = executor.run_sweep(sweep_jobs([config], [trace]))
        (record,) = report.records
        assert record.status == "ok"
        assert record.quarantines == 1
        assert len(list(campaign.quarantine_dir.glob("*.json"))) == 1
        assert campaign.load(record.run_id) == fast_simulate(config, trace)

    def test_corrupt_cached_result_revalidated(self, tmp_path, config,
                                               trace):
        campaign = Campaign(tmp_path)
        save_run(campaign, config, trace)
        identifier = run_id(config, trace)
        faults.truncate_file(campaign._path(identifier))
        executor, _ = make_executor(campaign)
        report = executor.run_sweep(sweep_jobs([config], [trace]))
        (record,) = report.records
        assert record.status == "ok" and not record.cached
        assert record.quarantines == 1
        assert campaign.load(identifier) == fast_simulate(config, trace)

    def test_valid_cached_result_short_circuits(self, tmp_path, config,
                                                trace):
        campaign = Campaign(tmp_path)
        save_run(campaign, config, trace)
        executor, _ = make_executor(campaign)
        report = executor.run_sweep(sweep_jobs([config], [trace]))
        assert report.records[0].cached
        assert report.records[0].status == "ok"

    def test_keep_going_false_raises_and_stops_scheduling(self, tmp_path,
                                                          trace):
        configs = [baseline_config(cache_size_bytes=2 * KB * 2**k)
                   for k in range(4)]
        campaign = Campaign(tmp_path)
        plan = faults.FaultPlan({0: faults.always(faults.ERROR)})
        executor, _ = make_executor(
            campaign, fault_plan=plan, keep_going=False
        )
        with pytest.raises(CampaignError):
            executor.run_sweep(sweep_jobs(configs, [trace]))
        counts = executor.manifest.counts()
        assert counts["failed"] == 1
        assert counts["ok"] + counts["failed"] < len(configs)

    def test_engine_worker_honors_cooperative_timeout(self, tmp_path,
                                                      trace):
        # The reference engine supports cancel_check, so an over-budget
        # engine run reports a *cooperative* timeout (the worker itself
        # raises RunTimeoutError) rather than being terminated.
        campaign = Campaign(tmp_path)
        executor, _ = make_executor(
            campaign, timeout_s=1e-9, retry=RetryPolicy(max_attempts=1)
        )
        config = baseline_config(cache_size_bytes=2 * KB)
        report = executor.run_sweep(
            sweep_jobs([config], [trace], simulator="engine")
        )
        assert report.records[0].status == "timeout"
        assert "cooperative" in report.records[0].error

    @needs_fork
    def test_unbounded_join_never_reads_as_timeout(self, tmp_path, config,
                                                   trace):
        # Without a timeout the wait for a result is unbounded, yet
        # is_alive() can still read true when another thread's
        # Process.start() reaped the worker first.  Neither the attempt
        # nor the stop at the end of the sweep may read that as an
        # overrun (and format a None deadline) or terminate the worker.
        context, started = recording_context(reaped_elsewhere=True)
        executor, _ = make_executor(
            Campaign(tmp_path), mp_context=context,
            retry=RetryPolicy(max_attempts=1),
        )
        report = executor.run_sweep(sweep_jobs([config], [trace]))
        assert report.records[0].status == "ok"
        assert Campaign(tmp_path).load(report.records[0].run_id) == \
            fast_simulate(config, trace)
        assert [proc.exitcode for proc in started] == [0]

    @needs_fork
    def test_bounded_join_reads_exit_from_the_sentinel(self, tmp_path,
                                                       config, trace):
        # With a timeout the same race applies: a worker that answered
        # in time, or exited on its stop message, but was reaped by
        # another thread still reads as alive.  Only the pipe and the
        # sentinel say whether it overran.
        context, started = recording_context(reaped_elsewhere=True)
        executor, sleeps = make_executor(
            Campaign(tmp_path), mp_context=context, timeout_s=60.0,
            retry=RetryPolicy(max_attempts=2),
        )
        report = executor.run_sweep(sweep_jobs([config], [trace]))
        assert report.records[0].status == "ok"
        assert report.records[0].attempts == 1
        assert sleeps == []
        assert [proc.exitcode for proc in started] == [0]


# ----------------------------------------------------------------------
# Long-lived workers: one per sweep slot, replaced only when they fail
# ----------------------------------------------------------------------
@needs_fork
class TestWorkerLifecycle:
    @pytest.fixture()
    def configs(self):
        return [baseline_config(cache_size_bytes=s)
                for s in (2 * KB, 4 * KB, 8 * KB)]

    def test_one_worker_serves_a_whole_sweep(self, tmp_path, configs,
                                             trace, trace_b):
        context, started = recording_context()
        executor, _ = make_executor(Campaign(tmp_path), mp_context=context)
        jobs = sweep_jobs(configs, [trace, trace_b])
        report = executor.run_sweep(jobs)
        assert report.all_ok and len(report.records) == 6
        assert len(started) == 1
        assert started[0].exitcode == 0
        for job, record in zip(jobs, report.records):
            assert Campaign(tmp_path).load(record.run_id) == \
                fast_simulate(job.config, job.trace)

    def test_error_fault_leaves_the_worker_serving(self, tmp_path, configs,
                                                   trace):
        context, started = recording_context()
        plan = faults.FaultPlan({0: faults.FaultSpec(faults.ERROR)})
        executor, _ = make_executor(
            Campaign(tmp_path), mp_context=context, fault_plan=plan,
        )
        report = executor.run_sweep(sweep_jobs(configs, [trace]))
        assert [r.attempts for r in report.records] == [2, 1, 1]
        assert report.all_ok
        assert len(started) == 1

    def test_crash_fails_only_its_run_and_the_next_gets_a_new_worker(
        self, tmp_path, configs, trace
    ):
        context, started = recording_context()
        plan = faults.FaultPlan({0: faults.always(faults.CRASH)})
        executor, _ = make_executor(
            Campaign(tmp_path), mp_context=context, fault_plan=plan,
            retry=RetryPolicy(max_attempts=1),
        )
        report = executor.run_sweep(sweep_jobs(configs, [trace]))
        assert [r.status for r in report.records] == ["failed", "ok", "ok"]
        assert f"exit code {faults.CRASH_EXIT_CODE}" in \
            report.records[0].error
        assert [proc.exitcode for proc in started] == [
            faults.CRASH_EXIT_CODE, 0,
        ]

    def test_overrun_worker_is_terminated_and_replaced(self, tmp_path,
                                                       configs, trace):
        # Real wall time: the sleeping worker is terminated at 0.3 s.
        context, started = recording_context()
        plan = faults.FaultPlan({0: faults.always(faults.SLEEP)})
        executor, _ = make_executor(
            Campaign(tmp_path), mp_context=context, fault_plan=plan,
            timeout_s=0.3, grace_s=0.0, retry=RetryPolicy(max_attempts=1),
        )
        report = executor.run_sweep(sweep_jobs(configs, [trace]))
        assert [r.status for r in report.records] == [
            "timeout", "ok", "ok",
        ]
        assert [proc.exitcode for proc in started] == [-signal.SIGTERM, 0]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_no_worker_outlives_the_sweep(self, tmp_path, configs, trace,
                                          jobs):
        executor, _ = make_executor(Campaign(tmp_path / "ok"), jobs=jobs)
        assert executor.run_sweep(sweep_jobs(configs, [trace])).all_ok
        assert multiprocessing.active_children() == []

        plan = faults.FaultPlan({0: faults.always(faults.ERROR)})
        executor, _ = make_executor(
            Campaign(tmp_path / "raises"), jobs=jobs, fault_plan=plan,
            keep_going=False,
        )
        with pytest.raises(CampaignError):
            executor.run_sweep(sweep_jobs(configs, [trace]))
        assert multiprocessing.active_children() == []

    def test_spawn_workers_store_the_fork_results(self, tmp_path, configs,
                                                  trace):
        jobs = sweep_jobs(configs[:2], [trace])
        stored = {}
        for method in ("fork", "spawn"):
            campaign = Campaign(tmp_path / method)
            executor, _ = make_executor(
                campaign, mp_context=multiprocessing.get_context(method),
            )
            assert executor.run_sweep(jobs).all_ok
            stored[method] = {
                path.name: path.read_bytes()
                for path in campaign._result_paths()
            }
        assert len(stored["fork"]) == 2
        assert stored["spawn"] == stored["fork"]

    def test_worker_exits_0_when_the_parent_end_closes(self, config,
                                                       trace):
        context = multiprocessing.get_context("fork")
        conn, child_end = context.Pipe()
        proc = context.Process(
            target=resilience._worker_main,
            args=(child_end, conn, None, None, False),
            daemon=True,
        )
        proc.start()
        child_end.close()
        # One request is one group: its jobs, their indices, the attempt.
        conn.send(((sweep_jobs([config], [trace])[0],), (0,), 1))
        assert conn.recv() == ("ok", [fast_simulate(config, trace)])
        conn.close()
        proc.join(10.0)
        assert proc.exitcode == 0


# ----------------------------------------------------------------------
# Groups of timing siblings: one pass and one worker request per group
# ----------------------------------------------------------------------
class TestSiblingGroups:
    @pytest.fixture()
    def grid(self, trace):
        """Two organizations at two cycle times: jobs (0, 1) and (2, 3)
        are timing siblings."""
        configs = [
            baseline_config(cache_size_bytes=size, cycle_ns=cycle_ns)
            for size in (2 * KB, 4 * KB)
            for cycle_ns in (20.0, 40.0)
        ]
        return sweep_jobs(configs, [trace])

    def test_groups_share_one_pass_key_and_simulate_function(
        self, tmp_path, grid, trace
    ):
        from repro.trace.record import Trace

        twin = Trace(
            trace.kinds, trace.addrs, trace.pids, name="twin",
            warm_boundary=trace.warm_boundary,
        )
        config = grid[0].config
        l2 = with_l2(config)
        jobs = grid + [
            resilience.RunJob(config.with_cycle_ns(60.0), twin),
            resilience.RunJob(config, trace, pass_cache_dir=str(tmp_path)),
            resilience.RunJob(config.with_cycle_ns(60.0), trace,
                              pass_cache_dir=str(tmp_path)),
            resilience.RunJob(config, trace, seed=1),
            resilience.RunJob(config, trace, simulator="engine"),
            resilience.RunJob(config, trace, simulator="engine"),
            resilience.RunJob(l2, trace),
            resilience.RunJob(l2.with_cycle_ns(20.0), trace),
        ]
        # Same contents under another name share the pass, and so do
        # timing siblings with one set of lower levels; a pass cache, a
        # seed or other lower levels split a group, and every engine job
        # runs alone.
        assert resilience.sibling_groups(jobs) == [
            [0, 1, 4], [2, 3], [5, 6], [7], [8], [9], [10, 11],
        ]

    def test_a_job_names_a_known_simulator(self, config, trace):
        with pytest.raises(CampaignError):
            resilience.RunJob(config, trace, simulator="cached")

    @needs_fork
    def test_a_crash_fails_every_run_of_its_group_only(self, tmp_path,
                                                        grid):
        context, started = recording_context()
        plan = faults.FaultPlan({1: faults.always(faults.CRASH)})
        campaign = Campaign(tmp_path)
        executor, sleeps = make_executor(
            campaign, mp_context=context, fault_plan=plan,
            retry=RetryPolicy(max_attempts=2),
        )
        report = executor.run_sweep(grid)
        journal = CampaignManifest.for_campaign(campaign).runs
        # Job 1's crash is job 0's too: both journaled as failed, each
        # charged both of the group's attempts.  The other group ran
        # once on the worker that replaced the crashed one.
        for record in report.records[:2]:
            assert record.status == "failed"
            assert record.attempts == 2
            assert f"exit code {faults.CRASH_EXIT_CODE}" in record.error
            assert journal[record.run_id].to_dict() == record.to_dict()
        for record in report.records[2:]:
            assert (record.status, record.attempts) == ("ok", 1)
            assert journal[record.run_id].status == "ok"
            assert journal[record.run_id].attempts == 1
        assert len(sleeps) == 1
        assert sleeps[0] == executor.retry.delay_s(
            report.records[0].run_id, 1
        )
        assert [proc.exitcode for proc in started] == [
            faults.CRASH_EXIT_CODE, faults.CRASH_EXIT_CODE, 0,
        ]
        assert len(campaign) == 2

    def test_a_save_fault_retries_only_its_own_run(self, tmp_path, grid):
        plan = faults.FaultPlan({
            0: faults.FaultSpec(faults.ENOSPC),
            3: faults.FaultSpec(faults.CORRUPT),
        })
        campaign = Campaign(tmp_path)
        executor, sleeps = make_executor(campaign, fault_plan=plan)
        sent = []
        execute = executor._execute_attempt

        def recording(members, attempt):
            sent.append(([index for index, _job in members], attempt))
            return execute(members, attempt)

        executor._execute_attempt = recording
        report = executor.run_sweep(grid)
        assert report.all_ok
        assert [r.attempts for r in report.records] == [2, 1, 1, 2]
        assert [r.quarantines for r in report.records] == [0, 0, 0, 1]
        # A retried group re-prices only the members not yet saved.
        assert sent == [([0, 1], 1), ([0], 2), ([2, 3], 1), ([3], 2)]
        assert len(sleeps) == 2
        for job, record in zip(grid, report.records):
            assert campaign.load(record.run_id) == fast_simulate(
                job.config, job.trace
            )

    def test_a_group_skips_its_stored_runs(self, tmp_path, grid):
        campaign = Campaign(tmp_path)
        save_run(campaign, grid[1].config, grid[1].trace)
        executor, _ = make_executor(campaign)
        sent = []
        execute = executor._execute_attempt

        def recording(members, attempt):
            sent.append([index for index, _job in members])
            return execute(members, attempt)

        executor._execute_attempt = recording
        report = executor.run_sweep(grid)
        assert [r.cached for r in report.records] == [
            False, True, False, False,
        ]
        assert sent == [[0], [2, 3]]

    def test_a_group_has_a_budget_per_run(self, tmp_path, grid):
        # Real wall time: the group of two sleeps past 2 x 0.3 s.
        plan = faults.FaultPlan({0: faults.always(faults.SLEEP)})
        executor, _ = make_executor(
            Campaign(tmp_path), fault_plan=plan, timeout_s=0.3,
            grace_s=0.0, retry=RetryPolicy(max_attempts=1),
        )
        records = executor.run_group([(0, grid[0]), (1, grid[1])])
        assert [r.status for r in records] == ["timeout", "timeout"]
        assert records[0].error == (
            "worker exceeded 0.6s wall clock; terminated"
        )

    def test_metrics_keep_a_ledger_per_run_and_one_get_per_group(
        self, tmp_path, grid
    ):
        from repro.sim.telemetry import RunReport

        jobs = [
            resilience.RunJob(job.config, job.trace,
                              pass_cache_dir=str(tmp_path / "pc"))
            for job in grid
        ]
        campaign = Campaign(tmp_path / "campaign")
        executor, _ = make_executor(campaign, collect_metrics=True)
        assert executor.run_sweep(jobs).all_ok
        reports = [RunReport.from_dict(p) for p in campaign.load_reports()]
        assert len(reports) == 4
        for report in reports:
            assert report.conserved and report.buckets
        summary = json.loads(campaign.summary_path.read_text())
        assert summary["all_conserved"]
        counters = summary["metrics"]["counters"]
        # The pass cache saw one get per group, each a miss and a put.
        assert counters["passcache.misses"] == 2
        assert "passcache.hits" not in counters
        assert counters["replay.scalar_replays"] == 4
        by_id = {report.run_id: report for report in reports}
        for job in jobs:
            identifier = run_id(job.config, job.trace)
            stats = campaign.load(identifier)
            assert stats == fast_simulate(job.config, job.trace)
            assert by_id[identifier].cycles == stats.cycles

    @pytest.mark.skipif(
        multiprocessing.get_context().get_start_method() != "fork",
        reason="counts pass-cache calls made in a forked worker",
    )
    def test_l2_timing_siblings_share_one_pass(self, tmp_path, trace):
        """Two cycle times of one organization with an L2 and a pass
        cache: one worker request, one pass-cache miss and put, no hit,
        and each stored result is its own ``fast_simulate``."""
        from unittest import mock

        from repro.sim.passcache import PassCache

        config = with_l2(baseline_config(cache_size_bytes=4 * KB))
        jobs = sweep_jobs(
            [config.with_cycle_ns(20.0), config.with_cycle_ns(60.0)],
            [trace], pass_cache_dir=str(tmp_path / "pc"),
        )
        campaign = Campaign(tmp_path / "campaign")
        executor, _ = make_executor(campaign)
        sent = []
        execute = executor._execute_attempt

        def recording(members, attempt):
            sent.append([index for index, _job in members])
            return execute(members, attempt)

        executor._execute_attempt = recording
        calls = tmp_path / "calls"
        get, put = PassCache.get, PassCache.put

        def log(word):
            with open(calls, "a", encoding="utf-8") as out:
                out.write(word + "\n")

        def counted_get(cache, *args, **kwargs):
            stream = get(cache, *args, **kwargs)
            log("miss" if stream is None else "hit")
            return stream

        def counted_put(cache, *args, **kwargs):
            log("put")
            return put(cache, *args, **kwargs)

        with mock.patch.object(PassCache, "get", counted_get), \
                mock.patch.object(PassCache, "put", counted_put):
            assert executor.run_sweep(jobs).all_ok
        assert sent == [[0, 1]]
        assert calls.read_text().split() == ["miss", "put"]
        for job in jobs:
            assert campaign.load(run_id(job.config, job.trace)) == (
                fast_simulate(job.config, job.trace)
            )

    def test_reports_name_the_engine_and_the_fastpath(self, tmp_path,
                                                       config, trace):
        from repro.sim.telemetry import RunReport

        jobs = [
            resilience.RunJob(config, trace, simulator="engine"),
            resilience.RunJob(config.with_cycle_ns(60.0), trace),
        ]
        campaign = Campaign(tmp_path)
        executor, _ = make_executor(campaign, collect_metrics=True)
        assert executor.run_sweep(jobs).all_ok
        reports = {
            report.run_id: report
            for report in map(RunReport.from_dict, campaign.load_reports())
        }
        for job in jobs:
            report = reports[run_id(job.config, job.trace)]
            assert report.simulator == job.simulator
            assert report.conserved and report.buckets
        assert {report.simulator for report in reports.values()} == {
            "engine", "fastpath",
        }


@st.composite
def grouped_sweeps(draw):
    """`campaign run` sweep flags with 1-3 cycle times per organization,
    and a worker count."""
    def some(values, most):
        return ",".join(str(v) for v in draw(st.lists(
            st.sampled_from(values), min_size=1, max_size=most, unique=True
        )))

    flags = [
        "--sizes-kb", some([1, 2, 4, 8], 2),
        "--cycles-ns", some([20, 30, 40, 60, 80], 3),
        "--assoc", str(draw(st.integers(1, 2))),
        "--traces", some(ALL_TRACES, 2),
        "--length", str(draw(st.integers(500, 1_500))),
        "--seed", str(draw(st.integers(0, 3))),
    ]
    return flags, draw(st.sampled_from(["1", "2"]))


def _result_files(directory):
    return {
        path.name: path.read_bytes()
        for path in Campaign(directory)._result_paths()
    }


# Each example runs two campaigns, so there are few of them, and a
# failing one is reported as drawn, without shrinking.  Counting the
# workers' pass-cache gets needs workers forked from this process.
@pytest.mark.skipif(
    multiprocessing.get_context().get_start_method() != "fork",
    reason="counts calls made in forked workers",
)
@settings(max_examples=5, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(drawn=grouped_sweeps())
def test_grouped_campaign_stores_what_fast_simulate_stores(drawn):
    """Grouped `campaign run`, with and without a pass cache, stores
    each run's per-run ``fast_simulate`` bytes, and its workers read
    the pass cache once per group of timing siblings."""
    from unittest import mock

    from repro.cli import _campaign_sweep, build_parser, main
    from repro.sim.passcache import PassCache

    flags, workers = drawn
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        _spec, jobs = _campaign_sweep(build_parser().parse_args(
            ["campaign", "run", str(root / "unused"), *flags]
        ))
        reference = Campaign(root / "reference")
        for job in jobs:
            reference.save(
                run_id(job.config, job.trace),
                fast_simulate(job.config, job.trace, seed=job.seed),
            )
        expected = _result_files(root / "reference")
        assert len(expected) == len(jobs)
        assert main(["campaign", "run", str(root / "plain"), *flags,
                     "--jobs", workers]) == 0
        assert _result_files(root / "plain") == expected

        gets = root / "gets"
        get = PassCache.get

        def counted(cache, *args, **kwargs):
            with open(gets, "a", encoding="utf-8") as log:
                log.write("get\n")
            return get(cache, *args, **kwargs)

        with mock.patch.object(PassCache, "get", counted):
            assert main(["campaign", "run", str(root / "cached"), *flags,
                         "--jobs", workers,
                         "--pass-cache", str(root / "pc")]) == 0
        assert _result_files(root / "cached") == expected
        groups = len(resilience.sibling_groups(jobs))
        assert groups == len({
            (job.config.l1, job.trace.name) for job in jobs
        })
        assert gets.read_text().count("get") == groups


# ----------------------------------------------------------------------
# Cooperative cancellation hook (engine.py)
# ----------------------------------------------------------------------
class TestCancelHook:
    def test_cancel_check_aborts_run(self, config, trace):
        calls = []

        def tripwire():
            calls.append(1)
            raise RunTimeoutError("cancelled by test")

        with pytest.raises(RunTimeoutError):
            simulate(config, trace, cancel_check=tripwire)
        assert len(calls) == 1

    def test_expired_deadline_cancels(self, config, trace):
        fake_now = iter([0.0, 10.0]).__next__
        check = make_deadline_check(1.0, clock=fake_now)
        with pytest.raises(RunTimeoutError):
            simulate(config, trace, cancel_check=check)

    def test_no_hook_no_behaviour_change(self, config, trace):
        assert simulate(config, trace) == simulate(
            config, trace, cancel_check=lambda: None
        )


# ----------------------------------------------------------------------
# Monotonic deadline discipline (satellite: no wall-clock comparisons)
# ----------------------------------------------------------------------
class TestMonotonicDeadlines:
    def test_default_clock_is_monotonic(self):
        """The deadline hook must default to time.monotonic — an NTP
        step, DST change or operator clock-set cannot move a deadline
        that never reads the wall clock."""
        import time

        assert time.monotonic in make_deadline_check.__defaults__

    def test_deadline_driven_by_injected_clock_only(self, monkeypatch):
        """Chaos on the wall clock is invisible: the check consults only
        the clock it was built with."""
        import time

        mono = faults.SteppedClock(start=100.0)
        check = make_deadline_check(5.0, clock=mono)
        # The wall clock goes haywire; a correct check never reads it.
        monkeypatch.setattr(time, "time", lambda: 1e18)
        check()                      # fresh: well within budget
        mono.advance(4.9)
        check()                      # still inside the 5 s budget
        mono.advance(0.2)
        with pytest.raises(RunTimeoutError):
            check()                  # genuine elapsed time expires it

    def test_retry_backoff_takes_no_clock_at_all(self):
        """Backoff delays are pure functions of (id, attempt) — there
        is no clock to step, which is the strongest immunity there is."""
        policy = RetryPolicy()
        assert policy.delay_s("r", 2) == policy.delay_s("r", 2)


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------
class TestManifest:
    def test_journal_survives_reload(self, tmp_path):
        manifest = CampaignManifest(tmp_path / "manifest.json")
        manifest.record(RunRecord(run_id="a", status="ok", attempts=1))
        manifest.record(RunRecord(run_id="b", status="timeout", attempts=3,
                                  error="hung"))
        back = CampaignManifest.load(tmp_path / "manifest.json")
        assert back.counts()["ok"] == 1
        assert back.counts()["timeout"] == 1
        assert back.runs["b"].error == "hung"

    def test_corrupt_manifest_recovered(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{ broken")
        manifest = CampaignManifest.load(path)
        assert manifest.runs == {}
        assert (tmp_path / "manifest.json.corrupt").exists()
        manifest.record(RunRecord(run_id="a", status="ok"))
        assert CampaignManifest.load(path).counts()["ok"] == 1

    def test_manifest_excluded_from_results(self, tmp_path, config, trace):
        campaign = Campaign(tmp_path)
        executor, _ = make_executor(campaign)
        executor.run_sweep(sweep_jobs([config], [trace]))
        assert campaign.manifest_path.exists()
        assert len(campaign) == 1
        assert len(list(campaign.results())) == 1

    def test_incomplete_lists_missing_points(self, tmp_path):
        manifest = CampaignManifest(tmp_path / "manifest.json")
        manifest.record(RunRecord(run_id="a", status="ok"))
        manifest.record(RunRecord(run_id="b", status="failed", error="x"))
        assert [r.run_id for r in manifest.incomplete()] == ["b"]
        assert "failed" in manifest.render()


class TestManifestJournal:
    """``manifest.json`` is a header line and one appended record per
    journaled run, last record winning; a crash can tear only its final
    line."""

    def test_record_appends_one_line(self, tmp_path):
        path = tmp_path / "manifest.json"
        manifest = CampaignManifest.load(path)
        manifest.record(RunRecord(run_id="a", status="ok", attempts=1))
        before = path.read_bytes()
        manifest.record(RunRecord(run_id="b", status="ok", attempts=1))
        after = path.read_bytes()
        assert after.startswith(before)
        (line,) = after[len(before):].decode().splitlines()
        assert json.loads(line)["run_id"] == "b"
        header = json.loads(after.decode().splitlines()[0])
        assert header == {"schema": CampaignManifest.SCHEMA} == {"schema": 2}

    def test_retried_run_reads_last_record_wins(self, tmp_path):
        path = tmp_path / "manifest.json"
        manifest = CampaignManifest.load(path)
        manifest.record(RunRecord(run_id="a", status="failed", attempts=1,
                                  error="boom"))
        manifest.record(RunRecord(run_id="b", status="timeout", attempts=3))
        manifest.record(RunRecord(run_id="a", status="ok", attempts=2))
        assert len(path.read_text().splitlines()) == 4
        back = CampaignManifest.load(path)
        assert (back.runs["a"].status, back.runs["a"].attempts,
                back.runs["a"].error) == ("ok", 2, "")
        assert back.counts() == {
            "ok": 1, "failed": 0, "timeout": 1, "quarantined": 0,
        }
        # A clean journal loads without being rewritten.
        assert len(path.read_text().splitlines()) == 4
        assert not list(tmp_path.glob("manifest.json.corrupt*"))

    def test_torn_final_line_is_set_aside(self, tmp_path):
        path = tmp_path / "manifest.json"
        manifest = CampaignManifest.load(path)
        for name in ("a", "b", "c"):
            manifest.record(RunRecord(run_id=name, status="ok"))
        torn = path.read_bytes() + b'{"run_id":"d","status":"o'
        path.write_bytes(torn)
        back = CampaignManifest.load(path)
        assert sorted(back.runs) == ["a", "b", "c"]
        assert (tmp_path / "manifest.json.corrupt").read_bytes() == torn
        # Compacted: the next append starts on a fresh line.
        assert path.read_text().endswith("\n")
        back.record(RunRecord(run_id="d", status="ok"))
        assert CampaignManifest.load(path).counts()["ok"] == 4
        assert len(list(tmp_path.glob("manifest.json.corrupt*"))) == 1

    def test_unreadable_middle_line_keeps_the_others(self, tmp_path):
        path = tmp_path / "manifest.json"
        manifest = CampaignManifest.load(path)
        manifest.record(RunRecord(run_id="a", status="ok"))
        manifest.record(RunRecord(run_id="b", status="ok"))
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:-3] + "\x00\x00\x00"
        path.write_text("\n".join(lines) + "\n")
        back = CampaignManifest.load(path)
        assert sorted(back.runs) == ["b"]
        assert (tmp_path / "manifest.json.corrupt").exists()

    def test_schema_1_document_is_resumed_and_appended_to(
        self, tmp_path, config, trace
    ):
        campaign = Campaign(tmp_path)
        job = sweep_jobs([config], [trace])
        identifier = run_id(config, trace)
        campaign.manifest_path.write_text(json.dumps({
            "schema": 1,
            "runs": {
                "earlier": RunRecord(run_id="earlier", status="ok",
                                     attempts=1).to_dict(),
                identifier: RunRecord(run_id=identifier, status="failed",
                                      attempts=3, error="boom").to_dict(),
            },
        }, indent=1))
        executor, _ = make_executor(campaign)
        executor.run_sweep(job)
        lines = campaign.manifest_path.read_text().splitlines()
        assert json.loads(lines[0]) == {"schema": 2}
        back = CampaignManifest.for_campaign(campaign)
        assert back.runs["earlier"].status == "ok"
        assert back.runs[identifier].status == "ok"
        # Compacted to two records, then one line appended for the run.
        assert [json.loads(line)["run_id"] for line in lines[1:]] == sorted(
            ["earlier", identifier]
        ) + [identifier]
        assert not list(tmp_path.glob("manifest.json.corrupt*"))


# ----------------------------------------------------------------------
# The acceptance sweep: 30 runs, >=20% sabotaged
# ----------------------------------------------------------------------
class TestFaultySweepAcceptance:
    @pytest.fixture(scope="class")
    def sweep(self, trace, trace_b, trace_c):
        configs = [
            baseline_config(cache_size_bytes=2 * KB * (2 ** k),
                            cycle_ns=cycle_ns)
            for k in range(5)
            for cycle_ns in (20.0, 40.0)
        ]
        return sweep_jobs(configs, [trace, trace_b, trace_c])

    @pytest.fixture(scope="class")
    def baseline(self, sweep, tmp_path_factory):
        """A fault-free sweep's files, keyed by run id."""
        campaign = Campaign(tmp_path_factory.mktemp("baseline"))
        for job in sweep:
            save_run(campaign, job.config, job.trace)
        return {
            path.stem: path.read_bytes()
            for path in campaign._result_paths()
        }

    def test_faulty_sweep_completes_and_matches_baseline(
        self, sweep, baseline, tmp_path_factory
    ):
        assert len(sweep) == 30
        # Jobs i and i + 3 (one size, 20 and 40 ns, one trace) are timing
        # siblings, so each pair of faulted jobs below is one group.
        assert [len(group) for group in resilience.sibling_groups(sweep)] \
            == [2] * 15
        plan = faults.FaultPlan({
            1: faults.FaultSpec(faults.CRASH),          # dies, retried
            4: faults.FaultSpec(faults.ERROR),          # raises, retried
            7: faults.always(faults.HANG),              # every attempt hangs
            10: faults.FaultSpec(faults.HANG),          # hangs once
            13: faults.FaultSpec(faults.CORRUPT),       # file damaged once
            16: faults.FaultSpec(faults.TRUNCATE),      # file torn once
            19: faults.FaultSpec(faults.ENOSPC),        # disk full once
            22: faults.always(faults.CRASH),            # dies every time
        })
        assert len(plan.faulty_indices) / len(sweep) >= 0.20
        campaign = Campaign(tmp_path_factory.mktemp("faulty"))
        sleeps = []
        executor = CampaignExecutor(
            campaign,
            jobs=4,
            timeout_s=60.0,
            retry=RetryPolicy(max_attempts=3),
            keep_going=True,
            fault_plan=plan,
            sleep_fn=sleeps.append,
        )
        report = executor.run_sweep(sweep)

        # The sweep completed: every run is accounted for, exactly once.
        assert len(report.records) == 30
        counts = report.counts()
        assert counts["ok"] + counts["failed"] + counts["timeout"] == 30
        assert counts == {"ok": 26, "failed": 2, "timeout": 2,
                          "quarantined": 0}

        # Transient faults were retried to success; a simulation fault
        # fails its whole group's attempt, so both siblings took two...
        by_index = {record.run_id: record for record in report.records}
        ids = [run_id(job.config, job.trace) for job in sweep]
        for index in (1, 4):
            assert by_index[ids[index]].status == "ok"
            assert by_index[ids[index]].attempts == 2
        # ...corruption was quarantined per run, every damaged file
        # preserved, and the retry re-priced both unsaved siblings...
        for index in (13, 16):
            assert by_index[ids[index]].status == "ok"
            assert by_index[ids[index]].attempts == 2
            assert by_index[ids[index]].quarantines == 1
        assert len(list(campaign.quarantine_dir.glob("*"))) == 2
        # ...and permanent faults were contained to their groups, not
        # fatal: a hang or crash on every attempt fails each sibling,
        # also the one whose own fault fired once (10, 19).
        for index, status in ((7, "timeout"), (10, "timeout"),
                              (19, "failed"), (22, "failed")):
            assert by_index[ids[index]].status == status
            assert by_index[ids[index]].attempts == 3
        # Every group without a fault ran once.
        faulted = {ids[index] for index in (1, 4, 7, 10, 13, 16, 19, 22)}
        for record in report.records:
            if record.run_id not in faulted:
                assert (record.status, record.attempts) == ("ok", 1)

        # The manifest journals the same accounting, durably.
        manifest = CampaignManifest.for_campaign(campaign)
        assert len(manifest.runs) == 30
        assert manifest.counts() == counts

        # Backoff went through the injected sleeper only — and was
        # consulted once per group retry (crash/error group x1 +
        # corrupt/truncate group x1 + hang group x2 + crash group x2).
        assert len(sleeps) == 6

        # Every ok result is byte-identical to the fault-free sweep.
        stored = {path.stem: path.read_bytes()
                  for path in campaign._result_paths()}
        ok_ids = {record.run_id for record in report.records
                  if record.status == "ok"}
        assert set(stored) == ok_ids
        for identifier in ok_ids:
            assert stored[identifier] == baseline[identifier]

        # And the degraded archive still renders: results() yields every
        # ok point, fsck finds nothing left to complain about.
        assert len(list(campaign.results())) == 26
        assert campaign.fsck().clean


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_campaign_run_status_fsck(self, tmp_path, capsys):
        from repro.cli import main

        directory = str(tmp_path / "camp")
        code = main([
            "campaign", "run", directory,
            "--sizes-kb", "2,4", "--cycles-ns", "40",
            "--traces", "mu3", "--length", "2000",
            "--jobs", "2", "--retries", "1", "--keep-going",
        ])
        assert code == 0
        assert "2 ok" in capsys.readouterr().out

        assert main(["campaign", "status", directory]) == 0
        assert "2 run(s)" in capsys.readouterr().out

        assert main(["campaign", "fsck", directory]) == 0
        assert "2 result(s) ok" in capsys.readouterr().out

        # Damage a file: fsck reports (exit 1), then repairs (exit 0).
        campaign = Campaign(directory)
        faults.corrupt_file(next(iter(campaign._result_paths())))
        assert main(["campaign", "fsck", directory]) == 1
        assert "1 corrupt" in capsys.readouterr().out
        assert main(["campaign", "fsck", directory, "--repair"]) == 0
        assert main(["campaign", "fsck", directory]) == 0
        assert main(["campaign", "status", directory]) == 0

    def test_stack_pass_is_inert_and_the_parent_takes_no_pass(
        self, tmp_path, monkeypatch
    ):
        # The workers take every pass: the parent would fail here.
        from repro.cli import main
        from repro.sim import stackpass

        parent = os.getpid()
        organization_pass = stackpass.organization_pass

        def in_workers_only(*args, **kwargs):
            assert os.getpid() != parent, "the parent took a pass"
            return organization_pass(*args, **kwargs)

        monkeypatch.setattr(stackpass, "organization_pass", in_workers_only)
        sweep = ["--sizes-kb", "2,4", "--cycles-ns", "20,40",
                 "--traces", "mu3", "--length", "1000"]
        pass_cache = ["--pass-cache", str(tmp_path / "pc")]
        for name, extra in (
            ("plain", []),
            ("flag", ["--stack-pass"]),
            ("cached", ["--stack-pass", *pass_cache]),
        ):
            assert main(["campaign", "run", str(tmp_path / name), *sweep,
                         *extra]) == 0
        files = [
            {path.name: path.read_bytes()
             for path in Campaign(tmp_path / name)._result_paths()}
            for name in ("plain", "flag", "cached")
        ]
        assert len(files[0]) == 4
        assert files[1] == files[0] and files[2] == files[0]

    def test_experiment_keep_going_renders_failure(self, capsys,
                                                   monkeypatch):
        from repro.cli import main
        from repro.errors import AnalysisError
        from repro.experiments import registry

        def boom(settings=None):
            raise AnalysisError("injected experiment failure")

        monkeypatch.setitem(registry.EXPERIMENTS, "table2", boom)
        code = main([
            "experiment", "table2", "--length", "2000", "--keep-going",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAILED" in out and "injected experiment failure" in out

    def test_experiment_without_keep_going_aborts(self, monkeypatch):
        from repro.cli import main
        from repro.errors import AnalysisError
        from repro.experiments import registry

        def boom(settings=None):
            raise AnalysisError("injected experiment failure")

        monkeypatch.setitem(registry.EXPERIMENTS, "table2", boom)
        with pytest.raises(AnalysisError):
            main(["experiment", "table2", "--length", "2000"])


class TestRegistryDegradation:
    def test_run_all_keep_going_flags_failures(self, monkeypatch):
        from repro.errors import AnalysisError
        from repro.experiments import registry
        from repro.experiments.common import ExperimentResult

        calls = []

        def good(settings=None):
            calls.append(1)
            return ExperimentResult("x", "ok", "text", {})

        def boom(settings=None):
            raise AnalysisError("injected")

        monkeypatch.setattr(
            registry, "EXPERIMENTS", {"good": good, "bad": boom,
                                      "good2": good}
        )
        results = registry.run_all(keep_going=True)
        assert [r.ok for r in results] == [True, False, True]
        assert len(calls) == 2  # experiments after the failure still ran
        assert "FAILED" in results[1].text

    def test_run_all_strict_propagates(self, monkeypatch):
        from repro.errors import AnalysisError
        from repro.experiments import registry

        def boom(settings=None):
            raise AnalysisError("injected")

        monkeypatch.setattr(registry, "EXPERIMENTS", {"bad": boom})
        with pytest.raises(AnalysisError):
            registry.run_all()
