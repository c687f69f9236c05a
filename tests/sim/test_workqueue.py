"""The durable work-queue fabric: leases, heartbeats, crash recovery.

Every invariant the spool claims is exercised here without trusting a
wall clock: claims and publishes are exclusive (a forged intruder always
loses), lease expiry is judged purely by observed heartbeat stall on
injected :class:`~repro.sim.faults.SteppedClock` instances (so
clock-step chaos is a no-op by construction), reclaim has a single
winner and monotonically increasing epochs, repeat-offender jobs poison
instead of crash-looping, and a crash at any point mid-write leaves at
worst a stray temp file that ``fsck`` sweeps — never a torn lease or a
visible half-result.  The flagship tests run whole sweeps through a
spool fleet under chaos and require bit-identical results to an
undisturbed run with zero lost and zero duplicated jobs.
"""

import json
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.errors import (
    CampaignError,
    CorruptResultError,
    LeaseLostError,
)
from repro.sim import faults
from repro.sim.campaign import Campaign, payload_checksum, run_id
from repro.sim.config import baseline_config
from repro.sim.fastpath import fast_simulate
from repro.sim.resilience import (
    CampaignExecutor,
    CampaignManifest,
    CampaignReport,
    RetryPolicy,
    RunRecord,
    sweep_jobs,
)
from repro.sim.workqueue import (
    JOB_SCHEMA,
    POISON_SCHEMA,
    DoneRecord,
    Lease,
    SpoolWorker,
    SweepSpec,
    WorkQueue,
    atomic_claim_text,
    done_from_dict,
    done_to_dict,
    drain_spool,
    job_to_dict,
    lease_from_dict,
    lease_to_dict,
    poison_to_dict,
    run_fleet,
    spec_from_dict,
    spec_to_dict,
    spool_fleet,
)
from repro.trace.suite import ALL_TRACES, build_trace
from repro.units import KB


@pytest.fixture(scope="module")
def trace():
    return build_trace("mu3", length=2_000, seed=1)


@pytest.fixture()
def config():
    return baseline_config(cache_size_bytes=4 * KB)


@pytest.fixture()
def jobs(config, trace):
    return sweep_jobs([config], [trace])


def make_queue(directory, clock=None, **kwargs):
    """A WorkQueue on a SteppedClock with near-zero re-claim backoff."""
    clock = clock or faults.SteppedClock()
    kwargs.setdefault(
        "retry", RetryPolicy(backoff_base_s=0.01, jitter=0.0)
    )
    return WorkQueue(directory, clock=clock, **kwargs), clock


def _schema_1_manifest():
    """A ``spool.json`` as written before the sampling fields existed."""
    doc = {
        "schema": 1, "sizes_kb": [2.0], "cycles_ns": [40.0], "assoc": 1,
        "block_words": 4, "trace_names": ["mu3"], "length": 2000,
        "seed": 0, "simulator": "fastpath", "pass_cache_dir": "",
    }
    doc["checksum"] = payload_checksum(doc)
    return doc


def _schema_2_manifest(sample="", sample_validate=False):
    """A ``spool.json`` as written while the sampled route existed."""
    doc = {
        key: value for key, value in _schema_1_manifest().items()
        if key != "checksum"
    }
    doc.update(schema=2, sample=sample, sample_validate=sample_validate)
    doc["checksum"] = payload_checksum(doc)
    return doc


def _tree(directory):
    """Every path under ``directory`` with its bytes (None for dirs)."""
    return {
        path: None if path.is_dir() else path.read_bytes()
        for path in sorted(Path(directory).rglob("*"))
    }


def spool_sweep(campaign, sweep, workers=1, **worker_kwargs):
    """Run ``sweep`` through a spool fleet of ``workers`` threads; return
    its journal, in sweep order, and the fleet's fabric totals."""
    ids, fleet = spool_fleet(
        campaign, sweep, [f"w{n}" for n in range(workers)], **worker_kwargs
    )
    manifest, fabric = run_fleet(campaign, fleet)
    return CampaignReport(records=[manifest.runs[i] for i in ids]), fabric


def spool_with_job(tmp_path, jobs):
    queue, clock = make_queue(tmp_path / "spool")
    (job_id,) = queue.enqueue_jobs(jobs)
    return queue, clock, job_id


# ----------------------------------------------------------------------
# The claim primitive
# ----------------------------------------------------------------------
class TestAtomicClaim:
    def test_second_claim_loses(self, tmp_path):
        target = tmp_path / "slot.json"
        atomic_claim_text(target, "winner")
        with pytest.raises(FileExistsError):
            atomic_claim_text(target, "loser")
        assert target.read_text() == "winner"

    def test_loser_leaves_no_temp_files(self, tmp_path):
        target = tmp_path / "slot.json"
        atomic_claim_text(target, "winner")
        with pytest.raises(FileExistsError):
            atomic_claim_text(target, "loser")
        assert [p.name for p in tmp_path.iterdir()] == ["slot.json"]

    def test_concurrent_claims_one_winner(self, tmp_path):
        """Many threads race one slot: exactly one wins, the file is
        never torn (its contents are exactly one contender's text)."""
        target = tmp_path / "slot.json"
        outcomes = []

        def contend(n):
            try:
                atomic_claim_text(target, f"contender-{n}" * 100)
            except FileExistsError:
                outcomes.append(("lost", n))
            else:
                outcomes.append(("won", n))

        threads = [
            threading.Thread(target=contend, args=(n,)) for n in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        winners = [n for kind, n in outcomes if kind == "won"]
        assert len(winners) == 1
        assert target.read_text() == f"contender-{winners[0]}" * 100
        assert [p.name for p in tmp_path.iterdir()] == ["slot.json"]

    def test_forged_duplicate_claim_always_loses(self, tmp_path, jobs):
        queue, _, job_id = spool_with_job(tmp_path, jobs)
        assert queue.claim("honest") is not None
        assert faults.duplicate_claim(queue, job_id) is False

    def test_crash_mid_stage_leaves_no_visible_lease(self, tmp_path,
                                                     jobs):
        """Dying between the staging write and the link must leave the
        slot unclaimed and the debris sweepable — never a torn lease."""
        queue, _, job_id = spool_with_job(tmp_path, jobs)
        # Model the crash: the staged temp file exists, the link never
        # happened (same on-disk state as kill -9 between the two).
        debris = queue.leases_dir / f".tmp.{job_id}.json.999.0.0.claim"
        debris.write_text('{"half": "a lease torn mid-wri')
        assert queue._read_lease(queue.lease_path(job_id)) is None
        stray, stale = queue.fsck(repair=True)
        assert debris in stray and not stale
        assert not debris.exists()
        # The slot is claimable as if nothing happened.
        assert queue.claim("worker-a") is not None


# ----------------------------------------------------------------------
# Documents: checksummed, validated, round-tripping
# ----------------------------------------------------------------------
class TestDocuments:
    def test_spec_round_trips(self):
        spec = SweepSpec(sizes_kb=(4.0,), cycles_ns=(40.0,),
                         trace_names=("mu3",), length=2_000)
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_schema_1_manifest_reads_as_an_exact_sweep(self):
        assert spec_from_dict(_schema_1_manifest()) == SweepSpec(
            sizes_kb=(2.0,), cycles_ns=(40.0,), trace_names=("mu3",),
            length=2_000,
        )

    def test_schema_2_manifest_without_a_sample_is_an_exact_sweep(self):
        assert spec_from_dict(_schema_2_manifest()) == spec_from_dict(
            _schema_1_manifest()
        )

    def test_schema_2_sampled_manifest_names_the_removed_route(self):
        with pytest.raises(CampaignError, match="interval-sampling") as exc:
            spec_from_dict(_schema_2_manifest("interval=4000,k=3", True))
        assert not isinstance(exc.value, CorruptResultError)

    @pytest.mark.parametrize("fields", [
        {"simulator": "engine", "pass_cache_dir": "pc"},
    ])
    def test_spec_refuses_incompatible_fields(self, fields):
        with pytest.raises(CampaignError):
            SweepSpec(**fields)

    def test_spec_rejects_unknown_simulator(self):
        with pytest.raises(CampaignError):
            SweepSpec(simulator="quantum")

    def test_spec_names_no_cached_simulator(self):
        """A pass cache is named by ``pass_cache_dir`` alone; the older
        ``"cached"`` simulator reads only from a stored manifest."""
        with pytest.raises(CampaignError):
            SweepSpec(simulator="cached", pass_cache_dir="pc")
        doc = _schema_1_manifest()
        doc.update(simulator="cached", pass_cache_dir="pc")
        assert spec_from_dict(doc) == SweepSpec(
            sizes_kb=(2.0,), cycles_ns=(40.0,), trace_names=("mu3",),
            length=2000, pass_cache_dir="pc",
        )

    def test_job_and_poison_records_carry_their_own_schemas(self, tmp_path,
                                                            jobs):
        # Each record kind is versioned by its own constant (REPRO008
        # fingerprints each one), at the 2 that existing spools carry.
        assert (JOB_SCHEMA, POISON_SCHEMA) == (2, 2)
        queue, _ = make_queue(tmp_path)
        (job_id,) = queue.enqueue_jobs(jobs)
        assert queue.poison(job_id, reason="lost thrice", losses=3)
        job_doc = json.loads(queue.job_path(job_id).read_text())
        poison_doc = json.loads(queue.poison_path(job_id).read_text())
        assert job_doc == job_to_dict(job_id, 0, jobs[0])
        assert poison_doc == poison_to_dict(job_id, 3, "lost thrice")
        assert job_doc["schema"] == JOB_SCHEMA
        assert poison_doc["schema"] == POISON_SCHEMA

    def test_lease_round_trips_and_carries_no_timestamps(self):
        lease = Lease(job_id="j", owner="w", pid=42, epoch=3, beat=7)
        doc = lease_to_dict(lease)
        assert lease_from_dict(doc) == lease
        # The protocol's core claim: expiry is judged by observation,
        # so the document has nothing an observer could mis-trust.
        assert not any("time" in key or "stamp" in key for key in doc)

    def test_done_record_round_trips(self):
        record = DoneRecord(job_id="j", owner="w", epoch=2, attempts=3)
        assert done_from_dict(done_to_dict(record)) == record

    def test_corrupt_lease_is_archived_not_fatal(self, tmp_path, jobs):
        queue, _, job_id = spool_with_job(tmp_path, jobs)
        assert queue.claim("worker-a") is not None
        faults.corrupt_file(queue.lease_path(job_id))
        # The corrupt file is moved aside and the slot becomes free.
        assert queue._read_lease(queue.lease_path(job_id)) is None
        assert queue.counters["corrupt_leases"] == 1
        assert list(queue.lost_dir.glob("*.corrupt*"))
        assert queue.claim("worker-b") is not None

    def test_save_spec_is_idempotent_but_rejects_other_sweep(
        self, tmp_path
    ):
        queue, _ = make_queue(tmp_path / "spool")
        spec = SweepSpec(sizes_kb=(4.0,), trace_names=("mu3",))
        queue.save_spec(spec)
        queue.save_spec(spec)  # same sweep: fine
        with pytest.raises(CampaignError, match="different sweep"):
            queue.save_spec(SweepSpec(sizes_kb=(8.0,),
                                      trace_names=("mu3",)))

    def test_enqueue_is_idempotent(self, tmp_path, jobs):
        queue, _ = make_queue(tmp_path / "spool")
        first = queue.enqueue_jobs(jobs)
        before = queue.job_path(first[0]).read_bytes()
        assert queue.enqueue_jobs(jobs) == first
        assert queue.job_path(first[0]).read_bytes() == before


# ----------------------------------------------------------------------
# Lease lifecycle: heartbeat, expiry, reclaim, epochs
# ----------------------------------------------------------------------
class TestLeaseLifecycle:
    def test_heartbeat_bumps_beat(self, tmp_path, jobs):
        queue, _, job_id = spool_with_job(tmp_path, jobs)
        lease = queue.claim("worker-a", ttl_s=30.0)
        queue.heartbeat(lease)
        queue.heartbeat(lease)
        stored = lease_from_dict(
            json.loads(queue.lease_path(job_id).read_text())
        )
        assert stored.beat == 2
        assert queue.counters["heartbeats"] == 2

    def test_healthy_lease_never_expires(self, tmp_path, jobs):
        queue, clock, _ = spool_with_job(tmp_path, jobs)
        lease = queue.claim("worker-a", ttl_s=1.0)
        for _ in range(10):
            clock.advance(0.9)          # just inside the TTL each time
            queue.heartbeat(lease)      # ...because it keeps renewing
            assert not queue.monitor.expired(lease)

    def test_stalled_lease_expires_after_ttl(self, tmp_path, jobs):
        queue, clock, _ = spool_with_job(tmp_path, jobs)
        lease = queue.claim("worker-a", ttl_s=1.0)
        queue.monitor.observe(lease)
        clock.advance(0.5)
        assert not queue.monitor.expired(lease)
        clock.advance(0.6)  # 1.1 total with no beat: stalled past TTL
        assert queue.monitor.expired(lease)

    def test_wall_clock_steps_cannot_expire_a_lease(self, tmp_path,
                                                    jobs):
        """A wall-clock discontinuity is invisible to the protocol: no
        document carries a timestamp and no observer compares one, so
        only *observed stall on the observer's own clock* expires a
        lease.  The observer's clock here never advances — however the
        wall clock jumps around it, the lease stays healthy."""
        queue, clock, _ = spool_with_job(tmp_path, jobs)
        lease = queue.claim("worker-a", ttl_s=1.0)
        queue.monitor.observe(lease)
        # Hours of wall-clock chaos, zero monotonic progress:
        assert lease_to_dict(lease) == lease_to_dict(lease)  # no time dep
        assert not queue.monitor.expired(lease)
        # A *fresh* observer grants a full TTL of grace too — it cannot
        # inherit staleness from timestamps, because there are none.
        fresh, fresh_clock = make_queue(queue.directory)
        assert fresh.claim("worker-b", ttl_s=1.0) is None  # lease holds
        fresh_clock.advance(1.1)  # only genuine observed stall expires
        assert fresh.claim("worker-b", ttl_s=1.0) is None  # reclaim pass
        assert fresh.counters["leases_reclaimed"] == 1
        fresh_clock.advance(1.0)  # past the re-claim backoff
        assert fresh.claim("worker-b", ttl_s=1.0) is not None

    def test_reclaim_has_single_winner(self, tmp_path, jobs):
        queue_a, clock_a, _ = spool_with_job(tmp_path, jobs)
        queue_b, clock_b = make_queue(queue_a.directory)
        lease = queue_a.claim("victim", ttl_s=1.0)
        queue_a.monitor.observe(lease)
        queue_b.monitor.observe(lease)
        clock_a.advance(2.0)
        clock_b.advance(2.0)
        assert queue_a.monitor.expired(lease)
        assert queue_b.monitor.expired(lease)
        outcomes = [queue_a.reclaim(lease), queue_b.reclaim(lease)]
        assert sorted(outcomes) == [False, True]
        assert len(list(queue_a.lost_dir.glob("*.json"))) == 1

    def test_epochs_increase_monotonically_across_losses(self, tmp_path,
                                                         jobs):
        queue, clock, job_id = spool_with_job(tmp_path, jobs)
        epochs = []
        for _ in range(3):
            lease = queue.claim("crashy", ttl_s=1.0)
            assert lease is not None and lease.job_id == job_id
            epochs.append(lease.epoch)
            clock.advance(1.1)          # heartbeat stalls...
            assert queue.claim("x") is None  # ...claim expires+reclaims
            clock.advance(10.0)         # past the re-claim backoff
        assert epochs == [1, 2, 3]
        archived = sorted(
            p.name for p in queue.lost_dir.glob(f"{job_id}.*.json")
        )
        assert archived == [f"{job_id}.{e}.json" for e in (1, 2, 3)]

    def test_reclaimed_job_waits_out_backoff(self, tmp_path, jobs):
        queue, clock, _ = spool_with_job(tmp_path, jobs)
        lease = queue.claim("victim", ttl_s=1.0)
        clock.advance(1.1)
        assert queue.claim("eager") is None  # expired + reclaimed here
        assert queue.counters["leases_reclaimed"] == 1
        # Immediately after the reclaim the job is deferred...
        assert queue.claim("eager") is None
        # ...until the deterministic backoff has elapsed.
        clock.advance(queue.retry.delay_s(f"lease:{lease.job_id}", 1))
        reclaimed = queue.claim("eager")
        assert reclaimed is not None and reclaimed.epoch == 2

    def test_heartbeat_after_reclaim_raises_lease_lost(self, tmp_path,
                                                       jobs):
        queue, clock, _ = spool_with_job(tmp_path, jobs)
        queue_b, clock_b = make_queue(queue.directory)
        lease = queue.claim("victim", ttl_s=1.0)
        queue_b.monitor.observe(lease)
        clock_b.advance(1.1)
        assert queue_b.claim("usurper", ttl_s=1.0) is None  # reclaim pass
        clock_b.advance(10.0)  # past backoff
        usurper = queue_b.claim("usurper", ttl_s=1.0)
        assert usurper is not None and usurper.epoch == 2
        with pytest.raises(LeaseLostError):
            queue.heartbeat(lease)

    def test_release_only_removes_own_lease(self, tmp_path, jobs):
        queue, clock, job_id = spool_with_job(tmp_path, jobs)
        queue_b, clock_b = make_queue(queue.directory)
        lease = queue.claim("victim", ttl_s=1.0)
        queue_b.monitor.observe(lease)
        clock_b.advance(1.1)
        assert queue_b.claim("usurper", ttl_s=1.0) is None  # reclaim pass
        clock_b.advance(10.0)  # past backoff
        usurper = queue_b.claim("usurper", ttl_s=1.0)
        assert usurper is not None
        assert queue.release(lease) is False  # stale owner: no-op
        assert queue.lease_path(job_id).exists()
        assert queue_b.release(usurper) is True

    def test_dead_owner_pid_is_fast_path_expiry(self, tmp_path, jobs):
        """A same-host lease whose owner pid is gone is reclaimable
        immediately — no TTL wait."""
        queue, clock, job_id = spool_with_job(tmp_path, jobs)
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        lease = queue.claim("dead-worker", ttl_s=3600.0)
        # Rewrite the lease as if it belonged to the dead process.
        dead = Lease(job_id=job_id, owner="dead-worker", pid=proc.pid,
                     epoch=1, beat=0, ttl_s=3600.0)
        from repro.sim.campaign import atomic_write_text
        from repro.sim.workqueue import _dump

        atomic_write_text(queue.lease_path(job_id),
                          _dump(lease_to_dict(dead)))
        fresh, _ = make_queue(queue.directory)
        assert fresh.claim("x") is None  # this pass expires + reclaims
        assert fresh.counters["leases_expired"] == 1
        assert list(queue.lost_dir.glob(f"{job_id}.1.json"))


# ----------------------------------------------------------------------
# Poison quarantine
# ----------------------------------------------------------------------
class TestPoison:
    def test_repeat_offender_is_poisoned(self, tmp_path, jobs):
        queue, clock, job_id = spool_with_job(tmp_path, jobs)
        queue.poison_losses = 2
        for expected_epoch in (1, 2):
            lease = queue.claim("crashy", ttl_s=1.0)
            assert lease is not None and lease.epoch == expected_epoch
            clock.advance(1.1)
            queue.claim("x")  # expires + reclaims (and poisons at 2)
            clock.advance(10.0)
        assert queue.poison_path(job_id).exists()
        assert queue.counters["jobs_poisoned"] == 1
        assert queue.claim("anyone") is None  # never granted again
        assert queue.remaining() == 0  # poison counts as resolved
        assert queue.status()["poisoned"] == 1

    def test_poisoned_job_surfaces_as_failed_in_manifest(self, tmp_path,
                                                         jobs):
        campaign = Campaign(tmp_path)
        queue, clock = make_queue(campaign.spool_dir, poison_losses=1)
        (job_id,) = queue.enqueue_jobs(jobs)
        queue.claim("crashy", ttl_s=1.0)
        clock.advance(1.1)
        queue.claim("x")
        manifest = queue.sync_manifest(campaign)
        record = manifest.runs[job_id]
        assert record.status == "failed"
        assert record.error.startswith("poisoned:")
        assert "crashy" in record.error

    def test_poisoned_job_keeps_trace_and_config_in_manifest(
        self, tmp_path, jobs, config, trace
    ):
        campaign = Campaign(tmp_path)
        queue, clock = make_queue(campaign.spool_dir, poison_losses=1)
        (job_id,) = queue.enqueue_jobs(jobs)
        queue.claim("crashy", ttl_s=1.0)
        clock.advance(1.1)
        queue.claim("x")
        queue.sync_manifest(campaign)
        record = CampaignManifest.for_campaign(campaign).runs[job_id]
        assert record.status == "failed"
        assert (record.trace, record.config) == (
            trace.name, config.describe()
        )

    def test_sync_manifest_compacts_the_journal(self, tmp_path, jobs):
        """The rebuild is an atomic compaction: one record per run, however
        many lines the journal had appended for it."""
        campaign = Campaign(tmp_path)
        journal = CampaignManifest.for_campaign(campaign)
        for status in ("failed", "timeout", "ok"):
            journal.record(RunRecord(run_id="earlier", status=status))
        queue, clock = make_queue(campaign.spool_dir, poison_losses=1)
        (job_id,) = queue.enqueue_jobs(jobs)
        queue.claim("crashy", ttl_s=1.0)
        clock.advance(1.1)
        queue.claim("x")
        queue.sync_manifest(campaign)
        lines = campaign.manifest_path.read_text().splitlines()
        assert json.loads(lines[0]) == {"schema": 2}
        records = [json.loads(line) for line in lines[1:]]
        assert sorted(r["run_id"] for r in records) == sorted(
            ["earlier", job_id]
        )
        assert {r["run_id"]: r["status"] for r in records} == {
            "earlier": "ok", job_id: "failed",
        }

    def test_poison_render_status(self, tmp_path, jobs):
        queue, clock = make_queue(tmp_path / "spool", poison_losses=1)
        queue.enqueue_jobs(jobs)
        queue.claim("crashy", ttl_s=1.0)
        clock.advance(1.1)
        queue.claim("x")
        assert "1 poisoned" in queue.render_status()


# ----------------------------------------------------------------------
# Publish: exclusive, duplicate-dropping
# ----------------------------------------------------------------------
class TestPublish:
    def test_first_publish_wins_duplicate_dropped(self, tmp_path, jobs,
                                                  config, trace):
        queue, _, job_id = spool_with_job(tmp_path, jobs)
        from repro.sim.resilience import RunRecord

        lease = queue.claim("worker-a")
        record = RunRecord(run_id=job_id, status="ok", attempts=1)
        assert queue.publish(lease, record) is True
        stale = Lease(job_id=job_id, owner="zombie", epoch=1)
        assert queue.publish(stale, record) is False
        assert queue.counters["jobs_published"] == 1
        assert queue.counters["duplicate_publishes"] == 1
        stored = done_from_dict(
            json.loads(queue.done_path(job_id).read_text())
        )
        assert stored.owner == "worker-a"

    def test_done_job_is_never_claimable(self, tmp_path, jobs):
        queue, _, job_id = spool_with_job(tmp_path, jobs)
        from repro.sim.resilience import RunRecord

        lease = queue.claim("worker-a")
        queue.publish(lease, RunRecord(run_id=job_id, status="ok"))
        queue.release(lease)
        assert queue.claim("worker-b") is None
        assert queue.remaining() == 0


# ----------------------------------------------------------------------
# fsck: stray temps and stale leases
# ----------------------------------------------------------------------
class TestFsck:
    def test_stale_lease_of_finished_job_removed(self, tmp_path, jobs):
        queue, _, job_id = spool_with_job(tmp_path, jobs)
        from repro.sim.resilience import RunRecord

        lease = queue.claim("worker-a")
        queue.publish(lease, RunRecord(run_id=job_id, status="ok"))
        # The worker died before releasing: lease file outlives the job.
        stray, stale = queue.fsck()
        assert stale == [queue.lease_path(job_id)]
        assert queue.lease_path(job_id).exists()  # report-only
        queue.fsck(repair=True)
        assert not queue.lease_path(job_id).exists()

    def test_stale_lease_of_pending_job_archived_as_loss(self, tmp_path,
                                                         jobs):
        queue, _, job_id = spool_with_job(tmp_path, jobs)
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        queue.claim("dead", ttl_s=3600.0)
        from repro.sim.campaign import atomic_write_text
        from repro.sim.workqueue import _dump

        dead = Lease(job_id=job_id, owner="dead", pid=proc.pid)
        atomic_write_text(queue.lease_path(job_id),
                          _dump(lease_to_dict(dead)))
        fresh, _ = make_queue(queue.directory)
        stray, stale = fresh.fsck(repair=True)
        assert stale
        assert not fresh.lease_path(job_id).exists()
        # Archived as a loss, so the next grant's epoch stays monotonic.
        assert list(fresh.lost_dir.glob(f"{job_id}.1.json"))

    def test_campaign_fsck_sees_spool_problems(self, tmp_path, jobs):
        """Satellite: `campaign fsck` detects orphaned spool temp files
        and stale leases and reports them in its FsckReport."""
        campaign = Campaign(tmp_path)
        queue, _ = make_queue(campaign.spool_dir)
        (job_id,) = queue.enqueue_jobs(jobs)
        from repro.sim.resilience import RunRecord

        lease = queue.claim("worker-a")
        queue.publish(lease, RunRecord(run_id=job_id, status="ok"))
        debris = queue.jobs_dir / ".tmp.orphan.json"
        debris.write_text("half a jo")
        report = campaign.fsck()
        assert debris in report.stray_tmp
        assert report.stale_leases == [queue.lease_path(job_id)]
        assert not report.clean
        assert "stale lease" in report.render()
        repaired = campaign.fsck(repair=True)
        assert not debris.exists()
        assert not queue.lease_path(job_id).exists()
        assert campaign.fsck().clean


# ----------------------------------------------------------------------
# Workers end to end (deterministic chaos, injected clocks)
# ----------------------------------------------------------------------
class TestSpoolWorker:
    def test_worker_drains_spool_and_publishes(self, tmp_path, jobs,
                                               config, trace):
        campaign = Campaign(tmp_path)
        manifest, _fabric = drain_spool(
            campaign,
            spec=SweepSpec(
                sizes_kb=(4.0,), cycles_ns=(40.0,),
                trace_names=("mu3",), length=2_000, seed=1,
            ),
        )
        assert [r.status for r in manifest.runs.values()] == ["ok"]
        queue = WorkQueue.for_campaign(campaign)
        assert queue.remaining() == 0
        # The worker released its lease on the way out.
        assert not list(queue.leases_dir.glob("*.json"))

    def test_sigterm_style_drain_stops_claiming(self, tmp_path, jobs,
                                                config, trace):
        campaign = Campaign(tmp_path)
        queue, _ = make_queue(campaign.spool_dir)
        ids = queue.enqueue_jobs(jobs)
        jobs_by_id = {
            identifier: (index, job)
            for index, (identifier, job) in enumerate(zip(ids, jobs))
        }
        worker = SpoolWorker(queue, campaign, jobs_by_id, name="w")
        worker.request_drain()
        assert worker.run() == 0  # drained before claiming anything
        assert queue.remaining() == 1

    def test_resume_skips_completed_jobs(self, tmp_path, trace):
        """Killing the coordinator loses nothing: a fresh drain picks up
        exactly the unfinished jobs and never re-executes a done one."""
        spec = SweepSpec(sizes_kb=(2.0, 4.0), cycles_ns=(40.0,),
                         trace_names=("mu3",), length=2_000, seed=1)
        campaign = Campaign(tmp_path)
        queue = WorkQueue.for_campaign(campaign)
        all_jobs = spec.build_jobs()
        queue.save_spec(spec)
        ids = queue.enqueue_jobs(all_jobs)
        assert len(ids) == 2
        jobs_by_id = {
            identifier: (index, job)
            for index, (identifier, job) in enumerate(zip(ids, all_jobs))
        }
        # First "process" publishes one job, then "dies" (stops).
        first = SpoolWorker(queue, campaign, jobs_by_id, name="w1")
        assert first.run(max_jobs=1) == 1
        done_before = {
            p.name: p.read_bytes()
            for p in queue.done_dir.glob("*.json")
        }
        assert len(done_before) == 1
        # A brand-new process resumes from the spool alone.
        manifest, _fabric = drain_spool(campaign)
        assert len(manifest.runs) == 2
        assert all(r.status == "ok" for r in manifest.runs.values())
        # The completed job's done record was not touched or re-won.
        for name, payload in done_before.items():
            assert (queue.done_dir / name).read_bytes() == payload

    def test_wedged_worker_loses_publish_race(self, tmp_path, jobs,
                                              config, trace):
        """The full chaos arc, deterministically: a worker wedges (stops
        heartbeating), an observer expires and reclaims its lease, a
        second worker completes the job, and the wedged worker's late
        publish is dropped — exactly one done record, byte-identical to
        the one a clean run produces."""
        campaign = Campaign(tmp_path)
        queue_a, clock_a = make_queue(campaign.spool_dir)
        (job_id,) = queue_a.enqueue_jobs(jobs)
        from repro.sim.resilience import RunRecord

        wedged = queue_a.claim("wedged", ttl_s=1.0)
        # Observer b watches the heartbeat stall and takes the job over.
        queue_b, clock_b = make_queue(campaign.spool_dir)
        queue_b.monitor.observe(wedged)
        clock_b.advance(1.1)
        assert queue_b.claim("usurper", ttl_s=1.0) is None  # reclaim pass
        clock_b.advance(10.0)  # past backoff
        takeover = queue_b.claim("usurper", ttl_s=1.0)
        assert takeover is not None and takeover.epoch == 2
        record = RunRecord(run_id=job_id, status="ok", attempts=1)
        assert queue_b.publish(takeover, record) is True
        queue_b.release(takeover)
        # The wedged worker wakes up and tries to finish: every door is
        # closed — renewal fails, publish is dropped.
        with pytest.raises(LeaseLostError):
            queue_a.heartbeat(wedged)
        assert queue_a.publish(wedged, record) is False
        assert queue_a.counters["duplicate_publishes"] == 1
        done = done_from_dict(
            json.loads(queue_a.done_path(job_id).read_text())
        )
        assert done.owner == "usurper" and done.epoch == 2


# ----------------------------------------------------------------------
# Heartbeat-stall chaos (the STALL_BEAT fault kind)
# ----------------------------------------------------------------------
class TestStallBeatChaos:
    def test_plan_gates_stall_by_index_and_attempt(self):
        plan = faults.FaultPlan({2: faults.FaultSpec(faults.STALL_BEAT)})
        assert plan.should_stall_heartbeat(2, 1)
        assert not plan.should_stall_heartbeat(2, 2)
        assert not plan.should_stall_heartbeat(0, 1)

    def test_wedged_worker_skips_renewals(self, tmp_path, jobs):
        """A STALL_BEAT fault makes the worker skip lease renewal — the
        observable signature of a wedged process — while an unfaulted
        attempt renews normally."""
        campaign = Campaign(tmp_path)
        queue, _ = make_queue(campaign.spool_dir)
        ids = queue.enqueue_jobs(jobs)
        jobs_by_id = {
            identifier: (index, job)
            for index, (identifier, job) in enumerate(zip(ids, jobs))
        }
        plan = faults.FaultPlan({
            0: faults.FaultSpec(faults.STALL_BEAT, attempts=(1,)),
        })
        worker = SpoolWorker(queue, campaign, jobs_by_id, name="w",
                             fault_plan=plan)
        lease = queue.claim("w")
        worker._beat(lease, attempt=1)   # wedged: renewal suppressed
        assert queue.counters["heartbeats"] == 0
        worker._beat(lease, attempt=2)   # recovered: renewal happens
        assert queue.counters["heartbeats"] == 1


# ----------------------------------------------------------------------
# Spool fleets: chaos-ridden sweeps stay bit-identical
# ----------------------------------------------------------------------
class TestSpoolBackendAcceptance:
    @pytest.fixture(scope="class")
    def sweep(self):
        trace = build_trace("mu3", length=2_000, seed=1)
        trace_b = build_trace("rd2n4", length=2_000, seed=1)
        configs = [
            baseline_config(cache_size_bytes=2 * KB * (2 ** k))
            for k in range(3)
        ]
        return sweep_jobs(configs, [trace, trace_b])

    @pytest.fixture(scope="class")
    def baseline(self, sweep, tmp_path_factory):
        """An undisturbed worker-pool sweep's files, keyed by run id."""
        campaign = Campaign(tmp_path_factory.mktemp("clean"))
        executor = CampaignExecutor(campaign)
        report = executor.run_sweep(sweep)
        assert report.all_ok
        return {
            path.stem: path.read_bytes()
            for path in campaign._result_paths()
        }

    def test_chaos_sweep_is_bit_identical_zero_lost_zero_dup(
        self, sweep, baseline, tmp_path_factory
    ):
        """The correctness bar from the issue: a chaos-ridden campaign
        (worker crashes and transient errors on >1/3 of the jobs) must
        produce results bit-identical to the undisturbed run, with
        every job completed exactly once."""
        plan = faults.FaultPlan({
            0: faults.FaultSpec(faults.CRASH),   # dies, retried
            2: faults.FaultSpec(faults.ERROR),   # raises, retried
            4: faults.FaultSpec(faults.CRASH, attempts=(1, 2)),
        })
        campaign = Campaign(tmp_path_factory.mktemp("chaos"))
        sleeps = []
        report, fabric = spool_sweep(
            campaign, sweep, workers=2, fault_plan=plan,
            retry=RetryPolicy(max_attempts=4), sleep_fn=sleeps.append,
        )
        assert report.all_ok and len(report.records) == len(sweep)
        # Zero lost: every sweep cell has exactly one done record.
        queue = WorkQueue.for_campaign(campaign)
        done_ids = sorted(p.stem for p in queue.done_dir.glob("*.json"))
        assert done_ids == sorted(
            run_id(job.config, job.trace) for job in sweep
        )
        # Zero duplicated: no done record was contested and dropped...
        assert fabric["duplicate_publishes"] == 0
        # ...and nothing was poisoned or left leased.
        assert fabric["jobs_poisoned"] == 0
        assert not list(queue.leases_dir.glob("*.json"))
        # Bit-identical to the undisturbed sweep.
        stored = {path.stem: path.read_bytes()
                  for path in campaign._result_paths()}
        assert stored == baseline

    def test_resumed_spool_sweep_reuses_everything(self, sweep, baseline,
                                                   tmp_path_factory):
        campaign = Campaign(tmp_path_factory.mktemp("resume"))
        first, first_fabric = spool_sweep(campaign, sweep)
        assert first.all_ok
        published = first_fabric["jobs_published"]
        assert published == len(sweep)
        report, second_fabric = spool_sweep(campaign, sweep)
        assert report.all_ok and len(report.records) == len(sweep)
        # Nothing re-executed: the spool's done records short-circuit.
        assert second_fabric["jobs_published"] == 0
        assert second_fabric["leases_issued"] == 0


# ----------------------------------------------------------------------
# Generated oracle: a spooled sweep stores what `campaign run` stores
# ----------------------------------------------------------------------
@st.composite
def tiny_sweeps(draw):
    """`campaign` sweep flags: a few organizations over 1-2 short
    traces."""
    def some(values):
        return ",".join(str(v) for v in draw(st.lists(
            st.sampled_from(values), min_size=1, max_size=2, unique=True
        )))

    return [
        "--sizes-kb", some([1, 2, 4, 8]),
        "--cycles-ns", some([20, 30, 40, 60]),
        "--assoc", str(draw(st.integers(1, 2))),
        "--block-words", str(draw(st.sampled_from([2, 4, 8]))),
        "--traces", some(ALL_TRACES),
        "--length", str(draw(st.integers(500, 2_000))),
        "--seed", str(draw(st.integers(0, 3))),
    ]


def _campaign_state(directory):
    """Stored result bytes and journaled statuses, by run id."""
    campaign = Campaign(directory)
    files = {p.name: p.read_bytes() for p in campaign._result_paths()}
    statuses = {
        identifier: record.status for identifier, record
        in CampaignManifest.for_campaign(campaign).runs.items()
    }
    return files, statuses


# Each example runs three campaigns, so there are few of them, and a
# failing one is reported as drawn, without shrinking.
@settings(max_examples=2, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(sweep=tiny_sweeps())
def test_spooled_sweep_stores_what_run_stores(sweep):
    from repro.cli import main

    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        assert main(["campaign", "run", str(root / "run"), *sweep]) == 0
        expected = _campaign_state(root / "run")
        assert expected[0]
        for workers in ("1", "2"):
            directory = str(root / f"spool{workers}")
            assert main(["campaign", "enqueue", directory, *sweep]) == 0
            assert main(["campaign", "drain", directory,
                         "--jobs", workers]) == 0
            assert _campaign_state(directory) == expected


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCli:
    def test_enqueue_worker_drain_status(self, tmp_path, capsys):
        from repro.cli import main

        directory = str(tmp_path / "camp")
        assert main([
            "campaign", "enqueue", directory,
            "--sizes-kb", "2,4", "--cycles-ns", "40",
            "--traces", "mu3", "--length", "2000",
        ]) == 0
        out = capsys.readouterr().out
        assert "spooled 2 job(s)" in out

        assert main([
            "campaign", "worker", directory, "--max-jobs", "1",
        ]) == 0
        assert "published 1 job(s)" in capsys.readouterr().out

        assert main(["campaign", "drain", directory]) == 0
        out = capsys.readouterr().out
        assert "2 ok" in out and "2 done" in out

        assert main(["campaign", "status", directory]) == 0
        out = capsys.readouterr().out
        assert "spool:" in out and "0 pending" in out

    def test_drain_spool_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        directory = str(tmp_path / "camp")
        assert main([
            "campaign", "enqueue", directory,
            "--sizes-kb", "2", "--cycles-ns", "40",
            "--traces", "mu3", "--length", "2000",
        ]) == 0
        argv = ["campaign", "drain", directory, "--jobs", "2", "--metrics"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "1 ok" in out and "fabric:" in out
        summary = json.loads(
            (tmp_path / "camp" / "metrics" / "summary.json").read_text()
        )
        assert summary["metrics"]["counters"]["fabric.workers"] == 2
        # Re-draining resumes from the spool: still ok, nothing redone.
        assert main(argv) == 0
        assert "0 lease(s) issued" in capsys.readouterr().out

    def test_enqueue_resumes_a_schema_1_spool(self, tmp_path, capsys):
        from repro.cli import main

        directory = tmp_path / "camp"
        (directory / "spool").mkdir(parents=True)
        (directory / "spool" / "spool.json").write_text(
            json.dumps(_schema_1_manifest())
        )
        assert main([
            "campaign", "enqueue", str(directory),
            "--sizes-kb", "2", "--cycles-ns", "40",
            "--traces", "mu3", "--length", "2000",
        ]) == 0
        assert main(["campaign", "drain", str(directory)]) == 0
        assert "1 ok" in capsys.readouterr().out

    def test_a_cached_spool_drains_to_the_same_bytes(self, tmp_path):
        """A spool whose manifest names the older ``"cached"`` simulator
        drains through its pass cache and stores the bytes a current
        manifest's drain stores."""
        from repro.cli import main
        from repro.sim.passcache import PassCache

        stored = {}
        for name in ("current", "old"):
            directory = tmp_path / name
            cache_dir = tmp_path / f"pc-{name}"
            assert main([
                "campaign", "enqueue", str(directory),
                "--sizes-kb", "2,4", "--cycles-ns", "40,80",
                "--traces", "mu3", "--length", "2000",
                "--pass-cache", str(cache_dir),
            ]) == 0
            manifest = directory / "spool" / "spool.json"
            doc = json.loads(manifest.read_text())
            assert doc["simulator"] == "fastpath"
            if name == "old":
                doc["simulator"] = "cached"
                doc["checksum"] = payload_checksum(
                    {k: v for k, v in doc.items() if k != "checksum"}
                )
                manifest.write_text(json.dumps(doc))
            assert main(["campaign", "drain", str(directory)]) == 0
            assert len(PassCache(cache_dir)) == 2
            stored[name] = {
                path.name: path.read_bytes()
                for path in Campaign(directory)._result_paths()
            }
        assert len(stored["old"]) == 4
        assert stored["old"] == stored["current"]

    @pytest.mark.parametrize("command", ["worker", "drain", "status"])
    def test_sampled_spool_is_refused_untouched(
        self, tmp_path, capsys, command
    ):
        """A spool enqueued for the removed interval-sampling route
        exits 2, naming the route, and leaves every byte as it was."""
        from repro.cli import main

        directory = tmp_path / "camp"
        assert main([
            "campaign", "enqueue", str(directory),
            "--sizes-kb", "2", "--cycles-ns", "40",
            "--traces", "mu3", "--length", "2000",
        ]) == 0
        (directory / "spool" / "spool.json").write_text(json.dumps(
            _schema_2_manifest("interval=4000,k=3", True)
        ))
        before = _tree(directory)
        capsys.readouterr()
        assert main(["campaign", command, str(directory)]) == 2
        err = capsys.readouterr().err
        assert f"campaign {command}: error:" in err
        assert "interval-sampling" in err
        assert _tree(directory) == before

    def test_worker_without_spool_is_usage_error(self, tmp_path, capsys):
        from repro.cli import main

        assert main([
            "campaign", "worker", str(tmp_path / "empty"),
        ]) == 2
        assert "no spool manifest" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["worker", "drain"])
    def test_no_spool_leaves_the_directory_as_it_was(
        self, tmp_path, capsys, command
    ):
        from repro.cli import main

        missing = tmp_path / "missing"
        assert main(["campaign", command, str(missing)]) == 2
        assert "no spool manifest" in capsys.readouterr().err
        assert not missing.exists()
        directory = tmp_path / "camp"
        directory.mkdir()
        (directory / "note.txt").write_text("kept")
        assert main(["campaign", command, str(directory)]) == 2
        assert [p.name for p in directory.rglob("*")] == ["note.txt"]
        capsys.readouterr()
        assert main(["campaign", "status", str(directory)]) == 0
        assert "spool:" not in capsys.readouterr().out

    def test_report_reads_the_fleet_totals_of_a_drain(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        directory = str(tmp_path / "camp")
        assert main([
            "campaign", "enqueue", directory,
            "--sizes-kb", "2,4", "--cycles-ns", "40",
            "--traces", "mu3", "--length", "2000",
        ]) == 0
        assert main([
            "campaign", "drain", directory, "--jobs", "2", "--metrics",
        ]) == 0
        capsys.readouterr()
        assert main(["campaign", "report", directory]) == 0
        assert "fabric: 2 worker(s)" in capsys.readouterr().out

    def test_failed_enqueue_leaves_no_manifest(self, tmp_path, capsys):
        from repro.cli import main

        directory = str(tmp_path / "camp")
        base = ["--length", "2000", "--sizes-kb", "2", "--cycles-ns", "40"]
        assert main(["campaign", "enqueue", directory,
                     "--traces", "bogus", *base]) == 2
        assert "unknown trace" in capsys.readouterr().err
        assert main(["campaign", "enqueue", directory,
                     "--traces", "mu3", *base]) == 0

    def test_enqueue_conflicting_sweep_is_error(self, tmp_path, capsys):
        from repro.cli import main

        directory = str(tmp_path / "camp")
        base = ["--traces", "mu3", "--length", "2000",
                "--cycles-ns", "40"]
        assert main(["campaign", "enqueue", directory,
                     "--sizes-kb", "2", *base]) == 0
        capsys.readouterr()
        assert main(["campaign", "enqueue", directory,
                     "--sizes-kb", "4", *base]) == 2
        assert "different sweep" in capsys.readouterr().err
