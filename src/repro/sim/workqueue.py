"""Durable, filesystem-backed campaign work-queue fabric.

The paper's methodology is a brute-force sweep, and ROADMAP item 3 wants
that sweep to outlive any single process: hours-long campaigns must
survive killed workers, a killed coordinator, and host restarts.  This
module decouples campaign state from every living process by spooling
the sweep onto disk and making *files* — not processes — the unit of
coordination:

* a coordinator materializes one durable job record per sweep cell into
  a spool directory (``enqueue``), all through the same atomic
  checksummed-write discipline as :mod:`repro.sim.campaign` and
  :mod:`repro.sim.passcache`;
* workers claim jobs under **time-bounded leases with heartbeat
  renewal**; the claim primitive (:func:`atomic_claim_text`) is an
  exclusive hard link of a fully-written, fsynced temp file, so a lease
  either exists with complete contents or not at all — never torn,
  never double-granted;
* a kill -9'd or wedged worker is detected by *observation*, not by
  trusting clocks: a lease whose heartbeat counter has not advanced for
  its TTL on the **observer's monotonic clock** (or whose owner pid is
  provably dead on this host) is expired and reclaimed — a single
  winner renames it into the ``leases/lost/`` archive, the job's lease
  epoch increases monotonically, and re-claims back off exponentially
  (:class:`~repro.sim.resilience.RetryPolicy`); wall-clock steps (NTP,
  DST, operator fat-fingers) cannot expire or immortalize a lease;
* jobs that repeatedly kill their owners are quarantined as **poison**
  after ``poison_losses`` lease losses instead of crash-looping the
  fleet;
* completion is published through the same exclusive link: the first
  finisher's done record wins and a stale owner's late publish is
  dropped — with byte-deterministic simulation either result is
  identical, so chaos yields zero lost and zero duplicated jobs.

Spool layout, under ``<campaign>/spool/``::

    spool.json              sweep manifest (SweepSpec; schema + checksum)
    jobs/<run id>.json      one durable job record per sweep cell
    leases/<run id>.json    the active lease (exclusive hard-link claim)
    leases/lost/<id>.<epoch>.json   archive of expired leases
    done/<run id>.json      completion record (exclusive; first wins)
    poison/<run id>.json    jobs quarantined after repeated lease losses

A dead coordinator is irrelevant — everything above is on disk — and a
SIGTERM'd worker drains its current job and releases its lease.  The
content-addressed pass cache (:mod:`repro.sim.passcache`) remains the
shared coherence point, so cooperating workers never repeat a
functional pass even across processes or hosts.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import CampaignError, CorruptResultError, LeaseLostError
from ..units import KB
from .campaign import (
    _TMP_PREFIX, Campaign, SPOOL_DIRNAME, atomic_write_text,
    payload_checksum, run_id,
)
from .resilience import (
    CampaignExecutor, CampaignManifest, RetryPolicy, RunJob, RunRecord,
    STATUS_FAILED, STATUS_OK, sweep_jobs, write_summary,
)
from .telemetry import MetricsRegistry

#: Version of the spool manifest (``spool.json``) document.  Schema 2
#: added the sampling fields; schema 3 dropped them with the sampled
#: route.  :func:`spec_from_dict` reads every version.
SPOOL_SCHEMA = 3

#: Version of the lease document a claim creates and heartbeats renew.
LEASE_SCHEMA = 1

#: Version of the completion record published into ``done/``.
DONE_SCHEMA = 1

#: Version of the per-run job record ``enqueue`` writes into ``jobs/``.
#: It starts at 2: the records carried the manifest's version when that
#: moved to 2, so every spool written since says 2.
JOB_SCHEMA = 2

#: Version of the quarantine record ``poison`` writes into ``poison/``
#: (2 for the same reason as :data:`JOB_SCHEMA`).
POISON_SCHEMA = 2

#: Default lease time-to-live: how long a heartbeat may stall before any
#: observer is entitled to expire and reclaim the lease.
DEFAULT_LEASE_TTL_S = 30.0

#: Lease losses after which a job is quarantined as poison.
DEFAULT_POISON_LOSSES = 3

_JOBS_DIRNAME = "jobs"
_LEASES_DIRNAME = "leases"
_LOST_DIRNAME = "lost"
_DONE_DIRNAME = "done"
_POISON_DIRNAME = "poison"
_SPEC_NAME = "spool.json"

_HOST = socket.gethostname()

#: Serial for claim temp-file names (unique within a process; the pid
#: and thread id in the name make them unique across processes too).
_CLAIM_SERIAL = itertools.count()


# ----------------------------------------------------------------------
# Atomic exclusive claim
# ----------------------------------------------------------------------
def atomic_claim_text(path: Union[str, Path], text: str) -> None:
    """Exclusively create ``path`` with its complete contents, or fail.

    The contents are staged to a temp file in the target directory,
    fsynced, then **hard-linked** to ``path`` — ``os.link`` fails with
    :exc:`FileExistsError` when the name is already taken, which makes
    this an O_EXCL-style claim whose winner's file is never torn: by the
    time the name exists, its bytes are complete and durable.  The loser
    sees :exc:`FileExistsError` and must treat the resource as owned.
    """
    path = Path(path)
    # Unique per call, not just per process: same-process workers (the
    # threads of one `run_fleet`) racing for one claim must stage to
    # different temp files, or the loser's cleanup unlinks the winner's
    # staged bytes out from under its os.link.
    tmp = path.parent / (
        f"{_TMP_PREFIX}{path.name}.{os.getpid()}."
        f"{threading.get_ident()}.{next(_CLAIM_SERIAL)}.claim"
    )
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.link(tmp, path)
    finally:
        with contextlib.suppress(OSError):
            tmp.unlink()
    try:
        dir_fd = os.open(path.parent, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)


def _dump(payload: Dict) -> str:
    return json.dumps(payload, indent=1)


def _seal(doc: Dict) -> Dict:
    """Fill ``doc["checksum"]`` with the SHA-256 of the other fields."""
    doc["checksum"] = payload_checksum(
        {k: v for k, v in doc.items() if k != "checksum"}
    )
    return doc


def _load_doc(path: Path, kind: str) -> Dict:
    """Read one checksummed spool document; raise on any corruption."""
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CorruptResultError(
            f"{path.name}: unreadable {kind}: {exc}", path=path
        ) from exc
    try:
        payload = json.loads(raw)
    except ValueError as exc:
        raise CorruptResultError(
            f"{path.name}: malformed {kind} JSON: {exc}", path=path
        ) from exc
    if not isinstance(payload, dict):
        raise CorruptResultError(
            f"{path.name}: {kind} payload is "
            f"{type(payload).__name__}, expected object",
            path=path,
        )
    schema = payload.get("schema")
    if not isinstance(schema, int) or schema < 1:
        raise CorruptResultError(
            f"{path.name}: bad {kind} schema marker {schema!r}", path=path
        )
    stored = payload.get("checksum")
    actual = payload_checksum(
        {k: v for k, v in payload.items() if k != "checksum"}
    )
    if stored != actual:
        raise CorruptResultError(
            f"{path.name}: {kind} checksum mismatch "
            f"(stored {str(stored)[:12]}…, computed {actual[:12]}…)",
            path=path,
        )
    return payload


# ----------------------------------------------------------------------
# Sweep specification (the spool manifest)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepSpec:
    """JSON-able sweep parameters from which any process can rebuild
    the exact job list: the one description of a campaign sweep.

    The spool stays light — no pickled traces or configs on disk — by
    relying on the suite and configuration builders being deterministic:
    ``campaign run``, ``campaign enqueue`` and every independently
    launched worker or drain all call :meth:`build_jobs` and
    materialize identical :class:`~repro.sim.resilience.RunJob` lists,
    in the same order, with the same run ids.  An invalid spec raises
    :exc:`~repro.errors.CampaignError` before any job runs.
    """

    sizes_kb: Tuple[float, ...] = (4.0, 16.0, 64.0)
    cycles_ns: Tuple[float, ...] = (20.0, 40.0, 80.0)
    assoc: int = 1
    block_words: int = 4
    trace_names: Tuple[str, ...] = ()
    length: int = 120_000
    seed: int = 0
    simulator: str = "fastpath"  # "fastpath" | "engine"
    pass_cache_dir: str = ""

    def __post_init__(self) -> None:
        if self.simulator not in ("fastpath", "engine"):
            raise CampaignError(
                f"simulator must be fastpath|engine, "
                f"got {self.simulator!r}"
            )
        if self.simulator == "engine" and self.pass_cache_dir:
            raise CampaignError(
                "a pass cache works on fastpath functional passes and "
                "cannot be combined with the engine"
            )

    def build_jobs(self) -> List[RunJob]:
        """Materialize the deterministic job list this spec describes,
        each job carrying the spec's route: the ``engine`` or the
        fastpath, through ``pass_cache_dir`` when it names one."""
        from ..trace.suite import ALL_TRACES, build_suite
        from .config import baseline_config

        names = tuple(self.trace_names) or ALL_TRACES
        suite = build_suite(length=self.length, names=names, seed=self.seed)
        configs = [
            baseline_config(
                cache_size_bytes=int(size_kb * KB),
                block_words=self.block_words,
                assoc=self.assoc,
                cycle_ns=cycle_ns,
            )
            for size_kb in self.sizes_kb
            for cycle_ns in self.cycles_ns
        ]
        return sweep_jobs(
            configs, list(suite.values()), simulator=self.simulator,
            pass_cache_dir=self.pass_cache_dir, seed=self.seed,
        )


def spec_to_dict(spec: SweepSpec) -> Dict:
    """Serialize a :class:`SweepSpec` as the spool manifest document."""
    doc = {
        "schema": SPOOL_SCHEMA,
        "sizes_kb": list(spec.sizes_kb),
        "cycles_ns": list(spec.cycles_ns),
        "assoc": spec.assoc,
        "block_words": spec.block_words,
        "trace_names": list(spec.trace_names),
        "length": spec.length,
        "seed": spec.seed,
        "simulator": spec.simulator,
        "pass_cache_dir": spec.pass_cache_dir,
        "checksum": "",
    }
    return _seal(doc)


def spec_from_dict(payload: Dict) -> SweepSpec:
    """Rebuild a :class:`SweepSpec` from any schema.

    Schemas 1 and 2 read as an exact sweep when their ``sample`` is
    empty.  A schema-2 spool of the removed interval-sampling route
    raises :exc:`~repro.errors.CampaignError`: its jobs were estimates,
    and running them exactly would store different results under the
    same run ids.  The older ``"cached"`` simulator only repeated that
    ``pass_cache_dir`` is set; it reads as ``"fastpath"``.
    """
    if payload.get("sample"):
        raise CampaignError(
            f"spool manifest describes an interval-sampling sweep "
            f"(sample={payload['sample']!r}); the sampled route was "
            f"removed, so this spool cannot run"
        )
    try:
        simulator = payload["simulator"]
        return SweepSpec(
            sizes_kb=tuple(payload["sizes_kb"]),
            cycles_ns=tuple(payload["cycles_ns"]),
            assoc=payload["assoc"],
            block_words=payload["block_words"],
            trace_names=tuple(payload["trace_names"]),
            length=payload["length"],
            seed=payload["seed"],
            simulator="fastpath" if simulator == "cached" else simulator,
            pass_cache_dir=payload.get("pass_cache_dir", ""),
        )
    except (KeyError, TypeError) as exc:
        raise CorruptResultError(
            f"spool manifest is malformed: {exc!r}"
        ) from exc


# ----------------------------------------------------------------------
# Lease and done-record documents
# ----------------------------------------------------------------------
@dataclass
class Lease:
    """One worker's exclusive, heartbeat-renewed hold on one job.

    ``epoch`` is 1 + the number of prior lease losses for the job and
    only ever increases; ``beat`` counts heartbeat renewals within this
    epoch.  Expiry is judged by *observers* watching ``(epoch, beat)``
    stall on their own monotonic clocks — the timestamps of the owner
    are never trusted, so stale or stepped clocks cannot corrupt the
    protocol.
    """

    job_id: str
    owner: str
    host: str = _HOST
    pid: int = 0
    epoch: int = 1
    beat: int = 0
    ttl_s: float = DEFAULT_LEASE_TTL_S


def lease_to_dict(lease: Lease) -> Dict:
    """Serialize a :class:`Lease` as its on-disk document."""
    doc = {
        "schema": LEASE_SCHEMA,
        "job_id": lease.job_id,
        "owner": lease.owner,
        "host": lease.host,
        "pid": lease.pid,
        "epoch": lease.epoch,
        "beat": lease.beat,
        "ttl_s": lease.ttl_s,
        "checksum": "",
    }
    return _seal(doc)


def lease_from_dict(payload: Dict) -> Lease:
    try:
        return Lease(
            job_id=payload["job_id"],
            owner=payload["owner"],
            host=payload["host"],
            pid=payload["pid"],
            epoch=payload["epoch"],
            beat=payload["beat"],
            ttl_s=payload["ttl_s"],
        )
    except (KeyError, TypeError) as exc:
        raise CorruptResultError(
            f"lease document is malformed: {exc!r}"
        ) from exc


@dataclass
class DoneRecord:
    """The completion record published (exclusively) into ``done/``."""

    job_id: str
    status: str = STATUS_OK
    owner: str = ""
    epoch: int = 1
    attempts: int = 0
    quarantines: int = 0
    cached: bool = False
    error: str = ""


def done_to_dict(record: DoneRecord) -> Dict:
    """Serialize a :class:`DoneRecord` as its on-disk document."""
    doc = {
        "schema": DONE_SCHEMA,
        "job_id": record.job_id,
        "status": record.status,
        "owner": record.owner,
        "epoch": record.epoch,
        "attempts": record.attempts,
        "quarantines": record.quarantines,
        "cached": record.cached,
        "error": record.error,
        "checksum": "",
    }
    return _seal(doc)


def done_from_dict(payload: Dict) -> DoneRecord:
    try:
        return DoneRecord(
            job_id=payload["job_id"],
            status=payload["status"],
            owner=payload["owner"],
            epoch=payload["epoch"],
            attempts=payload["attempts"],
            quarantines=payload["quarantines"],
            cached=payload.get("cached", False),
            error=payload.get("error", ""),
        )
    except (KeyError, TypeError) as exc:
        raise CorruptResultError(
            f"done record is malformed: {exc!r}"
        ) from exc


def job_to_dict(job_id: str, job_index: int, job: RunJob) -> Dict:
    """Serialize one spooled run as its ``jobs/`` record."""
    doc = {
        "schema": JOB_SCHEMA,
        "job_id": job_id,
        "job_index": job_index,
        "trace": job.trace.name,
        "config": job.config.describe(),
        "checksum": "",
    }
    return _seal(doc)


def poison_to_dict(job_id: str, losses: int, reason: str) -> Dict:
    """Serialize a quarantined job as its ``poison/`` record."""
    doc = {
        "schema": POISON_SCHEMA,
        "job_id": job_id,
        "losses": losses,
        "reason": reason,
        "checksum": "",
    }
    return _seal(doc)


# ----------------------------------------------------------------------
# Lease expiry by observation
# ----------------------------------------------------------------------
def owner_is_dead(lease: Lease) -> bool:
    """True when the lease's owner is *provably* dead on this host.

    Only a same-host pid probe is conclusive; a foreign host's worker is
    never declared dead this way — its lease must age out by heartbeat
    stall instead.
    """
    if lease.host != _HOST or lease.pid <= 0:
        return False
    try:
        os.kill(lease.pid, 0)
    except ProcessLookupError:
        return True
    except PermissionError:
        return False
    return False


class LeaseMonitor:
    """Judges lease expiry from *observed heartbeat progress* only.

    A lease is expired when its ``(epoch, beat)`` pair has not advanced
    for ``ttl_s`` as measured on the observer's own monotonic clock
    since the observer first saw that pair.  No wall-clock timestamp is
    ever compared, so a stepped or skewed clock — on the owner or the
    observer — cannot expire a healthy lease or immortalize a dead one;
    and a fresh observer always grants a full TTL of grace before its
    first reclaim.
    """

    def __init__(
        self, clock: Callable[[], float] = time.monotonic
    ) -> None:
        self._clock = clock
        #: job id -> (epoch, beat, observer-monotonic time first seen)
        self._seen: Dict[str, Tuple[int, int, float]] = {}

    def observe(self, lease: Lease) -> None:
        """Record the lease's current heartbeat state."""
        prior = self._seen.get(lease.job_id)
        if (
            prior is None
            or prior[0] != lease.epoch
            or prior[1] != lease.beat
        ):
            self._seen[lease.job_id] = (
                lease.epoch, lease.beat, self._clock()
            )

    def expired(self, lease: Lease) -> bool:
        """Is this lease reclaimable, per this observer's history?"""
        self.observe(lease)
        if owner_is_dead(lease):
            return True
        _, _, since = self._seen[lease.job_id]
        return (self._clock() - since) > lease.ttl_s

    def forget(self, job_id: str) -> None:
        self._seen.pop(job_id, None)


# ----------------------------------------------------------------------
# The spool
# ----------------------------------------------------------------------
class WorkQueue:
    """A spool directory of durable jobs, leases and completion records.

    Every mutation goes through :func:`atomic_write_text` (renew,
    archive) or :func:`atomic_claim_text` (claim, publish, poison), so
    any file another process can see is complete and checksummed; a
    crash at any instruction leaves at worst a stray ``.tmp.*`` file
    that :meth:`fsck` sweeps.

    Instances are cheap, hold only observer-local state (the lease
    monitor and re-claim backoff deadlines), and may be created freely
    in any process pointed at the same directory — the directory *is*
    the queue.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        clock: Callable[[], float] = time.monotonic,
        retry: Optional[RetryPolicy] = None,
        poison_losses: int = DEFAULT_POISON_LOSSES,
    ) -> None:
        self.directory = Path(directory)
        self.jobs_dir = self.directory / _JOBS_DIRNAME
        self.leases_dir = self.directory / _LEASES_DIRNAME
        self.lost_dir = self.leases_dir / _LOST_DIRNAME
        self.done_dir = self.directory / _DONE_DIRNAME
        self.poison_dir = self.directory / _POISON_DIRNAME
        self._clock = clock
        self.retry = retry or RetryPolicy()
        self.poison_losses = poison_losses
        self.monitor = LeaseMonitor(clock=clock)
        #: Observer-local backoff: job id -> monotonic time before which
        #: this observer will not re-claim a just-reclaimed job.
        self._not_before: Dict[str, float] = {}
        self.counters: Dict[str, int] = {
            "leases_issued": 0,
            "leases_expired": 0,
            "leases_reclaimed": 0,
            "leases_released": 0,
            "heartbeats": 0,
            "claim_races": 0,
            "duplicate_publishes": 0,
            "jobs_published": 0,
            "jobs_poisoned": 0,
            "corrupt_leases": 0,
        }

    @classmethod
    def for_campaign(cls, campaign: Campaign, **kwargs) -> "WorkQueue":
        return cls(campaign.directory / SPOOL_DIRNAME, **kwargs)

    # -- paths ----------------------------------------------------------
    @property
    def spec_path(self) -> Path:
        return self.directory / _SPEC_NAME

    def job_path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}.json"

    def lease_path(self, job_id: str) -> Path:
        return self.leases_dir / f"{job_id}.json"

    def done_path(self, job_id: str) -> Path:
        return self.done_dir / f"{job_id}.json"

    def poison_path(self, job_id: str) -> Path:
        return self.poison_dir / f"{job_id}.json"

    # -- enqueue --------------------------------------------------------
    def _make_layout(self) -> None:
        """Create the spool's directories.  Only enqueueing does this:
        an observer or a worker pointed at a directory with no spool
        leaves it as it was."""
        for sub in (
            self.jobs_dir, self.lost_dir, self.done_dir, self.poison_dir,
        ):
            sub.mkdir(parents=True, exist_ok=True)

    def save_spec(self, spec: SweepSpec) -> None:
        """Persist the spool manifest; idempotent for the same sweep.

        A spool already initialized with a *different* sweep raises
        :exc:`~repro.errors.CampaignError` — one spool, one sweep.
        """
        self._make_layout()
        if self.spec_path.exists():
            # Compared as specs, not checksums: a manifest written at an
            # older schema still describes the same sweep.
            if self.load_spec() != spec:
                raise CampaignError(
                    f"{self.directory} already holds a different sweep"
                )
            return
        atomic_write_text(self.spec_path, _dump(spec_to_dict(spec)))

    def load_spec(self) -> SweepSpec:
        if not self.spec_path.exists():
            raise CampaignError(
                f"{self.directory} has no spool manifest "
                f"({_SPEC_NAME}); run `campaign enqueue` first"
            )
        return spec_from_dict(_load_doc(self.spec_path, "spool manifest"))

    def enqueue_jobs(self, jobs: List[RunJob]) -> List[str]:
        """Materialize one durable job record per run; return run ids.

        Idempotent: records that already exist are left untouched, so
        re-running an interrupted ``enqueue`` (or resuming a campaign)
        completes the spool without disturbing claimed or done jobs.
        """
        self._make_layout()
        ids = []
        for index, job in enumerate(jobs):
            identifier = run_id(job.config, job.trace)
            ids.append(identifier)
            path = self.job_path(identifier)
            if path.exists():
                continue
            doc = job_to_dict(identifier, index, job)
            atomic_write_text(path, _dump(doc))
        return ids

    # -- queries --------------------------------------------------------
    def job_ids(self) -> List[str]:
        return sorted(p.stem for p in self.jobs_dir.glob("*.json"))

    def remaining(self) -> int:
        """Jobs with no completion or poison record yet."""
        return sum(
            1 for job_id in self.job_ids()
            if not self.done_path(job_id).exists()
            and not self.poison_path(job_id).exists()
        )

    def done_records(self) -> List[DoneRecord]:
        records = []
        for path in sorted(self.done_dir.glob("*.json")):
            records.append(done_from_dict(_load_doc(path, "done record")))
        return records

    def status(self) -> Dict[str, int]:
        job_ids = self.job_ids()
        done = sum(1 for j in job_ids if self.done_path(j).exists())
        poisoned = sum(1 for j in job_ids if self.poison_path(j).exists())
        leased = sum(1 for j in job_ids if self.lease_path(j).exists())
        return {
            "jobs": len(job_ids),
            "done": done,
            "poisoned": poisoned,
            "leased": leased,
            "pending": len(job_ids) - done - poisoned,
            "lost_leases": len(list(self.lost_dir.glob("*.json"))),
        }

    def render_status(self) -> str:
        s = self.status()
        return (
            f"spool: {s['jobs']} job(s): {s['done']} done, "
            f"{s['pending']} pending ({s['leased']} leased), "
            f"{s['poisoned']} poisoned; "
            f"{s['lost_leases']} lost lease(s) archived"
        )

    # -- lease lifecycle ------------------------------------------------
    def _read_lease(self, path: Path) -> Optional[Lease]:
        """Load one lease, or None when absent; corrupt files are moved
        aside (into the lost archive) so the slot becomes claimable."""
        if not path.exists():
            return None
        try:
            return lease_from_dict(_load_doc(path, "lease"))
        except CorruptResultError:
            self.counters["corrupt_leases"] += 1
            aside = self.lost_dir / f"{path.name}.corrupt"
            serial = 0
            while aside.exists():
                serial += 1
                aside = self.lost_dir / f"{path.name}.corrupt.{serial}"
            with contextlib.suppress(OSError):
                os.rename(path, aside)
            return None

    def _losses(self, job_id: str) -> int:
        """Lease losses so far = highest archived epoch for the job."""
        highest = 0
        for path in self.lost_dir.glob(f"{job_id}.*.json"):
            suffix = path.name[len(job_id) + 1:-len(".json")]
            if suffix.isdigit():
                highest = max(highest, int(suffix))
        return highest

    def claim(
        self,
        owner: str,
        ttl_s: float = DEFAULT_LEASE_TTL_S,
    ) -> Optional[Lease]:
        """Claim the first claimable pending job; None when nothing is.

        Scans jobs in deterministic (sorted id) order; skips done,
        poisoned, backoff-deferred and actively-leased jobs; expires and
        reclaims stalled leases along the way (the reclaimed job becomes
        claimable only after its exponential backoff, and only poisons
        after ``poison_losses`` losses).
        """
        now = self._clock()
        for job_id in self.job_ids():
            if self.done_path(job_id).exists():
                continue
            if self.poison_path(job_id).exists():
                continue
            deferred_until = self._not_before.get(job_id)
            if deferred_until is not None and now < deferred_until:
                continue
            existing = self._read_lease(self.lease_path(job_id))
            if existing is not None:
                if self.monitor.expired(existing):
                    self.counters["leases_expired"] += 1
                    self.reclaim(existing)
                continue
            lease = Lease(
                job_id=job_id,
                owner=owner,
                host=_HOST,
                pid=os.getpid(),
                epoch=self._losses(job_id) + 1,
                beat=0,
                ttl_s=ttl_s,
            )
            try:
                atomic_claim_text(
                    self.lease_path(job_id), _dump(lease_to_dict(lease))
                )
            except FileExistsError:
                self.counters["claim_races"] += 1
                continue
            self.counters["leases_issued"] += 1
            # Start this observer's expiry timer at the grant, so even
            # the issuer holds its own lease to the TTL discipline.
            self.monitor.observe(lease)
            return lease
        return None

    def reclaim(self, lease: Lease) -> bool:
        """Expire one lease: archive it and schedule the job's return.

        A single winner renames the lease into ``leases/lost/`` (the
        rename's source disappears, so a racing reclaimer simply
        loses); the job then waits out an exponential backoff before
        this observer will re-claim it, and poisons once its loss count
        reaches the threshold.
        """
        source = self.lease_path(lease.job_id)
        target = self.lost_dir / f"{lease.job_id}.{lease.epoch}.json"
        try:
            os.rename(source, target)
        except FileNotFoundError:
            return False  # another observer won the reclaim
        self.counters["leases_reclaimed"] += 1
        self.monitor.forget(lease.job_id)
        losses = self._losses(lease.job_id)
        if losses >= self.poison_losses:
            self.poison(
                lease.job_id,
                reason=(
                    f"{losses} lease loss(es); last owner {lease.owner} "
                    f"on {lease.host} (pid {lease.pid})"
                ),
                losses=losses,
            )
        else:
            self._not_before[lease.job_id] = self._clock() + \
                self.retry.delay_s(f"lease:{lease.job_id}", losses)
        return True

    def heartbeat(self, lease: Lease) -> Lease:
        """Renew a lease: bump its beat and rewrite it atomically.

        Raises :exc:`~repro.errors.LeaseLostError` when the lease is no
        longer this owner's — gone, reclaimed, or re-granted at a newer
        epoch.
        """
        path = self.lease_path(lease.job_id)
        current = self._read_lease(path)
        if (
            current is None
            or current.owner != lease.owner
            or current.epoch != lease.epoch
        ):
            raise LeaseLostError(
                f"lease on {lease.job_id} lost by {lease.owner} "
                f"(now held by "
                f"{current.owner if current else 'nobody'})"
            )
        lease.beat += 1
        atomic_write_text(path, _dump(lease_to_dict(lease)))
        self.counters["heartbeats"] += 1
        return lease

    def release(self, lease: Lease) -> bool:
        """Drop a still-owned lease; True when this call removed it."""
        path = self.lease_path(lease.job_id)
        current = self._read_lease(path)
        if (
            current is None
            or current.owner != lease.owner
            or current.epoch != lease.epoch
        ):
            return False
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)
        self.monitor.forget(lease.job_id)
        self.counters["leases_released"] += 1
        return True

    # -- completion -----------------------------------------------------
    def publish(self, lease: Lease, record: RunRecord) -> bool:
        """Publish a completion record; False when someone else already
        did (the duplicate is dropped — with deterministic simulation
        both results are byte-identical, so nothing is lost)."""
        done = DoneRecord(
            job_id=lease.job_id,
            status=record.status,
            owner=lease.owner,
            epoch=lease.epoch,
            attempts=record.attempts,
            quarantines=record.quarantines,
            cached=record.cached,
            error=record.error,
        )
        try:
            atomic_claim_text(
                self.done_path(lease.job_id), _dump(done_to_dict(done))
            )
        except FileExistsError:
            self.counters["duplicate_publishes"] += 1
            return False
        self.counters["jobs_published"] += 1
        return True

    def poison(
        self, job_id: str, reason: str = "", losses: int = 0
    ) -> bool:
        """Quarantine a job that keeps killing its owners."""
        doc = poison_to_dict(job_id, losses, reason)
        try:
            atomic_claim_text(self.poison_path(job_id), _dump(doc))
        except FileExistsError:
            return False
        self.counters["jobs_poisoned"] += 1
        return True

    # -- maintenance ----------------------------------------------------
    def fsck(self, repair: bool = False) -> Tuple[List[Path], List[Path]]:
        """Spool hygiene: ``(stray temp files, stale lease files)``.

        A lease is *stale* when its job already has a completion or
        poison record, its owner is provably dead on this host, or the
        file itself is unreadable.  With ``repair=True`` stray temps are
        deleted and stale leases of pending jobs are archived as losses
        (so epochs stay monotonic); leases of finished jobs are simply
        removed.
        """
        stray = sorted(
            p for p in self.directory.rglob(f"{_TMP_PREFIX}*")
            if p.is_file()
        )
        stale: List[Path] = []
        for path in sorted(self.leases_dir.glob("*.json")):
            try:
                lease = lease_from_dict(_load_doc(path, "lease"))
            except CorruptResultError:
                stale.append(path)
                continue
            finished = (
                self.done_path(lease.job_id).exists()
                or self.poison_path(lease.job_id).exists()
            )
            if finished or owner_is_dead(lease):
                stale.append(path)
        if repair:
            for path in stray:
                with contextlib.suppress(OSError):
                    path.unlink()
            for path in stale:
                lease = self._read_lease(path)
                if lease is None:
                    continue  # corrupt: _read_lease archived it
                finished = (
                    self.done_path(lease.job_id).exists()
                    or self.poison_path(lease.job_id).exists()
                )
                if finished:
                    with contextlib.suppress(OSError):
                        os.unlink(path)
                else:
                    self.reclaim(lease)
        return stray, stale

    def sync_manifest(self, campaign: Campaign) -> CampaignManifest:
        """Rebuild the campaign manifest journal from done records.

        The spool — not the manifest — is the source of truth for a
        multi-process sweep; this folds every completion (and poison)
        back into the familiar ``manifest.json`` so ``campaign status``
        and analyses keep working unchanged.  Idempotent.
        """
        manifest = CampaignManifest.for_campaign(campaign)

        def described(job_id: str) -> Tuple[str, str]:
            """A job's (trace, config): journaled, else its job record."""
            prior = manifest.runs.get(job_id)
            if prior is not None:
                return prior.trace, prior.config
            if self.job_path(job_id).exists():
                job_doc = _load_doc(self.job_path(job_id), "job record")
                return job_doc.get("trace", ""), job_doc.get("config", "")
            return "", ""

        for done in self.done_records():
            trace, config = described(done.job_id)
            manifest.runs[done.job_id] = RunRecord(
                run_id=done.job_id,
                status=done.status,
                trace=trace,
                config=config,
                attempts=done.attempts,
                quarantines=done.quarantines,
                cached=done.cached,
                error=done.error,
            )
        for path in sorted(self.poison_dir.glob("*.json")):
            doc = _load_doc(path, "poison record")
            job_id = doc.get("job_id", path.stem)
            trace, config = described(job_id)
            manifest.runs[job_id] = RunRecord(
                run_id=job_id,
                status=STATUS_FAILED,
                trace=trace,
                config=config,
                attempts=0,
                error=f"poisoned: {doc.get('reason', '')}",
            )
        manifest.save()
        return manifest


# ----------------------------------------------------------------------
# Workers
# ----------------------------------------------------------------------
class SpoolWorker:
    """A persistent worker: claim, heartbeat, execute, publish, repeat.

    Execution reuses the battle-tested retry machinery of
    :class:`~repro.sim.resilience.CampaignExecutor` (process isolation,
    timeouts, exponential backoff, quarantine-and-retry), wrapped in the
    lease protocol: the lease is renewed before every attempt and — when
    ``heartbeat_s`` is set — by a background thread while an isolated
    attempt runs, so a healthy worker's lease never stalls.  A renewal
    that finds the lease lost abandons the job (someone else owns it
    now); a completed job is published through the exclusive done link
    regardless, because either the publish wins (our result is the
    result) or it loses to a byte-identical one.

    ``request_drain`` (wired to SIGTERM by the CLI) finishes the current
    job, releases the lease, and exits the loop — graceful degradation
    by construction.
    """

    def __init__(
        self,
        queue: WorkQueue,
        campaign: Campaign,
        jobs_by_id: Dict[str, Tuple[int, RunJob]],
        name: str = "",
        ttl_s: float = DEFAULT_LEASE_TTL_S,
        heartbeat_s: Optional[float] = None,
        timeout_s: Optional[float] = None,
        grace_s: float = 5.0,
        retry: Optional[RetryPolicy] = None,
        fault_plan=None,
        collect_metrics: bool = False,
        mp_context=None,
        sleep_fn: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
        poll_s: float = 0.05,
    ) -> None:
        self.queue = queue
        self.campaign = campaign
        self.jobs_by_id = jobs_by_id
        self.name = name or f"{_HOST}:{os.getpid()}"
        self.ttl_s = ttl_s
        self.heartbeat_s = heartbeat_s
        self.fault_plan = fault_plan
        self.poll_s = poll_s
        self._sleep = sleep_fn
        self._clock = clock
        self._drain = threading.Event()
        self._beat_lock = threading.Lock()
        self.lifetime_s = 0.0
        self.processed = 0
        self._executor = CampaignExecutor(
            campaign,
            jobs=1,
            timeout_s=timeout_s,
            retry=retry,
            keep_going=True,  # lease protocol handles abort, not retries
            fault_plan=fault_plan,
            sleep_fn=sleep_fn,
            mp_context=mp_context,
            grace_s=grace_s,
            collect_metrics=collect_metrics,
        )

    # -- graceful shutdown ---------------------------------------------
    def request_drain(self) -> None:
        """Finish the in-flight job, release the lease, stop claiming."""
        self._drain.set()

    def install_signal_handlers(self) -> None:
        """SIGTERM -> drain (finish current job, release lease, exit)."""
        import signal

        def _on_term(signum, frame):
            self.request_drain()

        signal.signal(signal.SIGTERM, _on_term)

    # -- heartbeating ---------------------------------------------------
    def _beat(self, lease: Lease, attempt: int) -> None:
        """Renew the lease unless a chaos plan says this worker wedged."""
        plan = self.fault_plan
        if plan is not None:
            index = self.jobs_by_id[lease.job_id][0]
            if plan.should_stall_heartbeat(index, attempt):
                return  # chaos: the worker is "wedged" — no renewals
        with self._beat_lock:
            self.queue.heartbeat(lease)

    def _start_beater(self, lease: Lease, attempt: int):
        """A background renewal thread for long isolated attempts."""
        if self.heartbeat_s is None:
            return None, None
        stop = threading.Event()

        def beat() -> None:
            while not stop.wait(self.heartbeat_s):
                try:
                    self._beat(lease, attempt)
                except (LeaseLostError, CorruptResultError, OSError):
                    stop.set()  # observed loss; main thread re-checks

        thread = threading.Thread(target=beat, daemon=True)
        thread.start()
        return stop, thread

    # -- one claimed job ------------------------------------------------
    def _process(self, lease: Lease) -> Optional[RunRecord]:
        entry = self.jobs_by_id.get(lease.job_id)
        if entry is None:
            # This worker cannot rebuild the job (foreign spool entry);
            # leave it for a worker that can.
            self.queue.release(lease)
            return None
        job_index, job = entry
        current_attempt = {"n": 1}

        def on_attempt(attempt: int) -> None:
            current_attempt["n"] = attempt
            self._beat(lease, attempt)

        self._executor.on_attempt = on_attempt
        stop, thread = self._start_beater(lease, 1)
        try:
            (record,) = self._executor.run_group([(job_index, job)])
        except LeaseLostError:
            return None  # reclaimed from under us; the job lives on
        finally:
            self._executor.on_attempt = None
            if stop is not None:
                stop.set()
                thread.join()
        published = self.queue.publish(lease, record)
        self.queue.release(lease)
        if not published:
            return None
        if self._executor.collect_metrics:
            self._attach_fabric(lease)
        return record

    def _attach_fabric(self, lease: Lease) -> None:
        """Fold this job's lease history into its stored RunReport."""
        path = self.campaign.metrics_dir / f"{lease.job_id}.json"
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return  # metrics are advisory; never fail the job
        if not isinstance(payload, dict):
            return
        registry = MetricsRegistry()
        registry.merge(payload.get("metrics") or {})
        registry.count_many("fabric", {
            "leases_issued": lease.epoch,
            "leases_lost": lease.epoch - 1,
            "heartbeats": lease.beat,
        })
        payload["metrics"] = registry.as_dict()
        try:
            self.campaign.save_report(payload)
        except OSError:
            return

    # -- the loop -------------------------------------------------------
    def run(self, max_jobs: Optional[int] = None) -> int:
        """Claim and process jobs until the spool drains (or limits).

        Returns the number of jobs this worker published.  The loop
        exits when the spool has no pending work, ``max_jobs`` is
        reached, or a drain was requested.
        """
        started = self._clock()
        try:
            while True:
                if self._drain.is_set():
                    break
                if max_jobs is not None and self.processed >= max_jobs:
                    break
                lease = self.queue.claim(self.name, ttl_s=self.ttl_s)
                if lease is None:
                    if self.queue.remaining() == 0:
                        break
                    self._sleep(self.poll_s)
                    continue
                if self._process(lease) is not None:
                    self.processed += 1
        finally:
            self._executor.close()
            self.lifetime_s = self._clock() - started
        return self.processed


def spool_fleet(
    campaign: Campaign,
    jobs: List[RunJob],
    names: Sequence[str],
    retry: Optional[RetryPolicy] = None,
    **worker_kwargs,
) -> Tuple[List[str], List[SpoolWorker]]:
    """Spool ``jobs`` and build one :class:`SpoolWorker` per name.

    Enqueueing is idempotent, so this also completes an interrupted
    spool.  Returns the jobs' run ids, in job order, and the workers,
    each observing the spool through its own :class:`WorkQueue`.
    """
    ids = WorkQueue.for_campaign(campaign, retry=retry).enqueue_jobs(jobs)
    jobs_by_id = {
        identifier: (index, job)
        for index, (identifier, job) in enumerate(zip(ids, jobs))
    }
    fleet = [
        SpoolWorker(
            WorkQueue.for_campaign(campaign, retry=retry),
            campaign,
            jobs_by_id,
            name=name,
            retry=retry,
            **worker_kwargs,
        )
        for name in names
    ]
    return ids, fleet


def run_fleet(
    campaign: Campaign, fleet: List[SpoolWorker]
) -> Tuple[CampaignManifest, Dict[str, int]]:
    """Run the workers until the spool drains, then sync the manifest.

    Several workers run in threads, each claiming through the lease
    protocol exactly as separate processes would.  Returns the synced
    manifest and the fleet's ``fabric`` counter totals: its queues'
    counters, summed, plus ``workers`` and ``worker_lifetime_ms``.  A
    fleet that collects metrics also writes the sweep summary, with
    those totals as its fabric block.
    """
    if len(fleet) == 1:
        fleet[0].run()
    else:
        threads = [
            threading.Thread(target=worker.run, daemon=True)
            for worker in fleet
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    manifest = WorkQueue.for_campaign(campaign).sync_manifest(campaign)
    fabric: Dict[str, int] = {"workers": len(fleet)}
    for worker in fleet:
        for name, count in worker.queue.counters.items():
            fabric[name] = fabric.get(name, 0) + count
        fabric["worker_lifetime_ms"] = (
            fabric.get("worker_lifetime_ms", 0)
            + int(worker.lifetime_s * 1000)
        )
    if fleet[0]._executor.collect_metrics:
        write_summary(campaign, fabric=fabric)
    return manifest, fabric


def drain_spool(
    campaign: Campaign,
    spec: Optional[SweepSpec] = None,
    workers: int = 1,
    **worker_kwargs,
) -> Tuple[CampaignManifest, Dict[str, int]]:
    """Run workers until the spool is empty; return what
    :func:`run_fleet` returns.

    ``spec`` defaults to the spool's stored manifest.  This is the
    one-shot coordinator `campaign drain` uses: kill it at any point
    and nothing is lost — re-invoking resumes from the spool.
    """
    spec = spec or WorkQueue.for_campaign(campaign).load_spec()
    _ids, fleet = spool_fleet(
        campaign, spec.build_jobs(),
        [f"{_HOST}:{os.getpid()}:w{n}" for n in range(max(1, workers))],
        **worker_kwargs,
    )
    return run_fleet(campaign, fleet)
