"""Fault-tolerant campaign execution.

The paper's methodology is a sweep: hundreds of (configuration, trace)
simulations whose raw files are re-read by analysis.  At that scale the
failure modes stop being hypothetical — a hung run, a worker OOM, a
truncated file, a full disk — and a single one must not lose or poison
the campaign.  This module is the orchestration half of the resilience
story (the persistence half lives in :mod:`repro.sim.campaign`):

* :class:`CampaignExecutor` runs each group of timing siblings (the
  (config, trace) jobs that share one functional pass) on a long-lived
  worker *process* with a wall-clock timeout, so a crash or hang is
  contained to that group (the worker is replaced); failed attempts
  are retried with exponential backoff and deterministic jitter
  (:class:`RetryPolicy`);
* :class:`CampaignManifest` journals per-run status
  (``ok | failed | timeout | quarantined``) to ``manifest.json`` after
  every run, one fsynced line apiece, so an interrupted sweep reports
  exactly what it has and analysis can flag missing points instead of
  aborting;
* results are verified immediately after saving; a corrupt file is
  quarantined and the run re-simulated, so every ``ok`` entry in the
  manifest is backed by a validated, byte-deterministic result file.

Fault injection hooks (``fault_plan``) are consulted at each seam —
attempt start in the worker, save, post-save — so the whole layer is
testable without real crashes, clock time, or flaky sleeps; see
:mod:`repro.sim.faults`.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import CampaignError, CorruptResultError, RunTimeoutError
from ..trace.record import Trace
from .campaign import (
    Campaign, append_journal_line, atomic_write_text, run_id,
)
from .config import SystemConfig
from .engine import simulate as engine_simulate
from .fastpath import fast_simulate
from .passcache import PassCache, cache_metrics
from .stackpass import pass_key
from .statistics import SimStats
from .telemetry import CycleLedger, MetricsRegistry, Telemetry

#: Final statuses a run can journal.
STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_TIMEOUT = "timeout"
STATUS_QUARANTINED = "quarantined"
STATUSES = (STATUS_OK, STATUS_FAILED, STATUS_TIMEOUT, STATUS_QUARANTINED)

#: Exit code a deliberately crashed worker dies with (fault injection).
CRASH_EXIT_CODE = 113

#: Version of the campaign manifest journal (``manifest.json``): its
#: header line and the :meth:`RunRecord.to_dict` record on every other
#: line.  Schema 2 made the whole-document manifest of schema 1 an
#: append-only journal.
MANIFEST_SCHEMA = 2


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter.

    The jitter is derived from a hash of (run id, attempt) rather than a
    random source, so two executions of the same sweep back off
    identically — reproducibility extends to the failure paths.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    jitter: float = 0.25

    def delay_s(self, identifier: str, attempt: int) -> float:
        """Backoff before retrying ``attempt`` (1-based) of a run."""
        base = min(
            self.backoff_cap_s, self.backoff_base_s * (2 ** (attempt - 1))
        )
        digest = hashlib.sha256(f"{identifier}:{attempt}".encode()).digest()
        unit = int.from_bytes(digest[:4], "big") / 2**32
        return base * (1.0 + self.jitter * unit)


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------
@dataclass
class RunRecord:
    """One run's journal entry in the campaign manifest."""

    run_id: str
    status: str = STATUS_FAILED
    trace: str = ""
    config: str = ""
    attempts: int = 0
    quarantines: int = 0
    cached: bool = False
    error: str = ""

    def to_dict(self) -> Dict:
        return {
            "status": self.status,
            "trace": self.trace,
            "config": self.config,
            "attempts": self.attempts,
            "quarantines": self.quarantines,
            "cached": self.cached,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, identifier: str, payload: Dict) -> "RunRecord":
        record = cls(run_id=identifier)
        for name in (
            "status", "trace", "config", "attempts", "quarantines",
            "cached", "error",
        ):
            if name in payload:
                setattr(record, name, payload[name])
        return record


def _compact(payload: Dict) -> str:
    return json.dumps(payload, separators=(",", ":"))


def _journal_line(record: RunRecord) -> str:
    return _compact({"run_id": record.run_id, **record.to_dict()})


def _json_or_none(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


class CampaignManifest:
    """Per-run status journal, one line appended and fsynced per update.

    ``manifest.json`` is a header line, ``{"schema": 2}``, then one
    compact JSON record per journaled run, appended through
    :func:`~repro.sim.campaign.append_journal_line`; the last record of
    a run id wins, so a retried or resumed run simply appends again.
    Recording a run costs one line, not a rewrite of the journal.
    :meth:`save` is the atomic compaction: one record per run id, sorted.

    Loading is tolerant by design: a missing manifest starts empty, a
    schema-1 document (the whole journal as one JSON object) is read
    and compacted to a journal, and a corrupt file or one with a torn
    or unreadable line is moved aside (``manifest.json.corrupt``) and
    compacted from every record that still reads, so the next append
    starts on a fresh line.  The journal exists to survive crashes, so
    it must never be the thing that crashes a resumed sweep.
    """

    SCHEMA = MANIFEST_SCHEMA

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.runs: Dict[str, RunRecord] = {}

    @classmethod
    def for_campaign(cls, campaign: Campaign) -> "CampaignManifest":
        return cls.load(campaign.manifest_path)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CampaignManifest":
        manifest = cls(path)
        try:
            text = manifest.path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return manifest
        except (OSError, ValueError):
            text = ""
        head, _, body = text.partition("\n")
        if _json_or_none(head) == {"schema": cls.SCHEMA}:
            if manifest._read_journal(body) and text.endswith("\n"):
                return manifest
            torn = True
        else:
            torn = not manifest._read_document(text)
        if torn:
            aside = manifest.path.with_name(manifest.path.name + ".corrupt")
            serial = 0
            while aside.exists():
                serial += 1
                aside = manifest.path.with_name(
                    f"{manifest.path.name}.corrupt.{serial}"
                )
            manifest.path.replace(aside)
        manifest.save()
        return manifest

    def _read_journal(self, body: str) -> bool:
        """Replay the records of a journal's body, last record winning;
        False if any line does not read as a record."""
        intact = True
        for line in body.split("\n"):
            if not line:
                continue
            entry = _json_or_none(line)
            if isinstance(entry, dict) and isinstance(
                entry.get("run_id"), str
            ):
                self.runs[entry["run_id"]] = RunRecord.from_dict(
                    entry["run_id"], entry
                )
            else:
                intact = False
        return intact

    def _read_document(self, text: str) -> bool:
        """Read a schema-1 whole-document manifest; False if it is not
        one."""
        payload = _json_or_none(text)
        runs = payload.get("runs") if isinstance(payload, dict) else None
        if not isinstance(runs, dict):
            return False
        for identifier, entry in runs.items():
            if isinstance(entry, dict):
                self.runs[identifier] = RunRecord.from_dict(
                    identifier, entry
                )
        return True

    def save(self) -> None:
        """Rewrite the journal atomically, one record per run."""
        lines = [_compact({"schema": self.SCHEMA})] + [
            _journal_line(record)
            for _, record in sorted(self.runs.items())
        ]
        atomic_write_text(self.path, "\n".join(lines) + "\n")

    def record(self, record: RunRecord) -> None:
        """Journal one run's (latest) outcome and persist immediately."""
        self.runs[record.run_id] = record
        try:
            append_journal_line(self.path, _journal_line(record))
        except FileNotFoundError:
            self.save()

    def counts(self) -> Dict[str, int]:
        tally = {status: 0 for status in STATUSES}
        for record in self.runs.values():
            tally[record.status] = tally.get(record.status, 0) + 1
        return tally

    def incomplete(self) -> List[RunRecord]:
        """Runs whose final status is anything but ``ok`` — the missing
        points an analysis over this campaign must flag."""
        return [
            record
            for _, record in sorted(self.runs.items())
            if record.status != STATUS_OK
        ]

    def render(self) -> str:
        counts = self.counts()
        total = len(self.runs)
        lines = [
            f"{total} run(s): "
            + ", ".join(f"{counts.get(s, 0)} {s}" for s in STATUSES)
        ]
        for record in self.incomplete():
            detail = f" [{record.error}]" if record.error else ""
            lines.append(
                f"  {record.status:>11}  {record.run_id}"
                f"  ({record.attempts} attempt(s)){detail}"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Worker protocol
# ----------------------------------------------------------------------
def make_deadline_check(
    timeout_s: float, clock: Callable[[], float] = time.monotonic
) -> Callable[[], None]:
    """A cooperative-cancellation hook for :meth:`Engine.run`.

    Raises :exc:`~repro.errors.RunTimeoutError` once ``timeout_s`` has
    elapsed since creation, measured on ``clock`` — ``time.monotonic``
    by default, *never* the wall clock, so an NTP step, DST change or
    operator clock-set mid-run can neither fire a deadline early nor
    postpone it.  The same discipline governs every interval in this
    module and in :mod:`repro.sim.workqueue` (lease TTLs, heartbeat
    stall detection, re-claim backoff): wall-clock timestamps are never
    compared.
    """
    deadline = clock() + timeout_s

    def check() -> None:
        if clock() > deadline:
            raise RunTimeoutError(
                f"run exceeded {timeout_s:g}s (cooperative cancel)"
            )

    return check


def sibling_groups(jobs: Sequence[RunJob]) -> List[List[int]]:
    """The job indices in groups of timing siblings, in first-seen order.

    Fastpath jobs with one :func:`~repro.sim.stackpass.pass_key` and
    one pass cache form a group, with or without lower levels; every
    engine job is a group of one.
    """
    groups: Dict[Tuple, List[int]] = {}
    for index, job in enumerate(jobs):
        key = (index,) if job.simulator == "engine" else (
            pass_key(job.config, job.trace, job.seed), job.pass_cache_dir,
        )
        groups.setdefault(key, []).append(index)
    return list(groups.values())


def _with_report(
    job: RunJob, stats: SimStats, ledger: CycleLedger,
    registry: MetricsRegistry,
) -> Tuple[SimStats, Dict]:
    """``(stats, report_dict)``: the job's stats and its RunReport."""
    # Looked up at call time, so a rebinding of the module's name (a
    # patched builder) reaches forked workers.
    from .telemetry import build_run_report

    report = build_run_report(
        stats, ledger,
        run_identifier=run_id(job.config, job.trace),
        simulator=job.simulator,
        n_refs_total=len(job.trace),
        config=job.config,
        registry=registry,
    )
    return (stats, report.to_dict())


def _simulate_engine(
    job: RunJob, timeout_s: Optional[float], collect_metrics: bool
) -> object:
    """One job on the reference engine, with the cooperative deadline
    when ``timeout_s`` is set: its stats, or with ``collect_metrics``
    ``(stats, report_dict)``."""
    cancel_check = make_deadline_check(timeout_s) if timeout_s else None
    if not collect_metrics:
        return engine_simulate(
            job.config, job.trace, seed=job.seed, cancel_check=cancel_check
        )
    ledger = CycleLedger()
    registry = MetricsRegistry()
    with registry.span("simulate"):
        stats = engine_simulate(
            job.config, job.trace, seed=job.seed, cancel_check=cancel_check,
            telemetry=Telemetry(ledger=ledger),
        )
    return _with_report(job, stats, ledger, registry)


def _simulate_group(jobs: Sequence[RunJob], collect_metrics: bool) -> List:
    """A group of fastpath timing siblings from one functional pass.

    Without metrics the group is one
    :func:`~repro.core.sweep.simulate_jobs` call.  The batch kernel
    takes no telemetry handle, so with ``collect_metrics`` each sibling
    is priced by a scalar ``replay()`` of the shared pass with a cycle
    ledger of its own, and the pass's time and ``passcache.*`` counts
    land once, in the first sibling's report.
    """
    from ..core.sweep import run_functional_passes, simulate_jobs

    cache_dir = jobs[0].pass_cache_dir
    cache = PassCache(cache_dir) if cache_dir else None
    triples = [(job.config, job.trace, job.seed) for job in jobs]
    if not collect_metrics:
        return simulate_jobs(triples, pass_cache=cache)
    streams = None
    payloads = []
    for k, job in enumerate(jobs):
        ledger = CycleLedger()
        registry = MetricsRegistry()
        with registry.span("simulate"):
            if streams is None:
                with cache_metrics(cache, registry):
                    streams = run_functional_passes(triples, cache=cache)
            stats = fast_simulate(
                job.config, job.trace, seed=job.seed,
                telemetry=Telemetry(ledger=ledger), stream=streams[k],
            )
        registry.count("replay.scalar_replays")
        payloads.append(_with_report(job, stats, ledger, registry))
    return payloads


def _attempt_result(
    jobs: Sequence[RunJob],
    job_indices: Sequence[int],
    attempt: int,
    fault_plan,
    timeout_s: Optional[float],
    collect_metrics: bool,
) -> Tuple[str, object]:
    """Run one attempt of a group inside a worker; return its message
    for the parent.

    The message is ``("ok", payloads)``, one payload per job in group
    order, or ``("timeout", text)`` / ``("failed", text)`` for the whole
    group: a fault injected for any member fails every member's
    attempt.  A payload is the job's stats or, with ``collect_metrics``,
    ``(stats, report_dict)``: a
    :class:`~repro.sim.telemetry.RunReport` with a cycle-attribution
    ledger and wall-clock and RSS measured *inside* the worker process,
    where they are honest.  The group's route is its first job's
    ``simulator``: an engine job runs alone (:func:`_simulate_engine`),
    fastpath siblings share one pass (:func:`_simulate_group`).
    """
    try:
        if fault_plan is not None:
            for job_index in job_indices:
                fault_plan.worker_faults(job_index, attempt)
        if jobs[0].simulator == "engine":
            (job,) = jobs
            return (STATUS_OK, [_simulate_engine(job, timeout_s,
                                                 collect_metrics)])
        return (STATUS_OK, _simulate_group(jobs, collect_metrics))
    except RunTimeoutError as exc:
        return (STATUS_TIMEOUT, str(exc))
    except BaseException as exc:  # noqa: BLE001 — full containment
        return (STATUS_FAILED, f"{type(exc).__name__}: {exc}")


def _worker_main(
    conn,
    parent_end,
    fault_plan,
    timeout_s: Optional[float],
    collect_metrics: bool,
) -> None:
    """Entry point of one long-lived simulation worker process.

    Serves attempts until told to stop: receive ``(jobs, job_indices,
    attempt)`` for one group of timing siblings, send back
    :func:`_attempt_result`'s message, wait for the next.  A ``None``
    request is the stop message.  The worker first closes its inherited
    copy of the parent's end of the pipe, so it
    reads EOF once the parent is gone (and every worker forked after it,
    each of which holds a copy, has exited); it also takes the default
    SIGTERM action, so the parent's ``terminate()`` ends it even when the
    forking process installed a handler (``campaign worker`` drains on
    SIGTERM).

    The worker ends itself with status 0 on a stop message, on EOF and
    on a failed send.  Returning instead would leave the exit to
    ``multiprocessing``, whose ``threading._shutdown()`` raises
    ``RuntimeError('cannot join current thread')`` in a child forked
    from a non-main thread (the executor's pool threads at
    ``jobs > 1``), turning every such exit into status 1.  Only a worker
    that dies mid-attempt (an injected crash, a signal) exits with
    another code, which the parent reports.
    """
    parent_end.close()
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError):
            break  # the parent is gone
        if request is None:
            break
        message = _attempt_result(
            *request, fault_plan, timeout_s, collect_metrics
        )
        try:
            conn.send(message)
        except (OSError, ValueError):
            break  # the parent tore the pipe down
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, OSError, ValueError):
            pass
    os._exit(0)


def _best_effort_send(conn, message) -> None:
    """Send on a pipe whose far end may already be gone.

    A worker can die between attempts, so a send can hit a closed or
    broken pipe (OSError/BrokenPipeError, or ValueError on a closed
    handle).  Those specific failures are expected and dropped: the
    caller learns the worker's fate from its process sentinel.
    """
    try:
        conn.send(message)
    except (OSError, ValueError):
        pass


#: Serializes worker starts across every executor in the process, pipe
#: creation included.  A fork taken while another thread's new pipe (or
#: ``Process.start()``'s sentinel pipe) is still open at both ends would
#: copy that pipe's child end into a long-lived worker, and the other
#: worker's death would then close neither its pipe nor its sentinel.
_START_LOCK = threading.Lock()

#: How long a stopped worker may take to exit before it is terminated,
#: and a terminated one before it is killed.
_STOP_JOIN_S = 5.0


class _Worker:
    """One long-lived worker process and the parent's end of its pipe."""

    def __init__(
        self, mp_context, fault_plan, timeout_s, collect_metrics
    ) -> None:
        with _START_LOCK:
            self.conn, child_end = mp_context.Pipe()
            self.proc = mp_context.Process(
                target=_worker_main,
                args=(
                    child_end, self.conn, fault_plan, timeout_s,
                    collect_metrics,
                ),
                daemon=True,
            )
            try:
                self.proc.start()
            finally:
                child_end.close()

    def end(self, grace_s: float) -> None:
        """Give the process ``grace_s`` to exit, then terminate it, then
        kill it; reap it and close the pipe.

        Exit is read from the sentinel, which closes when the child
        exits even when another thread's ``Process.start()`` reaped it
        (``is_alive()`` can then still read true).
        """
        if not wait([self.proc.sentinel], grace_s):
            self.proc.terminate()
            if not wait([self.proc.sentinel], _STOP_JOIN_S):
                self.proc.kill()  # pragma: no cover — stuck in kernel
        self.proc.join()
        self.conn.close()


# ----------------------------------------------------------------------
# Executor
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunJob:
    """One (configuration, trace) cell of a sweep and the route it
    takes: ``simulator`` is ``"fastpath"`` or ``"engine"``, and
    ``pass_cache_dir`` names the pass cache a fastpath job's functional
    pass goes through (``""`` for none)."""

    config: SystemConfig
    trace: Trace
    simulator: str = "fastpath"
    pass_cache_dir: str = ""
    seed: int = 0

    def __post_init__(self) -> None:
        if self.simulator not in ("fastpath", "engine"):
            raise CampaignError(
                f"simulator must be fastpath|engine, got {self.simulator!r}"
            )


def sweep_jobs(
    configs: Sequence[SystemConfig],
    traces: Sequence[Trace],
    simulator: str = "fastpath",
    pass_cache_dir: str = "",
    seed: int = 0,
) -> List[RunJob]:
    """The cartesian (config x trace) job list of a campaign sweep."""
    return [
        RunJob(
            config=config, trace=trace, simulator=simulator,
            pass_cache_dir=pass_cache_dir, seed=seed,
        )
        for config in configs
        for trace in traces
    ]


@dataclass
class CampaignReport:
    """What a sweep returns: every run's journal entry, in job order."""

    records: List[RunRecord] = field(default_factory=list)

    def counts(self) -> Dict[str, int]:
        tally = {status: 0 for status in STATUSES}
        for record in self.records:
            tally[record.status] = tally.get(record.status, 0) + 1
        return tally

    @property
    def all_ok(self) -> bool:
        return all(r.status == STATUS_OK for r in self.records)

    def render(self) -> str:
        counts = self.counts()
        lines = [
            f"{len(self.records)} run(s): "
            + ", ".join(f"{counts.get(s, 0)} {s}" for s in STATUSES)
        ]
        for record in self.records:
            if record.status != STATUS_OK:
                detail = f" [{record.error}]" if record.error else ""
                lines.append(
                    f"  {record.status:>11}  {record.run_id}"
                    f"  ({record.attempts} attempt(s)){detail}"
                )
        return "\n".join(lines)


class CampaignExecutor:
    """Run a sweep with worker isolation, timeouts and bounded retries.

    The unit of work is a group of timing siblings
    (:func:`sibling_groups`): the fastpath runs that share one
    functional pass.  A worker takes that pass once and prices every
    sibling from it (one batch-kernel grid for the memory-direct ones);
    each engine job, named by its :attr:`RunJob.simulator`, is a group
    of one.  Each run is still saved, verified and journaled on its own.

    Attempts run on worker processes (fork/spawn per the platform
    default) that live for the whole sweep: a worker is forked by the
    first attempt that finds none idle, then serves attempts over its
    pipe, each one group's pickled :class:`RunJob`\\ s, which share
    their trace, so it crosses the pipe once.  Containment is per
    group: a segfault, OOM kill or runaway loop fails only its own
    group's attempt — the parent reaps that worker (terminating one
    that overran ``timeout_s`` per member plus ``grace_s``), charges
    each member the failed attempt, records ``failed`` with the
    worker's exit code or ``timeout`` in the manifest once the retries
    are spent, and later attempts get a fresh worker.  The sweep then
    continues (``keep_going=True``) or stops scheduling further work
    and raises :exc:`~repro.errors.CampaignError`
    (``keep_going=False``).  Only the address space is shared across a
    worker's groups; no module-level state feeds a result, so results
    are deterministic per run.

    At ``jobs > 1`` idle workers wait in a lock-guarded list.
    :meth:`run_sweep` stops every worker when it finishes, whether it
    returns or raises; a caller that drives :meth:`run_group` directly
    (the spool workers of :mod:`repro.sim.workqueue`) calls
    :meth:`close` itself.

    ``sleep_fn`` injects the backoff sleep (tests pass a recorder, so no
    test ever waits on a real clock); ``fault_plan`` injects
    deterministic failures (see :mod:`repro.sim.faults`).
    """

    def __init__(
        self,
        campaign: Campaign,
        jobs: int = 1,
        timeout_s: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        keep_going: bool = True,
        fault_plan=None,
        sleep_fn: Callable[[float], None] = time.sleep,
        mp_context: Optional[multiprocessing.context.BaseContext] = None,
        grace_s: float = 5.0,
        collect_metrics: bool = False,
    ) -> None:
        if jobs < 1:
            raise CampaignError(f"jobs must be >= 1, got {jobs}")
        if timeout_s is not None and timeout_s <= 0:
            raise CampaignError(f"timeout must be positive, got {timeout_s}")
        self.campaign = campaign
        self.jobs = jobs
        self.timeout_s = timeout_s
        #: When set, workers also build telemetry RunReports (ledger +
        #: wall clock + RSS) persisted under ``<campaign>/metrics/``,
        #: and :meth:`run_sweep` writes a sweep-level summary.
        self.collect_metrics = collect_metrics
        #: Extra wall time past ``timeout_s`` before the parent
        #: terminates a worker — room for a simulator that honors the
        #: cooperative cancel hook to report its own RunTimeoutError
        #: (a cleaner death than SIGTERM).
        self.grace_s = max(0.0, grace_s)
        self.retry = retry or RetryPolicy()
        self.keep_going = keep_going
        self.fault_plan = fault_plan
        #: Optional per-attempt hook, called with the 1-based attempt
        #: number just before each execution attempt.  The spool worker
        #: uses it to renew its lease; a raised
        #: :exc:`~repro.errors.LeaseLostError` abandons the job.
        self.on_attempt: Optional[Callable[[int], None]] = None
        self._sleep = sleep_fn
        self._mp = mp_context or multiprocessing.get_context()
        self.manifest = CampaignManifest.for_campaign(campaign)
        self._manifest_lock = threading.Lock()
        self._abort = threading.Event()
        self._idle: List[_Worker] = []
        self._idle_lock = threading.Lock()

    # -- workers -------------------------------------------------------
    def _checkout(self) -> _Worker:
        """An idle worker, or a new one when none is idle."""
        with self._idle_lock:
            if self._idle:
                return self._idle.pop()
        return _Worker(
            self._mp, self.fault_plan, self.timeout_s, self.collect_metrics
        )

    def close(self) -> None:
        """Stop every worker: a stop message, a bounded join, then
        terminate.  EOF alone would not do: a worker forked later holds
        copies of the parent's ends of earlier workers' pipes."""
        with self._idle_lock:
            workers, self._idle = self._idle, []
        for worker in workers:
            _best_effort_send(worker.conn, None)
        for worker in workers:
            worker.end(_STOP_JOIN_S)

    # -- one isolated attempt ------------------------------------------
    def _execute_attempt(
        self, members: Sequence[Tuple[int, RunJob]], attempt: int
    ) -> Tuple[str, object]:
        """Run one attempt of a group of ``(job_index, job)`` members on
        a worker process.

        Returns ``("ok", payloads)`` (one per member), ``("timeout",
        message)`` or ``("failed", message)``; never raises for
        worker-side faults.  The group's wall-clock budget is
        ``timeout_s`` per member.  A worker that answered goes back to
        the idle list; one that died or overran is reaped, and the next
        attempt forks a fresh one.
        """
        worker = self._checkout()
        message = None
        budget = (
            None if self.timeout_s is None
            else self.timeout_s * len(members)
        )
        try:
            _best_effort_send(worker.conn, (
                tuple(job for _index, job in members),
                tuple(index for index, _job in members),
                attempt,
            ))
            limit = None if budget is None else budget + self.grace_s
            if not wait([worker.conn, worker.proc.sentinel], limit):
                return (
                    STATUS_TIMEOUT,
                    f"worker exceeded {budget:g}s wall clock; terminated",
                )
            try:
                # poll() is also true at EOF — a worker that died hard
                # closed its end without sending; recv then raises.
                message = worker.conn.recv() if worker.conn.poll() else None
            except (EOFError, OSError):
                pass
        finally:
            if message is None:
                worker.end(0.0)
            else:
                with self._idle_lock:
                    self._idle.append(worker)
        if message is None:
            return (
                STATUS_FAILED,
                "worker died without a result "
                f"(exit code {worker.proc.exitcode})",
            )
        return message

    # -- one group with retries ----------------------------------------
    def run_group(
        self, members: Sequence[Tuple[int, RunJob]]
    ) -> List[RunRecord]:
        """Execute a group of timing siblings (cache check, retries,
        save, verify) and return their finished :class:`RunRecord`\\ s,
        in member order, *without* journaling them: :meth:`run_sweep`
        journals them, and the spool workers of
        :mod:`repro.sim.workqueue`, which run each claimed job as a
        group of one, publish durable done records instead.

        A member whose result is already stored and validates is
        ``cached`` and not re-run.  Every attempt prices the members
        not yet saved in one worker request; a simulation fault (worker
        crash, hang or timeout, an injected hang) fails the attempt of
        each of them, and each is charged it.  Saving, verifying and
        quarantining stay per run, so a retry re-prices only the
        members whose results are not yet saved.  The optional
        :attr:`on_attempt` hook fires before every attempt; an
        exception it raises propagates (the spool worker's lease
        renewal raises :exc:`~repro.errors.LeaseLostError` there to
        abandon a reclaimed job).
        """
        records = [
            RunRecord(
                run_id=run_id(job.config, job.trace),
                trace=job.trace.name,
                config=job.config.describe(),
            )
            for _index, job in members
        ]
        pending = [
            position for position, record in enumerate(records)
            if not self._cached(record)
        ]
        plan = self.fault_plan
        last: Dict[int, Tuple[str, str]] = {}
        for attempt in range(1, self.retry.max_attempts + 1):
            if not pending:
                break
            for position in pending:
                records[position].attempts = attempt
            if attempt > 1:
                self._sleep(self.retry.delay_s(
                    records[pending[0]].run_id, attempt - 1
                ))
            if self.on_attempt is not None:
                self.on_attempt(attempt)
            running = [members[position] for position in pending]
            if plan is not None and any(
                plan.is_simulated_hang(index, attempt)
                for index, _job in running
            ):
                status, payload = (
                    STATUS_TIMEOUT, "injected hang (simulated timeout)"
                )
            else:
                status, payload = self._execute_attempt(running, attempt)
            if status != STATUS_OK:
                for position in pending:
                    last[position] = (status, str(payload))
                continue
            unsaved = []
            for position, result in zip(pending, payload):
                failure = self._persist(
                    members[position][0], attempt, records[position], result
                )
                if failure is not None:
                    last[position] = failure
                    unsaved.append(position)
            pending = unsaved
        for position in pending:
            records[position].status, records[position].error = last.get(
                position, (STATUS_FAILED, "never attempted")
            )
        return records

    def _cached(self, record: RunRecord) -> bool:
        """Whether the run's stored result validates (then the record
        reads ``ok``, cached); a corrupt one is quarantined."""
        if record.run_id not in self.campaign:
            return False
        try:
            self.campaign.verify(record.run_id)
        except CorruptResultError:
            self.campaign.quarantine(record.run_id)
            record.quarantines += 1
            return False
        record.status = STATUS_OK
        record.cached = True
        return True

    def _persist(
        self, job_index: int, attempt: int, record: RunRecord, result
    ) -> Optional[Tuple[str, str]]:
        """Save and verify one run's result (and its RunReport, if any);
        ``None`` once the record reads ``ok``, else the failure's
        ``(status, error)``."""
        plan = self.fault_plan
        report_payload = None
        if self.collect_metrics and isinstance(result, tuple):
            result, report_payload = result
        identifier = record.run_id
        try:
            if plan is not None:
                plan.save_faults(job_index, attempt)
            self.campaign.save(identifier, result)
            if plan is not None:
                plan.post_save_faults(
                    job_index, attempt, self.campaign._path(identifier)
                )
            self.campaign.verify(identifier)
        except OSError as exc:
            return (STATUS_FAILED, f"save failed: {exc}")
        except CorruptResultError as exc:
            self.campaign.quarantine(identifier)
            record.quarantines += 1
            return (STATUS_QUARANTINED, str(exc))
        if report_payload is not None:
            try:
                self.campaign.save_report(report_payload)
            except OSError:
                pass  # metrics are advisory; never fail the run
        record.status = STATUS_OK
        record.error = ""
        return None

    def _journal(self, record: RunRecord) -> None:
        with self._manifest_lock:
            self.manifest.record(record)

    # -- the sweep ------------------------------------------------------
    def run_sweep(self, jobs: Sequence[RunJob]) -> CampaignReport:
        """Execute every job; return the per-run journal, in job order.

        The jobs run as groups of timing siblings (:func:`sibling_groups`),
        one worker request per group attempt; each run is still saved,
        verified and journaled on its own.  With ``keep_going=False``
        the first exhausted run stops new groups from being scheduled
        and the sweep raises :exc:`~repro.errors.CampaignError` once
        in-flight work settles.
        """
        jobs = list(jobs)
        self._abort.clear()
        groups = sibling_groups(jobs)

        def guarded(indices: List[int]) -> List[RunRecord]:
            if self._abort.is_set():
                return []
            records = self.run_group(
                [(index, jobs[index]) for index in indices]
            )
            for record in records:
                self._journal(record)
                if record.status != STATUS_OK and not self.keep_going:
                    self._abort.set()
            return records

        try:
            if self.jobs <= 1 or len(groups) <= 1:
                done = [guarded(indices) for indices in groups]
            else:
                with ThreadPoolExecutor(max_workers=self.jobs) as pool:
                    done = list(pool.map(guarded, groups))
        finally:
            self.close()
        slots: List[Optional[RunRecord]] = [None] * len(jobs)
        for indices, records in zip(groups, done):
            for index, record in zip(indices, records):
                slots[index] = record
        report = CampaignReport(
            records=[record for record in slots if record is not None]
        )
        if self.collect_metrics:
            write_summary(self.campaign)
        if not self.keep_going and not report.all_ok:
            bad = [r for r in report.records if r.status != STATUS_OK]
            skipped = len(jobs) - len(report.records)
            raise CampaignError(
                f"{len(bad)} run(s) did not complete "
                f"({skipped} never scheduled); first: "
                f"{bad[0].run_id}: {bad[0].status}: {bad[0].error}"
            )
        return report


def write_summary(campaign: Campaign, fabric: Optional[Dict] = None) -> None:
    """Aggregate every stored RunReport into ``metrics/summary.json``.

    ``fabric`` is a spool fleet's counter totals (see
    :func:`repro.sim.workqueue.run_fleet`).  Per-run reports are
    advisory, so one that fails schema validation (a truncated write, a
    foreign document) is skipped rather than sinking the whole summary.
    """
    from .telemetry import RunReport, aggregate_reports

    reports = []
    for payload in campaign.load_reports():
        try:
            reports.append(RunReport.from_dict(payload))
        except CorruptResultError:
            continue
    if reports:
        try:
            campaign.save_summary(
                aggregate_reports(reports, fabric=fabric)
            )
        except OSError:
            pass  # advisory, like the per-run documents
