"""Simulation campaigns: persist and reload run results, crash-safely.

The paper's workflow stored an "18KB raw data file" of up to ~400
statistics per simulation, from which "a custom program reads in the raw
data files and generates the graphs and tables".  A
:class:`Campaign` reproduces that separation here: simulation results
land on disk as JSON, keyed by a deterministic run id derived from the
configuration and trace, so analysis can be re-run — or extended —
without re-simulating, and interrupted sweeps resume where they stopped.

Long sweeps fail in ways short ones never show, so persistence is
defensive throughout:

* every write goes through :func:`atomic_write_text` — write to a
  temporary file in the same directory, fsync, then ``os.replace`` — so
  a crash mid-save never leaves a partial ``*.json`` visible; the one
  exception is the manifest journal's :func:`append_journal_line`, whose
  only possible damage is a torn final line its reader sets aside;
* payloads carry a schema version and a SHA-256 checksum of the
  canonicalized statistics, so bitrot, truncation and foreign files are
  detected on load (:exc:`~repro.errors.CorruptResultError`) rather than
  surfacing as :exc:`json.JSONDecodeError` or :exc:`KeyError`;
* corrupt files are *quarantined* (moved to ``<dir>/quarantine/``) and
  re-simulated instead of poisoning or aborting the campaign
  (:meth:`Campaign.results`, :meth:`Campaign.fsck`, and the executor of
  :mod:`repro.sim.resilience`, which re-simulates what it quarantines).

The orchestration side — worker isolation, timeouts, retries, the
campaign manifest — lives in :mod:`repro.sim.resilience`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

from ..errors import ConfigurationError, CorruptResultError
from ..trace.record import Trace
from .config import SystemConfig
from .statistics import BufferCounters, CacheCounters, SimStats

#: Version of the on-disk result payload.  Version 1 (the original
#: ``{"run_id", "stats"}`` shape) is still readable; version 2 adds the
#: ``schema`` and ``checksum`` fields.  Readers tolerate *newer*
#: versions as long as the checksum validates and the known statistics
#: fields are present.
SCHEMA_VERSION = 2

#: Name of the per-campaign status journal (see
#: :class:`repro.sim.resilience.CampaignManifest`).  Excluded from the
#: result-file namespace.
MANIFEST_NAME = "manifest.json"

#: Subdirectory corrupt result files are moved into.
QUARANTINE_DIRNAME = "quarantine"

#: Subdirectory per-run :class:`~repro.sim.telemetry.RunReport` metrics
#: documents are stored in, next to (not mixed with) the result files.
METRICS_DIRNAME = "metrics"

#: File name of the sweep-level aggregation inside ``metrics/``.
SUMMARY_NAME = "summary.json"

#: Subdirectory holding the durable work-queue spool (jobs, leases,
#: done and poison records; see :mod:`repro.sim.workqueue`).
SPOOL_DIRNAME = "spool"

#: Prefix of the temporary files :func:`atomic_write_text` stages writes
#: in.  They never match the ``*.json`` result glob; ``fsck`` sweeps any
#: that a hard crash left behind.
_TMP_PREFIX = ".tmp."


def atomic_write_text(path: Union[str, Path], text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + rename).

    The temporary file lives in the target directory so the final
    ``os.replace`` is a same-filesystem rename — the file either exists
    with its complete contents or not at all, even across a crash or
    power loss mid-write.  Data is fsynced before the rename; the
    directory entry is fsynced best-effort after it.
    """
    path = Path(path)
    tmp = path.parent / f"{_TMP_PREFIX}{path.name}.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise
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


def _no_create(path: str, flags: int) -> int:
    return os.open(path, flags & ~os.O_CREAT)


def append_journal_line(path: Union[str, Path], line: str) -> None:
    """Append ``line`` and a newline to the existing file ``path``.

    The one raw write besides the two atomic primitives, for append-only
    journals.  Its contract is weaker, and readers rely on exactly this
    much: every byte before the file's last newline is complete, and a
    crash mid-append can leave only a *torn tail* — a final line with no
    newline.  A reader sets that tail aside and rewrites the journal
    with :func:`atomic_write_text` before anything appends again.  The
    line is one ``write`` in append mode, fsynced before returning.
    The file is never created here (:exc:`FileNotFoundError`), so a
    journal always starts with the header its creator wrote atomically.
    """
    with open(path, "ab", opener=_no_create) as handle:
        handle.write(line.encode("utf-8") + b"\n")
        handle.flush()
        os.fsync(handle.fileno())


#: Signature of the writer hook :class:`Campaign` persists through.
#: Injectable so the fault harness can simulate ENOSPC and kill-9.
WriterFn = Callable[[Path, str], None]


def _fingerprint(value: object) -> str:
    """Stable hash of every parameter in a configuration value: a
    :class:`SystemConfig`, or any nesting of dataclasses, enums and
    lists."""

    def encode(value):
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            return {
                f.name: encode(getattr(value, f.name))
                for f in dataclasses.fields(value)
            }
        if isinstance(value, (list, tuple)):
            return [encode(v) for v in value]
        if hasattr(value, "value"):  # enums
            return value.value
        return value

    payload = json.dumps(encode(value), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _trace_fingerprint(trace: Trace) -> str:
    return trace.content_fingerprint()


def run_id(config: SystemConfig, trace: Trace) -> str:
    """Deterministic identifier of one (configuration, trace) run."""
    return f"{trace.name}-{_trace_fingerprint(trace)}-" \
           f"{_fingerprint(config)}"


def stats_to_dict(stats: SimStats) -> Dict:
    """Serialize a :class:`SimStats` to plain JSON-able data."""
    return dataclasses.asdict(stats)


def _known_fields(
    cls,
    payload: Dict,
    unknown: Optional[List[str]] = None,
    context: str = "",
) -> Dict:
    """Drop keys a newer schema may have added before rebuilding ``cls``.

    Dropped keys are *recorded*, not swallowed: when ``unknown`` is a
    list, each dropped key is appended to it as ``"context.key"`` (or
    bare ``"key"`` without a context) so callers — most importantly
    :meth:`Campaign.fsck` — can report schema drift instead of masking
    it.
    """
    names = {f.name for f in dataclasses.fields(cls)}
    if unknown is not None:
        prefix = f"{context}." if context else ""
        unknown.extend(
            f"{prefix}{k}" for k in sorted(payload) if k not in names
        )
    return {k: v for k, v in payload.items() if k in names}


def stats_from_dict(
    payload: Dict, unknown: Optional[List[str]] = None
) -> SimStats:
    """Inverse of :func:`stats_to_dict`.

    Tolerates unknown keys written by newer schema versions; pass a list
    as ``unknown`` to collect their dotted names (``"icache.foo"``) for
    reporting.  A payload missing required fields or with wrongly-shaped
    values raises :exc:`~repro.errors.CorruptResultError` rather than a
    bare :exc:`KeyError`/:exc:`TypeError`.
    """
    if not isinstance(payload, dict):
        raise CorruptResultError(
            f"stats payload is {type(payload).__name__}, expected object"
        )
    try:
        payload = dict(payload)
        payload["icache"] = CacheCounters(
            **_known_fields(
                CacheCounters, payload["icache"], unknown, "icache"
            )
        )
        payload["dcache"] = CacheCounters(
            **_known_fields(
                CacheCounters, payload["dcache"], unknown, "dcache"
            )
        )
        payload["lower"] = (
            CacheCounters(
                **_known_fields(
                    CacheCounters, payload["lower"], unknown, "lower"
                )
            )
            if payload.get("lower")
            else None
        )
        payload["buffer"] = BufferCounters(
            **_known_fields(
                BufferCounters, payload["buffer"], unknown, "buffer"
            )
        )
        return SimStats(**_known_fields(SimStats, payload, unknown))
    except (KeyError, TypeError, AttributeError) as exc:
        raise CorruptResultError(
            f"stats payload is malformed: {exc!r}"
        ) from exc


def payload_checksum(stats_payload: Dict) -> str:
    """SHA-256 over the canonical JSON encoding of a stats payload."""
    canonical = json.dumps(
        stats_payload, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


@dataclasses.dataclass
class FsckReport:
    """Outcome of :meth:`Campaign.fsck`."""

    ok: List[str]
    corrupt: List[Tuple[Path, str]]
    quarantined: List[Path]
    stray_tmp: List[Path]
    #: ``(file name, dotted field name)`` pairs for every payload key a
    #: stored result carried that the current schema does not know.
    #: Schema drift, not corruption: the file still validates and loads,
    #: but silently dropping the keys would mask a version skew between
    #: writer and reader.
    unknown_fields: List[Tuple[str, str]] = dataclasses.field(
        default_factory=list
    )
    #: Spool lease files whose owner is provably dead, whose job is
    #: already done/poisoned, or that fail validation — debris a killed
    #: worker left behind (cleaned by ``fsck --repair``; a pending
    #: job's stale lease is archived as a loss so epochs stay
    #: monotonic).
    stale_leases: List[Path] = dataclasses.field(default_factory=list)

    @property
    def clean(self) -> bool:
        return (
            not self.corrupt
            and not self.stray_tmp
            and not self.stale_leases
        )

    def render(self) -> str:
        lines = [
            f"{len(self.ok)} result(s) ok, {len(self.corrupt)} corrupt, "
            f"{len(self.stray_tmp)} stray temp file(s), "
            f"{len(self.stale_leases)} stale lease(s)"
        ]
        for path, reason in self.corrupt:
            lines.append(f"  corrupt: {path.name}: {reason}")
        for path in self.quarantined:
            lines.append(f"  quarantined -> {path}")
        for path in self.stray_tmp:
            lines.append(f"  stray temp: {path.name}")
        for path in self.stale_leases:
            lines.append(f"  stale lease: {path.name}")
        if self.unknown_fields:
            lines.append(
                f"{len(self.unknown_fields)} unknown field(s) from a "
                f"newer or foreign schema:"
            )
            for name, field in self.unknown_fields:
                lines.append(f"  unknown field: {name}: {field}")
        return "\n".join(lines)


class Campaign:
    """A directory of persisted simulation results.

    :meth:`save` persists a run's statistics under its :func:`run_id`;
    :meth:`verify` and :meth:`load` validate a stored file, and
    :meth:`quarantine` moves one that fails validation aside.  Serving
    a stored run, or simulating, saving and verifying a missing one, is
    the campaign executor's job
    (:class:`~repro.sim.resilience.CampaignExecutor`).

    ``writer`` overrides the persistence primitive (default
    :func:`atomic_write_text`); the fault-injection harness uses this to
    simulate ENOSPC and kill-9 during saves.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        writer: Optional[WriterFn] = None,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._writer: WriterFn = writer or atomic_write_text

    def _path(self, identifier: str) -> Path:
        return self.directory / f"{identifier}.json"

    @property
    def quarantine_dir(self) -> Path:
        return self.directory / QUARANTINE_DIRNAME

    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    @property
    def metrics_dir(self) -> Path:
        return self.directory / METRICS_DIRNAME

    @property
    def summary_path(self) -> Path:
        return self.metrics_dir / SUMMARY_NAME

    @property
    def spool_dir(self) -> Path:
        return self.directory / SPOOL_DIRNAME

    def _result_paths(self) -> Iterator[Path]:
        for path in sorted(self.directory.glob("*.json")):
            if path.name != MANIFEST_NAME:
                yield path

    def __contains__(self, identifier: str) -> bool:
        return self._path(identifier).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self._result_paths())

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, identifier: str, stats: SimStats) -> None:
        """Persist one result atomically, with schema and checksum."""
        stats_payload = stats_to_dict(stats)
        payload = {
            "schema": SCHEMA_VERSION,
            "run_id": identifier,
            "checksum": payload_checksum(stats_payload),
            "stats": stats_payload,
        }
        self._writer(self._path(identifier), json.dumps(payload, indent=1))

    # ------------------------------------------------------------------
    # Run metrics (telemetry RunReports; see repro.sim.telemetry)
    # ------------------------------------------------------------------
    def save_report(self, report_payload: Dict) -> None:
        """Persist one run's :class:`RunReport` document under
        ``metrics/``.  Metrics are advisory — they share the atomic
        writer but not the checksum machinery of result files."""
        identifier = report_payload.get("run_id") or "unknown"
        self.metrics_dir.mkdir(parents=True, exist_ok=True)
        self._writer(
            self.metrics_dir / f"{identifier}.json",
            json.dumps(report_payload, indent=1),
        )

    def save_summary(self, summary: Dict) -> None:
        """Persist the sweep-level aggregation as ``metrics/summary.json``."""
        self.metrics_dir.mkdir(parents=True, exist_ok=True)
        self._writer(self.summary_path, json.dumps(summary, indent=1))

    def load_summary(self) -> Dict:
        """The stored ``metrics/summary.json``, or ``{}`` when there is
        none or it does not read (it is advisory, like the reports)."""
        try:
            payload = json.loads(self.summary_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return {}
        return payload if isinstance(payload, dict) else {}

    def load_reports(self) -> List[Dict]:
        """Every stored per-run metrics document, sorted by run id.

        Unreadable metrics files are skipped — a sweep post-mortem must
        not be blocked by one bad advisory document."""
        if not self.metrics_dir.is_dir():
            return []
        reports = []
        for path in sorted(self.metrics_dir.glob("*.json")):
            if path.name == SUMMARY_NAME:
                continue
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                continue
            if isinstance(payload, dict):
                reports.append(payload)
        return reports

    def _read_payload(self, path: Path) -> Dict:
        """Read and validate one result file; raise on any corruption."""
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise CorruptResultError(
                f"{path.name}: unreadable: {exc}", path=path
            ) from exc
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise CorruptResultError(
                f"{path.name}: malformed JSON: {exc}", path=path
            ) from exc
        if not isinstance(payload, dict) or "stats" not in payload:
            raise CorruptResultError(
                f"{path.name}: missing 'stats' payload", path=path
            )
        schema = payload.get("schema", 1)
        if not isinstance(schema, int) or schema < 1:
            raise CorruptResultError(
                f"{path.name}: bad schema marker {schema!r}", path=path
            )
        if schema >= 2 or "checksum" in payload:
            stored = payload.get("checksum")
            actual = payload_checksum(payload["stats"])
            if stored != actual:
                raise CorruptResultError(
                    f"{path.name}: checksum mismatch "
                    f"(stored {str(stored)[:12]}…, computed {actual[:12]}…)",
                    path=path,
                )
        return payload

    def load(self, identifier: str) -> SimStats:
        """Load one stored result, validating checksum and shape."""
        path = self._path(identifier)
        if not path.exists():
            raise ConfigurationError(f"no stored run {identifier!r}")
        payload = self._read_payload(path)
        stored_id = payload.get("run_id")
        if stored_id is not None and stored_id != identifier:
            raise CorruptResultError(
                f"{path.name}: run id mismatch "
                f"(stored {stored_id!r}, expected {identifier!r})",
                path=path,
            )
        try:
            return stats_from_dict(payload["stats"])
        except CorruptResultError as exc:
            raise CorruptResultError(
                f"{path.name}: {exc}", path=path
            ) from exc

    def verify(self, identifier: str) -> None:
        """Validate one stored result without returning it.

        Raises :exc:`~repro.errors.CorruptResultError` on corruption and
        :exc:`~repro.errors.ConfigurationError` when the run is absent.
        """
        self.load(identifier)

    def quarantine(self, identifier_or_path: Union[str, Path]) -> Path:
        """Move a corrupt file into ``quarantine/``; return its new home."""
        path = (
            identifier_or_path
            if isinstance(identifier_or_path, Path)
            else self._path(identifier_or_path)
        )
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        target = self.quarantine_dir / path.name
        serial = 0
        while target.exists():
            serial += 1
            target = self.quarantine_dir / f"{path.name}.{serial}"
        os.replace(path, target)
        return target

    def results(self, on_corrupt: str = "quarantine") -> Iterator[SimStats]:
        """Iterate every stored result (sorted by run id).

        ``on_corrupt`` selects the degradation policy for bad files:
        ``"quarantine"`` (default) moves them aside and continues,
        ``"skip"`` leaves them in place and continues, ``"raise"``
        propagates :exc:`~repro.errors.CorruptResultError`.
        """
        if on_corrupt not in ("quarantine", "skip", "raise"):
            raise ConfigurationError(
                f"on_corrupt must be quarantine|skip|raise, "
                f"got {on_corrupt!r}"
            )
        for path in list(self._result_paths()):
            try:
                yield stats_from_dict(self._read_payload(path)["stats"])
            except CorruptResultError:
                if on_corrupt == "raise":
                    raise
                if on_corrupt == "quarantine":
                    self.quarantine(path)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def fsck(self, repair: bool = False) -> FsckReport:
        """Validate every stored result's checksum and payload shape.

        With ``repair=True``, corrupt files are quarantined, stray temp
        files (left by a crash between write and rename) deleted, and
        stale spool leases (left by killed workers) cleaned; otherwise
        they are only reported.  When the campaign has a work-queue
        spool, its state is checked too: orphaned ``.tmp.*`` staging
        files anywhere under the spool, plus lease files whose owner is
        dead or whose job already finished.
        """
        ok: List[str] = []
        corrupt: List[Tuple[Path, str]] = []
        quarantined: List[Path] = []
        unknown_fields: List[Tuple[str, str]] = []
        for path in list(self._result_paths()):
            try:
                payload = self._read_payload(path)
                dropped: List[str] = []
                stats_from_dict(payload["stats"], unknown=dropped)
                unknown_fields.extend((path.name, f) for f in dropped)
                stored_id = payload.get("run_id")
                if stored_id is not None and f"{stored_id}.json" != path.name:
                    raise CorruptResultError(
                        f"{path.name}: run id {stored_id!r} does not match "
                        f"file name",
                        path=path,
                    )
                ok.append(path.stem)
            except CorruptResultError as exc:
                corrupt.append((path, str(exc)))
                if repair:
                    quarantined.append(self.quarantine(path))
        stray = sorted(self.directory.glob(f"{_TMP_PREFIX}*"))
        if repair:
            for path in stray:
                with contextlib.suppress(OSError):
                    path.unlink()
        stale_leases: List[Path] = []
        if self.spool_dir.is_dir():
            # Imported lazily: workqueue builds on this module.
            from .workqueue import WorkQueue

            spool_stray, stale_leases = WorkQueue(self.spool_dir).fsck(
                repair=repair
            )
            stray = stray + spool_stray
        return FsckReport(
            ok=ok, corrupt=corrupt, quarantined=quarantined,
            stray_tmp=stray, unknown_fields=unknown_fields,
            stale_leases=stale_leases,
        )
