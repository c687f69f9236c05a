"""Persistent, content-addressed cache of functional-pass results.

The paper amortized its design-space exploration by compiling one
simulator per *organization* and farming the runs out to 10–20
workstations; this repository's equivalent split is the fastpath's
one-functional-pass/many-timing-replays structure
(:mod:`repro.sim.fastpath`).  Until now that amortization stopped at
process exit: every CLI invocation, experiment and campaign re-ran the
expensive functional passes from scratch.  :class:`PassCache` extends it
*across* runs — the direct analogue of a training stack's
preprocessed-shard cache.

Design:

* **Content-addressed keys.**  An entry is keyed by what
  :func:`repro.sim.stackpass.pass_key` says a functional pass depends
  on — the trace content fingerprint
  (:meth:`repro.trace.record.Trace.content_fingerprint`, which covers
  the warm boundary), the I/D geometry, the cache policy and the
  replacement seed (:func:`cache_key`).  Any change to those is a new
  key; temporal parameters (cycle time, memory timing, write-buffer
  depth) and the trace's name do not affect the event stream, so
  timing siblings share one entry and :meth:`PassCache.get` relabels
  the stream with each caller's trace name and configuration.
* **Compact encoding.**  The nine per-event buffers travel as
  ``array('q')`` in memory (:data:`repro.sim.fastpath.EVENT_FIELDS`)
  and are serialized as base64 of their little-endian 8-byte raw form,
  so a cached pass costs 8 bytes per event per buffer instead of a
  boxed-int list, on disk and across pickles alike.
* **Crash safety.**  Writes go through
  :func:`repro.sim.campaign.atomic_write_text` (enforced statically by
  reprolint REPRO003) and every payload carries a schema version and a
  SHA-256 checksum (:func:`stream_checksum`, over the decoded event
  buffers, so a read decodes each buffer once and re-encodes none).  A
  truncated, bit-flipped or foreign file is *quarantined* and treated
  as a miss — a corrupt cache degrades to extra simulation, never to a
  crash or a silently wrong replay.  A schema-version mismatch is a
  clean miss (the entry is simply overwritten on the next put).
* **Bounded growth.**  :meth:`PassCache.gc` evicts least-recently
  modified entries down to ``max_entries``/``max_bytes`` budgets;
  :meth:`PassCache.verify` is the fsck analogue.  The CLI exposes both
  (``repro-sim cache stats|gc|verify``).

Hit/miss/byte counters accumulate on :attr:`PassCache.counters`.  A
layer that runs work against a cache for a caller with a
:class:`~repro.sim.telemetry.MetricsRegistry` publishes the counters'
delta over that work as ``passcache.*`` (:func:`cache_metrics`), so a
sweep's metrics show what the cache saved.
"""

from __future__ import annotations

import base64
import binascii
import dataclasses
import hashlib
import json
import os
import sys
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from ..errors import CorruptResultError
from ..trace.record import Trace
from .campaign import (
    WriterFn,
    _fingerprint,
    _known_fields,
    atomic_write_text,
)
from .config import SystemConfig
from .fastpath import EVENT_FIELDS, EventStream, fast_simulate
from .stackpass import pass_key
from .statistics import CacheCounters, SimStats

if TYPE_CHECKING:  # pragma: no cover — import cycle guard
    from .telemetry import MetricsRegistry

#: Version of the on-disk pass-cache payload.  Readers treat any other
#: version as a clean miss (never an error): old entries are simply
#: re-simulated and overwritten.  Tracked by reprolint REPRO008 via
#: ``lint/schema_fingerprints.json`` — changing the serialized field
#: set of :func:`stream_to_dict` without bumping this constant fails CI.
#: Version 2 checksums the decoded buffers (:func:`stream_checksum`);
#: version 1 checksummed the canonical JSON of the whole document.
PASSCACHE_SCHEMA = 2

#: Subdirectory corrupt cache entries are moved into.
QUARANTINE_DIRNAME = "quarantine"

#: Staging prefix of the atomic writer; never matches the entry glob.
_TMP_PREFIX = ".tmp."

#: Scalar (non-buffer, non-counter) EventStream fields, serialized
#: verbatim.
_SCALAR_FIELDS = (
    "trace_name", "config_summary", "i_block_words", "d_block_words",
    "n_couplets", "n_couplets_measured", "n_refs_measured",
    "warm_event_index", "warm_base_offset", "end_base",
)


def _encode_array(values) -> str:
    """Base64 of the little-endian 8-byte raw form of an int sequence."""
    buf = values if isinstance(values, array) and values.typecode == "q" \
        else array("q", values)
    if sys.byteorder == "big":  # pragma: no cover — no LE host divergence
        buf = array("q", buf)
        buf.byteswap()
    return base64.b64encode(buf.tobytes()).decode("ascii")


def _decode_raw(text, field: str) -> bytes:
    """Inverse of :func:`_encode_array`, as raw little-endian bytes;
    raises on malformed input."""
    if not isinstance(text, str):
        raise CorruptResultError(
            f"event buffer {field!r} is {type(text).__name__}, "
            f"expected base64 string"
        )
    try:
        raw = base64.b64decode(text.encode("ascii"), validate=True)
    except (binascii.Error, ValueError, UnicodeEncodeError) as exc:
        raise CorruptResultError(
            f"event buffer {field!r} is not valid base64: {exc}"
        ) from exc
    if len(raw) % 8:
        raise CorruptResultError(
            f"event buffer {field!r} has {len(raw)} bytes, "
            f"not a multiple of 8"
        )
    return raw


def _array_from_raw(raw: bytes) -> array:
    buf = array("q")
    buf.frombytes(raw)
    if sys.byteorder == "big":  # pragma: no cover — no LE host divergence
        buf.byteswap()
    return buf


def stream_checksum(doc: Dict, raw: Dict[str, bytes]) -> str:
    """SHA-256 of a :func:`stream_to_dict` document.

    Hashes the canonical JSON of the document's non-buffer fields, then
    each event buffer's name, byte length and raw little-endian bytes
    (``raw``, by field) in :data:`~repro.sim.fastpath.EVENT_FIELDS`
    order.  :meth:`PassCache.put`, :meth:`PassCache.get` and
    :meth:`PassCache.verify` share this one definition, so a read
    base64-decodes each buffer once and never re-serializes it.
    """
    h = hashlib.sha256(json.dumps(
        {k: v for k, v in doc.items() if k not in EVENT_FIELDS},
        sort_keys=True, separators=(",", ":"),
    ).encode())
    for field in EVENT_FIELDS:
        data = raw[field]
        h.update(field.encode())
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()


def stream_to_dict(stream: EventStream) -> Dict:
    """Serialize an :class:`EventStream` to plain JSON-able data.

    The key set of this document is the pass cache's schema surface:
    reprolint REPRO008 fingerprints it against
    :data:`PASSCACHE_SCHEMA`.
    """
    doc = {
        "trace_name": stream.trace_name,
        "config_summary": stream.config_summary,
        "i_block_words": stream.i_block_words,
        "d_block_words": stream.d_block_words,
        "n_couplets": stream.n_couplets,
        "n_couplets_measured": stream.n_couplets_measured,
        "n_refs_measured": stream.n_refs_measured,
        "warm_event_index": stream.warm_event_index,
        "warm_base_offset": stream.warm_base_offset,
        "end_base": stream.end_base,
        "n_events": stream.n_events,
        "ev_gap": _encode_array(stream.ev_gap),
        "ev_imiss": _encode_array(stream.ev_imiss),
        "ev_iaddr": _encode_array(stream.ev_iaddr),
        "ev_ipid": _encode_array(stream.ev_ipid),
        "ev_dtype": _encode_array(stream.ev_dtype),
        "ev_daddr": _encode_array(stream.ev_daddr),
        "ev_dpid": _encode_array(stream.ev_dpid),
        "ev_vaddr": _encode_array(stream.ev_vaddr),
        "ev_vpid": _encode_array(stream.ev_vpid),
        "icache": dataclasses.asdict(stream.icache),
        "dcache": dataclasses.asdict(stream.dcache),
    }
    return doc


def _raw_buffers(payload) -> Dict[str, bytes]:
    """Each event buffer of a stream document, decoded to raw bytes."""
    if not isinstance(payload, dict):
        raise CorruptResultError(
            f"stream payload is {type(payload).__name__}, expected object"
        )
    raw: Dict[str, bytes] = {}
    for field in EVENT_FIELDS:
        if field not in payload:
            raise CorruptResultError(f"stream payload missing {field!r}")
        raw[field] = _decode_raw(payload[field], field)
    return raw


def _build_stream(payload: Dict, raw: Dict[str, bytes]) -> EventStream:
    """The stream of a document whose buffers :func:`_raw_buffers`
    decoded; raises on a ragged buffer or a malformed field."""
    buffers = {field: _array_from_raw(data) for field, data in raw.items()}
    n_events = payload.get("n_events")
    lengths = {field: len(buf) for field, buf in buffers.items()}
    if len(set(lengths.values())) != 1 or (
        isinstance(n_events, int) and lengths["ev_gap"] != n_events
    ):
        raise CorruptResultError(
            f"event buffers are ragged or truncated: {lengths} "
            f"vs n_events={n_events!r}"
        )
    try:
        scalars = {name: payload[name] for name in _SCALAR_FIELDS}
        icache = CacheCounters(
            **_known_fields(CacheCounters, payload["icache"])
        )
        dcache = CacheCounters(
            **_known_fields(CacheCounters, payload["dcache"])
        )
        stream = EventStream(
            icache=icache, dcache=dcache, **scalars, **buffers
        )
    except (KeyError, TypeError, AttributeError) as exc:
        raise CorruptResultError(
            f"stream payload is malformed: {exc!r}"
        ) from exc
    for name in _SCALAR_FIELDS[2:]:  # every scalar past the two labels
        if not isinstance(getattr(stream, name), int):
            raise CorruptResultError(
                f"stream field {name!r} is not an integer"
            )
    return stream


def cache_key(config: SystemConfig, trace: Trace, seed: int = 0) -> str:
    """Deterministic identifier of one functional pass.

    Names exactly what :func:`~repro.sim.stackpass.pass_key` says a pass
    depends on: the trace contents (warm boundary included), the I/D
    geometry, the cache policy and the replacement seed.  Timing
    siblings — another cycle time, memory timing or write-buffer depth,
    or another trace name over the same contents — share one entry,
    which :meth:`PassCache.get` relabels for each caller.
    """
    content, *organization, seed = pass_key(config, trace, seed)
    return f"{content}-{_fingerprint(organization)}-s{seed}"


@dataclasses.dataclass
class PassCacheCounters:
    """In-process accounting of one :class:`PassCache`'s activity."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    corrupt: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class PassCacheReport:
    """Outcome of :meth:`PassCache.verify` (the cache's fsck)."""

    ok: List[str]
    corrupt: List[Tuple[Path, str]]
    stray_tmp: List[Path]
    quarantined: List[Path] = dataclasses.field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.corrupt and not self.stray_tmp

    def render(self) -> str:
        lines = [
            f"{len(self.ok)} entr{'y' if len(self.ok) == 1 else 'ies'} "
            f"ok, {len(self.corrupt)} corrupt, "
            f"{len(self.stray_tmp)} stray temp file(s)"
        ]
        for path, reason in self.corrupt:
            lines.append(f"  corrupt: {path.name}: {reason}")
        for path in self.quarantined:
            lines.append(f"  quarantined -> {path}")
        for path in self.stray_tmp:
            lines.append(f"  stray temp: {path.name}")
        return "\n".join(lines)


class PassCache:
    """An on-disk, content-addressed store of :class:`EventStream`\\ s.

    ``cache.get(config, trace, seed)`` returns the stored stream, with
    the caller's trace name and configuration summary, when the key is
    on disk and validates, ``None`` otherwise; ``put`` persists one,
    once for a whole group of timing siblings.  Corrupt entries are
    quarantined and read as misses; schema mismatches miss cleanly.
    Callers do not pair the two by hand:
    :func:`repro.core.sweep.run_functional_passes` with ``cache=`` loads
    the hits, runs the misses as per-organization passes and persists
    them.

    ``writer`` overrides the persistence primitive (default
    :func:`~repro.sim.campaign.atomic_write_text`) so the fault harness
    can inject ENOSPC and kill-9 during saves, exactly as with
    :class:`~repro.sim.campaign.Campaign`.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        writer: Optional[WriterFn] = None,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._writer: WriterFn = writer or atomic_write_text
        self.counters = PassCacheCounters()

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    @property
    def quarantine_dir(self) -> Path:
        return self.directory / QUARANTINE_DIRNAME

    def _entry_paths(self) -> Iterator[Path]:
        yield from sorted(self.directory.glob("*.json"))

    def __len__(self) -> int:
        return sum(1 for _ in self._entry_paths())

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    # ------------------------------------------------------------------
    # Core protocol
    # ------------------------------------------------------------------
    def put(
        self,
        config: SystemConfig,
        trace: Trace,
        seed: int,
        stream: EventStream,
    ) -> str:
        """Persist one functional pass atomically; return its key."""
        key = cache_key(config, trace, seed)
        stream_doc = stream_to_dict(stream)
        payload = {
            "schema": PASSCACHE_SCHEMA,
            "key": key,
            "checksum": stream_checksum(
                stream_doc, _raw_buffers(stream_doc)
            ),
            "stream": stream_doc,
        }
        text = json.dumps(payload, separators=(",", ":"))
        self._writer(self._path(key), text)
        self.counters.puts += 1
        self.counters.bytes_written += len(text)
        return key

    def get(
        self, config: SystemConfig, trace: Trace, seed: int = 0
    ) -> Optional[EventStream]:
        """The stored stream for this pass, or ``None`` on a miss.

        Corruption (truncation, checksum mismatch, malformed payload)
        quarantines the file and reports a miss; a schema-version
        mismatch is a plain miss.  This method never raises for a bad
        entry and never returns a stream that failed validation.
        """
        path = self._path(cache_key(config, trace, seed))
        if not path.exists():
            self.counters.misses += 1
            return None
        try:
            stream, n_bytes = self._read_entry(path)
        except CorruptResultError:
            self.counters.corrupt += 1
            self.counters.misses += 1
            self._quarantine(path)
            return None
        if stream is None:  # schema mismatch: clean miss
            self.counters.misses += 1
            return None
        self.counters.hits += 1
        self.counters.bytes_read += n_bytes
        return dataclasses.replace(
            stream, trace_name=trace.name, config_summary=config.describe(),
        )

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _read_entry(self, path: Path) -> Tuple[Optional[EventStream], int]:
        """(validated stream, byte count); ``(None, n)`` on a schema
        mismatch; raises :exc:`CorruptResultError` on corruption."""
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
        if not isinstance(payload, dict) or "stream" not in payload:
            raise CorruptResultError(
                f"{path.name}: missing 'stream' payload", path=path
            )
        if payload.get("schema") != PASSCACHE_SCHEMA:
            return None, len(raw)
        expected_key = path.name[: -len(".json")]
        stored_key = payload.get("key")
        if stored_key != expected_key:
            raise CorruptResultError(
                f"{path.name}: key mismatch (stored {stored_key!r})",
                path=path,
            )
        stream_doc = payload["stream"]
        buffers = _raw_buffers(stream_doc)
        stored = payload.get("checksum")
        actual = stream_checksum(stream_doc, buffers)
        if stored != actual:
            raise CorruptResultError(
                f"{path.name}: checksum mismatch "
                f"(stored {str(stored)[:12]}…, computed {actual[:12]}…)",
                path=path,
            )
        return _build_stream(stream_doc, buffers), len(raw)

    def _quarantine(self, path: Path) -> Path:
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        target = self.quarantine_dir / path.name
        serial = 0
        while target.exists():
            serial += 1
            target = self.quarantine_dir / f"{path.name}.{serial}"
        os.replace(path, target)
        return target

    def verify(self, repair: bool = False) -> PassCacheReport:
        """Validate every entry's checksum and payload shape.

        With ``repair=True`` corrupt entries are quarantined and stray
        temp files deleted; otherwise they are only reported.  A
        schema-version mismatch counts as ``ok`` — such entries are
        valid files that will miss cleanly and be overwritten.
        """
        ok: List[str] = []
        corrupt: List[Tuple[Path, str]] = []
        quarantined: List[Path] = []
        for path in list(self._entry_paths()):
            try:
                self._read_entry(path)
                ok.append(path.stem)
            except CorruptResultError as exc:
                corrupt.append((path, str(exc)))
                if repair:
                    quarantined.append(self._quarantine(path))
        stray = sorted(self.directory.glob(f"{_TMP_PREFIX}*"))
        if repair:
            for path in stray:
                try:
                    path.unlink()
                except OSError:
                    continue  # best-effort: reported below regardless
        return PassCacheReport(
            ok=ok, corrupt=corrupt, stray_tmp=stray,
            quarantined=quarantined,
        )

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def disk_stats(self) -> Dict[str, int]:
        """On-disk footprint: entry count, total bytes, quarantined."""
        entries = list(self._entry_paths())
        total = 0
        for path in entries:
            try:
                total += path.stat().st_size
            except OSError:
                continue  # raced with a concurrent gc/quarantine
        quarantined = (
            len(list(self.quarantine_dir.glob("*.json*")))
            if self.quarantine_dir.is_dir() else 0
        )
        return {
            "entries": len(entries),
            "bytes": total,
            "quarantined": quarantined,
        }

    def gc(
        self,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> List[Path]:
        """Evict least-recently-modified entries to fit the budgets.

        ``None`` leaves that budget unbounded; ``gc()`` with neither is
        a no-op.  Returns the evicted paths.  Eviction order is oldest
        mtime first (name as a deterministic tie-break), so the entries
        a recent sweep just wrote or refreshed survive.
        """
        entries = []
        for path in self._entry_paths():
            try:
                stat = path.stat()
            except OSError:
                continue  # deleted underneath us: nothing to evict
            entries.append((stat.st_mtime_ns, path.name, path, stat.st_size))
        entries.sort()
        count = len(entries)
        total = sum(size for _, _, _, size in entries)
        removed: List[Path] = []
        for _mtime, _name, path, size in entries:
            over_count = max_entries is not None and count > max_entries
            over_bytes = max_bytes is not None and total > max_bytes
            if not over_count and not over_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue  # already gone: budget math unaffected below
            count -= 1
            total -= size
            removed.append(path)
        return removed


@contextmanager
def cache_metrics(
    cache: Optional[PassCache], registry: Optional["MetricsRegistry"]
) -> Iterator[None]:
    """Count ``cache``'s activity inside the block into ``registry``.

    The delta of :attr:`PassCache.counters` over the block lands as
    ``passcache.*`` counters (zeros skipped), so callers sharing one
    cache each count exactly their own work.  A no-op without a cache
    or a registry.
    """
    if cache is None or registry is None:
        yield
        return
    before = cache.counters.as_dict()
    try:
        yield
    finally:
        registry.count_many("passcache", {
            name: value - before[name]
            for name, value in cache.counters.as_dict().items()
        })


def cached_fast_simulate(
    config: SystemConfig,
    trace: Trace,
    cache: PassCache,
    seed: int = 0,
    telemetry=None,
    registry: Optional["MetricsRegistry"] = None,
) -> SimStats:
    """:func:`repro.sim.fastpath.fast_simulate` with a pass cache.

    The stream comes from the route sweeps use,
    :func:`repro.core.sweep.run_functional_passes` with ``cache=``: a
    hit is loaded, a miss takes the per-organization pass and is
    persisted.  A ``registry``
    (:class:`~repro.sim.telemetry.MetricsRegistry`) receives this call's
    ``passcache.*`` counts.
    """
    # Function-level import: core.sweep is the layer above this one.
    from ..core.sweep import run_functional_passes

    with cache_metrics(cache, registry):
        stream = run_functional_passes(
            [(config, trace, seed)], cache=cache
        )[0]
    return fast_simulate(
        config, trace, seed=seed, telemetry=telemetry, stream=stream
    )
