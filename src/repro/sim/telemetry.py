"""Cycle-accounting telemetry: where do the cycles go?

The paper's bottom line — execution time — is a single number, but its
*argument* is a decomposition: miss latencies, write-buffer stalls,
recovery gaps and quantization losses each pull the total in different
directions as the design varies.  This module makes that decomposition a
first-class, always-verifiable artifact:

* :class:`CycleLedger` charges every simulated cycle to a named bucket
  (:data:`BUCKETS`).  Attribution follows the *critical path* of each
  couplet: the CPU proceeds at the latest completion among its halves,
  so the couplet's cycles are charged along the segment breakdown of the
  half that finished last.  The ledger is exact by construction —
  :meth:`CycleLedger.verify` asserts that the buckets sum to the total
  cycle count, and the engine and fastpath charge through the *same*
  :meth:`CycleLedger.charge_couplet` so their attributions cannot drift;

* :class:`EventTracer` is an opt-in bounded ring buffer of per-reference
  events (misses and stalls, the cycles worth looking at), dumpable as
  Chrome ``trace_event`` JSON (load in ``chrome://tracing`` or Perfetto;
  one trace microsecond renders one simulated cycle);

* :class:`MetricsRegistry`, :func:`peak_rss_kb` and :class:`RunReport`
  are the host-side half: named counters, gauges and wall-clock spans
  via ``perf_counter``, references simulated per second, peak RSS, and a
  JSON metrics document campaigns persist next to their results
  (:func:`aggregate_reports` folds a sweep's reports into one summary).

Telemetry is off by default and costs nothing but a handful of ``is not
None`` checks in the simulators' loops; every allocation in this module
happens only once a :class:`Telemetry` object is actually passed in.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..errors import CorruptResultError, SimulationError

#: A segment is (bucket name, cycle count); each simulator half-access
#: reports its service time as an ordered list of segments.
Segment = Tuple[str, int]

#: The attribution buckets, in critical-path order.  Their sum over a
#: run equals the total simulated cycle count — exactly.
BUCKETS = (
    # CPU-side service: the base issue cycle of every couplet, read/write
    # hit service, and the data cycle completing a write-allocate miss.
    "l1_service",
    # TLB-miss page-table walks (physical-cache mode only).
    "translation",
    # Reads delayed while matching write-buffer entries drain (§2's
    # stale-data check).
    "wb_match_stall",
    # Writes delayed by a full write buffer force-draining its oldest
    # entry.
    "wb_full_stall",
    # Waiting for the level below while it is busy with a previous
    # operation (contention proper).
    "mem_busy",
    # Waiting out the DRAM recovery gap between operations.
    "mem_recovery",
    # Address + access latency of a miss fetch.
    "fetch_latency",
    # The dirty victim's transfer into the write buffer extending the
    # latency period (§2: one-word-wide data path).
    "writeback_overlap",
    # Data transfer of the fetched words.
    "fetch_transfer",
    # Time inside a lower cache level (L2/L3) fetch, not decomposed
    # further (multi-level engine configurations only).
    "lower_fetch",
)

_L1 = "l1_service"


def truncate_segments(
    segments: List[Segment], budget: int
) -> List[Segment]:
    """Clip an ordered segment list to ``budget`` total cycles.

    Non-blocking miss modes (load-forward, early continuation) release
    the CPU before the fetch completes; the cycles past the release point
    are off the critical path and must not be charged.  Clipping keeps
    the *earliest* ``budget`` cycles, so what gets dropped is the tail of
    the transfer — exactly what the CPU no longer waits for.
    """
    total = 0
    for index, (_bucket, cycles) in enumerate(segments):
        if total + cycles >= budget:
            clipped = segments[: index + 1]
            clipped[index] = (segments[index][0], budget - total)
            return [s for s in clipped if s[1] > 0]
        total += cycles
    if total < budget:
        raise SimulationError(
            f"segment total {total} is below the charge budget {budget}"
        )
    return [s for s in segments if s[1] > 0]


class CycleLedger:
    """Exact attribution of simulated cycles to named buckets.

    The ledger accumulates from cycle zero; :meth:`mark_warm` snapshots
    the buckets when the simulation crosses the trace's warm boundary so
    :meth:`measured` can report warm-start attribution.  Conservation
    holds for both views: total buckets sum to ``total_cycles`` and
    measured buckets sum to ``cycles`` (see :meth:`verify`).
    """

    def __init__(self) -> None:
        self.buckets: Dict[str, int] = {name: 0 for name in BUCKETS}
        self.warm_buckets: Optional[Dict[str, int]] = None

    # -- charging ------------------------------------------------------
    def charge(self, bucket: str, cycles: int) -> None:
        self.buckets[bucket] += cycles

    def charge_segments(self, segments: Iterable[Segment]) -> None:
        buckets = self.buckets
        for bucket, cycles in segments:
            buckets[bucket] += cycles

    def charge_couplet(
        self,
        duration: int,
        i_segments: Optional[List[Segment]],
        d_segments: Optional[List[Segment]],
    ) -> None:
        """Charge one couplet's cycles along its critical path.

        ``i_segments``/``d_segments`` are the per-half service
        breakdowns (``None`` for an absent half), each summing to that
        half's completion minus the couplet's issue cycle.  The couplet
        lasts until its *latest* half completes, so the half whose
        segment total equals ``duration`` is the critical path and gets
        charged; the shorter half ran entirely in its shadow.  Both
        simulators call this same method, which is what keeps their
        attributions identical.

        Ties break toward the instruction side: the fastpath's event
        stream cannot reconstruct data-side plain read hits inside an
        eventful couplet, so the engine must prefer the half both
        simulators can see identically.
        """
        if i_segments is not None and sum(s[1] for s in i_segments) == duration:
            self.charge_segments(i_segments)
            return
        if d_segments is not None and sum(s[1] for s in d_segments) == duration:
            self.charge_segments(d_segments)
            return
        # Neither half spans the couplet: the one-cycle issue floor
        # dominates (both halves absent or instantaneous).
        self.buckets[_L1] += duration

    # -- warm-start accounting -----------------------------------------
    def mark_warm(self, base_offset: int = 0) -> None:
        """Snapshot the buckets at the warm boundary.

        ``base_offset`` accounts for hit cycles that fall between the
        last pre-warm event and the boundary in the fastpath's
        event-gap representation; they are pure L1 service.
        """
        snapshot = dict(self.buckets)
        snapshot[_L1] += base_offset
        self.warm_buckets = snapshot

    # -- views ---------------------------------------------------------
    def total(self) -> int:
        return sum(self.buckets.values())

    def as_dict(self) -> Dict[str, int]:
        return dict(self.buckets)

    def measured(self) -> Dict[str, int]:
        """Buckets accumulated past the warm boundary."""
        if self.warm_buckets is None:
            return dict(self.buckets)
        return {
            name: self.buckets[name] - self.warm_buckets[name]
            for name in BUCKETS
        }

    def measured_total(self) -> int:
        return sum(self.measured().values())

    def verify(
        self, total_cycles: int, measured_cycles: Optional[int] = None
    ) -> None:
        """Assert cycle conservation; raise :class:`SimulationError`.

        The invariant is exact: every simulated cycle is charged to
        exactly one bucket.  A mismatch means an attribution bug in a
        simulator, never a rounding artifact.
        """
        total = self.total()
        if total != total_cycles:
            raise SimulationError(
                f"cycle ledger does not conserve: buckets sum to {total}, "
                f"simulator counted {total_cycles} cycles "
                f"(delta {total - total_cycles:+d})"
            )
        if measured_cycles is not None:
            measured = self.measured_total()
            if measured != measured_cycles:
                raise SimulationError(
                    f"warm-start ledger does not conserve: measured "
                    f"buckets sum to {measured}, simulator counted "
                    f"{measured_cycles} cycles "
                    f"(delta {measured - measured_cycles:+d})"
                )

    def render(self, total_cycles: Optional[int] = None) -> str:
        """Human-readable bucket table (measured view when marked)."""
        buckets = self.measured()
        total = sum(buckets.values())
        denominator = total if total else 1
        lines = []
        for name in BUCKETS:
            cycles = buckets[name]
            if not cycles:
                continue
            lines.append(
                f"  {name:<18} {cycles:>12}  "
                f"({100.0 * cycles / denominator:5.1f}%)"
            )
        lines.append(f"  {'total':<18} {total:>12}")
        if total_cycles is not None:
            status = "ok" if total == total_cycles else "VIOLATED"
            lines.append(
                f"  conservation: buckets {total} == cycles "
                f"{total_cycles}: {status}"
            )
        return "\n".join(lines)


class EventTracer:
    """Bounded ring buffer of simulation events.

    Each event is ``(ts_cycle, dur_cycles, name, track, segments)``.
    When the buffer fills, the oldest events are overwritten — a trace of
    a long run keeps its tail, which is where a surprising slowdown
    usually lives.  :meth:`to_chrome_trace` renders the buffer in Chrome
    ``trace_event`` format with one microsecond per simulated cycle.
    """

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise SimulationError(
                f"tracer capacity must be >= 1: {capacity}"
            )
        self.capacity = capacity
        self._events: List[tuple] = []
        self._next = 0
        self.emitted = 0

    def __len__(self) -> int:
        return len(self._events)

    @property
    def dropped(self) -> int:
        """Events overwritten because the ring was full."""
        return self.emitted - len(self._events)

    def emit(
        self,
        ts: int,
        dur: int,
        name: str,
        track: str,
        segments: Optional[Sequence[Segment]] = None,
    ) -> None:
        event = (ts, dur, name, track, tuple(segments or ()))
        if len(self._events) < self.capacity:
            self._events.append(event)
        else:
            self._events[self._next] = event
            self._next = (self._next + 1) % self.capacity
        self.emitted += 1

    def events(self) -> List[tuple]:
        """Buffered events in emission order."""
        return self._events[self._next:] + self._events[: self._next]

    def to_chrome_trace(self) -> Dict:
        """The Chrome ``trace_event`` JSON object for this buffer."""
        trace_events = [
            {
                "name": track,
                "ph": "M",  # metadata: name the tracks
                "pid": 0,
                "tid": tid,
                "cat": "meta",
                "args": {"name": track},
            }
            for tid, track in enumerate(("icache", "dcache"))
        ]
        tracks = {"icache": 0, "dcache": 1}
        for ts, dur, name, track, segments in self.events():
            trace_events.append({
                "name": name,
                "ph": "X",
                "ts": ts,
                "dur": max(dur, 1),
                "pid": 0,
                "tid": tracks.get(track, 2),
                "cat": "sim",
                "args": {bucket: cycles for bucket, cycles in segments},
            })
        return {
            "traceEvents": trace_events,
            "displayTimeUnit": "ms",
            "metadata": {
                "unit": "1us == 1 simulated cycle",
                "emitted": self.emitted,
                "dropped": self.dropped,
            },
        }

    def dump(self, path: Union[str, Path]) -> None:
        # A user-chosen export path, not campaign state: a torn trace
        # dump costs a re-export, never a quarantine.
        Path(path).write_text(  # reprolint: disable=REPRO003
            json.dumps(self.to_chrome_trace()), encoding="utf-8"
        )


class Telemetry:
    """The simulators' observability handle: ledger and/or tracer.

    Passing a :class:`Telemetry` to :meth:`Engine.run
    <repro.sim.engine.Engine.run>` / :func:`repro.sim.fastpath.replay`
    turns instrumentation on; both fields are optional so event tracing
    (the expensive part) stays opt-in independently of the ledger.
    """

    def __init__(
        self,
        ledger: Optional[CycleLedger] = None,
        tracer: Optional[EventTracer] = None,
    ) -> None:
        self.ledger = ledger
        self.tracer = tracer

    def note_couplet(
        self,
        now: int,
        end: int,
        i_segments: Optional[List[Segment]],
        d_segments: Optional[List[Segment]],
    ) -> None:
        """Account one couplet: charge the ledger, trace eventful halves."""
        if self.ledger is not None:
            self.ledger.charge_couplet(end - now, i_segments, d_segments)
        tracer = self.tracer
        if tracer is not None:
            for track, segments in (
                ("icache", i_segments), ("dcache", d_segments)
            ):
                if segments is None:
                    continue
                if len(segments) == 1 and segments[0][0] == _L1:
                    continue  # plain hits: not worth a trace slot
                dur = sum(s[1] for s in segments)
                name = max(segments, key=lambda s: s[1])[0]
                tracer.emit(now, dur, name, track, segments)


# ----------------------------------------------------------------------
# Host-side profiling
# ----------------------------------------------------------------------
class MetricsRegistry:
    """The one collector of counters, gauges and wall-clock spans.

    Every subsystem's counters reach a run — or a bench suite — through
    the registry its caller passes, under dotted names
    (``passcache.hits``, ``replay.batch_outcomes``,
    ``fabric.leases_reclaimed``).  Code counts straight into it.  A
    subsystem keeps a plain counter holder only where a hot loop or an
    outside reader needs plain attributes (the replay kernel's
    ``KernelStats``, ``PassCache.counters``, the work queue's counters);
    such a holder reaches a registry once, at its layer boundary, with
    :meth:`count_many` — its counts, or their delta over the work done
    there.  A registry dump (:meth:`as_dict`) is the ``metrics`` block
    of a RunReport, and ``repro-sim bench`` flattens the same dump into
    benchmark records.

    Spans measure the *simulator* on the host clock: wall-clock
    readings land only in advisory metrics (a RunReport's ``wall_s``
    reads its ``trace`` and ``simulate`` spans), never in simulated
    state or cycle counts.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        #: span name -> {"count": n, "total_s": s, "max_s": s}
        self.spans: Dict[str, Dict[str, float]] = {}

    def count(self, name: str, delta: int = 1) -> None:
        """Add ``delta`` to the named counter (created at zero)."""
        self.counters[name] = self.counters.get(name, 0) + delta

    def gauge(self, name: str, value: float) -> None:
        """Record the latest value of a point-in-time measurement."""
        self.gauges[name] = value

    def count_many(self, prefix: str, counts: Dict[str, int]) -> None:
        """Fold a subsystem's counter dict in under ``prefix.*``.

        Zero counts are skipped so an idle subsystem leaves no trace in
        the dump — the block stays exactly as large as the activity.
        """
        for name, delta in counts.items():
            if delta:
                self.count(f"{prefix}.{name}", delta)

    @contextmanager
    def span(self, name: str):
        """Time one named stage; nests and repeats accumulate."""
        start = time.perf_counter()  # reprolint: disable=REPRO001
        try:
            yield
        finally:
            elapsed = (
                time.perf_counter() - start  # reprolint: disable=REPRO001
            )
            entry = self.spans.setdefault(
                name, {"count": 0, "total_s": 0.0, "max_s": 0.0}
            )
            entry["count"] += 1
            entry["total_s"] += elapsed
            entry["max_s"] = max(entry["max_s"], elapsed)

    def empty(self) -> bool:
        return not (self.counters or self.gauges or self.spans)

    def as_dict(self) -> Dict:
        """The JSON-able dump: the RunReport ``metrics`` block."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "spans": {
                name: dict(entry) for name, entry in self.spans.items()
            },
        }

    def merge(self, dump: Dict) -> None:
        """Fold another registry's :meth:`as_dict` dump into this one.

        Counters and span counts/totals add; span maxima and gauges take
        the larger value, so a merged gauge is the worst case across the
        dumps whatever their order.  Used by aggregation, where per-run
        metrics blocks from many workers combine into one sweep view.
        """
        if not isinstance(dump, dict):
            return
        for name, delta in (dump.get("counters") or {}).items():
            if isinstance(delta, int):
                self.count(name, delta)
        for name, value in (dump.get("gauges") or {}).items():
            if isinstance(value, (int, float)):
                self.gauge(name, max(
                    float(value), self.gauges.get(name, float("-inf"))
                ))
        for name, entry in (dump.get("spans") or {}).items():
            if not isinstance(entry, dict):
                continue
            mine = self.spans.setdefault(
                name, {"count": 0, "total_s": 0.0, "max_s": 0.0}
            )
            mine["count"] += int(entry.get("count", 0))
            mine["total_s"] += float(entry.get("total_s", 0.0))
            mine["max_s"] = max(mine["max_s"], float(entry.get("max_s", 0.0)))


def peak_rss_kb() -> Optional[int]:
    """Peak resident set size of this process in KiB, if measurable."""
    try:
        import resource
        import sys
    except ImportError:  # pragma: no cover — non-POSIX platform
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover — reported in bytes
        usage //= 1024
    return int(usage)


def quantization_info(config) -> Dict[str, float]:
    """How much the synchronous-memory quantization of §2 costs.

    Physical memory times round *up* to whole machine cycles; the waste
    per operation is the rounded-minus-physical remainder.  This is a
    derived property of the configuration, not a runtime wait, so it is
    reported alongside the ledger rather than as a bucket (the waste is
    already inside ``fetch_latency``/``mem_recovery`` cycles).
    """
    memory = config.memory
    cycle_ns = config.cycle_ns
    latency_cycles = memory.latency_cycles(cycle_ns)
    recovery_cycles = memory.recovery_cycles(cycle_ns)
    latency_quantized_ns = (
        latency_cycles - memory.address_cycles
    ) * cycle_ns
    recovery_quantized_ns = recovery_cycles * cycle_ns
    return {
        "cycle_ns": cycle_ns,
        "latency_ns": memory.latency_ns,
        "latency_cycles": latency_cycles,
        "latency_waste_ns": latency_quantized_ns - memory.latency_ns,
        "recovery_ns": memory.recovery_ns,
        "recovery_cycles": recovery_cycles,
        "recovery_waste_ns": recovery_quantized_ns - memory.recovery_ns,
    }


# ----------------------------------------------------------------------
# Run metrics document
# ----------------------------------------------------------------------
#: Version of the RunReport JSON document.  Version 2 adds the
#: ``pass_cache`` counter block (hits/misses/bytes saved by the
#: persistent functional-pass cache; empty when no cache was in play).
#: Version 3 adds the ``replay`` counter block (batch replay-kernel vs
#: scalar ``replay()`` activity, see
#: :class:`repro.sim.replaykernel.KernelStats`; empty when the run did
#: no grid repricing).  Telemetry-enabled replays always price through
#: the scalar path — the batch kernel takes no ``telemetry`` handle —
#: so a run with a ledger reports ``scalar_replays`` only.
#: Version 4 adds the ``fabric`` counter block (work-queue lease
#: activity for the run: leases issued/lost, heartbeats; see
#: :mod:`repro.sim.workqueue`; empty when no spool worker executed
#: the run).
#: Version 5 adds the ``metrics`` block — a :class:`MetricsRegistry`
#: dump (named counters, gauges and wall-clock spans) collected across
#: every subsystem the run touched; empty when no registry was threaded
#: through the run.
#: Version 6 adds the ``stack_pass`` counter block (the since-retired
#: shared stack walk's activity: trace walks, streams derived/reused,
#: per-organization fallback passes; empty when the run used the scalar
#: functional-pass strategy).
#: Version 7 adds the ``sampling`` block (counters of the since-removed
#: trace-interval sampling route and, when validation ran, the worst
#: observed true absolute miss-ratio error).
#: Version 8 folds the five per-subsystem blocks into ``metrics``:
#: their integers become counters and their floats gauges, under the
#: prefixes of :data:`_FOLDED_BLOCKS`.  :meth:`RunReport.from_dict`
#: upgrades older documents the same way.
REPORT_SCHEMA = 8

#: The per-subsystem blocks of schemas 2–7, each with the ``metrics``
#: prefix its values move under at schema 8.  Retired subsystems keep
#: their entry so that their old documents still upgrade.
_FOLDED_BLOCKS = (
    ("pass_cache", "passcache"),
    ("replay", "replay"),
    ("fabric", "fabric"),
    ("stack_pass", "stackpass"),
    ("sampling", "sampling"),
)


@dataclass
class RunReport:
    """Host + simulation metrics for one run, persisted as JSON.

    Campaigns write one per run under ``<campaign>/metrics/`` and a
    sweep-level aggregation as ``metrics/summary.json``; the CLI's
    ``campaign report`` renders both.
    """

    run_id: str
    trace: str
    config: str
    simulator: str  # "engine" | "fastpath"
    n_refs_total: int
    n_refs_measured: int
    cycles: int
    total_cycles: int
    warm_cycles: int
    buckets: Dict[str, int] = field(default_factory=dict)
    buckets_measured: Dict[str, int] = field(default_factory=dict)
    conserved: bool = False
    wall_s: Dict[str, float] = field(default_factory=dict)
    refs_per_sec: float = 0.0
    peak_rss_kb: Optional[int] = None
    quantization: Dict[str, float] = field(default_factory=dict)
    #: A :class:`MetricsRegistry` dump (``{"counters": ..., "gauges":
    #: ..., "spans": ...}``) holding every subsystem's counters —
    #: ``passcache.*``, ``replay.*``, ``fabric.*``, ``stackpass.*`` — and
    #: the run's spans; empty when no registry collected anything.
    metrics: Dict = field(default_factory=dict)

    @property
    def total_wall_s(self) -> float:
        return sum(self.wall_s.values())

    @property
    def stall_fraction(self) -> float:
        """Measured cycles not spent in L1 service, as a fraction."""
        total = sum(self.buckets_measured.values())
        if not total:
            return 0.0
        return 1.0 - self.buckets_measured.get(_L1, 0) / total

    def to_dict(self) -> Dict:
        return {
            "schema": REPORT_SCHEMA,
            "run_id": self.run_id,
            "trace": self.trace,
            "config": self.config,
            "simulator": self.simulator,
            "n_refs_total": self.n_refs_total,
            "n_refs_measured": self.n_refs_measured,
            "cycles": self.cycles,
            "total_cycles": self.total_cycles,
            "warm_cycles": self.warm_cycles,
            "buckets": dict(self.buckets),
            "buckets_measured": dict(self.buckets_measured),
            "conserved": self.conserved,
            "wall_s": dict(self.wall_s),
            "refs_per_sec": self.refs_per_sec,
            "peak_rss_kb": self.peak_rss_kb,
            "quantization": dict(self.quantization),
            "metrics": dict(self.metrics),
        }

    @classmethod
    def from_dict(
        cls, payload: Dict, unknown: Optional[List[str]] = None
    ) -> "RunReport":
        """Rebuild a report from a stored document, tolerating drift.

        Older schema versions upgrade cleanly: blocks they predate
        default to empty, and the per-subsystem blocks of schemas 2–7
        move into ``metrics`` (see :func:`_fold_legacy_blocks`).  Fields
        a *newer* schema may have added are dropped, but never silently
        — pass a list as ``unknown`` to collect their names, the same
        reporting contract as :func:`repro.sim.campaign.stats_from_dict`.
        A payload that is not an object, or whose schema marker is not a
        positive integer, is rejected with
        :exc:`~repro.errors.CorruptResultError` rather than surfacing as
        a :exc:`TypeError` deep in aggregation.
        """
        if not isinstance(payload, dict):
            raise CorruptResultError(
                f"run report payload is {type(payload).__name__}, "
                f"expected object"
            )
        schema = payload.get("schema", 1)
        if isinstance(schema, bool) or not isinstance(schema, int) \
                or schema < 1:
            raise CorruptResultError(
                f"run report schema marker {schema!r} is not a "
                f"positive integer"
            )
        if schema < 8:
            metrics = _fold_legacy_blocks(payload)
            payload = {
                k: v for k, v in payload.items()
                if k not in dict(_FOLDED_BLOCKS)
            }
            payload["metrics"] = metrics
        names = {
            "run_id", "trace", "config", "simulator", "n_refs_total",
            "n_refs_measured", "cycles", "total_cycles", "warm_cycles",
            "buckets", "buckets_measured", "conserved", "wall_s",
            "refs_per_sec", "peak_rss_kb", "quantization", "metrics",
        }
        if unknown is not None:
            unknown.extend(
                k for k in sorted(payload)
                if k not in names and k != "schema"
            )
        return cls(**{k: v for k, v in payload.items() if k in names})


def _fold_legacy_blocks(payload: Dict) -> Dict:
    """The ``metrics`` dump of a schema 1–7 document with each
    per-subsystem block moved under its prefix.

    Integers become counters and floats gauges.  A block is skipped when
    the old dump already holds counters under its prefix: runs at
    schemas 5–7 that had a registry mirrored ``passcache.*`` into both
    places, and folding both would count every hit twice.
    """
    registry = MetricsRegistry()
    registry.merge(payload.get("metrics") or {})
    for block, prefix in _FOLDED_BLOCKS:
        values = payload.get(block)
        if not isinstance(values, dict) or any(
            name.startswith(f"{prefix}.") for name in registry.counters
        ):
            continue
        for name, value in values.items():
            if isinstance(value, bool):
                continue
            if isinstance(value, int):
                registry.count(f"{prefix}.{name}", value)
            elif isinstance(value, float):
                registry.gauge(f"{prefix}.{name}", value)
    return {} if registry.empty() else registry.as_dict()


#: The spans of a run's registry that are its top-level stages: a
#: RunReport's ``wall_s`` holds their totals, and its throughput is
#: references per second of their sum.
_RUN_STAGES = ("trace", "simulate")


def build_run_report(
    stats,
    ledger: Optional[CycleLedger],
    run_identifier: str = "",
    simulator: str = "fastpath",
    n_refs_total: int = 0,
    config=None,
    registry: Optional[MetricsRegistry] = None,
) -> RunReport:
    """Assemble the metrics document for one completed run.

    ``stats`` is the run's :class:`~repro.sim.statistics.SimStats`;
    ``ledger`` may be ``None`` when only host metrics were collected.
    ``registry`` is the run's :class:`MetricsRegistry`: ``wall_s`` reads
    its ``trace`` and ``simulate`` spans, and its whole dump — the
    pass-cache, replay-kernel, fabric and stack-pass counters and the
    spans — is the ``metrics`` block when it collected anything.
    Conservation is *checked* here (never trusted): ``conserved`` is
    the outcome of :meth:`CycleLedger.verify`.
    """
    buckets: Dict[str, int] = {}
    buckets_measured: Dict[str, int] = {}
    conserved = False
    if ledger is not None:
        buckets = ledger.as_dict()
        buckets_measured = ledger.measured()
        try:
            ledger.verify(stats.total_cycles, stats.cycles)
            conserved = True
        except SimulationError:
            conserved = False
    spans = registry.spans if registry is not None else {}
    wall_s = {
        name: spans[name]["total_s"] for name in _RUN_STAGES if name in spans
    }
    total_wall = sum(wall_s.values())
    refs = n_refs_total or stats.n_refs
    return RunReport(
        run_id=run_identifier,
        trace=stats.trace_name,
        config=stats.config_summary,
        simulator=simulator,
        n_refs_total=refs,
        n_refs_measured=stats.n_refs,
        cycles=stats.cycles,
        total_cycles=stats.total_cycles,
        warm_cycles=stats.warm_cycles,
        buckets=buckets,
        buckets_measured=buckets_measured,
        conserved=conserved,
        wall_s=wall_s,
        refs_per_sec=refs / total_wall if total_wall > 0 else 0.0,
        peak_rss_kb=peak_rss_kb(),
        quantization=quantization_info(config) if config is not None else {},
        metrics=(
            registry.as_dict()
            if registry is not None and not registry.empty() else {}
        ),
    )


def _percentile(sorted_values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    index = min(
        len(sorted_values) - 1,
        max(0, int(round(fraction * (len(sorted_values) - 1)))),
    )
    return sorted_values[index]


def aggregate_reports(
    reports: Sequence[RunReport],
    slowest: int = 5,
    fabric: Optional[Dict[str, int]] = None,
) -> Dict:
    """Fold a sweep's per-run reports into one summary document.

    The summary answers the questions a campaign post-mortem starts
    with: how fast was the sweep (throughput percentiles), which runs
    dominated it (slowest list), where did the simulated cycles go
    (aggregate bucket breakdown), and did every run conserve.  The
    per-run ``metrics`` dumps merge into one (counters sum, gauges keep
    the worst value).  ``fabric`` overlays sweep-level work-queue
    counters (worker count and lifetimes, leases expired/reclaimed) as
    ``fabric.*`` over the per-run lease sums — the sweep-level view
    wins where both exist, because it also counts leases whose jobs
    never produced a report (crashed owners).
    """
    throughputs = sorted(r.refs_per_sec for r in reports)
    walls = sorted(r.total_wall_s for r in reports)
    bucket_totals: Dict[str, int] = {name: 0 for name in BUCKETS}
    metrics_totals = MetricsRegistry()
    for report in reports:
        for name, cycles in report.buckets_measured.items():
            bucket_totals[name] = bucket_totals.get(name, 0) + cycles
        metrics_totals.merge(report.metrics)
    for name, count in (fabric or {}).items():
        metrics_totals.counters[f"fabric.{name}"] = count
    ranked = sorted(
        reports, key=lambda r: r.total_wall_s, reverse=True
    )[:slowest]
    return {
        "schema": REPORT_SCHEMA,
        "runs": len(reports),
        "all_conserved": all(r.conserved for r in reports),
        "violations": [r.run_id for r in reports if not r.conserved],
        "total_wall_s": sum(walls),
        "wall_s_p50": _percentile(walls, 0.50),
        "wall_s_p90": _percentile(walls, 0.90),
        "refs_per_sec_p10": _percentile(throughputs, 0.10),
        "refs_per_sec_p50": _percentile(throughputs, 0.50),
        "refs_per_sec_p90": _percentile(throughputs, 0.90),
        "buckets_measured": bucket_totals,
        "metrics": (
            {} if metrics_totals.empty() else metrics_totals.as_dict()
        ),
        "slowest": [
            {
                "run_id": r.run_id,
                "wall_s": r.total_wall_s,
                "refs_per_sec": r.refs_per_sec,
                "stall_fraction": r.stall_fraction,
            }
            for r in ranked
        ],
    }


def stored_fabric(summary: Dict) -> Dict[str, int]:
    """The ``fabric.*`` counters of a stored :func:`aggregate_reports`
    document, without the prefix.

    A drained spool's fleet totals (workers, their lifetimes, expired
    and reclaimed leases) live only in the summary that `campaign drain
    --metrics` wrote; the per-run reports carry each job's own lease
    counts.  Passing these back as ``fabric=`` keeps a re-aggregation
    of the reports from losing them.  ``{}`` for a summary with none.
    """
    metrics = summary.get("metrics")
    counters = metrics.get("counters") if isinstance(metrics, dict) else None
    if not isinstance(counters, dict):
        return {}
    return {
        name[len("fabric."):]: count
        for name, count in counters.items()
        if name.startswith("fabric.")
    }


#: The terminal line :func:`render_counters` prints per counter prefix:
#: its label, then each counter's name under the prefix with the words
#: that follow its value.
_COUNTER_LINES = (
    ("passcache", "pass cache", (
        ("hits", "hit(s)"), ("misses", "miss(es)"), ("corrupt", "corrupt"),
        ("bytes_read", "B read"), ("bytes_written", "B written"),
    )),
    ("replay", "replay", (
        ("batch_outcomes", "batch outcome(s)"),
        ("scalar_replays", "scalar replay(s)"),
        ("vectorized_events", "vectorized event(s)"),
        ("scalar_events", "scalar event(s)"),
    )),
    ("stackpass", "stack pass", (
        ("passes", "pass(es)"),
        ("reused_streams", "reused"),
    )),
    ("fabric", "fabric", (
        ("workers", "worker(s)"),
        ("leases_issued", "lease(s) issued"),
        ("leases_expired", "expired"),
        ("leases_reclaimed", "reclaimed"),
        ("jobs_poisoned", "poisoned"),
        ("duplicate_publishes", "duplicate publish(es) dropped"),
    )),
)


def render_counters(metrics: Dict) -> List[str]:
    """One terminal line per subsystem present in a registry dump.

    A subsystem is present when the dump holds any counter under its
    prefix; its gauges follow its counters on the same line.  Counters
    under any other prefix (a retired subsystem's, in an old document)
    print nothing.
    """
    counters = metrics.get("counters") or {}
    gauges = metrics.get("gauges") or {}
    lines = []
    for prefix, label, fields in _COUNTER_LINES:
        head = f"{prefix}."
        if not any(name.startswith(head) for name in counters):
            continue
        parts = [
            f"{counters.get(head + name, 0):,} {words}"
            for name, words in fields
        ]
        parts += [
            f"{name[len(head):].replace('_', ' ')} {value:.4f}"
            for name, value in sorted(gauges.items())
            if name.startswith(head)
        ]
        lines.append(f"{label}: " + ", ".join(parts))
    return lines


def render_summary(summary: Dict) -> str:
    """Terminal rendering of an :func:`aggregate_reports` document."""
    lines = [
        f"{summary['runs']} run(s), "
        f"{summary['total_wall_s']:.2f}s total wall clock; "
        f"cycle conservation: "
        + ("ok" if summary["all_conserved"] else
           f"VIOLATED ({len(summary['violations'])} run(s))"),
        f"throughput refs/s: p10 {summary['refs_per_sec_p10']:,.0f}  "
        f"p50 {summary['refs_per_sec_p50']:,.0f}  "
        f"p90 {summary['refs_per_sec_p90']:,.0f}",
    ]
    buckets = summary.get("buckets_measured", {})
    total = sum(buckets.values())
    if total:
        lines.append("measured cycle attribution across the sweep:")
        for name in BUCKETS:
            cycles = buckets.get(name, 0)
            if cycles:
                lines.append(
                    f"  {name:<18} {cycles:>14}  "
                    f"({100.0 * cycles / total:5.1f}%)"
                )
    metrics = summary.get("metrics") or {}
    lines.extend(render_counters(metrics))
    spans = metrics.get("spans") or {}
    if spans:
        lines.append("stage spans across the sweep:")
        for name in sorted(spans):
            entry = spans[name]
            lines.append(
                f"  {name:<24} {entry.get('count', 0):>6} x  "
                f"{entry.get('total_s', 0.0):9.3f}s total  "
                f"(max {entry.get('max_s', 0.0):7.3f}s)"
            )
    if summary.get("slowest"):
        lines.append("slowest runs:")
        for entry in summary["slowest"]:
            lines.append(
                f"  {entry['wall_s']:8.3f}s  "
                f"{entry['refs_per_sec']:>12,.0f} refs/s  "
                f"stall {100.0 * entry['stall_fraction']:5.1f}%  "
                f"{entry['run_id']}"
            )
    return "\n".join(lines)
