"""reprolint self-test: every rule must catch its own fixture.

A linter that silently stops matching is worse than no linter — CI
would keep passing while the invariants rot.  ``repro-sim lint
--self-test`` runs each rule against a known-violating fixture (must
fire) and a known-clean fixture (must stay silent), plus a framework
check that suppression comments actually suppress.  The graph rules
REPRO001 and REPRO003 carry a second, labelled ``chain`` fixture: the
offending call sits one module away, outside the rule's scope.  The
same fixtures drive ``tests/lint/``.
"""

from __future__ import annotations

import textwrap
from dataclasses import dataclass, field, replace
from typing import List, Sequence, Tuple

from .framework import LintConfig, SourceFile, all_rules, lint_sources
from .rules_structure import schema_fields_fingerprint

FileSpec = Tuple[str, str]  # (repo-relative path, source text)


@dataclass(frozen=True)
class RuleFixture:
    """One rule's paired fixtures (plus any config override)."""

    rule_id: str
    violating: Tuple[FileSpec, ...]
    clean: Tuple[FileSpec, ...]
    config: LintConfig = field(default_factory=LintConfig)
    #: Minimum violations the violating fixture must produce.
    expect_min: int = 1
    #: Tells apart several fixtures of one rule in the report.
    label: str = ""

    @property
    def name(self) -> str:
        return f"{self.rule_id} ({self.label})" if self.label \
            else self.rule_id


def _src(text: str) -> str:
    return textwrap.dedent(text).lstrip("\n")


_R1_VIOLATING = _src("""
    import os
    import random
    import time
    from time import perf_counter

    def stamp_run(stats):
        stats["finished_at"] = time.time()
        stats["token"] = os.urandom(8)
        stats["jitter"] = random.random()
        rng = random.Random()
        t0 = perf_counter()
        return rng, t0
""")

_R1_CLEAN = _src("""
    import random

    def make_rng(seed: int):
        return random.Random(seed)

    def stamp_run(stats, now_cycles: int):
        stats["finished_at_cycle"] = now_cycles
        return stats
""")

_R2_VIOLATING = _src("""
    def account(total, refs, ledger):
        warm_cycles = total / 4
        idle_cycles = 1.5
        busy_cycles = float(total)
        ledger.charge("l1_service", total / 2)
        report(cycles=total / refs)
        return warm_cycles, idle_cycles, busy_cycles
""")

_R2_CLEAN = _src("""
    def account(total, refs, ledger):
        warm_cycles = total // 4
        idle_cycles = 1
        cycle_ns = 40.0
        cycles_per_reference = total / refs
        ledger.charge("l1_service", total // 2)
        report(cycles=total - warm_cycles, cycle_ns=cycle_ns)
        return warm_cycles, idle_cycles
""")

_R3_VIOLATING = _src("""
    import json
    from pathlib import Path

    def save_result(path, payload):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)

    def save_summary(path, text):
        Path(path).write_text(text, encoding="utf-8")
""")

_R3_CLEAN = _src("""
    import json
    import os

    def atomic_write_text(path, text):
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)

    def save_result(path, payload):
        atomic_write_text(path, json.dumps(payload))

    def load_result(path):
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
""")

_R4_VIOLATING = _src("""
    def drain(buffer):
        for entry in buffer:
            try:
                entry.flush()
            except Exception:
                pass

    def close(conn):
        try:
            conn.close()
        except:
            pass
""")

_R4_CLEAN = _src("""
    def drain(buffer, log):
        for entry in buffer:
            try:
                entry.flush()
            except OSError:
                pass  # narrow: flush failures are advisory here
            except Exception as exc:
                log.warning("drain failed: %r", exc)
                raise
""")

_R5_REGISTRY_VIOLATING = _src("""
    from . import fig_a, fig_ghost

    EXPERIMENTS = {
        module.EXPERIMENT_ID: module.run
        for module in (fig_a, fig_ghost)
    }
""")

_R5_REGISTRY_CLEAN = _src("""
    from . import fig_a, fig_b

    EXPERIMENTS = {
        module.EXPERIMENT_ID: module.run
        for module in (fig_a, fig_b)
    }
""")

_R5_MODULE = _src("""
    EXPERIMENT_ID = "%s"

    def run(settings=None):
        return None
""")

_R6_VIOLATING = _src("""
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class BufferSpec:
        depth: int = 4
        drain_cycles: int = 1

        def __post_init__(self):
            if self.depth < 1:
                raise ValueError(f"depth must be >= 1: {self.depth}")
""")

_R6_CLEAN = _src("""
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class BufferSpec:
        depth: int = 4
        drain_cycles: int = 1

        def __post_init__(self):
            if self.depth < 1:
                raise ValueError(f"depth must be >= 1: {self.depth}")
            if self.drain_cycles < 0:
                raise ValueError("drain_cycles must be >= 0")
""")

_R7_VIOLATING = _src("""
    def collect(item, bucket=[]):
        bucket.append(item)
        return bucket

    def tally(item, *, counts={}):
        counts[item] = counts.get(item, 0) + 1
        return counts
""")

_R7_CLEAN = _src("""
    def collect(item, bucket=None):
        bucket = [] if bucket is None else bucket
        bucket.append(item)
        return bucket
""")

_R8_FIELDS_OLD = ("schema", "run_id", "checksum", "stats")
_R8_FIELDS_NEW = ("schema", "run_id", "checksum", "stats", "comment")

_R8_MODULE = _src("""
    SCHEMA_VERSION = 2

    def save(identifier, stats):
        payload = {
            %s
        }
        return payload
""")


def _r8_module(fields: Sequence[str]) -> str:
    body = "\n            ".join(f'"{name}": None,' for name in fields)
    return _R8_MODULE % body


# REPRO001 chain: the engine module itself is squeaky clean — the wall
# clock hides in a module outside every deterministic path, two calls
# away.
_R1_ENGINE = _src("""
    from repro.trace.stamputil import stamp

    def step(state, n):
        return stamp(state, n)
""")

_R1_HELPER_VIOLATING = _src("""
    import time

    def now_tag():
        return time.time()

    def stamp(state, n):
        state["tag"] = now_tag() + n
        return state
""")

_R1_HELPER_CLEAN = _src("""
    def now_tag():
        return 0

    def stamp(state, n):
        state["tag"] = now_tag() + n
        return state
""")

# REPRO003 chain: a persistence entry point reaches a raw write through
# a helper module outside every write-scoped module.
_R3_CAMPAIGN_VIOLATING = _src("""
    from repro.util.rawio import dump

    def save_result(path, doc):
        dump(path, doc)
""")

_R3_HELPER_VIOLATING = _src("""
    def dump(path, doc):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(doc)
""")

_R3_CAMPAIGN_CLEAN = _src("""
    from repro.util.rawio import load

    def restore_result(path):
        return load(path)
""")

_R3_HELPER_CLEAN = _src("""
    def load(path):
        with open(path, encoding="utf-8") as handle:
            return handle.read()
""")

# REPRO014: an absolute monotonic reading lands in a lease document;
# the clean twin serializes only a duration (reading minus reading).
_R14_VIOLATING = _src("""
    import time

    def lease_doc(job):
        now = time.monotonic()
        doc = {"job": job, "deadline": now}
        return doc
""")

_R14_CLEAN = _src("""
    import time

    def lease_doc(job, beat):
        return {"job": job, "beat": beat}

    def timed(fn):
        t0 = time.monotonic()
        fn()
        wall = time.monotonic() - t0
        return {"wall_s": wall}
""")

# REPRO015: one suppression whose violation is long gone, one naming a
# rule that never existed; the clean twin's suppression is live.
_R15_VIOLATING = _src("""
    def helper(value):
        return value + 1  # reprolint: disable=REPRO001  stale comment

    def other(value):
        return value  # reprolint: disable=REPRO999
""")

_R15_CLEAN = _src("""
    import time

    def stamp(stats):
        stats["at"] = time.time()  # reprolint: disable=REPRO001
        return stats
""")


def _r8_config(fields: Sequence[str]) -> LintConfig:
    return replace(
        LintConfig(),
        fingerprints_data={
            "schemas": {
                "campaign_result": {
                    "version": 2,
                    "fields": sorted(fields),
                    "fingerprint": schema_fields_fingerprint(fields),
                },
            },
        },
    )


def rule_fixtures() -> List[RuleFixture]:
    """The paired fixtures: at least one per shipped rule."""
    sim = "src/repro/sim"
    return [
        RuleFixture(
            "REPRO001",
            violating=((f"{sim}/fixture_clock.py", _R1_VIOLATING),),
            clean=((f"{sim}/fixture_clock.py", _R1_CLEAN),),
            expect_min=5,
        ),
        # The engine file is identical in both chain fixtures — only
        # the helper outside the deterministic paths changes.
        RuleFixture(
            "REPRO001",
            violating=(
                (f"{sim}/engine.py", _R1_ENGINE),
                ("src/repro/trace/stamputil.py", _R1_HELPER_VIOLATING),
            ),
            clean=(
                (f"{sim}/engine.py", _R1_ENGINE),
                ("src/repro/trace/stamputil.py", _R1_HELPER_CLEAN),
            ),
            label="chain",
        ),
        RuleFixture(
            "REPRO002",
            violating=((f"{sim}/fixture_cycles.py", _R2_VIOLATING),),
            clean=((f"{sim}/fixture_cycles.py", _R2_CLEAN),),
            expect_min=5,
        ),
        RuleFixture(
            "REPRO003",
            violating=((f"{sim}/campaign.py", _R3_VIOLATING),),
            clean=((f"{sim}/campaign.py", _R3_CLEAN),),
            expect_min=2,
        ),
        RuleFixture(
            "REPRO003",
            violating=(
                (f"{sim}/campaign.py", _R3_CAMPAIGN_VIOLATING),
                ("src/repro/util/rawio.py", _R3_HELPER_VIOLATING),
            ),
            clean=(
                (f"{sim}/campaign.py", _R3_CAMPAIGN_CLEAN),
                ("src/repro/util/rawio.py", _R3_HELPER_CLEAN),
            ),
            label="chain",
        ),
        RuleFixture(
            "REPRO004",
            violating=((f"{sim}/fixture_swallow.py", _R4_VIOLATING),),
            clean=((f"{sim}/fixture_swallow.py", _R4_CLEAN),),
            expect_min=2,
        ),
        RuleFixture(
            "REPRO005",
            violating=(
                ("src/repro/experiments/registry.py",
                 _R5_REGISTRY_VIOLATING),
                ("src/repro/experiments/fig_a.py", _R5_MODULE % "fig-a"),
                ("src/repro/experiments/fig_b.py", _R5_MODULE % "fig-b"),
            ),
            clean=(
                ("src/repro/experiments/registry.py",
                 _R5_REGISTRY_CLEAN),
                ("src/repro/experiments/fig_a.py", _R5_MODULE % "fig-a"),
                ("src/repro/experiments/fig_b.py", _R5_MODULE % "fig-b"),
            ),
            expect_min=2,  # fig_b unregistered + fig_ghost unresolvable
        ),
        RuleFixture(
            "REPRO006",
            violating=((f"{sim}/config.py", _R6_VIOLATING),),
            clean=((f"{sim}/config.py", _R6_CLEAN),),
        ),
        RuleFixture(
            "REPRO007",
            violating=(("src/repro/fixture_defaults.py", _R7_VIOLATING),),
            clean=(("src/repro/fixture_defaults.py", _R7_CLEAN),),
            expect_min=2,
        ),
        RuleFixture(
            "REPRO008",
            violating=((f"{sim}/campaign.py",
                        _r8_module(_R8_FIELDS_NEW)),),
            clean=((f"{sim}/campaign.py", _r8_module(_R8_FIELDS_OLD)),),
            config=_r8_config(_R8_FIELDS_OLD),
        ),
        RuleFixture(
            "REPRO014",
            violating=((f"{sim}/workqueue.py", _R14_VIOLATING),),
            clean=((f"{sim}/workqueue.py", _R14_CLEAN),),
        ),
        RuleFixture(
            "REPRO015",
            violating=((f"{sim}/fixture_stale.py", _R15_VIOLATING),),
            clean=((f"{sim}/fixture_stale.py", _R15_CLEAN),),
            expect_min=2,
        ),
    ]


def _lint_fixture(
    files: Sequence[FileSpec], rule_id: str, config: LintConfig
):
    rules = [r for r in all_rules() if r.rule_id == rule_id]
    sources = [SourceFile(rel, text) for rel, text in files]
    return lint_sources(sources, config=config, rules=rules)


def run_self_test() -> Tuple[bool, str]:
    """Run every rule against its fixtures; ``(ok, report text)``."""
    lines: List[str] = []
    ok = True
    fixtures = rule_fixtures()
    covered = {f.rule_id for f in fixtures}
    shipped = {r.rule_id for r in all_rules()}
    for missing in sorted(shipped - covered):
        ok = False
        lines.append(f"FAIL {missing}: no self-test fixture")
    for fixture in fixtures:
        result = _lint_fixture(
            fixture.violating, fixture.rule_id, fixture.config
        )
        hits = [
            v for v in result.violations if v.rule_id == fixture.rule_id
        ]
        if len(hits) < fixture.expect_min:
            ok = False
            lines.append(
                f"FAIL {fixture.name}: violating fixture produced "
                f"{len(hits)} finding(s), expected >= "
                f"{fixture.expect_min}"
            )
        else:
            lines.append(
                f"ok   {fixture.name}: caught {len(hits)} seeded "
                f"violation(s)"
            )
        clean = _lint_fixture(
            fixture.clean, fixture.rule_id, fixture.config
        )
        if clean.violations:
            ok = False
            lines.append(
                f"FAIL {fixture.name}: clean fixture produced "
                f"{len(clean.violations)} finding(s): "
                f"{clean.violations[0].render()}"
            )
    lines.extend(_check_suppression())
    if any(line.startswith("FAIL") for line in lines[-2:]):
        ok = False
    status = "self-test PASSED" if ok else "self-test FAILED"
    return ok, "\n".join([*lines, status])


def _check_suppression() -> List[str]:
    """Framework check: disable comments must actually suppress."""
    suppressed = _src("""
        import time

        def stamp(stats):
            stats["at"] = time.time()  # reprolint: disable=REPRO001
            return stats
    """)
    result = _lint_fixture(
        (("src/repro/sim/fixture_suppress.py", suppressed),),
        "REPRO001", LintConfig(),
    )
    if result.violations:
        return ["FAIL suppression: disable comment did not suppress"]
    file_level = suppressed.replace(
        "import time",
        "# reprolint: disable-file=REPRO001\nimport time",
    ).replace("  # reprolint: disable=REPRO001", "")
    result = _lint_fixture(
        (("src/repro/sim/fixture_suppress.py", file_level),),
        "REPRO001", LintConfig(),
    )
    if result.violations:
        return ["FAIL suppression: disable-file comment did not suppress"]
    return ["ok   suppression: line- and file-level disables honoured"]


def fixtures_for(rule_id: str) -> List[RuleFixture]:
    """Every fixture of ``rule_id`` (lookup used by tests/lint)."""
    return [f for f in rule_fixtures() if f.rule_id == rule_id]


def fixture_for(rule_id: str) -> RuleFixture:
    """The rule's first (unlabelled) fixture."""
    return fixtures_for(rule_id)[0]
