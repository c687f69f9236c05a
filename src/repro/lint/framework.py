"""reprolint framework: rules, suppression, baseline, runner.

The simulator's correctness story rests on invariants that are cheap to
*state* and expensive to *discover broken at runtime*: byte-identical
re-simulation (the resilience layer quarantines and retries on that
assumption), exact integer cycle conservation (the telemetry ledger
verifies buckets sum to the total), and atomic campaign persistence (a
crash mid-write must never leave a readable partial result).  This
package checks those invariants *statically*, over the repo's own
source, using only stdlib :mod:`ast`.

Pieces:

* :class:`Violation` — one finding, locatable and JSON-able;
* :class:`Rule` — base class; file-scope rules get one parsed
  :class:`SourceFile` at a time, project-scope rules see the whole file
  set at once (the project graph, registry consistency, schema
  fingerprints), and the audit rule sees every other rule's raw
  findings;
* suppression — ``# reprolint: disable=REPRO001`` on the offending
  line, or ``# reprolint: disable-file=REPRO001`` anywhere in the first
  :data:`FILE_SUPPRESS_WINDOW` lines;
* baseline — pre-existing violations recorded in ``lint-baseline.json``
  are reported separately and do not fail the run, so new rules can be
  ratcheted in without a flag-day fix;
* :func:`lint_paths` / :func:`lint_sources` — the runner, over disk
  paths or in-memory sources (fixtures, tests).

A run is one read-only pass: every file is parsed and walked once, and
nothing persists between runs.  The linter writes a file only when
asked to (``--write-baseline``, ``--update-fingerprints``).
"""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import json
import re
from pathlib import Path
from typing import (
    Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple,
)

from .astutil import import_aliases

#: ``disable-file=`` comments are honoured only this early in a file,
#: so a whole-file opt-out is visible at the top where reviewers look.
FILE_SUPPRESS_WINDOW = 15

_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*(disable|disable-file)=([A-Za-z0-9_,\s]+)"
)


# ----------------------------------------------------------------------
# Findings
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Violation:
    """One rule finding at one source location."""

    rule_id: str
    path: str  # repo-relative posix path
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: " \
               f"{self.rule_id}: {self.message}"

    def to_dict(self) -> Dict:
        return dataclasses.asdict(self)

    def fingerprint(self, source_line: str) -> str:
        """Stable identity for baselining: rule + path + the offending
        line's *text* (so unrelated edits shifting line numbers do not
        orphan baseline entries)."""
        key = f"{self.rule_id}|{self.path}|{source_line.strip()}"
        return hashlib.sha256(key.encode()).hexdigest()[:20]


# ----------------------------------------------------------------------
# Configuration ([tool.reprolint] in pyproject.toml)
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class SchemaSpec:
    """Where one schema-versioned payload lives (for REPRO008).

    ``locator`` picks the dict literal whose keys are the serialized
    field set: ``("assign", <function>, <variable>)`` finds
    ``<variable> = {...}`` inside ``def <function>``;
    ``("return", <class>, <method>)`` finds ``return {...}`` inside
    ``class <class>: def <method>``.
    """

    name: str
    module: str  # path suffix, e.g. "repro/sim/campaign.py"
    constant: str  # e.g. "SCHEMA_VERSION"
    locator: Tuple[str, str, str]


#: The repo's schema-versioned payloads, checked by REPRO008.
DEFAULT_SCHEMAS = (
    SchemaSpec(
        name="campaign_result",
        module="repro/sim/campaign.py",
        constant="SCHEMA_VERSION",
        locator=("assign", "save", "payload"),
    ),
    SchemaSpec(
        name="run_report",
        module="repro/sim/telemetry.py",
        constant="REPORT_SCHEMA",
        locator=("return", "RunReport", "to_dict"),
    ),
    SchemaSpec(
        name="pass_cache_entry",
        module="repro/sim/passcache.py",
        constant="PASSCACHE_SCHEMA",
        locator=("assign", "stream_to_dict", "doc"),
    ),
    SchemaSpec(
        name="spool_manifest",
        module="repro/sim/workqueue.py",
        constant="SPOOL_SCHEMA",
        locator=("assign", "spec_to_dict", "doc"),
    ),
    SchemaSpec(
        name="work_lease",
        module="repro/sim/workqueue.py",
        constant="LEASE_SCHEMA",
        locator=("assign", "lease_to_dict", "doc"),
    ),
    SchemaSpec(
        name="bench_record",
        module="repro/sim/benchhistory.py",
        constant="BENCH_SCHEMA",
        locator=("assign", "record_to_dict", "doc"),
    ),
    SchemaSpec(
        name="done_record",
        module="repro/sim/workqueue.py",
        constant="DONE_SCHEMA",
        locator=("assign", "done_to_dict", "doc"),
    ),
    SchemaSpec(
        name="job_record",
        module="repro/sim/workqueue.py",
        constant="JOB_SCHEMA",
        locator=("assign", "job_to_dict", "doc"),
    ),
    SchemaSpec(
        name="poison_record",
        module="repro/sim/workqueue.py",
        constant="POISON_SCHEMA",
        locator=("assign", "poison_to_dict", "doc"),
    ),
    SchemaSpec(
        name="campaign_manifest",
        module="repro/sim/resilience.py",
        constant="MANIFEST_SCHEMA",
        locator=("return", "RunRecord", "to_dict"),
    ),
)


@dataclasses.dataclass(frozen=True)
class LintConfig:
    """Effective configuration; defaults mirror ``[tool.reprolint]``."""

    enabled: Tuple[str, ...] = ()  # empty means "all registered rules"
    #: Packages whose simulation results must be deterministic: no
    #: function here may reach a wall-clock/entropy source (REPRO001),
    #: and cycle arithmetic stays integer (REPRO002).
    deterministic_paths: Tuple[str, ...] = (
        "repro/sim", "repro/cache", "repro/memory", "repro/cpu", "repro/vm",
    )
    #: Modules whose files must appear atomically — campaign results,
    #: pass-cache entries, spool leases, benchmark records: no function
    #: here may reach a raw write (REPRO003) or serialize a monotonic
    #: reading (REPRO014).
    write_scoped_modules: Tuple[str, ...] = (
        "repro/sim/campaign.py",
        "repro/sim/resilience.py",
        "repro/sim/telemetry.py",
        "repro/sim/faults.py",
        "repro/sim/passcache.py",
        "repro/sim/workqueue.py",
        "repro/sim/benchhistory.py",
    )
    #: Functions allowed to perform raw writes (the atomic primitives:
    #: staged rename and the exclusive hard-link claim, plus the journal
    #: append, whose torn tail readers set aside).
    atomic_writers: Tuple[str, ...] = (
        "atomic_write_text", "atomic_claim_text", "append_journal_line",
    )
    #: Packages where silent exception swallowing is forbidden
    #: (REPRO004; the faults harness depends on BaseException flow).
    exception_paths: Tuple[str, ...] = ("repro/sim", "repro/cache")
    #: The experiments package checked by REPRO005.
    experiments_package: str = "repro/experiments"
    #: Module whose dataclass fields REPRO006 audits.
    config_module: str = "repro/sim/config.py"
    #: Committed fingerprint file for REPRO008, relative to repo root.
    fingerprints_path: str = "src/repro/lint/schema_fingerprints.json"
    #: Schema payloads REPRO008 tracks.
    schemas: Tuple[SchemaSpec, ...] = DEFAULT_SCHEMAS
    #: Direct fingerprint injection (tests/self-test); wins over file.
    fingerprints_data: Optional[Mapping] = None


class LintInputError(ValueError):
    """Malformed linter input (``[tool.reprolint]``, baseline file);
    the CLI reports it on one line and exits 2."""


#: ``[tool.reprolint]`` keys: list-of-string keys, then string keys.
_LIST_KEYS = (
    "enabled", "deterministic-paths", "write-scoped-modules",
    "atomic-writers", "exception-paths",
)
_STR_KEYS = ("experiments-package", "config-module", "fingerprints-path")


def load_config(root: Path) -> LintConfig:
    """Read ``[tool.reprolint]`` from ``<root>/pyproject.toml``.

    Uses :mod:`tomllib` when available (Python >= 3.11); on older
    interpreters, or when the table is absent, the built-in defaults
    (which mirror the committed table) apply.  Unknown keys, values of
    the wrong type and ``enabled`` ids naming no registered rule raise
    :class:`LintInputError` rather than silently linting less.
    """
    pyproject = root / "pyproject.toml"
    if not pyproject.is_file():
        return LintConfig()
    try:
        import tomllib
    except ImportError:  # pragma: no cover — Python < 3.11
        return LintConfig()
    try:
        with open(pyproject, "rb") as handle:
            table = tomllib.load(handle)
    except (OSError, ValueError):
        return LintConfig()
    section = table.get("tool", {}).get("reprolint", {})
    if not isinstance(section, dict) or not section:
        return LintConfig()
    where = f"{pyproject}: [tool.reprolint]"
    kwargs = {}
    for key, value in section.items():
        if key in _LIST_KEYS:
            if not isinstance(value, list) or \
                    not all(isinstance(v, str) for v in value):
                raise LintInputError(
                    f"{where} {key} must be a list of strings, "
                    f"got {value!r}"
                )
            value = tuple(value)
        elif key in _STR_KEYS:
            if not isinstance(value, str):
                raise LintInputError(
                    f"{where} {key} must be a string, got {value!r}"
                )
        else:
            raise LintInputError(
                f"{where} has unknown key {key!r}; known keys: "
                f"{', '.join(_LIST_KEYS + _STR_KEYS)}"
            )
        kwargs[key.replace("-", "_")] = value
    known = {r.rule_id for r in _registered_rules()}
    unknown = [r for r in kwargs.get("enabled", ()) if r not in known]
    if unknown:
        raise LintInputError(
            f"{where} enabled names unknown rule(s) "
            f"{', '.join(unknown)}; registered: "
            f"{', '.join(sorted(known))}"
        )
    return LintConfig(**kwargs)


def path_matches(rel: str, prefix: str) -> bool:
    """True when repo-relative ``rel`` lies under package ``prefix``.

    ``prefix`` is a package path like ``repro/sim`` or a module path
    like ``repro/sim/campaign.py``; ``rel`` may carry a leading
    ``src/`` (or any ancestor directories) that the prefix omits.
    """
    rel = rel.replace("\\", "/")
    needle = prefix.rstrip("/")
    if rel == needle or rel.endswith("/" + needle):
        return True
    return rel.startswith(needle + "/") or ("/" + needle + "/") in rel


# ----------------------------------------------------------------------
# Parsed sources
# ----------------------------------------------------------------------
class SourceFile:
    """One parsed module: text, AST, and its suppression comments.

    The AST, its :func:`ast.walk` node list and its import aliases are
    each computed on first use and shared by every rule, so a lint run
    parses and walks each module once.
    """

    def __init__(self, rel: str, text: str) -> None:
        self.rel = rel.replace("\\", "/")
        self.text = text
        self.lines = text.splitlines()
        self.content_hash = hashlib.sha256(text.encode()).hexdigest()
        self._tree: Optional[ast.AST] = None
        self._syntax_error: Optional[SyntaxError] = None
        self._nodes: Optional[List[ast.AST]] = None
        self._aliases: Dict[Optional[str], Dict[str, str]] = {}
        self._line_suppress: Optional[Dict[int, set]] = None
        self._file_suppress: Optional[set] = None

    @property
    def tree(self) -> Optional[ast.AST]:
        """The module AST, or ``None`` on a syntax error (reported as a
        REPRO000 violation by the runner)."""
        if self._tree is None and self._syntax_error is None:
            try:
                self._tree = ast.parse(self.text, filename=self.rel)
            except SyntaxError as exc:
                self._syntax_error = exc
        return self._tree

    @property
    def syntax_error(self) -> Optional[SyntaxError]:
        self.tree  # noqa: B018 — force the parse attempt
        return self._syntax_error

    @property
    def nodes(self) -> List[ast.AST]:
        """Every node of :attr:`tree` in :func:`ast.walk` order (empty
        on a syntax error)."""
        if self._nodes is None:
            tree = self.tree
            self._nodes = list(ast.walk(tree)) if tree is not None else []
        return self._nodes

    def import_aliases(
        self, package: Optional[str] = None
    ) -> Dict[str, str]:
        """:func:`~.astutil.import_aliases` of :attr:`tree`; callers
        must not mutate the shared result."""
        if package not in self._aliases:
            self._aliases[package] = import_aliases(
                self.tree, package=package, nodes=self.nodes
            )
        return self._aliases[package]

    def source_line(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1]
        return ""

    def _scan_suppressions(self) -> None:
        line_map: Dict[int, set] = {}
        file_set: set = set()
        for lineno, text in enumerate(self.lines, start=1):
            match = _SUPPRESS_RE.search(text)
            if not match:
                continue
            kind, raw = match.groups()
            rules = {r.strip() for r in raw.split(",") if r.strip()}
            if kind == "disable":
                line_map.setdefault(lineno, set()).update(rules)
            elif lineno <= FILE_SUPPRESS_WINDOW:
                file_set.update(rules)
        self._line_suppress = line_map
        self._file_suppress = file_set

    def suppressed(self, line: int, rule_id: str) -> bool:
        """Is ``rule_id`` disabled at ``line``?

        A line-level ``disable`` comment covers the line it sits on and,
        for multi-line statements, the line a comment-bearing statement
        *starts* on (rules report violations at node start lines).
        """
        if self._line_suppress is None:
            self._scan_suppressions()
        assert self._line_suppress is not None
        assert self._file_suppress is not None
        if rule_id in self._file_suppress or "all" in self._file_suppress:
            return True
        rules = self._line_suppress.get(line, ())
        return rule_id in rules or "all" in rules


# ----------------------------------------------------------------------
# Rules
# ----------------------------------------------------------------------
class Rule:
    """Base class: one invariant, one ID, one scope.

    Subclasses set :attr:`rule_id`, :attr:`title` and
    :attr:`invariant` (the *runtime* property the static check
    protects), and implement :meth:`check_file` (``scope = "file"``),
    :meth:`check_project` (``scope = "project"``) or :meth:`audit`
    (``scope = "audit"``: judged per file against the other rules'
    raw, pre-suppression findings).
    """

    rule_id: str = "REPRO000"
    title: str = ""
    invariant: str = ""
    scope: str = "file"

    def applies_to(self, rel: str, config: LintConfig) -> bool:
        return True

    def check_file(
        self, src: SourceFile, config: LintConfig
    ) -> List[Violation]:
        return []

    def check_project(
        self, files: Sequence[SourceFile], config: LintConfig
    ) -> List[Violation]:
        return []

    def audit(
        self, src: SourceFile, raw: Sequence[Violation],
        judged: Set[str],
    ) -> List[Violation]:
        return []


# ----------------------------------------------------------------------
# Baseline
# ----------------------------------------------------------------------
class Baseline:
    """Accepted pre-existing violations, by fingerprint.

    Each entry carries a count so N identical offending lines in one
    file consume N baseline slots; a new, additional occurrence of the
    same pattern still fails the run.
    """

    def __init__(self, counts: Optional[Dict[str, int]] = None) -> None:
        self.counts: Dict[str, int] = dict(counts or {})

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        if not path.is_file():
            return cls()
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return cls()
        entries = payload.get("entries", {})
        if not isinstance(entries, dict):
            return cls()
        for key, count in entries.items():
            if not isinstance(count, int) or isinstance(count, bool):
                raise LintInputError(
                    f"{path}: baseline entry {key!r} has non-integer "
                    f"count {count!r}"
                )
        return cls({str(k): v for k, v in entries.items()})

    @classmethod
    def from_violations(
        cls, pairs: Iterable[Tuple[Violation, str]]
    ) -> "Baseline":
        counts: Dict[str, int] = {}
        for violation, source_line in pairs:
            fp = violation.fingerprint(source_line)
            counts[fp] = counts.get(fp, 0) + 1
        return cls(counts)

    def save(self, path: Path) -> None:
        payload = {
            "comment": (
                "reprolint baseline: pre-existing violations ratcheted "
                "down over time; regenerate with "
                "`repro-sim lint --write-baseline`"
            ),
            "version": 1,
            "entries": dict(sorted(self.counts.items())),
        }
        path.write_text(json.dumps(payload, indent=1) + "\n",
                        encoding="utf-8")

    def partition(
        self, pairs: Sequence[Tuple[Violation, str]]
    ) -> Tuple[List[Violation], List[Violation]]:
        """Split violations into (new, baselined)."""
        budget = dict(self.counts)
        new: List[Violation] = []
        accepted: List[Violation] = []
        for violation, source_line in pairs:
            fp = violation.fingerprint(source_line)
            if budget.get(fp, 0) > 0:
                budget[fp] -= 1
                accepted.append(violation)
            else:
                new.append(violation)
        return new, accepted


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
@dataclasses.dataclass
class LintResult:
    """Outcome of one lint run."""

    violations: List[Violation]
    baselined: List[Violation]
    files_checked: int
    #: The files and the resolved configuration the lint ran over.
    sources: Sequence[SourceFile] = dataclasses.field(
        default=(), repr=False, compare=False
    )
    config: Optional[LintConfig] = dataclasses.field(
        default=None, repr=False, compare=False
    )

    @property
    def clean(self) -> bool:
        return not self.violations

    def render(self, show_baselined: bool = False) -> str:
        lines = [v.render() for v in self.violations]
        if show_baselined:
            lines += [f"{v.render()} [baselined]" for v in self.baselined]
        summary = (
            f"{self.files_checked} file(s) checked: "
            f"{len(self.violations)} violation(s)"
        )
        if self.baselined:
            summary += f", {len(self.baselined)} baselined"
        lines.append(summary)
        return "\n".join(lines)

    def graph_stats(self):
        """The project graph's counts over this lint's files and config.

        The graph rules built that graph during the lint, so this reads
        the memoized build rather than reading and parsing again.
        """
        from .projectgraph import build_project_graph

        return build_project_graph(self.sources, self.config).stats

    def to_dict(self) -> Dict:
        return {
            "files_checked": self.files_checked,
            "violations": [v.to_dict() for v in self.violations],
            "baselined": [v.to_dict() for v in self.baselined],
            "clean": self.clean,
        }


def _registered_rules() -> List[Rule]:
    from .rules_interproc import GRAPH_RULES
    from .rules_robustness import FILE_RULES
    from .rules_structure import STRUCTURE_RULES

    return [*FILE_RULES, *GRAPH_RULES, *STRUCTURE_RULES]


def all_rules(config: Optional[LintConfig] = None) -> List[Rule]:
    """Every registered rule, filtered by the config's enabled set."""
    rules = sorted(_registered_rules(), key=lambda r: r.rule_id)
    if config is None or not config.enabled:
        return rules
    return [r for r in rules if r.rule_id in config.enabled]


def find_repo_root(start: Path) -> Path:
    """Nearest ancestor holding a ``pyproject.toml`` (else ``start``)."""
    start = start.resolve()
    probe = start if start.is_dir() else start.parent
    for candidate in (probe, *probe.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return probe


def collect_sources(
    paths: Sequence[Path], root: Path
) -> List[SourceFile]:
    """Read every ``.py`` file under ``paths`` into SourceFiles."""
    seen = set()
    sources: List[SourceFile] = []
    for path in paths:
        path = Path(path)
        files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for file in files:
            file = file.resolve()
            if file in seen:
                continue
            seen.add(file)
            try:
                rel = file.relative_to(root).as_posix()
            except ValueError:
                rel = file.as_posix()
            try:
                text = file.read_text(encoding="utf-8")
            except OSError:
                continue
            sources.append(SourceFile(rel, text))
    return sources


def _check_one(
    src: SourceFile, rules: Sequence[Rule], config: LintConfig
) -> List[Violation]:
    """Raw (pre-suppression) findings of the file-scope ``rules``."""
    if src.syntax_error is not None:
        exc = src.syntax_error
        return [Violation(
            rule_id="REPRO000", path=src.rel,
            line=exc.lineno or 1, col=(exc.offset or 1) - 1,
            message=f"syntax error: {exc.msg}",
        )]
    return [
        violation
        for rule in rules
        if rule.scope == "file" and rule.applies_to(src.rel, config)
        for violation in rule.check_file(src, config)
    ]


def lint_sources(
    sources: Sequence[SourceFile],
    config: Optional[LintConfig] = None,
    rules: Optional[Sequence[Rule]] = None,
    baseline: Optional[Baseline] = None,
) -> LintResult:
    """Lint already-loaded sources (fixtures, tests, editor buffers).

    Every rule first yields its *raw* findings; suppression comments
    filter them afterwards, so an audit rule (REPRO015) can judge each
    comment against exactly what it suppresses.  An audit widens the
    rules that run to every enabled one; only the selected rules'
    findings are reported.
    """
    config = config or LintConfig()
    rules = list(rules) if rules is not None else all_rules(config)
    audits = [r for r in rules if r.scope == "audit"]
    judged = [
        r for r in (all_rules(config) if audits else rules)
        if r.scope != "audit"
    ]
    raw: Dict[str, List[Violation]] = {}
    for src in sources:
        raw[src.rel] = _check_one(src, judged, config)
    for rule in judged:
        if rule.scope == "project":
            for violation in rule.check_project(list(sources), config):
                raw.setdefault(violation.path, []).append(violation)
    judged_ids = {r.rule_id for r in judged}
    reported = {r.rule_id for r in rules} | {"REPRO000"}
    by_rel = {src.rel: src for src in sources}
    for rule in audits:
        for src in sources:
            raw[src.rel].extend(
                rule.audit(src, raw[src.rel], judged_ids)
            )
    pairs: List[Tuple[Violation, str]] = []
    for rel, found in raw.items():
        src = by_rel.get(rel)
        for violation in found:
            if violation.rule_id not in reported:
                continue
            if src is None:
                pairs.append((violation, ""))
            elif violation.rule_id == "REPRO000" or \
                    not src.suppressed(violation.line, violation.rule_id):
                pairs.append((violation, src.source_line(violation.line)))
    pairs.sort(key=lambda p: (p[0].path, p[0].line, p[0].rule_id))
    if baseline is not None:
        new, accepted = baseline.partition(pairs)
    else:
        new, accepted = [v for v, _ in pairs], []
    return LintResult(
        violations=new, baselined=accepted, files_checked=len(sources),
        sources=sources, config=config,
    )


def lint_paths(
    paths: Sequence[Path],
    root: Optional[Path] = None,
    config: Optional[LintConfig] = None,
    rules: Optional[Sequence[Rule]] = None,
    baseline_path: Optional[Path] = None,
) -> LintResult:
    """Lint files/directories on disk; the importable API entry point.

    ``root`` (auto-detected from the first path when omitted) anchors
    repo-relative paths, the pyproject config and the baseline file.
    """
    paths = [Path(p) for p in paths]
    if not paths:
        raise ValueError("lint_paths: no paths given")
    root = Path(root) if root is not None else find_repo_root(paths[0])
    config = config or load_config(root)
    if config.fingerprints_data is None:
        fp_path = root / config.fingerprints_path
        if fp_path.is_file():
            try:
                data = json.loads(fp_path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                data = None
            if isinstance(data, dict):
                config = dataclasses.replace(
                    config, fingerprints_data=data
                )
    rules = list(rules) if rules is not None else all_rules(config)
    baseline = None
    if baseline_path is None:
        baseline_path = root / "lint-baseline.json"
    if baseline_path.is_file():
        baseline = Baseline.load(baseline_path)
    sources = collect_sources(paths, root)
    return lint_sources(
        sources, config=config, rules=rules, baseline=baseline,
    )
