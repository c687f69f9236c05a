"""Rules judged on the project graph: REPRO001 (determinism), REPRO003
(atomic writes), REPRO014 (monotonic clock discipline).

REPRO001 and REPRO003 share one shape, :class:`ReachRule`: every direct
fact of their graph property inside a scoped module is a finding (a
zero-hop chain), and so is every call chain from a scoped function that
leaves the scope for good — the hole a refactor opens by moving a clock
read or a write helper one module away.  A chain that passes through
another scoped function is that function's finding, so one defect is
reported once, where it leaves the scope.

* REPRO001 protects byte-identical re-simulation: the resilience layer
  quarantines a corrupt result and re-simulates, trusting the retry to
  produce the exact same file — one ``time.time()`` or unseeded
  ``random`` call anywhere on the simulation path breaks that.
* REPRO003 protects atomic persistence: ``fsck``, the quarantine
  machinery, the pass cache, the lease protocol and the bench ratchet
  all assume a visible file is complete or checksummed-corrupt, never a
  torn artifact of a crash.
* REPRO014 hardens the lease protocol's "expiry by observation only"
  rule: a monotonic clock reading is process-local, so serializing one
  into a persisted document silently re-introduces cross-host clock
  comparison.  Durations (differences of two readings) are fine.

Chain findings carry the full chain in the message; ``lint --why
RULE:path`` prints the same chains standalone.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .astutil import terminal_name
from .framework import (
    LintConfig,
    Rule,
    SourceFile,
    Violation,
    path_matches,
)
from .projectgraph import (
    HOST_CLOCK_CALLS,
    PROP_MONOTONIC,
    PROP_RAWWRITE,
    PROP_WALLCLOCK,
    ProjectGraph,
    build_project_graph,
    fkey,
)


def _in_scope(rel: str, prefixes: Sequence[str]) -> bool:
    return any(path_matches(rel, p) for p in prefixes)


class ReachRule(Rule):
    """A graph property no function in the rule's scope may reach."""

    scope = "project"
    prop: str = ""
    #: What reaching :attr:`prop` means, for chain messages.
    reaches: str = ""
    #: The :class:`LintConfig` field listing the scoped modules.
    scope_key: str = ""

    def scoped(self, config: LintConfig) -> Tuple[str, ...]:
        return getattr(config, self.scope_key)

    def exempt(self, qualname: str, config: LintConfig) -> bool:
        return False

    def remedy(self, config: LintConfig) -> str:
        raise NotImplementedError

    def check_project(
        self, files: Sequence[SourceFile], config: LintConfig
    ) -> List[Violation]:
        graph = build_project_graph(files, config)
        prefixes = self.scoped(config)
        remedy = self.remedy(config)
        found: List[Violation] = []
        for src in files:
            if not _in_scope(src.rel, prefixes):
                continue
            for qualname, _lineno in graph.functions_in(src.rel):
                key = fkey(src.rel, qualname)
                for fact in graph.direct_facts(key, self.prop):
                    found.append(Violation(
                        rule_id=self.rule_id, path=src.rel,
                        line=fact.line, col=0,
                        message=f"{fact.detail}; {remedy}",
                    ))
                hop = graph.summary(key).get(self.prop)
                if hop is None or hop.kind != "call" or \
                        self.exempt(qualname, config):
                    continue
                chain = graph.chain(key, self.prop)
                if any(_in_scope(h.rel, prefixes) for h in chain[1:]):
                    continue  # a scoped function further down owns it
                found.append(Violation(
                    rule_id=self.rule_id, path=src.rel,
                    line=hop.line, col=0,
                    message=(
                        f"call chain from {qualname}() reaches "
                        f"{self.reaches} in an unscoped module: "
                        f"{graph.describe_chain(key, self.prop)}; "
                        f"{remedy}"
                    ),
                ))
        return found


class WallClockEntropyRule(ReachRule):
    """REPRO001 — simulation code never reaches wall clock or entropy."""

    rule_id = "REPRO001"
    title = "no wall-clock/entropy reachable from simulation code"
    invariant = (
        "byte-identical re-simulation: quarantine-and-retry (PR 1) "
        "assumes re-running a (config, trace, seed) produces the exact "
        "same statistics, even through helpers in unscoped modules"
    )
    prop = PROP_WALLCLOCK
    reaches = "a wall-clock/entropy source"
    scope_key = "deterministic_paths"

    def remedy(self, config: LintConfig) -> str:
        return ("simulation code must be deterministic (re-simulation "
                "is assumed byte-identical)")


class AtomicWriteRule(ReachRule):
    """REPRO003 — persistence code writes only via atomic primitives."""

    rule_id = "REPRO003"
    title = "persisted files are written only through atomic writers"
    invariant = (
        "atomic persistence: fsck/quarantine, the pass cache, the lease "
        "protocol and the bench ratchet assume a visible file is "
        "complete; a bare open(..., 'w') — here or in a helper it calls "
        "— can leave a torn file across a crash"
    )
    prop = PROP_RAWWRITE
    reaches = "a raw write"
    scope_key = "write_scoped_modules"

    def exempt(self, qualname: str, config: LintConfig) -> bool:
        return qualname.rsplit(".", 1)[-1] in config.atomic_writers

    def remedy(self, config: LintConfig) -> str:
        writers = "/".join(sorted(config.atomic_writers))
        return (f"route it through {writers}, or a crash mid-write "
                f"leaves a torn file")


class ClockDisciplineRule(Rule):
    """REPRO014 — monotonic readings never serialized into documents."""

    rule_id = "REPRO014"
    title = "monotonic readings never cross process boundaries"
    invariant = (
        "expiry by observation only (the PR 6 lease protocol): a "
        "monotonic reading is meaningless on any other host or "
        "process, so one serialized into a persisted document "
        "re-introduces exactly the cross-host clock comparison the "
        "protocol exists to avoid; durations (reading minus reading) "
        "are portable and stay legal"
    )
    scope = "project"

    def check_project(
        self, files: Sequence[SourceFile], config: LintConfig
    ) -> List[Violation]:
        graph = build_project_graph(files, config)
        found: List[Violation] = []
        for src in files:
            if not _in_scope(src.rel, config.write_scoped_modules) or \
                    src.tree is None:
                continue
            resolver = graph.resolver_for(src.rel)
            for funcdef, cls in _function_defs(src):
                found.extend(self._check_function(
                    src, funcdef, cls, resolver, graph
                ))
        return found

    def _check_function(
        self,
        src: SourceFile,
        funcdef: ast.AST,
        cls: Optional[str],
        resolver,
        graph: ProjectGraph,
    ) -> List[Violation]:
        tainted: Set[str] = set()

        def is_reading(expr: Optional[ast.AST]) -> bool:
            """Is ``expr`` an *absolute* monotonic reading?

            A difference of two readings is a duration — portable,
            legal.  Any other arithmetic on a reading (offsets,
            scaling) keeps its absolute character.
            """
            if expr is None:
                return False
            if isinstance(expr, ast.Call):
                hit = resolver.resolve(expr.func, cls)
                if hit is None:
                    return False
                kind, target = hit
                if kind == "ext":
                    return target in HOST_CLOCK_CALLS
                return PROP_MONOTONIC in graph.summary(target)
            if isinstance(expr, ast.Name):
                return expr.id in tainted
            if isinstance(expr, ast.BinOp):
                left, right = expr.left, expr.right
                if isinstance(expr.op, ast.Sub) and \
                        is_reading(left) and is_reading(right):
                    return False
                return is_reading(left) or is_reading(right)
            if isinstance(expr, ast.UnaryOp):
                return is_reading(expr.operand)
            if isinstance(expr, ast.IfExp):
                return is_reading(expr.body) or is_reading(expr.orelse)
            return False

        body_nodes = list(_walk_scope(funcdef))
        # Two passes so a loop-carried assignment taints uses that
        # appear textually earlier; booleans only turn on, so two
        # passes reach the fixed point of this flat lattice.
        for _ in range(2):
            for node in body_nodes:
                if isinstance(node, ast.Assign):
                    if is_reading(node.value):
                        for target in node.targets:
                            flat = (
                                target.elts
                                if isinstance(target,
                                              (ast.Tuple, ast.List))
                                else [target]
                            )
                            for t in flat:
                                name = terminal_name(t)
                                if name:
                                    tainted.add(name)
                elif isinstance(node, ast.AnnAssign):
                    if node.value is not None and \
                            is_reading(node.value):
                        name = terminal_name(node.target)
                        if name:
                            tainted.add(name)
                elif isinstance(node, ast.AugAssign):
                    if is_reading(node.value):
                        name = terminal_name(node.target)
                        if name:
                            tainted.add(name)

        found: List[Violation] = []
        for node in body_nodes:
            if not isinstance(node, ast.Dict):
                continue
            for value in node.values:
                if value is not None and is_reading(value):
                    found.append(Violation(
                        rule_id=self.rule_id, path=src.rel,
                        line=value.lineno, col=value.col_offset,
                        message=(
                            "monotonic clock reading serialized into "
                            "a document literal; monotonic values are "
                            "process-local and must never be compared "
                            "across process boundaries (serialize "
                            "durations — differences of readings — "
                            "or nothing)"
                        ),
                    ))
        return found


def _function_defs(
    src: SourceFile,
) -> List[Tuple[ast.AST, Optional[str]]]:
    """Every function def with its directly-enclosing class (if any)."""
    out: List[Tuple[ast.AST, Optional[str]]] = []
    class_of: Dict[int, str] = {}
    for node in src.nodes:
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef,
                                    ast.AsyncFunctionDef)):
                    class_of[id(sub)] = node.name
    for node in src.nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append((node, class_of.get(id(node))))
    return out


def _walk_scope(funcdef: ast.AST):
    """Walk a function body without descending into nested defs (they
    are separate scopes, analyzed on their own)."""
    def visit(node: ast.AST):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                continue
            yield child
            yield from visit(child)
    yield from visit(funcdef)


# ----------------------------------------------------------------------
# `lint --why` support
# ----------------------------------------------------------------------
def explain_why(
    files: Sequence[SourceFile],
    config: LintConfig,
    rule_id: str,
    path_filter: Optional[str] = None,
) -> List[str]:
    """Chains (REPRO001/003) or findings (REPRO014) for ``--why``.

    With a path filter, every function in matching modules that
    carries the property is explained — including mid-chain helpers,
    not just scoped entry points; without one, only the rule's own
    scope is walked.
    """
    if rule_id == "REPRO014":
        rule = ClockDisciplineRule()
        return [
            v.render() for v in rule.check_project(list(files), config)
            if path_filter is None or path_filter in v.path
        ]
    rule = next((r for r in GRAPH_RULES if r.rule_id == rule_id), None)
    if not isinstance(rule, ReachRule):
        raise ValueError(
            f"--why supports REPRO001/REPRO003/REPRO014, not {rule_id}"
        )
    graph = build_project_graph(files, config)
    lines: List[str] = []
    for rel in sorted(graph.functions_by_module):
        if path_filter is not None:
            if path_filter not in rel:
                continue
        elif not _in_scope(rel, rule.scoped(config)):
            continue
        for qualname, _lineno in graph.functions_in(rel):
            key = fkey(rel, qualname)
            if rule.prop in graph.summary(key):
                lines.append(graph.describe_chain(key, rule.prop))
    return lines


GRAPH_RULES = (
    WallClockEntropyRule(),
    AtomicWriteRule(),
    ClockDisciplineRule(),
)
