"""Per-file rules: REPRO002 (integer-only cycle arithmetic), REPRO004
(no silent exception swallowing), REPRO007 (no mutable default
arguments).

REPRO002 protects exact cycle conservation: the CycleLedger (PR 2)
verifies that attribution buckets sum *exactly* to the total cycle
count — conservation is only decidable because every quantity involved
is an integer; a single float creeping into a cycle counter turns an
identity into an epsilon comparison.

REPRO004 protects the fault harness's exception-flow assumptions: the
resilience layer routes cancellation and injected crashes through
``BaseException`` semantics, so a handler that catches broadly and does
*nothing* can eat a timeout or an injected fault and convert a test
failure into silence.
"""

from __future__ import annotations

import ast
from typing import List

from .astutil import (
    canonical_call_name,
    is_cycle_counter_name,
    is_floaty,
    terminal_name,
)
from .framework import LintConfig, Rule, SourceFile, Violation, path_matches

#: Methods whose cycle arguments feed the conservation ledger.
_LEDGER_METHODS = {"charge", "charge_couplet"}


class IntegerCycleRule(Rule):
    """REPRO002 — cycle counters carry ints only (``//``, never ``/``)."""

    rule_id = "REPRO002"
    title = "integer-only cycle arithmetic"
    invariant = (
        "exact cycle conservation: CycleLedger.verify (PR 2) asserts "
        "buckets sum to the total as an integer identity, not within "
        "an epsilon"
    )

    def applies_to(self, rel: str, config: LintConfig) -> bool:
        return any(
            path_matches(rel, p) for p in config.deterministic_paths
        )

    def check_file(
        self, src: SourceFile, config: LintConfig
    ) -> List[Violation]:
        aliases = src.import_aliases()
        found: List[Violation] = []

        def report(node: ast.AST, name: str, detail: str) -> None:
            found.append(Violation(
                rule_id=self.rule_id, path=src.rel,
                line=node.lineno, col=node.col_offset,
                message=(
                    f"{detail} assigned to cycle counter {name!r}; "
                    f"cycle arithmetic must stay integer (use //, "
                    f"int() or the quantize helpers)"
                ),
            ))

        def check_target(target: ast.AST, value: ast.AST,
                         node: ast.AST) -> None:
            name = terminal_name(target)
            if is_cycle_counter_name(name) and is_floaty(value, aliases):
                detail = "float-producing expression"
                if isinstance(value, ast.Constant):
                    detail = f"float literal {value.value!r}"
                elif isinstance(value, ast.BinOp) and \
                        isinstance(value.op, ast.Div):
                    detail = "true division (/)"
                elif isinstance(value, ast.Call):
                    detail = "float() conversion"
                report(node, name or "?", detail)

        for node in src.nodes:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    targets = (
                        target.elts
                        if isinstance(target, (ast.Tuple, ast.List))
                        else [target]
                    )
                    for t in targets:
                        check_target(t, node.value, node)
            elif isinstance(node, ast.AnnAssign):
                name = terminal_name(node.target)
                if is_cycle_counter_name(name):
                    ann = node.annotation
                    if isinstance(ann, ast.Name) and ann.id == "float":
                        found.append(Violation(
                            rule_id=self.rule_id, path=src.rel,
                            line=node.lineno, col=node.col_offset,
                            message=(
                                f"cycle counter {name!r} annotated as "
                                f"float; cycle counts are integers"
                            ),
                        ))
                    elif node.value is not None:
                        check_target(node.target, node.value, node)
            elif isinstance(node, ast.AugAssign):
                name = terminal_name(node.target)
                if not is_cycle_counter_name(name):
                    continue
                if isinstance(node.op, ast.Div):
                    report(node, name or "?", "in-place true division (/=)")
                elif is_floaty(node.value, aliases):
                    report(node, name or "?", "float-producing expression")
            elif isinstance(node, ast.Call):
                found.extend(self._check_call(node, src, aliases))
        return found

    def _check_call(self, node: ast.Call, src: SourceFile,
                    aliases) -> List[Violation]:
        found: List[Violation] = []
        # Ledger charges: every positional/keyword cycle argument.
        func_name = (
            node.func.attr if isinstance(node.func, ast.Attribute)
            else getattr(node.func, "id", "")
        )
        if func_name in _LEDGER_METHODS:
            for arg in list(node.args) + [k.value for k in node.keywords]:
                if is_floaty(arg, aliases):
                    found.append(Violation(
                        rule_id=self.rule_id, path=src.rel,
                        line=node.lineno, col=node.col_offset,
                        message=(
                            f"float-producing argument to "
                            f"{func_name}(); the ledger's conservation "
                            f"check needs exact integer cycle counts"
                        ),
                    ))
                    break
        # Any call site: keyword args named like cycle counters.
        for keyword in node.keywords:
            if is_cycle_counter_name(keyword.arg) and \
                    is_floaty(keyword.value, aliases):
                found.append(Violation(
                    rule_id=self.rule_id, path=src.rel,
                    line=node.lineno, col=node.col_offset,
                    message=(
                        f"float-producing value for cycle argument "
                        f"{keyword.arg!r}; cycle counts are integers"
                    ),
                ))
        return found



_BROAD_TYPES = {"Exception", "BaseException"}


def _is_broad_handler(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True  # bare except:
    types = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    for node in types:
        name = node.attr if isinstance(node, ast.Attribute) else \
            getattr(node, "id", "")
        if name in _BROAD_TYPES:
            return True
    return False


def _handler_observable(handler: ast.ExceptHandler) -> bool:
    """Does the handler body do anything visible with the failure?

    Re-raising, returning a value, or calling *anything* (logging,
    journaling, best-effort reporting) counts; a body of ``pass``,
    bare ``continue``/``break`` or pure assignments swallows silently.
    """
    for node in ast.walk(ast.Module(body=handler.body,
                                    type_ignores=[])):
        if isinstance(node, (ast.Raise, ast.Call)):
            return True
        if isinstance(node, ast.Return) and node.value is not None:
            return True
    return False


class SilentSwallowRule(Rule):
    """REPRO004 — no broad except that silently swallows."""

    rule_id = "REPRO004"
    title = "no silent broad exception swallowing"
    invariant = (
        "fault-flow integrity: the resilience harness (PR 1) signals "
        "timeouts and injected crashes via exceptions; a silent broad "
        "handler converts an injected fault into a wrong answer"
    )

    def applies_to(self, rel: str, config: LintConfig) -> bool:
        return any(path_matches(rel, p) for p in config.exception_paths)

    def check_file(
        self, src: SourceFile, config: LintConfig
    ) -> List[Violation]:
        found: List[Violation] = []
        for node in src.nodes:
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not _is_broad_handler(node):
                continue
            if _handler_observable(node):
                continue
            caught = "bare except" if node.type is None else (
                f"except {ast.dump(node.type)}"
                if not isinstance(node.type, (ast.Name, ast.Attribute))
                else f"except {getattr(node.type, 'id', None) or node.type.attr}"  # noqa: E501
            )
            found.append(Violation(
                rule_id=self.rule_id, path=src.rel,
                line=node.lineno, col=node.col_offset,
                message=(
                    f"{caught} swallows without re-raise, logging or "
                    f"reporting; narrow the type or handle the failure "
                    f"observably"
                ),
            ))
        return found


_MUTABLE_CALLS = {
    "list", "dict", "set", "bytearray",
    "collections.defaultdict", "collections.OrderedDict",
    "collections.deque", "collections.Counter",
}


def _is_mutable_default(node: ast.AST, aliases) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set,
                         ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = canonical_call_name(node.func, aliases)
        return name in _MUTABLE_CALLS
    return False


class MutableDefaultRule(Rule):
    """REPRO007 — no mutable default arguments anywhere."""

    rule_id = "REPRO007"
    title = "no mutable default arguments"
    invariant = (
        "run isolation: a mutable default shared across calls is "
        "cross-run state — exactly the kind of leak that makes two "
        "identical (config, trace, seed) runs diverge"
    )

    def check_file(
        self, src: SourceFile, config: LintConfig
    ) -> List[Violation]:
        aliases = src.import_aliases()
        found: List[Violation] = []
        for node in src.nodes:
            if not isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if _is_mutable_default(default, aliases):
                    found.append(Violation(
                        rule_id=self.rule_id, path=src.rel,
                        line=default.lineno, col=default.col_offset,
                        message=(
                            f"mutable default argument in "
                            f"{node.name}(); it is shared across "
                            f"calls — use None and create inside"
                        ),
                    ))
        return found


FILE_RULES = (IntegerCycleRule(), SilentSwallowRule(), MutableDefaultRule())
