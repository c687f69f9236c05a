"""Structural rules: REPRO005 (experiment registry closure), REPRO006
(validated config fields), REPRO008 (schema fingerprints), REPRO015
(dead suppression comments).

Most reason about relationships *between* files — an experiment module
and the registry, a dataclass and its ``__post_init__``, a serializer
and its committed fingerprint — that no single-file pass can see.
REPRO015 is the odd one out: an audit of the suppression mechanism
itself, judged against every other rule's raw findings.
"""

from __future__ import annotations

import ast
import hashlib
import io
import tokenize
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .framework import (
    FILE_SUPPRESS_WINDOW,
    _SUPPRESS_RE,
    LintConfig,
    Rule,
    SchemaSpec,
    SourceFile,
    Violation,
    path_matches,
)
from .astutil import dict_literal_keys

#: Experiment-package modules that are infrastructure, not experiments.
_EXPERIMENT_INFRA = {"__init__", "common", "registry"}


def _module_stem(rel: str) -> str:
    return rel.rsplit("/", 1)[-1].rsplit(".py", 1)[0]


class RegistryClosureRule(Rule):
    """REPRO005 — experiments and the registry agree exactly."""

    rule_id = "REPRO005"
    title = "experiment modules and registry entries are in bijection"
    invariant = (
        "sweep completeness: `repro-sim experiment all` and the report "
        "generator resolve artifacts through the registry; an "
        "unregistered module is silently absent from every campaign"
    )
    scope = "project"

    def check_project(
        self, files: Sequence[SourceFile], config: LintConfig
    ) -> List[Violation]:
        package = config.experiments_package
        modules: Dict[str, SourceFile] = {}
        registry: Optional[SourceFile] = None
        for src in files:
            if not path_matches(src.rel, package):
                continue
            stem = _module_stem(src.rel)
            if stem == "registry":
                registry = src
            elif stem not in _EXPERIMENT_INFRA:
                modules[stem] = src
        if registry is None or registry.tree is None:
            return []  # linting a subset without the registry
        imported, iterated = self._registry_names(registry)
        # A module is registered when it is both relatively imported and
        # iterated by the EXPERIMENTS comprehension; an empty iterated
        # set (unrecognized registry shape) degrades to imports-only.
        if iterated:
            registered = set(imported) & set(iterated)
        else:
            registered = set(imported)
        found: List[Violation] = []
        for stem, src in sorted(modules.items()):
            if stem not in registered:
                found.append(Violation(
                    rule_id=self.rule_id, path=src.rel, line=1, col=0,
                    message=(
                        f"experiment module {stem!r} is not registered "
                        f"in {registry.rel}; it will be absent from "
                        f"`repro-sim experiment all` and every report"
                    ),
                ))
            elif src.tree is not None:
                found.extend(self._check_module_shape(stem, src))
        for stem in sorted(set(imported) | set(iterated)):
            if stem in _EXPERIMENT_INFRA:
                continue
            line = iterated.get(stem, imported.get(stem, 1))
            if stem not in modules:
                found.append(Violation(
                    rule_id=self.rule_id, path=registry.rel,
                    line=line, col=0,
                    message=(
                        f"registry entry {stem!r} does not resolve to "
                        f"a module in {package}/"
                    ),
                ))
            elif iterated and stem in iterated and stem not in imported:
                found.append(Violation(
                    rule_id=self.rule_id, path=registry.rel,
                    line=line, col=0,
                    message=(
                        f"registry iterates {stem!r} without importing "
                        f"it; the EXPERIMENTS table raises NameError "
                        f"at import time"
                    ),
                ))
        return found

    @staticmethod
    def _registry_names(
        registry: SourceFile,
    ) -> Tuple[Dict[str, int], Dict[str, int]]:
        """(relatively imported, comprehension-iterated) name -> line."""
        assert registry.tree is not None
        imported: Dict[str, int] = {}
        iterated: Dict[str, int] = {}
        for node in registry.nodes:
            # `from . import fig3_1, ...` — sibling-module imports only;
            # `from .common import X` pulls names, not modules.
            if isinstance(node, ast.ImportFrom) and node.level >= 1 \
                    and not node.module:
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
            elif isinstance(node, ast.comprehension) and \
                    isinstance(node.iter, ast.Tuple):
                for elt in node.iter.elts:
                    if isinstance(elt, ast.Name):
                        iterated[elt.id] = elt.lineno
        return imported, iterated

    def _check_module_shape(
        self, stem: str, src: SourceFile
    ) -> List[Violation]:
        assert src.tree is not None
        has_id = has_run = False
        for node in src.tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and \
                            target.id == "EXPERIMENT_ID":
                        has_id = True
            elif isinstance(node, ast.FunctionDef) and node.name == "run":
                has_run = True
        missing = [
            what for what, ok in
            (("EXPERIMENT_ID", has_id), ("run()", has_run))
            if not ok
        ]
        if not missing:
            return []
        return [Violation(
            rule_id=self.rule_id, path=src.rel, line=1, col=0,
            message=(
                f"experiment module {stem!r} lacks "
                f"{' and '.join(missing)}; the registry cannot "
                f"resolve it"
            ),
        )]


_SCALAR_TYPES = {"int", "float", "bool", "str", "bytes", "complex"}
_TYPE_WRAPPERS = {
    "Optional", "Union", "Tuple", "List", "Sequence", "Dict",
    "Mapping", "Set", "FrozenSet", "Iterable", "ClassVar",
}


def _annotation_bases(node: ast.AST) -> Set[str]:
    """Terminal type names an annotation can resolve to."""
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.Subscript):
        head = node.value
        head_name = (
            head.id if isinstance(head, ast.Name)
            else head.attr if isinstance(head, ast.Attribute) else ""
        )
        if head_name in _TYPE_WRAPPERS:
            inner = node.slice
            elements = (
                inner.elts if isinstance(inner, ast.Tuple) else [inner]
            )
            bases: Set[str] = set()
            for element in elements:
                bases |= _annotation_bases(element)
            return bases
        return {head_name} if head_name else set()
    if isinstance(node, ast.Constant):
        if node.value is None or node.value is Ellipsis:
            return set()
        return {"?"}  # string annotation: treat as non-scalar
    return set()


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) \
            else decorator
        name = (
            target.id if isinstance(target, ast.Name)
            else target.attr if isinstance(target, ast.Attribute)
            else ""
        )
        if name == "dataclass":
            return True
    return False


class ConfigValidationRule(Rule):
    """REPRO006 — scalar config fields are validated in __post_init__."""

    rule_id = "REPRO006"
    title = "config dataclass fields validated in __post_init__"
    invariant = (
        "fail-fast configuration: an out-of-range parameter caught at "
        "construction costs one exception; caught mid-sweep it costs "
        "hours of wrong simulation"
    )

    def applies_to(self, rel: str, config: LintConfig) -> bool:
        return path_matches(rel, config.config_module)

    def check_file(
        self, src: SourceFile, config: LintConfig
    ) -> List[Violation]:
        found: List[Violation] = []
        for node in src.nodes:
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                found.extend(self._check_class(node, src))
        return found

    def _check_class(
        self, cls: ast.ClassDef, src: SourceFile
    ) -> List[Violation]:
        fields: List[Tuple[str, ast.AnnAssign]] = []
        post_init: Optional[ast.FunctionDef] = None
        for stmt in cls.body:
            if isinstance(stmt, ast.AnnAssign) and \
                    isinstance(stmt.target, ast.Name):
                bases = _annotation_bases(stmt.annotation)
                if bases and bases <= _SCALAR_TYPES:
                    fields.append((stmt.target.id, stmt))
            elif isinstance(stmt, ast.FunctionDef) and \
                    stmt.name == "__post_init__":
                post_init = stmt
        if not fields:
            return []
        validated: Set[str] = set()
        if post_init is not None:
            for node in ast.walk(post_init):
                if isinstance(node, ast.Attribute) and \
                        isinstance(node.value, ast.Name) and \
                        node.value.id == "self":
                    validated.add(node.attr)
        return [
            Violation(
                rule_id=self.rule_id, path=src.rel,
                line=stmt.lineno, col=stmt.col_offset,
                message=(
                    f"{cls.name}.{name} is a scalar config field never "
                    f"referenced in __post_init__; validate it (or "
                    f"justify with a suppression)"
                ),
            )
            for name, stmt in fields if name not in validated
        ]


def schema_fields_fingerprint(fields: Sequence[str]) -> str:
    """Stable digest of a serialized field set (order-insensitive)."""
    key = ",".join(sorted(set(fields)))
    return hashlib.sha256(key.encode()).hexdigest()[:16]


def _find_constant(tree: ast.AST, name: str) -> Tuple[Optional[int],
                                                      Optional[int]]:
    """(value, lineno) of module-level integer ``name = <int>``."""
    for node in tree.body:  # type: ignore[attr-defined]
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    if isinstance(node.value, ast.Constant) and \
                            isinstance(node.value.value, int):
                        return node.value.value, node.lineno
                    return None, node.lineno
    return None, None


def _locate_fields(
    src: SourceFile, locator: Tuple[str, str, str]
) -> Optional[List[str]]:
    """Keys of the dict literal a :class:`SchemaSpec` locator names."""
    kind, scope_name, member = locator
    if kind == "assign":
        for node in src.nodes:
            if isinstance(node, ast.FunctionDef) and \
                    node.name == scope_name:
                for inner in ast.walk(node):
                    if isinstance(inner, ast.Assign):
                        for target in inner.targets:
                            if isinstance(target, ast.Name) and \
                                    target.id == member:
                                keys = dict_literal_keys(inner.value)
                                if keys is not None:
                                    return keys
        return None
    if kind == "return":
        for node in src.nodes:
            if not (isinstance(node, ast.ClassDef) and
                    node.name == scope_name):
                continue
            for stmt in node.body:
                if isinstance(stmt, ast.FunctionDef) and \
                        stmt.name == member:
                    for inner in ast.walk(stmt):
                        if isinstance(inner, ast.Return) and \
                                inner.value is not None:
                            keys = dict_literal_keys(inner.value)
                            if keys is not None:
                                return keys
        return None
    return None


def extract_schemas(
    files: Sequence[SourceFile], config: LintConfig
) -> Dict[str, Dict]:
    """Current (version, field set) of every schema the config names.

    Entries whose module is absent from ``files`` are omitted; an
    entry whose module is present but unparseable carries an ``error``
    key instead of fields.
    """
    out: Dict[str, Dict] = {}
    for spec in config.schemas:
        src = next(
            (f for f in files if path_matches(f.rel, spec.module)), None
        )
        if src is None or src.tree is None:
            continue
        version, line = _find_constant(src.tree, spec.constant)
        fields = _locate_fields(src, spec.locator)
        entry: Dict = {"module": src.rel, "line": line or 1}
        if version is None:
            entry["error"] = (
                f"could not extract integer constant {spec.constant}"
            )
        elif fields is None:
            entry["error"] = (
                f"could not locate the serialized dict literal via "
                f"{spec.locator!r}"
            )
        else:
            entry["version"] = version
            entry["fields"] = sorted(set(fields))
            entry["fingerprint"] = schema_fields_fingerprint(fields)
        out[spec.name] = entry
    return out


class SchemaFingerprintRule(Rule):
    """REPRO008 — serialized field changes must bump the schema."""

    rule_id = "REPRO008"
    title = "schema constants bump when serialized fields change"
    invariant = (
        "forward-compatible persistence: readers tolerate newer "
        "payloads *by schema number*; changing the field set without "
        "bumping it makes old archives silently ambiguous"
    )
    scope = "project"

    def check_project(
        self, files: Sequence[SourceFile], config: LintConfig
    ) -> List[Violation]:
        current = extract_schemas(files, config)
        if not current:
            return []
        committed = (config.fingerprints_data or {}).get("schemas", {})
        found: List[Violation] = []
        for name, entry in sorted(current.items()):
            if "error" in entry:
                found.append(Violation(
                    rule_id=self.rule_id, path=entry["module"],
                    line=entry["line"], col=0,
                    message=(
                        f"schema {name!r}: {entry['error']}; the "
                        f"fingerprint check cannot run — update the "
                        f"[tool.reprolint] schema locator"
                    ),
                ))
                continue
            baseline = committed.get(name)
            if not isinstance(baseline, dict):
                found.append(Violation(
                    rule_id=self.rule_id, path=entry["module"],
                    line=entry["line"], col=0,
                    message=(
                        f"schema {name!r} has no committed "
                        f"fingerprint; run `repro-sim lint "
                        f"--update-fingerprints` and commit the result"
                    ),
                ))
                continue
            same_fields = (
                baseline.get("fingerprint") == entry["fingerprint"]
            )
            same_version = baseline.get("version") == entry["version"]
            if same_fields and same_version:
                continue
            if same_version:  # fields drifted, constant did not
                added = sorted(
                    set(entry["fields"]) - set(baseline.get("fields", []))
                )
                removed = sorted(
                    set(baseline.get("fields", [])) - set(entry["fields"])
                )
                delta = "; ".join(
                    part for part in (
                        f"added {added}" if added else "",
                        f"removed {removed}" if removed else "",
                    ) if part
                )
                found.append(Violation(
                    rule_id=self.rule_id, path=entry["module"],
                    line=entry["line"], col=0,
                    message=(
                        f"schema {name!r} serialized field set changed "
                        f"({delta}) but {config_constant(config, name)} "
                        f"is still {entry['version']}; bump it and "
                        f"refresh the fingerprint file"
                    ),
                ))
            else:
                found.append(Violation(
                    rule_id=self.rule_id, path=entry["module"],
                    line=entry["line"], col=0,
                    message=(
                        f"schema {name!r} changed (version "
                        f"{baseline.get('version')} -> "
                        f"{entry['version']}); refresh the committed "
                        f"fingerprints with `repro-sim lint "
                        f"--update-fingerprints` so the ratchet "
                        f"tracks the new shape"
                    ),
                ))
        return found


def config_constant(config: LintConfig, schema_name: str) -> str:
    for spec in config.schemas:
        if spec.name == schema_name:
            return spec.constant
    return "the schema constant"


def write_fingerprints(
    files: Sequence[SourceFile], config: LintConfig, path
) -> Dict[str, Dict]:
    """Regenerate the committed fingerprint file from current sources.

    Used by ``repro-sim lint --update-fingerprints`` after a deliberate,
    version-bumped schema change.  Extraction errors raise so a broken
    locator cannot silently write an empty ratchet.
    """
    import json

    current = extract_schemas(files, config)
    schemas: Dict[str, Dict] = {}
    for name, entry in sorted(current.items()):
        if "error" in entry:
            raise ValueError(f"schema {name!r}: {entry['error']}")
        schemas[name] = {
            "version": entry["version"],
            "fields": entry["fields"],
            "fingerprint": entry["fingerprint"],
        }
    payload = {
        "comment": (
            "reprolint REPRO008 ratchet: the committed (version, "
            "serialized field set) of each schema-versioned payload. "
            "Regenerate with `repro-sim lint --update-fingerprints` "
            "after a deliberate, version-bumped schema change."
        ),
        "schemas": schemas,
    }
    Path(path).write_text(
        json.dumps(payload, indent=1) + "\n", encoding="utf-8"
    )
    return schemas


def _suppression_comments(
    src: SourceFile,
) -> List[Tuple[int, str, List[str]]]:
    """``(line, kind, rule_ids)`` for every *real* suppression comment.

    Tokenize-based on purpose: the framework's line regex also matches
    suppression-shaped text inside string literals (fixture sources in
    ``selftest.py``, docs in docstrings) — those are not suppressions
    and must not be audited as dead ones.  Files that never mention
    ``reprolint:`` skip the tokenizer.
    """
    if "reprolint:" not in src.text:
        return []
    out: List[Tuple[int, str, List[str]]] = []
    try:
        tokens = tokenize.generate_tokens(
            io.StringIO(src.text).readline
        )
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(tok.string)
            if not match:
                continue
            kind, raw = match.groups()
            ids = [r.strip() for r in raw.split(",") if r.strip()]
            out.append((tok.start[0], kind, ids))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return []
    return out


class DeadSuppressionRule(Rule):
    """REPRO015 — every suppression comment still suppresses something.

    A ``# reprolint: disable=...`` that no longer matches any raw
    finding is not harmless: it pre-authorizes a *future* violation on
    that line, silently, and rots the audit trail the in-line
    suppression design exists for.  The runner hands this audit every
    raw (pre-suppression) finding it already computed for the file —
    file- and project-scope rules alike — and it flags each suppressed
    rule id with no finding left to suppress, plus unknown rule ids and
    ``disable-file`` comments below the honoured window.  Ids of
    registered rules that did not run (disabled in the config) are not
    judged.
    """

    rule_id = "REPRO015"
    title = "no dead suppression comments"
    invariant = (
        "suppression auditability: `git log -S reprolint` only shows "
        "who accepted which exception if every disable comment maps "
        "to a live, intentional finding"
    )
    scope = "audit"

    def audit(
        self, src: SourceFile, raw: Sequence[Violation],
        judged: Set[str],
    ) -> List[Violation]:
        comments = _suppression_comments(src)
        if not comments or src.tree is None:
            return []
        from .framework import all_rules

        known = {r.rule_id for r in all_rules(None)}
        raw_lines: Dict[str, Set[int]] = {}
        for violation in raw:
            raw_lines.setdefault(violation.rule_id, set()).add(
                violation.line
            )

        found: List[Violation] = []

        def report(line: int, message: str) -> None:
            found.append(Violation(
                rule_id=self.rule_id, path=src.rel, line=line, col=0,
                message=message,
            ))

        for line, kind, ids in comments:
            for rid in ids:
                if rid == "all":
                    continue  # blanket: auditing it needs every rule
                if rid not in known:
                    report(line, f"suppression names unknown rule "
                                 f"{rid!r}; it disables nothing")
                    continue
                if kind == "disable-file" and \
                        line > FILE_SUPPRESS_WINDOW:
                    report(line, f"disable-file={rid} below line "
                                 f"{FILE_SUPPRESS_WINDOW} is outside "
                                 f"the honoured window and has no "
                                 f"effect")
                    continue
                if rid not in judged:
                    continue
                if kind == "disable":
                    dead = line not in raw_lines.get(rid, ())
                    where = f"at line {line}"
                else:
                    dead = not raw_lines.get(rid)
                    where = "anywhere in the file"
                if dead:
                    report(line, f"dead suppression: no {rid} finding "
                                 f"{where} is left to suppress — remove "
                                 f"the comment so it cannot silently "
                                 f"pre-authorize a future violation")
        return found


STRUCTURE_RULES = (
    RegistryClosureRule(), ConfigValidationRule(), SchemaFingerprintRule(),
    DeadSuppressionRule(),
)
