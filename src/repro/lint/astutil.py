"""Shared AST helpers for the reprolint rules.

Everything here is pure stdlib-:mod:`ast` analysis: canonicalizing
call targets through a module's import aliases, reading dict-literal
keys and assignment targets, and classifying expressions that can
introduce floats into integer cycle arithmetic.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Tuple


# ----------------------------------------------------------------------
# Import-aware name resolution
# ----------------------------------------------------------------------
def module_dotted(rel: str) -> str:
    """Dotted module name of a repo-relative path.

    ``src/repro/sim/engine.py`` -> ``repro.sim.engine``;
    ``src/repro/sim/__init__.py`` -> ``repro.sim``.  A leading ``src/``
    (the layout's import root) is stripped; other ancestors are kept,
    which is correct for anything importable from the repo root.
    """
    parts = rel.replace("\\", "/").split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def module_package(rel: str) -> str:
    """Dotted name of the package *containing* ``rel``.

    For a plain module this is its parent package; for an
    ``__init__.py`` it is the package itself (matching how a
    one-level-relative import resolves from either).
    """
    dotted = module_dotted(rel)
    if rel.replace("\\", "/").endswith("/__init__.py"):
        return dotted
    return dotted.rsplit(".", 1)[0] if "." in dotted else ""


def _resolve_relative(package: str, level: int, module: str) -> str:
    """Absolute dotted target of ``from <dots><module> import ...``.

    ``level`` is the number of leading dots; ``package`` is the dotted
    package containing the importing module.  Over-deep relatives
    (more dots than packages) degrade to the bare module name, the
    pre-existing suffix-matching behaviour.
    """
    parts = package.split(".") if package else []
    if level - 1 > len(parts):
        return module
    base = parts[: len(parts) - (level - 1)]
    if module:
        base.append(module)
    return ".".join(base)


def import_aliases(
    tree: ast.AST,
    package: Optional[str] = None,
    nodes: Optional[Iterable[ast.AST]] = None,
) -> Dict[str, str]:
    """Map local names to the dotted path they were imported as.

    ``import time as t`` yields ``{"t": "time"}``;
    ``from time import perf_counter as pc`` yields
    ``{"pc": "time.perf_counter"}``.

    With ``package`` (the importing module's dotted package, e.g.
    ``"repro.sim"``), relative imports resolve to absolute dotted
    paths: ``from . import engine`` yields
    ``{"engine": "repro.sim.engine"}`` and ``from ..cache.cache import
    Cache`` yields ``{"Cache": "repro.cache.cache.Cache"}``.  Without
    it they keep their bare module name (callers match on suffixes).

    A module-level assignment, function or class definition that
    rebinds an imported name *after* the import shadows it — the alias
    is dropped so ``time = FakeClock()`` stops ``time.time()`` from
    resolving to the real clock.

    ``nodes``, when given, is ``tree``'s :func:`ast.walk` order already
    in hand, and spares a second walk.
    """
    aliases: Dict[str, str] = {}
    import_lines: Dict[str, int] = {}
    for node in ast.walk(tree) if nodes is None else nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                full = alias.name if alias.asname else local
                aliases[local] = full
                import_lines[local] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level and package is not None:
                module = _resolve_relative(package, node.level, module)
            for alias in node.names:
                local = alias.asname or alias.name
                full = f"{module}.{alias.name}" if module else alias.name
                aliases[local] = full
                import_lines[local] = node.lineno
    for name, line in _module_level_bindings(tree):
        if name in aliases and line > import_lines.get(name, 0):
            del aliases[name]
    return aliases


def _module_level_bindings(tree: ast.AST) -> List[Tuple[str, int]]:
    """(name, line) for every module-level non-import binding."""
    bound: List[Tuple[str, int]] = []
    body = getattr(tree, "body", [])
    for node in body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                targets = (
                    target.elts
                    if isinstance(target, (ast.Tuple, ast.List))
                    else [target]
                )
                for t in targets:
                    if isinstance(t, ast.Name):
                        bound.append((t.id, node.lineno))
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name) and node.value is not None:
                bound.append((node.target.id, node.lineno))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            bound.append((node.name, node.lineno))
    return bound


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def canonical_call_name(
    func: ast.AST, aliases: Dict[str, str]
) -> Optional[str]:
    """Resolve a call's target through the module's import aliases.

    With ``from time import perf_counter``, a bare ``perf_counter()``
    resolves to ``time.perf_counter``; with ``import time as t``,
    ``t.time()`` resolves to ``time.time``.
    """
    name = dotted_name(func)
    if name is None:
        return None
    head, _, rest = name.partition(".")
    expanded = aliases.get(head)
    if expanded is None:
        return name
    return f"{expanded}.{rest}" if rest else expanded


# ----------------------------------------------------------------------
# Structure helpers
# ----------------------------------------------------------------------
def dict_literal_keys(node: ast.AST) -> Optional[List[str]]:
    """Constant string keys of a dict literal (``None`` for non-dicts
    or dicts with any non-constant key, including ``**spread``)."""
    if not isinstance(node, ast.Dict):
        return None
    keys: List[str] = []
    for key in node.keys:
        if not isinstance(key, ast.Constant) or \
                not isinstance(key.value, str):
            return None
        keys.append(key.value)
    return keys


def terminal_name(target: ast.AST) -> Optional[str]:
    """The final identifier of an assignment target (``x``, ``obj.x``,
    ``x[i]`` all yield ``x``; tuples yield ``None`` — callers unpack)."""
    if isinstance(target, ast.Name):
        return target.id
    if isinstance(target, ast.Attribute):
        return target.attr
    if isinstance(target, ast.Subscript):
        return terminal_name(target.value)
    return None


# ----------------------------------------------------------------------
# Float-introduction analysis (REPRO002)
# ----------------------------------------------------------------------
#: Calls that always yield an int (or whose result is re-quantized),
#: terminating the float taint.
_INT_SAFE_CALLS = {
    "int", "round", "len", "sum", "max", "min", "abs", "ord",
    "math.floor", "math.ceil", "math.trunc",
}


def is_floaty(node: ast.AST, aliases: Dict[str, str]) -> bool:
    """Can evaluating ``node`` introduce a float?

    Conservative on unknowns (plain names, attribute loads and calls
    report ``False``): the rule exists to catch *textually visible*
    float creation — literals, ``float()``, true division — not to be a
    type checker.
    """
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.Call):
        name = canonical_call_name(node.func, aliases)
        if name == "float":
            return True
        if name in _INT_SAFE_CALLS:
            return False
        return False  # unknown call: assume it honours its contract
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Div):
            return True
        return is_floaty(node.left, aliases) or \
            is_floaty(node.right, aliases)
    if isinstance(node, ast.UnaryOp):
        return is_floaty(node.operand, aliases)
    if isinstance(node, ast.IfExp):
        return is_floaty(node.body, aliases) or \
            is_floaty(node.orelse, aliases)
    if isinstance(node, (ast.Tuple, ast.List)):
        return any(is_floaty(elt, aliases) for elt in node.elts)
    return False


#: Name segments marking a quantity that is *not* an integer cycle
#: count even though it mentions cycles (times, rates, ratios).
_CYCLE_EXEMPT_SEGMENTS = {
    "ns", "us", "ms", "s", "sec", "secs", "seconds", "time",
    "ratio", "per", "frac", "fraction", "pct", "percent",
    "rate", "hz", "khz", "mhz", "ghz",
}


def is_cycle_counter_name(name: Optional[str]) -> bool:
    """Does ``name`` denote an integer cycle count?

    Matches snake_case names with a ``cycle``/``cycles`` segment unless
    another segment marks a physical time or a ratio (``cycle_ns``,
    ``cycles_per_reference`` are floats by design).
    """
    if not name:
        return False
    segments = name.lower().split("_")
    if "cycle" not in segments and "cycles" not in segments:
        return False
    return not any(seg in _CYCLE_EXEMPT_SEGMENTS for seg in segments)
