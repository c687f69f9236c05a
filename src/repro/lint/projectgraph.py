"""Whole-project call graph with bottom-up function summaries.

Every rule about *what a function can reach* — REPRO001 (wall clock and
entropy in simulation code), REPRO003 (raw writes in persistence code),
REPRO014 (monotonic readings in documents) — is judged here, on one
graph.  This module parses every source handed to the linter and builds

* a **module table** per module (its functions, classes with their
  methods, and import aliases),
* an **alias-resolved call graph** (``from .campaign import save as s``
  and re-exports through ``__init__`` both resolve to the defining
  function), and
* **per-function facts and summaries** — for each function (and each
  module's top-level code, the ``<module>`` pseudo-function), every
  direct wall-clock/entropy call and raw filesystem write it contains,
  and whether it can *transitively* reach one, or return a monotonic
  clock reading.

Summaries are computed bottom-up over the call graph with a fixed-point
loop, so mutual recursion converges (properties only ever turn on —
the lattice is a product of booleans).  Each summary stores a *next
hop* rather than a flat flag: either the offending call site itself or
the call edge it was inherited through, so ``lint --why`` can print the
full chain from an entry point down to ``time.time()``.  A direct fact
is a zero-hop chain.

The graph is rebuilt from the sources on every lint run and never
written to disk; a one-slot in-process memo lets the graph rules,
``--why`` and ``--graph-stats`` share one build per run.

Known over-approximations (deliberate — this is a linter, not a
verifier): code inside nested functions and lambdas is attributed to
the enclosing top-level function whether or not the closure is ever
called, and calls through variables or data structures do not create
edges.
"""

from __future__ import annotations

import ast
import dataclasses
import json
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .astutil import dotted_name, module_dotted, module_package
from .framework import LintConfig, SourceFile

# The summary lattice: one monotone boolean per property.
PROP_WALLCLOCK = "wallclock"    # reaches a wall-clock/entropy source
PROP_RAWWRITE = "rawwrite"      # performs a raw (non-atomic) FS write
PROP_MONOTONIC = "monotonic"    # returns a monotonic clock reading

PROPS = (PROP_WALLCLOCK, PROP_RAWWRITE, PROP_MONOTONIC)

#: Exact dotted call targets that read a wall clock or entropy source.
WALLCLOCK_CALLS = {
    "time.time": "reads the wall clock",
    "time.time_ns": "reads the wall clock",
    "time.monotonic": "reads a host clock",
    "time.monotonic_ns": "reads a host clock",
    "time.perf_counter": "reads a host clock",
    "time.perf_counter_ns": "reads a host clock",
    "time.process_time": "reads a host clock",
    "time.process_time_ns": "reads a host clock",
    "datetime.datetime.now": "reads the wall clock",
    "datetime.datetime.utcnow": "reads the wall clock",
    "datetime.datetime.today": "reads the wall clock",
    "datetime.date.today": "reads the wall clock",
    "datetime.now": "reads the wall clock",
    "datetime.utcnow": "reads the wall clock",
    "os.urandom": "draws OS entropy",
    "uuid.uuid1": "draws host state",
    "uuid.uuid4": "draws OS entropy",
}

#: Prefixes banned wholesale: any call into these namespaces is either
#: entropy or global-RNG state.
WALLCLOCK_PREFIXES = (
    ("secrets.", "draws OS entropy"),
    ("numpy.random.", "uses numpy's global RNG"),
    ("np.random.", "uses numpy's global RNG"),
)

#: Host-clock readers (the monotonic-discipline sources, REPRO014).
HOST_CLOCK_CALLS = frozenset(
    name for name in WALLCLOCK_CALLS if name.startswith("time.")
)

#: open() modes that create or truncate — the dangerous ones.
_WRITE_MODES = ("w", "a", "x", "+")

#: A direct fact still counts as a raw finding when its line carries a
#: suppression for this rule id, but it does not enter the summary: an
#: accepted, documented exception (``MetricsRegistry.span``'s host
#: profiling, the torn-write fault helpers) must not taint every caller
#: upstream.
_PROP_SUPPRESS: Dict[str, Tuple[str, ...]] = {
    PROP_WALLCLOCK: ("REPRO001",),
    PROP_RAWWRITE: ("REPRO003",),
    PROP_MONOTONIC: ("REPRO001", "REPRO014"),
}


def fkey(rel: str, qualname: str) -> str:
    """Stable function key: ``<repo-relative path>::<qualname>``."""
    return f"{rel}::{qualname}"


def fkey_parts(key: str) -> Tuple[str, str]:
    rel, _, qualname = key.partition("::")
    return rel, qualname


def _last_segment(qualname: str) -> str:
    return qualname.rsplit(".", 1)[-1]


@dataclasses.dataclass(frozen=True)
class Hop:
    """One step of a summary's explanation chain.

    ``kind == "direct"``: the fact itself — ``detail`` describes the
    offending expression at ``rel:line``.  ``kind == "call"``: the fact
    was inherited through the call at ``rel:line`` to the function key
    in ``detail``; follow that key's summary for the next hop.
    """

    kind: str
    rel: str
    line: int
    detail: str


@dataclasses.dataclass
class ModuleTable:
    """One module's resolvable surface: defs, classes, import aliases."""

    functions: Set[str]
    classes: Dict[str, Set[str]]
    aliases: Dict[str, str]


@dataclasses.dataclass
class FunctionNode:
    """One scanned function: resolved call sites plus direct facts."""

    key: str
    rel: str
    qualname: str
    lineno: int
    calls: List[Tuple[int, str]] = dataclasses.field(default_factory=list)
    return_calls: List[Tuple[int, str]] = \
        dataclasses.field(default_factory=list)
    #: Every direct fact per property, suppressed or not (raw findings).
    facts: Dict[str, List[Hop]] = dataclasses.field(default_factory=dict)
    #: The first unsuppressed fact per property (the summary seed).
    direct: Dict[str, Hop] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class GraphStats:
    """Build statistics for ``lint --graph-stats``."""

    modules: int = 0
    functions: int = 0
    call_edges: int = 0
    prop_counts: Dict[str, int] = dataclasses.field(default_factory=dict)

    def to_dict(self) -> Dict:
        return dataclasses.asdict(self)

    def render(self) -> str:
        props = ", ".join(
            f"{p}={self.prop_counts.get(p, 0)}" for p in PROPS
        )
        return (
            f"project graph: {self.modules} module(s), "
            f"{self.functions} function(s), "
            f"{self.call_edges} call edge(s)\n"
            f"summaries: {props}"
        )


class CallResolver:
    """Resolve one module's call expressions to project functions.

    Resolution order: ``self.``/``cls.`` methods of the enclosing
    class; import aliases (already shadowing-aware) expanded to dotted
    paths and matched against project modules by longest prefix, with
    re-exports chased through ``__init__`` aliases; local top-level
    functions and class constructors; everything else is external and
    reported by its canonical dotted name for fact classification.
    """

    _MAX_CHASE = 5  # re-export indirection bound

    def __init__(
        self,
        rel: str,
        tables: Dict[str, ModuleTable],
        dotted_to_rel: Dict[str, str],
    ) -> None:
        self.rel = rel
        self.tables = tables
        self.dotted_to_rel = dotted_to_rel

    def resolve(
        self, func: ast.AST, enclosing_class: Optional[str] = None
    ) -> Optional[Tuple[str, str]]:
        """``("local", fkey)`` | ``("ext", dotted name)`` | ``None``."""
        name = dotted_name(func)
        if name is None:
            return None  # call on a call result, subscript, lambda, ...
        table = self.tables[self.rel]
        parts = name.split(".")
        head = parts[0]
        if head in ("self", "cls") and enclosing_class is not None:
            if len(parts) == 2 and \
                    parts[1] in table.classes.get(enclosing_class, ()):
                return ("local",
                        fkey(self.rel, f"{enclosing_class}.{parts[1]}"))
            return None
        if len(parts) == 1:
            if head in table.aliases:
                hit = self._resolve_dotted(table.aliases[head], 0)
                return hit or ("ext", table.aliases[head])
            if head in table.functions:
                return ("local", fkey(self.rel, head))
            if head in table.classes:
                return self._constructor(self.rel, head) or None
            return ("ext", head)
        if head in table.aliases:
            full = table.aliases[head] + "." + ".".join(parts[1:])
            hit = self._resolve_dotted(full, 0)
            return hit or ("ext", full)
        if head in table.classes and len(parts) == 2 and \
                parts[1] in table.classes[head]:
            return ("local", fkey(self.rel, f"{head}.{parts[1]}"))
        return ("ext", name)

    def _constructor(
        self, rel: str, cls: str
    ) -> Optional[Tuple[str, str]]:
        if "__init__" in self.tables[rel].classes.get(cls, ()):
            return ("local", fkey(rel, f"{cls}.__init__"))
        return None  # synthesized __init__ (dataclass etc.): no edge

    def _resolve_dotted(
        self, full: str, depth: int
    ) -> Optional[Tuple[str, str]]:
        if depth >= self._MAX_CHASE:
            return None
        parts = full.split(".")
        for i in range(len(parts) - 1, 0, -1):
            rel2 = self.dotted_to_rel.get(".".join(parts[:i]))
            if rel2 is not None:
                return self._member(rel2, parts[i:], depth)
        return None

    def _member(
        self, rel2: str, rest: Sequence[str], depth: int
    ) -> Optional[Tuple[str, str]]:
        table = self.tables.get(rel2)
        if table is None:
            return None
        if len(rest) == 1:
            name = rest[0]
            if name in table.functions:
                return ("local", fkey(rel2, name))
            if name in table.classes:
                return self._constructor(rel2, name)
            if name in table.aliases:  # re-export (__init__ surface)
                return self._resolve_dotted(table.aliases[name],
                                            depth + 1)
            return None
        if len(rest) == 2:
            cls, method = rest
            if cls in table.classes and method in table.classes[cls]:
                return ("local", fkey(rel2, f"{cls}.{method}"))
            if cls in table.aliases:
                return self._resolve_dotted(
                    table.aliases[cls] + "." + method, depth + 1
                )
        return None


class ProjectGraph:
    """The built graph: facts, summaries, chains, per-module functions."""

    def __init__(
        self,
        tables: Dict[str, ModuleTable],
        dotted_to_rel: Dict[str, str],
        facts: Dict[str, Dict[str, List[Hop]]],
        summaries: Dict[str, Dict[str, Hop]],
        functions_by_module: Dict[str, List[Tuple[str, int]]],
        stats: GraphStats,
    ) -> None:
        self.tables = tables
        self.dotted_to_rel = dotted_to_rel
        self.facts = facts
        self.summaries = summaries
        self.functions_by_module = functions_by_module
        self.stats = stats

    def summary(self, key: str) -> Dict[str, Hop]:
        return self.summaries.get(key, {})

    def direct_facts(self, key: str, prop: str) -> List[Hop]:
        """Every direct ``prop`` fact in ``key``, suppressed or not."""
        return self.facts.get(key, {}).get(prop, [])

    def functions_in(self, rel: str) -> List[Tuple[str, int]]:
        """``(qualname, lineno)`` of every function unit in ``rel``."""
        return self.functions_by_module.get(rel, [])

    def resolver_for(self, rel: str) -> CallResolver:
        return CallResolver(rel, self.tables, self.dotted_to_rel)

    def chain(self, key: str, prop: str) -> List[Hop]:
        """The hop chain from ``key`` down to the direct fact."""
        hops: List[Hop] = []
        seen: Set[str] = set()
        current = key
        while current not in seen:
            seen.add(current)
            hop = self.summaries.get(current, {}).get(prop)
            if hop is None:
                break
            hops.append(hop)
            if hop.kind != "call":
                break
            current = hop.detail
        return hops

    def describe_chain(self, key: str, prop: str) -> str:
        """One-line rendering of the chain, for messages and --why."""
        rel, qualname = fkey_parts(key)
        parts = [f"{qualname} ({rel})"]
        for hop in self.chain(key, prop):
            if hop.kind == "call":
                _, callee = fkey_parts(hop.detail)
                parts.append(f"{hop.rel}:{hop.line} calls {callee}")
            else:
                parts.append(f"{hop.rel}:{hop.line} {hop.detail}")
        return " -> ".join(parts)


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
def _config_key(config: LintConfig) -> str:
    cfg = dataclasses.replace(config, fingerprints_data=None)
    return json.dumps(
        dataclasses.asdict(cfg), sort_keys=True, default=str
    )


#: One-slot memo: the graph rules (and --why) all build
#: the graph for the same (sources, config) within one lint run.
_MEMO: Dict[Tuple, ProjectGraph] = {}


def build_project_graph(
    sources: Sequence[SourceFile], config: LintConfig
) -> ProjectGraph:
    """Build (or reuse) the project graph over ``sources``.

    The graph covers exactly the files handed to the linter — lint a
    single module and the analysis is correspondingly partial; CI and
    the acceptance gate run over all of ``src/``.
    """
    files = sorted(
        (s for s in sources if s.rel.endswith(".py")
         and s.tree is not None),
        key=lambda s: s.rel,
    )
    memo_key = (
        tuple((s.rel, s.content_hash) for s in files),
        _config_key(config),
    )
    cached = _MEMO.get(memo_key)
    if cached is not None:
        return cached
    graph = _build(files, config)
    _MEMO.clear()
    _MEMO[memo_key] = graph
    return graph


def clear_graph_memo() -> None:
    """Forget the memoized graph, so the next build starts cold."""
    _MEMO.clear()


def _module_table(src: SourceFile) -> ModuleTable:
    functions: Set[str] = set()
    classes: Dict[str, Set[str]] = {}
    for node in src.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions.add(node.name)
        elif isinstance(node, ast.ClassDef):
            methods = {
                sub.name for sub in node.body
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            classes[node.name] = methods
    return ModuleTable(
        functions=functions, classes=classes,
        aliases=src.import_aliases(module_package(src.rel)),
    )


def _scan_module(
    src: SourceFile, resolver: CallResolver, config: LintConfig
) -> List[FunctionNode]:
    """Function units of ``src`` with resolved calls and direct facts."""
    module_stmts: List[ast.stmt] = []
    units: List[Tuple[str, int, List[ast.stmt], Optional[str]]] = []
    for node in src.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            units.append((node.name, node.lineno, [node], None))
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef,
                                    ast.AsyncFunctionDef)):
                    units.append((
                        f"{node.name}.{sub.name}", sub.lineno, [sub],
                        node.name,
                    ))
                else:  # class-level code runs at import time
                    module_stmts.append(sub)
        else:
            module_stmts.append(node)
    units.append(("<module>", 1, module_stmts, None))
    return_call_ids = {
        id(node.value) for node in src.nodes
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Call)
    }
    return [
        _scan_unit(src, resolver, config, qual, lineno, stmts, cls,
                   return_call_ids)
        for qual, lineno, stmts, cls in units
    ]


def _scan_unit(
    src: SourceFile,
    resolver: CallResolver,
    config: LintConfig,
    qualname: str,
    lineno: int,
    stmts: List[ast.stmt],
    enclosing_class: Optional[str],
    return_call_ids: Set[int],
) -> FunctionNode:
    node_fn = FunctionNode(
        key=fkey(src.rel, qualname), rel=src.rel, qualname=qualname,
        lineno=lineno,
    )

    def add_direct(prop: str, line: int, desc: str) -> None:
        hop = Hop("direct", src.rel, line, desc)
        node_fn.facts.setdefault(prop, []).append(hop)
        if prop not in node_fn.direct and not any(
            src.suppressed(line, rid) for rid in _PROP_SUPPRESS[prop]
        ):
            node_fn.direct[prop] = hop

    def handle_call(call: ast.Call, func_name: Optional[str]) -> None:
        line = call.lineno
        hit = resolver.resolve(call.func, enclosing_class)
        ext_name: Optional[str] = None
        if hit is not None and hit[0] == "local":
            callee = hit[1]
            if callee != node_fn.key:  # self-recursion adds nothing
                node_fn.calls.append((line, callee))
                if id(call) in return_call_ids:
                    node_fn.return_calls.append((line, callee))
        elif hit is not None:
            ext_name = hit[1]
            why = _wallclock_fact(call, ext_name)
            if why is not None:
                add_direct(PROP_WALLCLOCK, line, why)
            if ext_name in HOST_CLOCK_CALLS and \
                    id(call) in return_call_ids:
                add_direct(PROP_MONOTONIC, line, f"returns {ext_name}()")
        if func_name is not None and func_name in config.atomic_writers:
            return  # inside a blessed atomic primitive
        if ext_name == "open":
            mode = _open_write_mode(call)
            if mode is not None:
                add_direct(PROP_RAWWRITE, line,
                           f"open(..., {mode!r}) raw write")
        elif isinstance(call.func, ast.Attribute) and \
                call.func.attr in ("write_text", "write_bytes"):
            add_direct(PROP_RAWWRITE, line,
                       f".{call.func.attr}() raw write")

    def visit(node: ast.AST, func_name: Optional[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func_name = node.name
        elif isinstance(node, ast.Call):
            handle_call(node, func_name)
        for child in ast.iter_child_nodes(node):
            visit(child, func_name)

    outer = qualname if qualname != "<module>" else None
    outer_name = _last_segment(outer) if outer else None
    for stmt in stmts:
        visit(stmt, outer_name)
    return node_fn


def _wallclock_fact(call: ast.Call, name: str) -> Optional[str]:
    """Why calling external ``name`` breaks determinism, or None."""
    if name in WALLCLOCK_CALLS:
        return f"{name}() {WALLCLOCK_CALLS[name]}"
    for prefix, why in WALLCLOCK_PREFIXES:
        if name.startswith(prefix):
            return f"{name}() {why}"
    head, _, tail = name.partition(".")
    if name == "Random" or name.endswith(".Random"):
        if not call.args and not call.keywords:
            return "random.Random() without a seed draws OS entropy"
        if call.args and isinstance(call.args[0], ast.Constant) and \
                call.args[0].value is None:
            return "random.Random(None) seeds from OS entropy"
    elif head == "random" and tail and "." not in tail:
        return (f"module-level random.{tail}() uses the "
                f"interpreter-global RNG")
    return None


def _open_write_mode(node: ast.Call) -> Optional[str]:
    """The mode string of an ``open()`` call if it writes, else None."""
    mode: Optional[ast.AST] = None
    if len(node.args) >= 2:
        mode = node.args[1]
    for keyword in node.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if mode is None:
        return None  # default "r"
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        if any(flag in mode.value for flag in _WRITE_MODES):
            return mode.value
        return None
    return "<dynamic>"  # can't prove it's read-only: flag it


def _build(
    files: Sequence[SourceFile], config: LintConfig
) -> ProjectGraph:
    dotted_to_rel: Dict[str, str] = {}
    for s in files:
        dotted_to_rel.setdefault(module_dotted(s.rel), s.rel)

    tables = {s.rel: _module_table(s) for s in files}

    # Scan: resolve call sites, collect direct facts.
    nodes: Dict[str, FunctionNode] = {}
    facts: Dict[str, Dict[str, List[Hop]]] = {}
    summaries: Dict[str, Dict[str, Hop]] = {}
    functions_by_module: Dict[str, List[Tuple[str, int]]] = {}
    edge_count = 0
    for s in files:
        resolver = CallResolver(s.rel, tables, dotted_to_rel)
        mod_nodes = _scan_module(s, resolver, config)
        functions_by_module[s.rel] = sorted(
            (n.qualname, n.lineno) for n in mod_nodes
        )
        edge_count += sum(len(n.calls) for n in mod_nodes)
        for n in mod_nodes:
            nodes[n.key] = n
            facts[n.key] = n.facts
            summaries[n.key] = dict(n.direct)

    # Fixed point: propagate properties bottom-up.  Each property only
    # ever turns on, so the loop terminates; sorted iteration keeps the
    # chosen chains deterministic.
    atomic = set(config.atomic_writers)
    ordered = sorted(nodes)
    changed = True
    while changed:
        changed = False
        for key in ordered:
            node = nodes[key]
            summary = summaries[key]
            for prop in PROPS:
                if prop in summary:
                    continue
                sites = (
                    node.return_calls if prop == PROP_MONOTONIC
                    else node.calls
                )
                for line, callee in sites:
                    if callee not in summaries:
                        continue
                    if prop == PROP_RAWWRITE and \
                            _last_segment(fkey_parts(callee)[1]) \
                            in atomic:
                        continue  # blessed: the write inside is atomic
                    if prop in summaries[callee]:
                        summary[prop] = Hop("call", node.rel, line,
                                            callee)
                        changed = True
                        break

    prop_counts = {
        prop: sum(1 for s in summaries.values() if prop in s)
        for prop in PROPS
    }
    stats = GraphStats(
        modules=len(files),
        functions=len(summaries),
        call_edges=edge_count,
        prop_counts=prop_counts,
    )
    return ProjectGraph(
        tables=tables,
        dotted_to_rel=dotted_to_rel,
        facts=facts,
        summaries=summaries,
        functions_by_module=functions_by_module,
        stats=stats,
    )
