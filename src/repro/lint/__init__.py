"""reprolint: AST-based invariant checking for the simulator.

Runtime layers assume properties no test asserts globally: re-simulation
is byte-identical (the quarantine/retry machinery of
:mod:`repro.sim.resilience`), cycle arithmetic is exactly conserved
(:mod:`repro.sim.telemetry`'s ledger), campaign persistence is atomic
(:mod:`repro.sim.campaign`).  This package checks those invariants
statically over the repo's own source — stdlib :mod:`ast` only, no new
dependencies — as ``repro-sim lint`` and as an importable API:

>>> from repro.lint import lint_paths
>>> result = lint_paths(["src"])
>>> result.clean, len(result.violations)

Rule IDs, the invariants they protect, and the suppression syntax are
documented in ``docs/invariants.md``.
"""

from .framework import (  # noqa: F401
    Baseline,
    LintConfig,
    LintInputError,
    LintResult,
    Rule,
    SourceFile,
    Violation,
    all_rules,
    find_repo_root,
    lint_paths,
    lint_sources,
    load_config,
)
from .projectgraph import (  # noqa: F401
    ProjectGraph,
    build_project_graph,
)
from .selftest import run_self_test  # noqa: F401

__all__ = [
    "ProjectGraph",
    "build_project_graph",
    "Baseline",
    "LintConfig",
    "LintInputError",
    "LintResult",
    "Rule",
    "SourceFile",
    "Violation",
    "all_rules",
    "find_repo_root",
    "lint_paths",
    "lint_sources",
    "load_config",
    "run_self_test",
]
