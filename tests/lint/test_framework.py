"""Framework behaviour: suppression, baseline ratchet, config loading,
fingerprint regeneration — and the repo itself lints clean, read-only."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import (
    Baseline,
    LintConfig,
    SourceFile,
    all_rules,
    lint_paths,
    lint_sources,
    load_config,
    run_self_test,
)
from repro.lint.framework import collect_sources
from repro.lint.rules_structure import extract_schemas, write_fingerprints

REPO_ROOT = Path(__file__).resolve().parents[2]

_VIOLATING = (
    "import time\n\n"
    "def stamp(stats):\n"
    "    stats['at'] = time.time()\n"
    "    return stats\n"
)


def _rule(rule_id):
    return [r for r in all_rules() if r.rule_id == rule_id]


# ----------------------------------------------------------------------
# The repo's own gates
# ----------------------------------------------------------------------
def test_repo_at_head_lints_clean():
    """`repro-sim lint src/` must exit clean on the committed tree."""
    result = lint_paths([REPO_ROOT / "src"], root=REPO_ROOT)
    assert result.violations == [], "\n" + result.render()


def test_self_test_passes():
    ok, report = run_self_test()
    assert ok, report


def test_committed_fingerprints_match_sources():
    config = load_config(REPO_ROOT)
    sources = collect_sources([REPO_ROOT / "src"], REPO_ROOT)
    current = extract_schemas(sources, config)
    committed = json.loads(
        (REPO_ROOT / config.fingerprints_path).read_text(
            encoding="utf-8"
        )
    )["schemas"]
    assert set(current) == set(committed)
    for name, entry in current.items():
        assert "error" not in entry, entry
        assert committed[name]["fingerprint"] == entry["fingerprint"]
        assert committed[name]["version"] == entry["version"]


needs_tomllib = pytest.mark.skipif(
    sys.version_info < (3, 11), reason="tomllib unavailable"
)


@needs_tomllib
def test_config_table_is_read_from_pyproject():
    config = load_config(REPO_ROOT)
    assert config.enabled == tuple(
        f"REPRO00{i}" for i in range(1, 9)
    ) + ("REPRO014", "REPRO015")
    assert set(config.enabled) == {r.rule_id for r in all_rules()}
    assert "repro/sim" in config.deterministic_paths
    for module in ("campaign", "passcache", "workqueue", "benchhistory"):
        assert f"repro/sim/{module}.py" in config.write_scoped_modules
    assert "atomic_claim_text" in config.atomic_writers
    # The built-in defaults (used without tomllib) mirror the table.
    assert config == LintConfig(enabled=config.enabled)


def _write_table(root, body):
    (root / "pyproject.toml").write_text(
        "[tool.reprolint]\n" + body, encoding="utf-8"
    )


_MALFORMED_TABLES = {
    "unknown-key": (
        'pass-cache-modules = ["repro/sim/passcache.py"]\n',
        "unknown key 'pass-cache-modules'",
    ),
    "non-list": (
        "atomic-writers = 5\n",
        "atomic-writers must be a list of strings, got 5",
    ),
    "unknown-rule": (
        'enabled = ["REPRO001", "REPRO0l2"]\n',
        "enabled names unknown rule(s) REPRO0l2",
    ),
}


@needs_tomllib
@pytest.mark.parametrize("case", sorted(_MALFORMED_TABLES))
def test_malformed_config_is_rejected(tmp_path, case):
    body, message = _MALFORMED_TABLES[case]
    _write_table(tmp_path, body)
    with pytest.raises(ValueError, match=re.escape(message)):
        load_config(tmp_path)


def _lint_cli_in(root, *argv):
    (root / "src").mkdir(exist_ok=True)
    (root / "src" / "mod.py").write_text("X = 1\n", encoding="utf-8")
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", "lint", "src", *argv],
        cwd=root, capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"),
             "PATH": "/usr/bin:/bin"},
    )


@needs_tomllib
@pytest.mark.parametrize("case", sorted(_MALFORMED_TABLES))
def test_cli_lint_malformed_config_exits_2(tmp_path, case):
    body, message = _MALFORMED_TABLES[case]
    _write_table(tmp_path, body)
    proc = _lint_cli_in(tmp_path)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert message in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr


# ----------------------------------------------------------------------
# One walk per module
# ----------------------------------------------------------------------
def test_source_file_walks_and_resolves_aliases_once():
    import ast

    from repro.lint.astutil import import_aliases

    src = SourceFile(
        "src/repro/sim/helper.py",
        "import time as t\nfrom . import engine\n" + _VIOLATING,
    )
    assert [type(n) for n in src.nodes] == \
        [type(n) for n in ast.walk(src.tree)]
    assert src.nodes is src.nodes
    for package in (None, "repro.sim"):
        assert src.import_aliases(package) == \
            import_aliases(src.tree, package=package)
        assert src.import_aliases(package) is src.import_aliases(package)
    assert src.import_aliases()["engine"] == "engine"
    assert src.import_aliases("repro.sim")["engine"] == "repro.sim.engine"


def test_source_file_with_a_syntax_error_has_no_nodes():
    src = SourceFile("src/repro/sim/broken.py", "def (:\n")
    assert src.tree is None and src.nodes == []
    assert src.import_aliases() == {}


# ----------------------------------------------------------------------
# Suppression
# ----------------------------------------------------------------------
def test_line_suppression():
    text = _VIOLATING.replace(
        "time.time()",
        "time.time()  # reprolint: disable=REPRO001",
    )
    result = lint_sources(
        [SourceFile("src/repro/sim/helper.py", text)],
        rules=_rule("REPRO001"),
    )
    assert result.violations == []


def test_suppression_of_other_rule_does_not_apply():
    text = _VIOLATING.replace(
        "time.time()",
        "time.time()  # reprolint: disable=REPRO002",
    )
    result = lint_sources(
        [SourceFile("src/repro/sim/helper.py", text)],
        rules=_rule("REPRO001"),
    )
    assert len(result.violations) == 1


def test_file_suppression_near_top_applies():
    header = "# reprolint: disable-file=REPRO001\n"
    result = lint_sources(
        [SourceFile("src/repro/sim/helper.py", header + _VIOLATING)],
        rules=_rule("REPRO001"),
    )
    assert result.violations == []


def test_file_suppression_past_window_is_ignored():
    padding = "# filler\n" * 20  # push the comment past the scan window
    tail_comment = padding + \
        "# reprolint: disable-file=REPRO001\n" + _VIOLATING
    result = lint_sources(
        [SourceFile("src/repro/sim/helper.py", tail_comment)],
        rules=_rule("REPRO001"),
    )
    assert len(result.violations) == 1  # too late in the file


# ----------------------------------------------------------------------
# Baseline ratchet
# ----------------------------------------------------------------------
def test_baseline_absorbs_known_violations_but_not_new_ones():
    src = SourceFile("src/repro/sim/helper.py", _VIOLATING)
    first = lint_sources([src], rules=_rule("REPRO001"))
    assert len(first.violations) == 1
    baseline = Baseline.from_violations(
        [(v, src.source_line(v.line)) for v in first.violations]
    )
    second = lint_sources(
        [src], rules=_rule("REPRO001"), baseline=baseline
    )
    assert second.violations == []
    assert len(second.baselined) == 1
    # A second, new occurrence exceeds the baselined count and fails.
    doubled = SourceFile(
        "src/repro/sim/helper.py",
        _VIOLATING + "\ndef again():\n    return time.time()\n",
    )
    third = lint_sources(
        [doubled], rules=_rule("REPRO001"), baseline=baseline
    )
    assert len(third.violations) == 1
    assert len(third.baselined) == 1


@pytest.mark.parametrize("count", ["three", 2.5, None, True])
def test_baseline_with_non_integer_count_is_rejected(tmp_path, count):
    path = tmp_path / "lint-baseline.json"
    path.write_text(
        json.dumps({"entries": {"0123abcd": count}}), encoding="utf-8"
    )
    with pytest.raises(ValueError, match="'0123abcd'"):
        Baseline.load(path)


def test_cli_lint_malformed_baseline_exits_2(tmp_path):
    (tmp_path / "pyproject.toml").write_text("", encoding="utf-8")
    (tmp_path / "lint-baseline.json").write_text(
        json.dumps({"entries": {"0123abcd": "three"}}), encoding="utf-8"
    )
    proc = _lint_cli_in(tmp_path)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "baseline entry '0123abcd'" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_baseline_round_trips_through_disk(tmp_path):
    src = SourceFile("src/repro/sim/helper.py", _VIOLATING)
    found = lint_sources([src], rules=_rule("REPRO001")).violations
    baseline = Baseline.from_violations(
        [(v, src.source_line(v.line)) for v in found]
    )
    path = tmp_path / "lint-baseline.json"
    baseline.save(path)
    reloaded = Baseline.load(path)
    assert reloaded.counts == baseline.counts


# ----------------------------------------------------------------------
# Fingerprint regeneration
# ----------------------------------------------------------------------
def test_write_fingerprints_round_trip(tmp_path):
    config = load_config(REPO_ROOT)
    sources = collect_sources([REPO_ROOT / "src"], REPO_ROOT)
    out = tmp_path / "fingerprints.json"
    schemas = write_fingerprints(sources, config, out)
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["schemas"] == schemas
    assert {
        "campaign_result", "run_report", "pass_cache_entry"
    } <= set(schemas)


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
def _run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        cwd=REPO_ROOT, capture_output=True, text=True,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
    )


def test_cli_lint_src_exits_zero():
    proc = _run_cli("lint", "src")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_cli_lint_json_format():
    proc = _run_cli("lint", "src", "--format", "json")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["clean"] is True
    assert payload["violations"] == []


def test_cli_lint_leaves_the_checkout_unchanged(tmp_path):
    """A lint run is read-only: with or without ``--graph-stats`` it
    adds, removes and rewrites no file in the checkout it lints."""
    (tmp_path / "pyproject.toml").write_text(
        '[project]\nname = "demo"\n', encoding="utf-8"
    )
    package = tmp_path / "src" / "repro" / "sim"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("", encoding="utf-8")
    (package / "engine.py").write_text(
        "from .util import step\n\n\ndef run(n):\n"
        "    return step(n)\n",
        encoding="utf-8",
    )
    (package / "util.py").write_text(
        "def step(n):\n    return n + 1\n", encoding="utf-8"
    )

    def listing():
        return sorted(
            (path.relative_to(tmp_path).as_posix(), path.stat().st_mtime_ns)
            for path in tmp_path.rglob("*")
        )

    before = listing()
    for argv in ((), ("--graph-stats",)):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "lint", "src", *argv],
            cwd=tmp_path, capture_output=True, text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"),
                 "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert listing() == before, argv


def test_cli_lint_self_test():
    proc = _run_cli("lint", "--self-test")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "self-test PASSED" in proc.stdout


def test_cli_lint_unknown_rule_is_usage_error():
    proc = _run_cli("lint", "src", "--rule", "REPRO999")
    assert proc.returncode == 2
    assert "unknown rule" in proc.stderr


def test_cli_lint_detects_sabotage(tmp_path):
    """End to end: copying the tree and inserting time.time() into
    sim/engine.py must flip the exit code to 1."""
    import shutil

    workdir = tmp_path / "repo"
    (workdir / "src").parent.mkdir(parents=True, exist_ok=True)
    shutil.copytree(REPO_ROOT / "src", workdir / "src")
    shutil.copy(REPO_ROOT / "pyproject.toml", workdir / "pyproject.toml")
    shutil.copy(
        REPO_ROOT / "lint-baseline.json", workdir / "lint-baseline.json"
    )
    engine = workdir / "src/repro/sim/engine.py"
    engine.write_text(
        engine.read_text(encoding="utf-8")
        + "\n\ndef _stamp():\n    import time\n    return time.time()\n",
        encoding="utf-8",
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "lint", "src"],
        cwd=workdir, capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"),
             "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "REPRO001" in proc.stdout
