"""Per-rule behaviour: each rule fires on its violating fixture, stays
silent on its clean one, and the guarded-path scoping holds."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import LintConfig, SourceFile, all_rules, lint_sources
from repro.lint.selftest import fixture_for, fixtures_for, rule_fixtures

RULE_IDS = sorted(r.rule_id for r in all_rules())


def _lint(files, rule_id, config):
    rules = [r for r in all_rules() if r.rule_id == rule_id]
    sources = [SourceFile(rel, text) for rel, text in files]
    return lint_sources(sources, config=config, rules=rules)


def test_every_rule_has_a_fixture():
    assert {f.rule_id for f in rule_fixtures()} == set(RULE_IDS)


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_violating_fixture_fires(rule_id):
    for fixture in fixtures_for(rule_id):
        result = _lint(fixture.violating, rule_id, fixture.config)
        hits = [v for v in result.violations if v.rule_id == rule_id]
        assert len(hits) >= fixture.expect_min, fixture.name
        # Findings are locatable and carry the rule id in their
        # rendering.
        for violation in hits:
            assert violation.line >= 1
            assert rule_id in violation.render()


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_clean_fixture_is_silent(rule_id):
    for fixture in fixtures_for(rule_id):
        result = _lint(fixture.clean, rule_id, fixture.config)
        assert result.violations == [], fixture.name


@pytest.mark.parametrize("rule_id", ["REPRO001", "REPRO003"])
def test_graph_rules_have_a_chain_fixture(rule_id):
    assert "chain" in {f.label for f in fixtures_for(rule_id)}


def test_repro001_outside_guarded_paths_is_ignored():
    rel = "src/repro/trace/synthetic_helper.py"  # not a guarded package
    text = "import time\n\ndef stamp():\n    return time.time()\n"
    result = _lint([(rel, text)], "REPRO001", LintConfig())
    assert result.violations == []


def test_repro001_catches_insertion_into_engine():
    """The acceptance scenario: a stray time.time() in sim/engine.py
    must fail the lint gate."""
    root = Path(__file__).resolve().parents[2]
    engine = (root / "src/repro/sim/engine.py").read_text(
        encoding="utf-8"
    )
    sabotaged = engine + (
        "\n\ndef _timestamp_run():\n"
        "    import time\n"
        "    return time.time()\n"
    )
    clean = _lint(
        [("src/repro/sim/engine.py", engine)], "REPRO001", LintConfig()
    )
    assert clean.violations == []
    dirty = _lint(
        [("src/repro/sim/engine.py", sabotaged)], "REPRO001",
        LintConfig(),
    )
    assert len(dirty.violations) == 1
    assert "time.time" in dirty.violations[0].message


def test_repro002_allows_floor_division_and_exempt_names():
    rel = "src/repro/sim/quantize_helper.py"
    text = (
        "def quantize(total, refs):\n"
        "    cycles = total // refs\n"
        "    cycle_ns = 40.0\n"
        "    cycles_per_reference = total / refs\n"
        "    return cycles, cycle_ns, cycles_per_reference\n"
    )
    result = _lint([(rel, text)], "REPRO002", LintConfig())
    assert result.violations == []


def test_repro002_flags_division_into_cycle_counter():
    rel = "src/repro/sim/quantize_helper.py"
    text = "def quantize(total, refs):\n    cycles = total / refs\n"
    result = _lint([(rel, text)], "REPRO002", LintConfig())
    assert len(result.violations) == 1
    assert "true division" in result.violations[0].message


def test_repro003_allows_reads_everywhere():
    rel = "src/repro/sim/campaign.py"
    text = (
        "def load(path):\n"
        "    with open(path, encoding='utf-8') as handle:\n"
        "        return handle.read()\n"
    )
    result = _lint([(rel, text)], "REPRO003", LintConfig())
    assert result.violations == []


def test_repro004_narrow_handler_is_fine():
    rel = "src/repro/sim/cleanup_helper.py"
    text = (
        "def close(conn):\n"
        "    try:\n"
        "        conn.close()\n"
        "    except (OSError, ValueError):\n"
        "        pass\n"
    )
    result = _lint([(rel, text)], "REPRO004", LintConfig())
    assert result.violations == []


def test_repro005_iterated_but_not_imported():
    registry = (
        "from . import fig_a\n"
        "EXPERIMENTS = {\n"
        "    m.EXPERIMENT_ID: m.run for m in (fig_a, fig_b)\n"
        "}\n"
    )
    module = "EXPERIMENT_ID = 'a'\n\ndef run(settings=None):\n    pass\n"
    files = [
        ("src/repro/experiments/registry.py", registry),
        ("src/repro/experiments/fig_a.py", module),
        ("src/repro/experiments/fig_b.py", module),
    ]
    result = _lint(files, "REPRO005", LintConfig())
    messages = " | ".join(v.message for v in result.violations)
    assert "without importing" in messages


def test_repro006_missing_post_init_flags_scalars():
    rel = "src/repro/sim/config.py"
    text = (
        "from dataclasses import dataclass\n\n"
        "@dataclass\n"
        "class Knob:\n"
        "    depth: int = 4\n"
    )
    result = _lint([(rel, text)], "REPRO006", LintConfig())
    assert len(result.violations) == 1
    assert "depth" in result.violations[0].message


def test_repro008_version_bump_without_refresh_is_flagged():
    fixture = fixture_for("REPRO008")
    rel, text = fixture.clean[0]
    bumped = text.replace("SCHEMA_VERSION = 2", "SCHEMA_VERSION = 3")
    result = _lint([(rel, bumped)], "REPRO008", fixture.config)
    assert len(result.violations) == 1
    assert "--update-fingerprints" in result.violations[0].message


def test_syntax_error_is_reported_not_raised():
    result = lint_sources(
        [SourceFile("src/repro/sim/broken.py", "def broken(:\n")],
        config=LintConfig(),
    )
    assert [v.rule_id for v in result.violations] == ["REPRO000"]
