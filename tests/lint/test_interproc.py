"""The graph rules (REPRO001 determinism, REPRO003 atomic writes,
REPRO014 monotonic clock discipline), the dead-suppression audit
(REPRO015), and the CLI surface (``--graph-stats``, ``--why``).

The ``test_repro012_*`` / ``test_repro013_*`` cases keep their names
from the cross-module chain rules that REPRO001 and REPRO003 absorbed;
they pin the same findings under the surviving ids.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import (
    LintConfig,
    SourceFile,
    all_rules,
    lint_sources,
)
from repro.lint.rules_interproc import explain_why

REPO_ROOT = Path(__file__).resolve().parents[2]


def _rule(rule_id):
    return [r for r in all_rules() if r.rule_id == rule_id]


def _where(result):
    return [(v.path, v.line) for v in result.violations]


_HELPER = SourceFile(
    "src/repro/trace/stamputil.py",
    "import time\n\n"
    "def now_tag():\n"
    "    return time.time()\n",
)
_ENGINE = SourceFile(
    "src/repro/sim/engine.py",
    "from repro.trace.stamputil import now_tag\n\n"
    "def step(state, n):\n"
    "    return now_tag()\n",
)


# ----------------------------------------------------------------------
# REPRO001: call chains out of the deterministic paths
# ----------------------------------------------------------------------
def test_repro012_catches_cross_module_chain():
    result = lint_sources([_ENGINE, _HELPER], rules=_rule("REPRO001"))
    assert _where(result) == [("src/repro/sim/engine.py", 4)]
    v = result.violations[0]
    # The message carries the whole chain down to the clock call.
    assert "step" in v.message
    assert "now_tag" in v.message
    assert "time.time()" in v.message


def test_repro001_catches_chain_from_cache_package():
    """``repro/cache`` is a deterministic path, so a replacement policy
    that reaches the clock through a trace helper is a finding too."""
    policy = SourceFile(
        "src/repro/cache/policy.py",
        "from repro.trace.stamputil import now_tag\n\n"
        "def choose_victim(ways):\n"
        "    return now_tag() % ways\n",
    )
    result = lint_sources([policy, _HELPER], rules=_rule("REPRO001"))
    assert _where(result) == [("src/repro/cache/policy.py", 4)]
    assert "time.time()" in result.violations[0].message


def test_repro001_reports_a_chain_once_where_it_leaves_scope():
    # engine.step -> sim/relay.forward -> trace/stamputil.now_tag: the
    # chain leaves the deterministic paths in relay.py, and only there
    # is it reported.
    relay = SourceFile(
        "src/repro/sim/relay.py",
        "from repro.trace.stamputil import now_tag\n\n"
        "def forward():\n"
        "    return now_tag()\n",
    )
    engine = SourceFile(
        "src/repro/sim/engine.py",
        "from repro.sim.relay import forward\n\n"
        "def step(state, n):\n"
        "    return forward()\n",
    )
    result = lint_sources(
        [engine, relay, _HELPER], rules=_rule("REPRO001")
    )
    assert _where(result) == [("src/repro/sim/relay.py", 4)]


def test_repro012_ignores_direct_calls_in_hot_path():
    # A time.time() *in* engine.py is a zero-hop chain: one finding at
    # the call, not a second one for the enclosing function.
    direct = SourceFile(
        "src/repro/sim/engine.py",
        "import time\n\n"
        "def step(state, n):\n"
        "    return time.time()\n",
    )
    result = lint_sources([direct], rules=_rule("REPRO001"))
    assert _where(result) == [("src/repro/sim/engine.py", 4)]
    assert "time.time() reads the wall clock" in \
        result.violations[0].message


def test_repro012_clean_when_helper_is_deterministic():
    clean_helper = SourceFile(
        "src/repro/trace/stamputil.py",
        "def now_tag():\n"
        "    return 0\n",
    )
    result = lint_sources(
        [_ENGINE, clean_helper], rules=_rule("REPRO001")
    )
    assert result.violations == []


def test_repro012_outside_hot_path_is_ignored():
    caller = SourceFile(
        "src/repro/analysis/report.py",  # not a deterministic path
        "from repro.trace.stamputil import now_tag\n\n"
        "def annotate(doc):\n"
        "    return now_tag()\n",
    )
    result = lint_sources([caller, _HELPER], rules=_rule("REPRO001"))
    assert result.violations == []


# ----------------------------------------------------------------------
# REPRO003: raw writes reachable from the write-scoped modules
# ----------------------------------------------------------------------
_RAWIO = SourceFile(
    "src/repro/util/rawio.py",
    "def dump(path, text):\n"
    "    with open(path, 'w') as fh:\n"
    "        fh.write(text)\n",
)
_CAMPAIGN = SourceFile(
    "src/repro/sim/campaign.py",
    "from repro.util.rawio import dump\n\n"
    "def save_results(path, rows):\n"
    "    dump(path, repr(rows))\n",
)

#: One raw write per case, and the line it must be reported at.
_WRITE_CASES = {
    "open": (
        "def save(path, doc):\n"
        "    with open(path, 'w', encoding='utf-8') as fh:\n"
        "        fh.write(doc)\n",
        2,
    ),
    "write_text": (
        "from pathlib import Path\n\n"
        "def save(path, doc):\n"
        "    Path(path).write_text(doc, encoding='utf-8')\n",
        4,
    ),
    "write_bytes": (
        "from pathlib import Path\n\n"
        "def save(path, doc):\n"
        "    Path(path).write_bytes(doc)\n",
        4,
    ),
    "chain": (
        "from repro.util.rawio import dump\n\n"
        "def save(path, doc):\n"
        "    dump(path, doc)\n",
        4,
    ),
}


@pytest.mark.parametrize("case", sorted(_WRITE_CASES))
@pytest.mark.parametrize("module", LintConfig().write_scoped_modules)
def test_atomic_write_rule_covers_every_write_scoped_module(module, case):
    text, line = _WRITE_CASES[case]
    rel = f"src/{module}"
    result = lint_sources(
        [SourceFile(rel, text), _RAWIO], rules=_rule("REPRO003")
    )
    assert _where(result) == [(rel, line)]


def test_repro003_reports_each_raw_write_in_a_function():
    src = SourceFile(
        "src/repro/sim/passcache.py",
        "from pathlib import Path\n\n"
        "def put(path, doc):\n"
        "    Path(path).write_text(doc)\n"
        "    Path(str(path) + '.sum').write_text(doc)\n",
    )
    result = lint_sources([src], rules=_rule("REPRO003"))
    assert _where(result) == [
        ("src/repro/sim/passcache.py", 4),
        ("src/repro/sim/passcache.py", 5),
    ]


def test_repro013_catches_escaped_write_helper():
    result = lint_sources(
        [_CAMPAIGN, _RAWIO], rules=_rule("REPRO003")
    )
    assert _where(result) == [("src/repro/sim/campaign.py", 4)]
    assert "rawio" in result.violations[0].message


def test_repro013_skips_chains_through_atomic_writers():
    blessed = SourceFile(
        "src/repro/sim/campaign.py",
        "from repro.util.rawio import atomic_write_text\n\n"
        "def save_results(path, rows):\n"
        "    atomic_write_text(path, repr(rows))\n",
    )
    writer = SourceFile(
        "src/repro/util/rawio.py",
        "def atomic_write_text(path, text):\n"
        "    with open(path, 'w') as fh:\n"
        "        fh.write(text)\n",
    )
    result = lint_sources([blessed, writer], rules=_rule("REPRO003"))
    assert result.violations == []


def test_repro013_skips_writes_inside_scoped_modules():
    # A chain ending at a direct write in another write-scoped module
    # is reported once, at that write — not again at the caller.
    queue = SourceFile(
        "src/repro/sim/workqueue.py",
        "def spool(path, text):\n"
        "    with open(path, 'w') as fh:\n"
        "        fh.write(text)\n",
    )
    caller = SourceFile(
        "src/repro/sim/campaign.py",
        "from repro.sim.workqueue import spool\n\n"
        "def save_results(path, rows):\n"
        "    spool(path, repr(rows))\n",
    )
    result = lint_sources([caller, queue], rules=_rule("REPRO003"))
    assert _where(result) == [("src/repro/sim/workqueue.py", 2)]


# ----------------------------------------------------------------------
# REPRO014: monotonic clock discipline
# ----------------------------------------------------------------------
def _lint14(text):
    src = SourceFile("src/repro/sim/workqueue.py", text)
    return lint_sources([src], rules=_rule("REPRO014"))


def test_repro014_flags_serialized_monotonic_reading():
    result = _lint14(
        "import time\n\n"
        "def lease_doc(worker):\n"
        "    now = time.monotonic()\n"
        "    return {'worker': worker, 'at': now}\n"
    )
    assert len(result.violations) == 1
    assert result.violations[0].line == 5


def test_repro014_allows_serialized_durations():
    result = _lint14(
        "import time\n\n"
        "def timed(fn):\n"
        "    t0 = time.monotonic()\n"
        "    fn()\n"
        "    return {'elapsed': time.monotonic() - t0}\n"
    )
    assert result.violations == []


def test_repro014_taint_flows_through_local_helper():
    queue = SourceFile(
        "src/repro/sim/workqueue.py",
        "from repro.sim.clockutil import stamp\n\n"
        "def lease_doc(worker):\n"
        "    return {'worker': worker, 'at': stamp()}\n",
    )
    clock = SourceFile(
        "src/repro/sim/clockutil.py",
        "import time\n\n"
        "def stamp():\n"
        "    return time.monotonic()\n",
    )
    result = lint_sources([queue, clock], rules=_rule("REPRO014"))
    assert len(result.violations) == 1


def test_repro014_ignores_unscoped_modules():
    src = SourceFile(
        "src/repro/sim/report.py",  # not a write-scoped module
        "import time\n\n"
        "def doc():\n"
        "    return {'at': time.monotonic()}\n",
    )
    result = lint_sources([src], rules=_rule("REPRO014"))
    assert result.violations == []


# ----------------------------------------------------------------------
# REPRO015: dead suppressions
# ----------------------------------------------------------------------
def _lint15(text):
    src = SourceFile("src/repro/sim/helper.py", text)
    return lint_sources([src], rules=_rule("REPRO015"))


def test_repro015_flags_dead_line_suppression():
    result = _lint15(
        "def pure(x):\n"
        "    return x + 1  # reprolint: disable=REPRO001\n"
    )
    assert len(result.violations) == 1
    assert "REPRO001" in result.violations[0].message


def test_repro015_accepts_live_suppression():
    result = _lint15(
        "import time\n\n"
        "def stamp():\n"
        "    return time.time()  # reprolint: disable=REPRO001\n"
    )
    assert result.violations == []


def test_repro015_flags_unknown_rule_id():
    result = _lint15(
        "import time\n\n"
        "def stamp():\n"
        "    return time.time()  # reprolint: disable=REPRO999\n"
    )
    messages = [v.message for v in result.violations]
    assert any("REPRO999" in m and "unknown" in m for m in messages)


def test_repro015_flags_disable_file_below_window():
    padding = "# filler\n" * 20
    result = _lint15(
        padding + "# reprolint: disable-file=REPRO001\n"
        "import time\n\n"
        "def stamp():\n"
        "    return time.time()\n"
    )
    assert len(result.violations) == 1
    assert "window" in result.violations[0].message


def test_repro015_ignores_suppression_text_in_strings():
    result = _lint15(
        "FIXTURE = '''\n"
        "x = 1  # reprolint: disable=REPRO001\n"
        "'''\n"
    )
    assert result.violations == []


# Fixture copies of two real waivers: MetricsRegistry.span's host
# profiling in telemetry.py (REPRO001) and the torn-write fault in
# faults.py (REPRO003).  Each is live as written and dead once the
# waived call is gone.
_TELEMETRY_WAIVER = (
    "src/repro/sim/telemetry.py", "REPRO001",
    "import time\n"
    "from contextlib import contextmanager\n\n"
    "class MetricsRegistry:\n"
    "    @contextmanager\n"
    "    def span(self, name):\n"
    "        start = time.perf_counter()  # reprolint: disable=REPRO001\n"
    "        try:\n"
    "            yield\n"
    "        finally:\n"
    "            self.spans[name] = (\n"
    "                time.perf_counter() - start"
    "  # reprolint: disable=REPRO001\n"
    "            )\n",
    "time.perf_counter()  # reprolint: disable=REPRO001\n        try",
    "0.0  # reprolint: disable=REPRO001\n        try",
    7,
)
_FAULTS_WAIVER = (
    "src/repro/sim/faults.py", "REPRO003",
    "from pathlib import Path\n\n"
    "def truncate_file(path):\n"
    "    path = Path(path)\n"
    "    data = path.read_bytes()\n"
    "    # Simulating the torn write is the point.\n"
    "    path.write_bytes(data[: len(data) // 2])"
    "  # reprolint: disable=REPRO003\n",
    "path.write_bytes(data[: len(data) // 2])",
    "del data",
    7,
)


@pytest.mark.parametrize(
    "waiver", [_TELEMETRY_WAIVER, _FAULTS_WAIVER],
    ids=["telemetry-perf_counter", "faults-write_bytes"],
)
def test_repro015_audits_real_waivers(waiver):
    rel, waived_id, text, call, stub, line = waiver
    rules = _rule(waived_id) + _rule("REPRO015")
    live = lint_sources([SourceFile(rel, text)], rules=rules)
    assert live.violations == []

    edited = text.replace(call, stub)
    assert edited != text
    dead = lint_sources([SourceFile(rel, edited)], rules=rules)
    assert [(v.rule_id, v.line) for v in dead.violations] == \
        [("REPRO015", line)]
    assert waived_id in dead.violations[0].message


def test_repro015_keeps_suppression_of_a_chain_finding():
    engine = SourceFile(
        _ENGINE.rel,
        _ENGINE.text.replace(
            "return now_tag()",
            "return now_tag()  # reprolint: disable=REPRO001",
        ),
    )
    unsuppressed = lint_sources([_ENGINE, _HELPER],
                                rules=_rule("REPRO001"))
    assert _where(unsuppressed) == [("src/repro/sim/engine.py", 4)]
    result = lint_sources(
        [engine, _HELPER], rules=_rule("REPRO001") + _rule("REPRO015")
    )
    assert result.violations == []


# ----------------------------------------------------------------------
# explain_why (the --why engine)
# ----------------------------------------------------------------------
def test_explain_why_renders_full_chain():
    lines = explain_why(
        [_ENGINE, _HELPER], LintConfig(), "REPRO001", None
    )
    assert len(lines) == 1
    assert "step" in lines[0]
    assert "time.time()" in lines[0]


def test_explain_why_path_filter_reaches_mid_chain_helpers():
    lines = explain_why(
        [_ENGINE, _HELPER], LintConfig(), "REPRO001", "stamputil"
    )
    assert len(lines) == 1
    assert lines[0].startswith("now_tag")


def test_explain_why_rejects_file_scope_rules():
    try:
        explain_why([_ENGINE], LintConfig(), "REPRO002", None)
    except ValueError as exc:
        assert "REPRO002" in str(exc)
    else:
        raise AssertionError("expected ValueError")


def test_explain_why_write_chain():
    lines = explain_why(
        [_CAMPAIGN, _RAWIO], LintConfig(), "REPRO003", None
    )
    assert len(lines) == 1
    assert lines[0].startswith("save_results")
    assert "open(..., 'w') raw write" in lines[0]


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
def _run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        cwd=REPO_ROOT, capture_output=True, text=True,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
    )


def test_cli_graph_stats_text():
    proc = _run_cli("lint", "src", "--graph-stats")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "project graph:" in proc.stdout
    assert "call edge(s)" in proc.stdout


def test_cli_graph_stats_json():
    proc = _run_cli("lint", "src", "--graph-stats",
                    "--format", "json")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    graph = payload["graph"]
    assert graph["modules"] > 50
    assert graph["functions"] > graph["modules"]
    assert "wallclock" in graph["prop_counts"]


def test_cli_why_clean_tree_reports_no_chains():
    for rule_id in ("REPRO001", "REPRO003"):
        proc = _run_cli("lint", "src", "--why", rule_id)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert f"no {rule_id} chains" in proc.stdout


def test_cli_why_unknown_rule_is_usage_error():
    proc = _run_cli("lint", "src", "--why", "REPRO002")
    assert proc.returncode == 2


@pytest.mark.parametrize("flag", ["--why", "--rule"])
@pytest.mark.parametrize("retired", ["REPRO012", "REPRO013"])
def test_cli_retired_rule_ids_are_usage_errors(flag, retired):
    proc = _run_cli("lint", "src", flag, retired)
    assert proc.returncode == 2
    assert retired in proc.stderr
