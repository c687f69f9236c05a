"""The cross-module analysis engine: call resolution (aliases,
relative imports, re-exports through ``__init__``), bottom-up summary
propagation with recursion, hop chains, and the in-process memo that
lets one lint run share one build."""

from __future__ import annotations

from repro.lint import LintConfig, SourceFile, build_project_graph
from repro.lint.projectgraph import (
    PROP_MONOTONIC,
    PROP_RAWWRITE,
    PROP_WALLCLOCK,
    fkey,
)


def _graph(files, **config_kwargs):
    sources = [SourceFile(rel, text) for rel, text in files]
    return build_project_graph(sources, LintConfig(**config_kwargs))


_HELPER = (
    "src/repro/trace/stamputil.py",
    "import time\n\n"
    "def now_tag():\n"
    "    return time.time()\n",
)


# ----------------------------------------------------------------------
# Summary propagation across modules
# ----------------------------------------------------------------------
def test_wallclock_propagates_through_module_chain():
    graph = _graph([
        _HELPER,
        (
            "src/repro/sim/engine.py",
            "from repro.trace.stamputil import now_tag\n\n"
            "def step(state):\n"
            "    return now_tag()\n",
        ),
    ])
    summary = graph.summary(fkey("src/repro/sim/engine.py", "step"))
    assert PROP_WALLCLOCK in summary
    hop = summary[PROP_WALLCLOCK]
    assert hop.kind == "call"
    assert hop.detail == fkey("src/repro/trace/stamputil.py", "now_tag")


def test_chain_walks_down_to_the_direct_fact():
    graph = _graph([
        _HELPER,
        (
            "src/repro/sim/engine.py",
            "from repro.trace.stamputil import now_tag\n\n"
            "def step(state):\n"
            "    return now_tag()\n",
        ),
    ])
    key = fkey("src/repro/sim/engine.py", "step")
    chain = graph.chain(key, PROP_WALLCLOCK)
    assert [h.kind for h in chain] == ["call", "direct"]
    assert chain[-1].rel == "src/repro/trace/stamputil.py"
    text = graph.describe_chain(key, PROP_WALLCLOCK)
    assert "step" in text and "now_tag" in text
    assert "time.time()" in text


def test_relative_import_resolves_to_sibling_module():
    graph = _graph([
        (
            "src/repro/sim/helper.py",
            "import random\n\n"
            "def draw():\n"
            "    return random.random()\n",
        ),
        (
            "src/repro/sim/engine.py",
            "from .helper import draw\n\n"
            "def step(state):\n"
            "    return draw()\n",
        ),
    ])
    summary = graph.summary(fkey("src/repro/sim/engine.py", "step"))
    assert PROP_WALLCLOCK in summary


def test_reexport_through_init_is_chased():
    graph = _graph([
        _HELPER,
        (
            "src/repro/trace/__init__.py",
            "from .stamputil import now_tag\n",
        ),
        (
            "src/repro/sim/engine.py",
            "from repro.trace import now_tag\n\n"
            "def step(state):\n"
            "    return now_tag()\n",
        ),
    ])
    summary = graph.summary(fkey("src/repro/sim/engine.py", "step"))
    assert PROP_WALLCLOCK in summary


def test_method_and_self_call_resolution():
    graph = _graph([
        (
            "src/repro/sim/engine.py",
            "import time\n\n"
            "class Engine:\n"
            "    def _stamp(self):\n"
            "        return time.time()\n"
            "    def step(self, n):\n"
            "        return self._stamp()\n",
        ),
    ])
    rel = "src/repro/sim/engine.py"
    assert PROP_WALLCLOCK in graph.summary(fkey(rel, "Engine._stamp"))
    summary = graph.summary(fkey(rel, "Engine.step"))
    assert summary[PROP_WALLCLOCK].kind == "call"


def test_mutual_recursion_reaches_fixed_point():
    graph = _graph([
        (
            "src/repro/sim/engine.py",
            "import time\n\n"
            "def ping(n):\n"
            "    return pong(n - 1)\n\n"
            "def pong(n):\n"
            "    if n <= 0:\n"
            "        return time.time()\n"
            "    return ping(n)\n",
        ),
    ])
    rel = "src/repro/sim/engine.py"
    for name in ("ping", "pong"):
        assert PROP_WALLCLOCK in graph.summary(fkey(rel, name)), name
    # The chain terminates despite the cycle.
    chain = graph.chain(fkey(rel, "ping"), PROP_WALLCLOCK)
    assert chain[-1].kind == "direct"


def test_clean_module_has_no_wallclock_summary():
    graph = _graph([
        (
            "src/repro/sim/engine.py",
            "def step(state, n):\n"
            "    return state + n\n",
        ),
    ])
    summary = graph.summary(fkey("src/repro/sim/engine.py", "step"))
    assert PROP_WALLCLOCK not in summary


# ----------------------------------------------------------------------
# Other lattice properties
# ----------------------------------------------------------------------
def test_rawwrite_fact_and_atomic_writer_blessing():
    graph = _graph(
        [
            (
                "src/repro/sim/io.py",
                "def atomic_write_text(path, text):\n"
                "    open(path, 'w').write(text)\n\n"
                "def raw_dump(path, text):\n"
                "    open(path, 'w').write(text)\n",
            ),
            (
                "src/repro/sim/campaign.py",
                "from .io import atomic_write_text, raw_dump\n\n"
                "def save(path, text):\n"
                "    atomic_write_text(path, text)\n\n"
                "def sloppy(path, text):\n"
                "    raw_dump(path, text)\n",
            ),
        ],
    )
    rel = "src/repro/sim/campaign.py"
    # Writes inside a blessed atomic writer don't taint its callers...
    assert PROP_RAWWRITE not in graph.summary(fkey(rel, "save"))
    # ...but an unblessed helper does.
    assert PROP_RAWWRITE in graph.summary(fkey(rel, "sloppy"))


def test_monotonic_only_taints_return_position():
    graph = _graph([
        (
            "src/repro/sim/clock.py",
            "import time\n\n"
            "def reading():\n"
            "    return time.monotonic()\n\n"
            "def duration():\n"
            "    t0 = time.monotonic()\n"
            "    return 1\n",
        ),
    ])
    rel = "src/repro/sim/clock.py"
    assert PROP_MONOTONIC in graph.summary(fkey(rel, "reading"))
    assert PROP_MONOTONIC not in graph.summary(fkey(rel, "duration"))


def test_suppressed_fact_does_not_taint_callers():
    graph = _graph([
        (
            "src/repro/sim/timer.py",
            "import time\n\n"
            "def host_stamp():\n"
            "    return time.time()"
            "  # reprolint: disable=REPRO001\n",
        ),
        (
            "src/repro/sim/engine.py",
            "from .timer import host_stamp\n\n"
            "def step(state):\n"
            "    return host_stamp()\n",
        ),
    ])
    summary = graph.summary(fkey("src/repro/sim/engine.py", "step"))
    assert PROP_WALLCLOCK not in summary


def test_direct_facts_keep_every_call_including_suppressed_ones():
    graph = _graph([
        (
            "src/repro/sim/timer.py",
            "import time\n\n"
            "def lap():\n"
            "    t0 = time.time()  # reprolint: disable=REPRO001\n"
            "    return time.time() - t0\n",
        ),
    ])
    key = fkey("src/repro/sim/timer.py", "lap")
    assert [h.line for h in graph.direct_facts(key, PROP_WALLCLOCK)] \
        == [4, 5]
    # The summary seeds from the first *unsuppressed* fact.
    assert graph.summary(key)[PROP_WALLCLOCK].line == 5


def test_module_level_code_is_a_pseudo_function():
    graph = _graph([
        (
            "src/repro/sim/setup.py",
            "import time\n"
            "STARTED = time.time()\n",
        ),
    ])
    summary = graph.summary(
        fkey("src/repro/sim/setup.py", "<module>")
    )
    assert PROP_WALLCLOCK in summary
    assert summary[PROP_WALLCLOCK].kind == "direct"


# ----------------------------------------------------------------------
# In-process memo
# ----------------------------------------------------------------------
_MEMO_FILES = [
    _HELPER,
    (
        "src/repro/sim/engine.py",
        "from repro.trace.stamputil import now_tag\n\n"
        "def step(state):\n"
        "    return now_tag()\n",
    ),
    (
        "src/repro/sim/other.py",
        "def unrelated(x):\n"
        "    return x + 1\n",
    ),
]


def test_same_sources_and_config_share_one_build():
    sources = [SourceFile(rel, text) for rel, text in _MEMO_FILES]
    config = LintConfig()
    g1 = build_project_graph(sources, config)
    g2 = build_project_graph(
        [SourceFile(rel, text) for rel, text in _MEMO_FILES],
        LintConfig(),
    )
    assert g1 is g2
    edited = [SourceFile(_HELPER[0], "def now_tag():\n    return 0\n")]
    g3 = build_project_graph(edited, config)
    assert g3 is not g1


def test_memo_rebuilds_when_an_imported_module_changes():
    """The memo keys on every file's content, so an edit to a helper
    reaches its importers' summaries on the next build."""
    g1 = _graph(_MEMO_FILES)
    key = fkey("src/repro/sim/engine.py", "step")
    assert PROP_WALLCLOCK in g1.summary(key)
    edited = [(_HELPER[0], "def now_tag():\n    return 0\n")]
    g2 = _graph(edited + _MEMO_FILES[1:])
    assert PROP_WALLCLOCK not in g2.summary(key)
