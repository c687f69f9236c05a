"""The eight-trace suite standing in for the paper's Table 1.

Two families are provided, mirroring the paper:

* ``mu3``, ``mu6``, ``mu10``, ``savec`` — VAX-family multiprogrammed
  traces with an operating-system pseudo-process, denser data reference
  mixes, and a fixed warm-start boundary (the paper used 450 K references
  of ~1.1–1.7 M);
* ``rd1n3``, ``rd2n4``, ``rd1n5``, ``rd2n7`` — RISC-family traces built
  from uniprocess program models randomly interleaved "to duplicate the
  distribution of context switch intervals seen in the VAX traces", each
  carrying an R2000-style warm prefix of previously-touched unique
  references so large-cache results are trustworthy.

Lengths and footprints default to laptop-friendly values; pass larger
``length``/``scale`` for higher-fidelity runs.  All generation is
deterministic given ``seed``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from .multiprogram import interleave, with_warm_prefix
from .record import Trace
from .workloads import Program, make_program

#: Default per-trace length in references.  The paper's traces were 1.1 to
#: 1.7 M references; the default here keeps the full 8-trace suite cheap
#: enough for tests while preserving curve shapes.  Experiments accept a
#: ``trace_length`` parameter to scale up.
DEFAULT_LENGTH = 300_000

#: Fraction of a VAX-family trace used for cache warm-up (the paper's
#: 450 K boundary was roughly a third of each trace).
VAX_WARM_FRACTION = 0.34

#: Fraction of the body length used as the history run that builds the
#: RISC-family warm prefix.
RISC_HISTORY_FRACTION = 0.35

#: Mean context-switch interval in references, applied to both families.
MEAN_SWITCH_INTERVAL = 4_000.0

#: Program composition of each trace, following Table 1's descriptions.
TRACE_PROGRAMS: Dict[str, List[str]] = {
    # VAX family (VMS / Ultrix, with an OS pseudo-process).
    "mu3": [
        "os_kernel", "fortran_compile", "microcode_alloc", "dir_search",
        "misc_activity", "misc_activity", "misc_activity",
    ],
    "mu6": [
        "os_kernel", "fortran_compile", "microcode_alloc", "dir_search",
        "pascal_compile", "spice", "misc_activity", "misc_activity",
        "misc_activity", "misc_activity", "misc_activity",
    ],
    "mu10": [
        "os_kernel", "fortran_compile", "microcode_alloc", "dir_search",
        "pascal_compile", "spice", "jacobian", "string_search",
        "assembler", "octal_dump", "linker", "misc_activity",
        "misc_activity", "misc_activity",
    ],
    "savec": [
        "os_kernel", "c_compile", "misc_activity", "misc_activity",
        "misc_activity", "misc_activity",
    ],
    # RISC family (optimized C programs, no OS references).
    "rd1n3": ["emacs", "switch_prog", "rsim"],
    "rd2n4": ["ccom", "emacs", "troff", "trace_analyzer"],
    "rd1n5": ["ccom", "emacs", "troff", "trace_analyzer", "egrep"],
    "rd2n7": [
        "ccom", "emacs", "troff", "trace_analyzer", "rsim", "grep", "emacs",
    ],
}

#: Names of the VAX-family and RISC-family traces, in Table 1 order.
VAX_TRACES: Tuple[str, ...] = ("mu3", "mu6", "mu10", "savec")
RISC_TRACES: Tuple[str, ...] = ("rd1n3", "rd2n4", "rd1n5", "rd2n7")
ALL_TRACES: Tuple[str, ...] = VAX_TRACES + RISC_TRACES


def _trace_salt(name: str) -> int:
    """Deterministic per-trace salt so different traces never share
    program streams (hash() is randomized across runs; don't use it)."""
    value = 0
    for ch in name:
        value = (value * 131 + ord(ch)) & 0x7FFFFFFF
    return value


def _make_programs(name: str, scale: float, seed: int) -> List[Program]:
    presets = TRACE_PROGRAMS[name]
    salt = _trace_salt(name)
    return [
        make_program(
            preset, pid=pid + 1,
            seed=seed * 7919 + pid * 104729 + salt * 31 + 13,
            scale=scale,
        )
        for pid, preset in enumerate(presets)
    ]


def build_trace(
    name: str,
    length: int = DEFAULT_LENGTH,
    scale: float = 1.0,
    seed: int = 0,
) -> Trace:
    """Build one named trace of the suite.

    For VAX-family names the trace is a straight multiprogrammed
    interleaving with a warm boundary at ``VAX_WARM_FRACTION`` of its
    length.  For RISC-family names a history run is generated first (and
    discarded) to produce the warm prefix of unique references; the same
    program instances then continue into the measured body, so the body
    genuinely resumes mid-execution — "gathered from a random location in
    the middle of each program's execution", as the paper puts it.
    """
    if name not in TRACE_PROGRAMS:
        raise ConfigurationError(
            f"unknown trace {name!r}; available: {sorted(TRACE_PROGRAMS)}"
        )
    if length <= 0:
        raise ConfigurationError(f"trace length must be positive, got {length}")
    programs = _make_programs(name, scale, seed)
    if name in VAX_TRACES:
        trace = interleave(
            programs, length=length,
            mean_switch_interval=MEAN_SWITCH_INTERVAL,
            scheduler="round_robin", seed=seed + 17, name=name,
        )
        return trace.with_warm_boundary(int(length * VAX_WARM_FRACTION))
    history_len = max(1, int(length * RISC_HISTORY_FRACTION))
    # The body resumes the history's programs, so the history runs its
    # final quantum out.
    history = interleave(
        programs, length=history_len,
        mean_switch_interval=MEAN_SWITCH_INTERVAL,
        scheduler="random", seed=seed + 29, name=f"{name}-history",
        _whole_final_quantum=True,
    )
    body = interleave(
        programs, length=length,
        mean_switch_interval=MEAN_SWITCH_INTERVAL,
        scheduler="random", seed=seed + 31, name=name,
    )
    return with_warm_prefix(body, history, name=name)


@lru_cache(maxsize=64)
def _cached_trace(name: str, length: int, scale: float, seed: int) -> Trace:
    return build_trace(name, length=length, scale=scale, seed=seed)


def build_suite(
    length: int = DEFAULT_LENGTH,
    scale: float = 1.0,
    seed: int = 0,
    names: Optional[Sequence[str]] = None,
) -> Dict[str, Trace]:
    """Build (and memoize) the trace suite.

    ``names`` selects a subset; the default is all eight traces.  Results
    are cached per ``(name, length, scale, seed)`` because the experiment
    harness evaluates many cache organizations against the same stimulus,
    exactly as the paper reused its traces across its simulation farm.
    """
    selected = tuple(names) if names is not None else ALL_TRACES
    for name in selected:
        if name not in TRACE_PROGRAMS:
            raise ConfigurationError(f"unknown trace {name!r}")
    return {
        name: _cached_trace(name, length, scale, seed) for name in selected
    }
