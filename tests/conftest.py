"""Shared fixtures for the test suite.

Traces are deliberately small: the functional behaviours under test
(hit/miss classification, timing semantics, aggregation) do not depend
on trace length, and the suite must stay fast.  Shape-sensitive checks
(integration tests) use somewhat longer traces and loose thresholds.
"""

from __future__ import annotations

import pytest

from repro.sim.config import baseline_config
from repro.trace.record import RefKind, Trace
from repro.trace.suite import build_trace
from repro.units import KB


@pytest.fixture(scope="session")
def mu3_small() -> Trace:
    """A small VAX-family trace (multiprogrammed, fixed warm boundary)."""
    return build_trace("mu3", length=20_000, seed=3)


@pytest.fixture(scope="session")
def rd2n4_small() -> Trace:
    """A small RISC-family trace (warm prefix + body)."""
    return build_trace("rd2n4", length=20_000, seed=3)


@pytest.fixture(scope="session")
def tiny_trace() -> Trace:
    """A hand-rolled trace exercising all three reference kinds."""
    kinds, addrs, pids = [], [], []
    for i in range(400):
        kinds.append(int(RefKind.IFETCH))
        addrs.append(i % 64)
        pids.append(1 + (i % 2))
        if i % 3 == 0:
            kinds.append(int(RefKind.LOAD) if i % 2 else int(RefKind.STORE))
            addrs.append(1024 + (i * 7) % 256)
            pids.append(1 + (i % 2))
    return Trace(kinds, addrs, pids, name="tiny", warm_boundary=100)


@pytest.fixture()
def small_config():
    """The base system scaled down to an 8 KB pair."""
    return baseline_config(cache_size_bytes=8 * KB)


@pytest.fixture()
def counted_passes(monkeypatch):
    """The organizations of the functional passes taken from here on,
    in order (in-process passes only)."""
    import repro.sim.stackpass as stackpass

    passes = []
    organization_pass = stackpass.organization_pass

    def counting(*args, **kwargs):
        passes.append(args[0])
        return organization_pass(*args, **kwargs)

    monkeypatch.setattr(stackpass, "organization_pass", counting)
    return passes
