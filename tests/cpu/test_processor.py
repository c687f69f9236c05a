"""Couplet pairing: the paper's simultaneous-issue CPU model."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cpu.processor import NO_REF, pair_couplets, sequentialize
from repro.trace.record import RefKind, Trace

I, L, S = int(RefKind.IFETCH), int(RefKind.LOAD), int(RefKind.STORE)


def make_trace(kinds, warm=0):
    addrs = list(range(100, 100 + len(kinds)))
    return Trace(kinds, addrs, [1] * len(kinds), warm_boundary=warm)


class TestPairing:
    def test_ifetch_followed_by_data_pairs(self):
        cs = pair_couplets(make_trace([I, L, I, S]))
        assert len(cs) == 2
        assert cs.i_addr == [100, 102]
        assert cs.d_kind == [L, S]
        assert cs.d_addr == [101, 103]

    def test_back_to_back_ifetches_stay_single(self):
        cs = pair_couplets(make_trace([I, I, I]))
        assert len(cs) == 3
        assert cs.d_kind == [NO_REF] * 3

    def test_leading_data_forms_degenerate_couplet(self):
        cs = pair_couplets(make_trace([L, I, S]))
        assert len(cs) == 2
        assert cs.i_addr[0] == NO_REF
        assert cs.d_addr[0] == 100

    def test_no_reordering(self):
        # Data never jumps ahead of a later ifetch.
        cs = pair_couplets(make_trace([I, I, L]))
        assert cs.i_addr == [100, 101]
        assert cs.d_addr == [NO_REF, 102]

    def test_ref_count_preserved(self):
        kinds = [I, L, I, I, S, L, I, S]
        cs = pair_couplets(make_trace(kinds))
        refs = sum(a != NO_REF for a in cs.i_addr) + sum(
            k != NO_REF for k in cs.d_kind
        )
        assert refs == len(kinds)


class TestWarmBoundary:
    def test_warm_couplet_at_reference_boundary(self):
        cs = pair_couplets(make_trace([I, L, I, S], warm=2))
        assert cs.warm_couplet == 1

    def test_warm_boundary_inside_couplet_rounds_up(self):
        # Boundary at ref 1 (the data half of couplet 0): the first
        # couplet starting at or beyond the boundary is couplet 1.
        cs = pair_couplets(make_trace([I, L, I, S], warm=1))
        assert cs.warm_couplet == 1

    def test_zero_warm_measures_everything(self):
        cs = pair_couplets(make_trace([I, L], warm=0))
        assert cs.warm_couplet == 0
        assert cs.n_warm_refs == 2

    def test_n_warm_refs_counts_past_boundary(self):
        cs = pair_couplets(make_trace([I, L, I, S], warm=2))
        assert cs.n_warm_refs == 2


class TestSequentialize:
    def test_one_ref_per_couplet(self):
        cs = sequentialize(make_trace([I, L, S]))
        assert len(cs) == 3
        assert cs.i_addr[0] == 100
        assert cs.d_kind[0] == NO_REF
        assert cs.d_addr[1] == 101
        assert cs.d_kind[2] == S

    def test_warm_couplet_equals_warm_boundary(self):
        cs = sequentialize(make_trace([I, L, S, I], warm=2))
        assert cs.warm_couplet == 2


def reference_pairing(trace):
    """The per-reference pairing loop, kept as the reference the
    vectorized :func:`pair_couplets` is held to: the five columns, the
    warm couplet and the measured reference count."""
    kinds, addrs, pids = trace.as_lists()
    n = len(kinds)
    columns = ([], [], [], [], [])
    warm_couplet = -1
    pos = 0
    while pos < n:
        couplet_start = pos
        if kinds[pos] == I:
            fetch = (addrs[pos], pids[pos])
            pos += 1
            if pos < n and kinds[pos] != I:
                data = (kinds[pos], addrs[pos], pids[pos])
                pos += 1
            else:
                data = (NO_REF,) * 3
        else:
            fetch = (NO_REF,) * 2
            data = (kinds[pos], addrs[pos], pids[pos])
            pos += 1
        if warm_couplet < 0 and couplet_start >= trace.warm_boundary:
            warm_couplet = len(columns[0])
        for column, value in zip(columns, fetch + data):
            column.append(value)
    if warm_couplet < 0:
        warm_couplet = len(columns[0])
    if trace.warm_boundary == 0:
        warm_couplet = 0
    i_addr, _i_pid, d_kind = columns[:3]
    warm_refs = sum(
        (i_addr[k] != NO_REF) + (d_kind[k] != NO_REF)
        for k in range(warm_couplet, len(i_addr))
    )
    return columns, warm_couplet, warm_refs


def assert_matches_reference(trace):
    cs = pair_couplets(trace)
    columns, warm_couplet, warm_refs = reference_pairing(trace)
    assert (cs.i_addr, cs.i_pid, cs.d_kind, cs.d_addr, cs.d_pid) == columns
    assert cs.columns.dtype == np.int64
    assert cs.columns.tolist() == list(columns)
    assert (cs.warm_couplet, cs.n_warm_refs, cs.n_refs) == (
        warm_couplet, warm_refs, len(trace),
    )


@st.composite
def traces(draw):
    kinds = draw(st.lists(st.sampled_from([I, I, L, S]), max_size=40))
    pids = draw(st.lists(st.integers(0, 3), min_size=len(kinds),
                         max_size=len(kinds)))
    warm = draw(st.integers(0, len(kinds)))
    return Trace(kinds, [7 * k + 3 for k in range(len(kinds))], pids,
                 warm_boundary=warm)


class TestVectorizedPairing:
    @settings(max_examples=200, deadline=None)
    @given(trace=traces())
    def test_matches_the_reference_loop(self, trace):
        assert_matches_reference(trace)

    def test_ifetch_as_the_last_reference(self):
        assert_matches_reference(make_trace([L, I, S, I], warm=3))
        assert pair_couplets(make_trace([I, L, I])).d_kind == [L, NO_REF]

    def test_only_data_references(self):
        trace = make_trace([L, S, S, L], warm=2)
        assert_matches_reference(trace)
        assert pair_couplets(trace).i_addr == [NO_REF] * 4

    def test_warm_boundary_between_a_fetch_and_its_data(self):
        # The boundary at ref 3 splits couplet (2, 3): measuring starts
        # at the next couplet, so ref 3 counts as warm-up.
        trace = make_trace([I, L, I, S, I, L], warm=3)
        assert_matches_reference(trace)
        cs = pair_couplets(trace)
        assert (cs.warm_couplet, cs.n_warm_refs) == (2, 2)

    def test_warm_boundary_at_the_end(self):
        for trace in (make_trace([I, L, I, S], warm=4),
                      make_trace([I, L, I, S], warm=3)):
            assert_matches_reference(trace)
            cs = pair_couplets(trace)
            assert (cs.warm_couplet, cs.n_warm_refs) == (2, 0)

    def test_empty_trace(self):
        trace = make_trace([])
        assert_matches_reference(trace)
        assert len(pair_couplets(trace)) == 0


class TestSequentializedCounts:
    def test_n_warm_refs_is_the_tail(self):
        cs = sequentialize(make_trace([I, L, S, I], warm=1))
        assert (cs.warm_couplet, cs.n_warm_refs) == (1, 3)
        assert cs.columns.tolist() == [
            cs.i_addr, cs.i_pid, cs.d_kind, cs.d_addr, cs.d_pid,
        ]
