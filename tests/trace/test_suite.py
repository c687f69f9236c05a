"""The eight-trace suite."""

import pytest

from repro.errors import ConfigurationError
from repro.trace.suite import (
    ALL_TRACES,
    RISC_TRACES,
    TRACE_PROGRAMS,
    VAX_TRACES,
    VAX_WARM_FRACTION,
    build_suite,
    build_trace,
)


class TestComposition:
    def test_eight_traces(self):
        assert len(ALL_TRACES) == 8
        assert set(VAX_TRACES) | set(RISC_TRACES) == set(ALL_TRACES)

    def test_process_counts_follow_table1(self):
        # Table 1: mu3 has 7 processes, mu6 11, mu10 14, savec 6;
        # rd1n3 3, rd2n4 4, rd1n5 5, rd2n7 7.
        expected = {
            "mu3": 7, "mu6": 11, "mu10": 14, "savec": 6,
            "rd1n3": 3, "rd2n4": 4, "rd1n5": 5, "rd2n7": 7,
        }
        for name, count in expected.items():
            assert len(TRACE_PROGRAMS[name]) == count


class TestBuildTrace:
    def test_vax_trace_warm_fraction(self):
        trace = build_trace("mu3", length=10_000)
        assert len(trace) == 10_000
        assert trace.warm_boundary == int(10_000 * VAX_WARM_FRACTION)

    def test_risc_trace_has_prefix(self):
        trace = build_trace("rd1n3", length=10_000)
        assert len(trace) > 10_000  # prefix prepended
        assert trace.warm_boundary == len(trace) - 10_000

    def test_deterministic(self):
        a = build_trace("savec", length=5000, seed=11)
        b = build_trace("savec", length=5000, seed=11)
        assert (a.addrs == b.addrs).all()
        assert (a.kinds == b.kinds).all()

    def test_seed_changes_stream(self):
        a = build_trace("savec", length=5000, seed=1)
        b = build_trace("savec", length=5000, seed=2)
        assert not (a.addrs == b.addrs).all()

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            build_trace("mu99")

    def test_nonpositive_length_rejected(self):
        with pytest.raises(ConfigurationError):
            build_trace("mu3", length=0)


class TestBuildSuite:
    def test_subset_selection(self):
        suite = build_suite(length=4000, names=["mu3", "rd2n4"])
        assert set(suite) == {"mu3", "rd2n4"}

    def test_caching_returns_same_object(self):
        a = build_suite(length=4000, names=["mu3"])["mu3"]
        b = build_suite(length=4000, names=["mu3"])["mu3"]
        assert a is b

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            build_suite(names=["bogus"])


#: ``(content_fingerprint, warm_boundary, len)`` of every suite trace at
#: two lengths and two seeds.  A change to the generated references
#: fails here, not only in a downstream figure.
SUITE_GOLDEN = {
    ("mu3", 1500, 0): ("c7fd5cb4f3ffc5cc", 510, 1500),
    ("mu6", 1500, 0): ("645a9191e5a493e3", 510, 1500),
    ("mu10", 1500, 0): ("5009c93e0008e8f1", 510, 1500),
    ("savec", 1500, 0): ("bb7a4e9bc66e1759", 510, 1500),
    ("rd1n3", 1500, 0): ("0706be7ab3087e50", 218, 1718),
    ("rd2n4", 1500, 0): ("fb0bb2b985a90f81", 209, 1709),
    ("rd1n5", 1500, 0): ("1f3303f898671479", 196, 1696),
    ("rd2n7", 1500, 0): ("a66d4995eba28254", 223, 1723),
    ("mu3", 1500, 3): ("cd4ff4b4491f7a1b", 510, 1500),
    ("mu6", 1500, 3): ("12566615527a3f24", 510, 1500),
    ("mu10", 1500, 3): ("467c4f7fc66b3fc6", 510, 1500),
    ("savec", 1500, 3): ("cfa45014e6e29827", 510, 1500),
    ("rd1n3", 1500, 3): ("7a0618156dac3766", 168, 1668),
    ("rd2n4", 1500, 3): ("77fbd02c6a1b08a2", 211, 1711),
    ("rd1n5", 1500, 3): ("eb9fe305e1f3b6af", 187, 1687),
    ("rd2n7", 1500, 3): ("788045d504e9436c", 253, 1753),
    ("mu3", 4000, 0): ("99c3af175773a050", 1360, 4000),
    ("mu6", 4000, 0): ("38f480a978aacce8", 1360, 4000),
    ("mu10", 4000, 0): ("cda854c6271b532f", 1360, 4000),
    ("savec", 4000, 0): ("3987c09ce458bff3", 1360, 4000),
    ("rd1n3", 4000, 0): ("6a9782b9eb410f0a", 483, 4483),
    ("rd2n4", 4000, 0): ("a0fbf59b1d3aee54", 491, 4491),
    ("rd1n5", 4000, 0): ("32e342cbf24a89a4", 456, 4456),
    ("rd2n7", 4000, 0): ("894c328a98f044b8", 492, 4492),
    ("mu3", 4000, 3): ("497c5a28f26f16f9", 1360, 4000),
    ("mu6", 4000, 3): ("f44a6c44d95323fb", 1360, 4000),
    ("mu10", 4000, 3): ("7ebe3edc343f6f82", 1360, 4000),
    ("savec", 4000, 3): ("c260324afe9f51f3", 1360, 4000),
    ("rd1n3", 4000, 3): ("245ab100672a3f41", 504, 4504),
    ("rd2n4", 4000, 3): ("f3aad58c1f2ed08b", 485, 4485),
    ("rd1n5", 4000, 3): ("c623fdc60d0adcab", 440, 4440),
    ("rd2n7", 4000, 3): ("c1bfe9d87da750bd", 512, 4512),
}


@pytest.mark.parametrize("name,length,seed", sorted(SUITE_GOLDEN))
def test_suite_traces_match_golden(name, length, seed):
    trace = build_trace(name, length=length, seed=seed)
    assert (
        trace.content_fingerprint(), trace.warm_boundary, len(trace)
    ) == SUITE_GOLDEN[(name, length, seed)]
