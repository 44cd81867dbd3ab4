"""Unit tests for lifetime analysis and for the storage sizes the
allocator reads (``Symbol.storage_bits``)."""

from repro.analysis import thread_lifetimes
from repro.hic import analyze, parse
from repro.memory import allocate


def lifetimes_of(source):
    program = parse(source)
    return thread_lifetimes(program.threads[0])


class TestLiveRanges:
    def test_simple_range(self):
        lt = lifetimes_of("thread t () { int x, y; x = 1; y = x; }")
        assert lt.ranges["x"].start == 0
        assert lt.ranges["x"].end == 1

    def test_write_only_variable_stays_live(self):
        # A variable never read locally is externally consumed: live to end.
        lt = lifetimes_of("thread t () { int x, y; x = 1; y = 2; y = y; }")
        assert lt.ranges["x"].end == 2

    def test_overlap_detection(self):
        lt = lifetimes_of("thread t () { int x, y; x = 1; y = x; y = y + x; }")
        assert lt.ranges["x"].overlaps(lt.ranges["y"])

    def test_disjoint_ranges(self):
        lt = lifetimes_of(
            "thread t () { int a, b, c; a = 1; c = a; b = 2; c = b; }"
        )
        assert not lt.ranges["a"].overlaps(lt.ranges["b"])

    def test_span(self):
        lt = lifetimes_of("thread t () { int x, y; x = 1; y = 2; y = x; }")
        assert lt.ranges["x"].span == 3


class TestStorage:
    def test_scalar_bits(self):
        checked = analyze("thread t () { int x; char c; x = c; }")
        assert checked.symbol("t", "x").storage_bits == 32
        assert checked.symbol("t", "c").storage_bits == 8

    def test_array_bits(self):
        checked = analyze("thread t () { int a[16], i; i = a[0]; }")
        assert checked.symbol("t", "a").storage_bits == 16 * 32

    def test_message_bits(self):
        checked = analyze("thread t () { message m; m.ttl = 1; }")
        assert checked.symbol("t", "m").storage_bits == 160

    def test_shared_import_not_double_counted(self, figure1_checked):
        # t2 and t3 import x1; only its producer t1 stores it.
        placements = allocate(figure1_checked).placements
        x1_entries = [key for key in placements if key[1] == "x1"]
        assert x1_entries == [("t1", "x1")]
