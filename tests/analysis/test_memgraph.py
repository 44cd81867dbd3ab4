"""Unit tests for the memory access and operation order graphs."""

from repro.analysis import AccessKind, build_memory_graphs
from repro.hic import analyze


class TestOperationOrderGraph:
    def test_figure1_operations(self, figure1_checked):
        __, order = build_memory_graphs(figure1_checked)
        writes = order.writes("x1")
        reads = order.reads("x1")
        assert [op.thread for op in writes] == ["t1"]
        assert sorted(op.thread for op in reads) == ["t2", "t3"]

    def test_access_kinds(self, figure1_checked):
        __, order = build_memory_graphs(figure1_checked)
        kinds = {op.kind for op in order.variable_operations("x1")}
        assert kinds == {AccessKind.READ, AccessKind.WRITE}


class TestMemoryAccessGraph:
    def test_sizes_recorded(self, figure1_checked):
        access, __ = build_memory_graphs(figure1_checked)
        assert access.sizes[("t1", "x1")] == 32

    def test_shared_access_attributed_to_owner(self, figure1_checked):
        access, __ = build_memory_graphs(figure1_checked)
        # t2 and t3 read x1; those accesses count against t1's storage.
        assert access.count("t1", "x1") >= 3  # 1 write + 2 consumer reads

    def test_loop_weighting(self):
        checked = analyze(
            "thread t () { int i, s; s = 0; while (i) { s = s + 1; } }"
        )
        access, __ = build_memory_graphs(checked)
        # s: write at depth 0 (1) + read+write at depth 1 (4+4)
        assert access.count("t", "s") == 1 + 4 + 4

    def test_variables_listing(self, figure1_checked):
        access, __ = build_memory_graphs(figure1_checked)
        assert ("t1", "x1") in access.variables()

    def test_constants_have_no_storage(self):
        checked = analyze(
            "#constant{host, 7}\nthread t () { int x; x = host; }"
        )
        access, __ = build_memory_graphs(checked)
        assert all(var != "host" for (__, var) in access.variables())
