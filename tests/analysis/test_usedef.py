"""Unit tests for use-def analysis."""

from repro.analysis import linearize
from repro.hic import parse


def thread_of(source, name=None):
    program = parse(source)
    return program.threads[0] if name is None else program.thread(name)


class TestLinearize:
    def test_simple_assignment(self):
        thread = thread_of("thread t () { int x, y; x = y + 1; }")
        infos = linearize(thread)
        assert len(infos) == 1
        assert infos[0].defs == frozenset({"x"})
        assert infos[0].uses == frozenset({"y"})

    def test_compound_assignment_reads_target(self):
        thread = thread_of("thread t () { int x; x += 1; }")
        infos = linearize(thread)
        assert "x" in infos[0].uses
        assert "x" in infos[0].defs

    def test_array_store_reads_index_and_target(self):
        thread = thread_of("thread t () { int a[4], i, v; a[i] = v; }")
        infos = linearize(thread)
        assert infos[0].defs == frozenset({"a"})
        assert {"i", "v", "a"} <= set(infos[0].uses)

    def test_if_condition_is_a_use(self):
        thread = thread_of("thread t () { int x, y; if (x > 0) { y = 1; } }")
        infos = linearize(thread)
        assert infos[0].uses == frozenset({"x"})
        assert infos[1].defs == frozenset({"y"})

    def test_loop_depth_recorded(self):
        thread = thread_of(
            "thread t () { int i, s; while (i) { s = s + 1; } }"
        )
        infos = linearize(thread)
        body = [info for info in infos if "s" in info.defs]
        assert body[0].loop_depth == 1

    def test_nested_loop_depth(self):
        thread = thread_of(
            "thread t () { int i, j, s; "
            "while (i) { while (j) { s = s + 1; } } }"
        )
        infos = linearize(thread)
        inner = [info for info in infos if "s" in info.defs]
        assert inner[0].loop_depth == 2

    def test_receive_defines_target(self):
        thread = thread_of(
            "#interface{e, gige}\nthread t () { message m; receive(m, e); }"
        )
        infos = linearize(thread)
        assert infos[0].defs == frozenset({"m"})

    def test_transmit_uses_source(self):
        thread = thread_of(
            "#interface{e, gige}\n"
            "thread t () { message m; receive(m, e); transmit(m, e); }"
        )
        infos = linearize(thread)
        assert infos[1].uses == frozenset({"m"})

    def test_for_loop_parts(self):
        thread = thread_of(
            "thread t () { int i, s; for (i = 0; i < 4; i = i + 1) { s += i; } }"
        )
        infos = linearize(thread)
        # init defines i; condition uses i; body and step inside loop
        assert infos[0].defs == frozenset({"i"})
        assert any(info.loop_depth == 1 for info in infos)

    def test_indices_are_sequential(self):
        thread = thread_of("thread t () { int a, b; a = 1; b = 2; a = b; }")
        infos = linearize(thread)
        assert [info.index for info in infos] == [0, 1, 2]
