"""Unit tests for behavioral thread-FSM Verilog emission."""

import re

import pytest

from repro.flow import compile_design
from repro.net import forwarding_source
from repro.rtl.fsm_verilog import (
    VERILOG_KEYWORDS,
    emit_thread_verilog,
    sanitize,
)
from repro.scenarios.catalog import SCENARIO_NAMES, get_scenario
from repro.sim import default_intrinsic
from tests.conftest import FIGURE1_SOURCE


def thread_text(source, thread=None, **kwargs):
    design = compile_design(source, **kwargs)
    name = thread or design.checked.program.threads[0].name
    return design.thread_verilog(name)


class TestStructure:
    def test_module_balanced(self, figure1_source):
        text = thread_text(figure1_source, thread="t1")
        assert text.startswith("module thread_t1_fsm")
        assert text.count("endmodule") == 1
        assert text.count("endfunction") >= 1

    def test_state_localparams(self, figure1_source):
        text = thread_text(figure1_source, thread="t2")
        assert "localparam S_START0" in text
        assert "case (state)" in text

    def test_all_referenced_names_declared(self, figure1_source):
        text = thread_text(figure1_source, thread="t2")
        # Every bare identifier used in the always block must be declared.
        for name in ("x1", "y1", "y2"):
            assert re.search(rf"reg \[31:0\] {name}\b", text), name

    def test_constants_become_localparams(self):
        source = "#constant{host, 42}\nthread t () { int x; x = host + 1; }"
        text = thread_text(source)
        assert "localparam [31:0] host = 32'd42;" in text
        assert not re.search(r"reg \[31:0\] host\b", text)


class TestMemoryHandshake:
    def test_guarded_read_uses_port_c(self, figure1_source):
        text = thread_text(figure1_source, thread="t2")
        assert "mem_port <= 2'd2;" in text  # C
        assert "if (mem_grant)" in text

    def test_guarded_write_uses_port_d(self, figure1_source):
        text = thread_text(figure1_source, thread="t1")
        assert "mem_port <= 2'd3;" in text  # D
        assert "mem_we   <= 1'b1;" in text

    def test_array_access_renders_offset(self):
        text = thread_text("thread t () { int a[4], i, x; x = a[i + 1]; }")
        assert "mem_addr <= (9'd" in text

    def test_register_only_thread_has_no_mem_ports(self):
        text = thread_text("thread t () { int x, y; x = y + 1; }")
        assert "mem_req" not in text

    def test_receive_handshake(self):
        source = (
            "#interface{eth, gige}\n"
            "thread t () { message m; receive(m, eth); }"
        )
        text = thread_text(source)
        assert "rx_ready <= 1'b1;" in text
        assert "if (rx_valid)" in text

    def test_transmit_handshake(self):
        source = (
            "#interface{eth, gige}\n"
            "thread t () { message m; receive(m, eth); transmit(m, eth); }"
        )
        text = thread_text(source)
        assert "tx_valid <= 1'b1;" in text


class TestExpressions:
    def test_precedence_parenthesized(self):
        text = thread_text("thread t () { int x, y, z; x = y + z * 2; }")
        assert "(y + (z * 32'd2))" in text

    def test_guard_rendered_in_transition(self):
        text = thread_text(
            "thread t () { int x; if (x > 3) { x = 0; } }"
        )
        assert "if ((x > 32'd3) != 0) state <=" in text

    def test_ternary(self):
        text = thread_text("thread t () { int x, y; x = y > 0 ? y : 1; }")
        assert "?" in text and ":" in text

    def test_function_matches_simulator_semantics(self):
        # The emitted fn_g body must compute default_intrinsic("g").
        text = thread_text(
            "thread t () { int x, a, b; x = g(a, b); }"
        )
        salt = sum(ord(c) for c in "g")
        assert f"acc = 32'd{salt};" in text
        assert text.count("acc = acc * 32'd2654435761") == 2
        # Cross-check one value in Python:
        assert default_intrinsic("g")(0, 0) == (
            ((salt * 2654435761 + 1) & 0xFFFFFFFF) * 2654435761 + 1
        ) & 0xFFFFFFFF

    def test_functions_emitted_once_per_signature(self):
        text = thread_text(
            "thread t () { int x, a; x = g(a); x = g(x); }"
        )
        assert text.count("function [31:0] fn_g;") == 1


class TestSanitize:
    def test_temp_names(self):
        assert sanitize("$t0") == "tmp_t0"

    def test_plain_names_unchanged(self):
        assert sanitize("counter") == "counter"


def declared_names(text):
    """Every identifier a module declares in its own scope: ports,
    localparams, registers and functions (a function's locals are in
    the function's scope)."""
    module_scope = re.sub(r"function .*?endfunction", "", text, flags=re.S)
    width = r"(?:\[[^\]]*\]\s*)?"
    names = re.findall(
        rf"^\s*(?:input|output)\s+(?:wire|reg)\s+{width}(\w+)",
        module_scope,
        re.M,
    )
    names += re.findall(rf"^\s*localparam\s+{width}(\w+)", module_scope, re.M)
    names += re.findall(rf"^\s*reg\s+{width}(\w+)", module_scope, re.M)
    names += re.findall(r"^\s*function\s+\[31:0\]\s+(\w+);", text, re.M)
    return names


def assert_declares_each_name_once(text):
    names = declared_names(text)
    assert len(names) == len(set(names)), sorted(names)
    assert not set(names) & VERILOG_KEYWORDS


class TestDeclaredNames:
    """A hic name that is a Verilog keyword, or that the module declares
    itself, gets trailing underscores; every other name is unchanged."""

    def test_keyword_names_are_escaped(self):
        text = thread_text("thread t () { int begin; begin = begin + 1; }")
        assert "reg [31:0] begin_ = 32'd0;" in text
        assert "begin_ <= (begin_ + 32'd1);" in text
        assert_declares_each_name_once(text)

    def test_a_variable_named_state_keeps_the_fsm_register(self):
        text = thread_text(
            "thread t () { int state, work; "
            "case (state) { of 0: { work = work + 1; state = 1; } "
            "default: { state = 0; } } }"
        )
        assert re.search(r"reg \[\d+:0\] state;", text)
        assert "reg [31:0] state_ = 32'd0;" in text
        assert "case (state)" in text
        assert "state_ <= 32'd1;" in text
        assert_declares_each_name_once(text)

    def test_port_function_and_localparam_names_are_escaped(self):
        text = thread_text(
            "#interface{eth, gige}\n"
            "thread t () { int mem_req, fn_g, S_START0, x; message m; "
            "receive(m, eth); mem_req = m.ttl; fn_g = g(mem_req); "
            "x = fn_g + S_START0; }"
        )
        assert "output reg  mem_req," in text
        assert "function [31:0] fn_g;" in text
        assert "localparam S_START0 " in text
        for name in ("mem_req_", "fn_g_", "S_START0_"):
            assert f"reg [31:0] {name} = 32'd0;" in text
        assert "fn_g_ <= fn_g(mem_req_);" in text
        assert_declares_each_name_once(text)

    def test_an_escape_never_takes_another_variable_s_name(self):
        text = thread_text(
            "thread t () { int begin, begin_, end; "
            "begin = begin_ + end; begin_ = begin; end = 1; }"
        )
        assert "begin__ <= (begin_ + end_);" in text
        assert "begin_ <= begin__;" in text
        assert_declares_each_name_once(text)

    def test_names_clashing_with_nothing_are_unchanged(self, figure1_source):
        text = thread_text(figure1_source, thread="t2")
        assert "reg [31:0] y1 = 32'd0;" in text

    @pytest.mark.parametrize(
        "source",
        [FIGURE1_SOURCE, forwarding_source(4)]
        + [get_scenario(name).source for name in SCENARIO_NAMES],
        ids=["figure1", "forwarding4"] + list(SCENARIO_NAMES),
    )
    @pytest.mark.parametrize("optimize", [False, True])
    def test_every_example_declares_each_name_once(self, source, optimize):
        design = compile_design(source, optimize=optimize)
        for thread in design.fsms:
            assert_declares_each_name_once(design.thread_verilog(thread))


class TestOptimizedEmission:
    def test_optimized_fsm_emits(self, figure1_source):
        design = compile_design(figure1_source, optimize=True)
        for name in ("t1", "t2", "t3"):
            text = design.thread_verilog(name)
            assert "endmodule" in text


class TestMultiWayBranches:
    def test_case_renders_nested_else_chain(self):
        text = thread_text(
            "thread t () { int s, out; "
            "case (s) { of 0: { out = 1; } of 1, 2: { out = 2; } "
            "default: { out = 3; } } }"
        )
        # Two guarded transitions plus the default arm.
        assert text.count("else begin") >= 2
        assert "((s == 32'd1) || (s == 32'd2)) != 0" in text
        # Balanced begin/end inside the module body (word-boundary match
        # so "endmodule"/"endcase" do not count as "end").
        begins = len(re.findall(r"\bbegin\b", text))
        ends = len(re.findall(r"\bend\b", text))
        assert begins == ends

    def test_while_loop_renders_back_edge(self):
        text = thread_text(
            "thread t () { int i; while (i < 3) { i = i + 1; } }"
        )
        # The test state jumps backward (to a lower-numbered state) when
        # the condition holds the loop.
        assert "if ((i < 32'd3) != 0) state <=" in text
