"""Unit tests for the Verilog emitter."""

import pytest

from repro.hic.pragmas import ConsumerRef, Dependency
from repro.rtl import (
    Module,
    PortDirection,
    Register,
    WrapperParams,
    emit_verilog,
    generate_arbitrated_wrapper,
    generate_design,
    generate_event_driven_wrapper,
)


def arb_verilog(consumers=2):
    return emit_verilog(
        generate_arbitrated_wrapper(WrapperParams(consumers=consumers))
    )


class TestEmission:
    def test_module_definitions_balanced(self):
        text = arb_verilog()
        definitions = text.count("\nmodule ")
        assert definitions >= 2
        assert text.count("endmodule") == definitions

    def test_primitive_definitions_emitted_once(self):
        text = arb_verilog()
        assert text.count("module repro_cam_row") == 1
        assert text.count(" dep_row") == 4  # four dep-list row instances

    def test_parameters_rendered(self):
        text = arb_verilog(consumers=4)
        assert ".INPUTS(4)" in text
        assert ".KEY_BITS(9)" in text

    def test_ports_declared(self):
        text = arb_verilog()
        assert "input  wire [1:0] portc_req" in text
        assert "output wire [35:0] portc_rdata" in text

    def test_internal_nets_declared(self):
        text = arb_verilog()
        assert "wire [8:0] p1_addr;" in text

    def test_timing_annotations_present(self):
        text = arb_verilog()
        assert "timing: path 'guarded_read'" in text

    def test_timescale_header(self):
        assert arb_verilog().startswith("// Generated")
        assert "`timescale 1ns / 1ps" in arb_verilog()


class TestHierarchy:
    def test_children_emitted_before_top(self):
        dep = Dependency(
            "d0", "p", "x", (ConsumerRef("c0", "v0"), ConsumerRef("c1", "v1"))
        )
        arb = generate_arbitrated_wrapper(WrapperParams(consumers=2))
        ed = generate_event_driven_wrapper(WrapperParams(consumers=2), [dep])
        top = generate_design("both", [arb, ed], [])
        text = emit_verilog(top)
        assert text.index("module arbitrated_wrapper_c2") < text.index(
            "module both"
        )
        assert text.index("module event_driven_wrapper_c2") < text.index(
            "module both"
        )

    def test_shared_child_emitted_once(self):
        leaf = Module(name="leaf")
        leaf.add_port("clk", PortDirection.INPUT)
        leaf.add_instance("r", Register(width=2), {"clk": "clk"})
        top = Module(name="top")
        top.add_port("clk", PortDirection.INPUT)
        top.add_instance("u0", leaf, {"clk": "clk"})
        top.add_instance("u1", leaf, {"clk": "clk"})
        text = emit_verilog(top)
        assert text.count("module leaf") == 1
        assert text.count("leaf u0") == 1
        assert text.count("leaf u1") == 1

    def test_bus_widths(self):
        text = arb_verilog(consumers=8)
        # 8 consumers x 9 address bits
        assert "[71:0] portc_addr" in text


class TestModuleNames:
    """A design name that would break the emitted Verilog is refused."""

    def _verilog(self, name):
        from repro.flow import compile_design
        from repro.net import forwarding_source

        return compile_design(forwarding_source(2), name=name).verilog()

    def test_name_of_a_thread_module_is_refused(self):
        with pytest.raises(ValueError, match="'thread_classify'"):
            self._verilog("thread_classify")

    def test_name_of_a_primitive_module_is_refused(self):
        with pytest.raises(ValueError, match="'repro_mux'"):
            self._verilog("repro_mux")

    def test_illegal_identifier_is_refused(self):
        with pytest.raises(ValueError, match="'my design'"):
            self._verilog("my design")

    def test_legal_name_names_the_top_module(self):
        text = self._verilog("forwarder_2")
        assert text.count("\nmodule forwarder_2 (") == 1

    def test_two_different_modules_of_one_name_are_refused(self):
        first, second = Module(name="leaf"), Module(name="leaf")
        second.add_port("clk", PortDirection.INPUT)
        top = Module(name="top")
        top.add_instance("u0", first)
        top.add_instance("u1", second)
        with pytest.raises(ValueError, match="'leaf'"):
            emit_verilog(top)
