"""Unit tests for the netlist IR."""

import pytest

from repro.rtl import (
    Module,
    Net,
    PortDirection,
    Register,
    Counter,
)


def leaf_module(name="leaf"):
    m = Module(name=name)
    m.add_port("clk", PortDirection.INPUT)
    m.add_instance("r0", Register(width=8), {"clk": "clk"})
    m.add_instance("c0", Counter(width=4))
    m.note_path("p0", 3)
    return m


class TestConstruction:
    def test_add_port_creates_net(self):
        m = Module(name="m")
        m.add_port("clk", PortDirection.INPUT)
        assert "clk" in m.nets

    def test_duplicate_port_rejected(self):
        m = Module(name="m")
        m.add_port("clk", PortDirection.INPUT)
        with pytest.raises(ValueError):
            m.add_port("clk", PortDirection.INPUT)

    def test_net_width_conflict_rejected(self):
        m = Module(name="m")
        m.add_net("bus", 8)
        with pytest.raises(ValueError):
            m.add_net("bus", 9)

    def test_add_net_idempotent_same_width(self):
        m = Module(name="m")
        first = m.add_net("bus", 8)
        second = m.add_net("bus", 8)
        assert first is second

    def test_zero_width_net_rejected(self):
        with pytest.raises(ValueError):
            Net("w", 0)

    def test_instance_with_unknown_net_rejected(self):
        m = Module(name="m")
        with pytest.raises(KeyError):
            m.add_instance("r", Register(width=1), {"clk": "nothere"})

    def test_duplicate_instance_rejected(self):
        m = leaf_module()
        with pytest.raises(ValueError):
            m.add_instance("r0", Register(width=1))


class TestAggregation:
    def test_flat_totals(self):
        m = leaf_module()
        luts, ffs, __ = m.resource_totals()
        assert ffs == 8 + 4
        assert luts == 4

    def test_hierarchical_totals(self):
        leaf = leaf_module()
        top = Module(name="top")
        top.add_port("clk", PortDirection.INPUT)
        top.add_instance("u0", leaf, {"clk": "clk"})
        top.add_instance("u1", leaf, {"clk": "clk"})
        luts, ffs, __ = top.resource_totals()
        assert ffs == 2 * 12
        assert luts == 2 * 4

class TestPaths:
    def test_worst_path_local(self):
        m = leaf_module()
        m.note_path("deep", 7)
        name, levels = m.worst_path()
        assert levels == 7
        assert "deep" in name

    def test_worst_path_from_child(self):
        leaf = leaf_module()
        leaf.note_path("deep", 9)
        top = Module(name="top")
        top.add_instance("u0", leaf)
        top.note_path("shallow", 2)
        __, levels = top.worst_path()
        assert levels == 9

    def test_default_path_when_none_noted(self):
        m = Module(name="empty")
        name, levels = m.worst_path()
        assert levels == 1
        assert "default" in name


class TestHierarchyRender:
    def test_render_includes_counts(self):
        text = leaf_module().hierarchy()
        assert "LUT=4" in text
        assert "FF=12" in text

    def test_render_nested(self):
        leaf = leaf_module()
        top = Module(name="top")
        top.add_instance("u0", leaf)
        text = top.hierarchy()
        assert "top" in text and "leaf" in text
