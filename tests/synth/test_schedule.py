"""Unit tests for the operations' resource classes."""

from repro.synth import op_class


class TestOpClass:
    def test_classes(self):
        assert op_class("+") == "alu"
        assert op_class("*") == "mul"
        assert op_class("==") == "cmp"
        assert op_class("&&") == "cmp"
        assert op_class("<<") == "alu"
