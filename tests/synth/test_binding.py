"""Unit tests for datapath binding."""

from repro.hic import analyze
from repro.memory import allocate
from repro.synth import bind_program, bind_thread, synthesize_program


def bind(source, thread=None):
    checked = analyze(source)
    mm = allocate(checked)
    fsms = synthesize_program(checked, mm)
    if thread is None:
        thread = checked.program.threads[0].name
    return bind_thread(checked, mm, fsms[thread])


class TestUnits:
    def test_call_unit_bound(self, figure1_checked):
        mm = allocate(figure1_checked)
        fsms = synthesize_program(figure1_checked, mm)
        summary = bind_thread(figure1_checked, mm, fsms["t1"])
        assert [u.kind for u in summary.units].count("call") == 1

    def test_units_shared_across_states(self):
        # Two adds in different states share one ALU.
        summary = bind("thread t () { int a, b, c; a = b + 1; c = a + 2; }")
        assert [u.kind for u in summary.units].count("alu") == 1
        alu = [u for u in summary.units if u.kind == "alu"][0]
        assert len(alu.operations) == 2

    def test_parallel_ops_in_one_state_need_two_units(self):
        # One statement with two adds evaluated in one compute state.
        summary = bind("thread t () { int a, b, c; a = (b + 1) + (c + 2); }")
        assert [u.kind for u in summary.units].count("alu") >= 2

    def test_mux_inputs_grow_with_sharing(self):
        light = bind("thread t () { int a, b; a = b + 1; }")
        heavy = bind(
            "thread t () { int a, b; a = b + 1; a = a + 2; a = a + 3; }"
        )
        assert sum(u.mux_inputs for u in heavy.units) > sum(
            u.mux_inputs for u in light.units
        )


class TestRegisters:
    def test_register_variables_counted(self):
        summary = bind("thread t () { int x, y; x = y + 1; }")
        names = {r.name for r in summary.registers}
        assert {"x", "y"} <= names

    def test_bram_variables_not_registers(self):
        summary = bind("thread t () { int a[4], i; a[0] = i; }")
        names = {r.name for r in summary.registers}
        assert "a" not in names

    def test_load_temps_become_registers(self):
        summary = bind("thread t () { int a[4], i, x; x = a[i]; }")
        assert any(r.name.startswith("$t") for r in summary.registers)

    def test_register_bits(self):
        summary = bind("thread t () { int x; char c; x = c; }")
        assert sum(r.width for r in summary.registers) == 32 + 8

class TestPorts:
    def test_guarded_ports_recorded(self, figure1_checked):
        mm = allocate(figure1_checked)
        fsms = synthesize_program(figure1_checked, mm)
        summaries = bind_program(figure1_checked, mm, fsms)
        assert "D" in summaries["t1"].memory_ports_used
        assert "C" in summaries["t2"].memory_ports_used

    def test_state_bits_propagated(self, figure1_checked):
        mm = allocate(figure1_checked)
        fsms = synthesize_program(figure1_checked, mm)
        summaries = bind_program(figure1_checked, mm, fsms)
        for name, summary in summaries.items():
            assert summary.state_bits == fsms[name].state_bits()
