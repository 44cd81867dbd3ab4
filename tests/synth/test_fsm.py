"""Unit tests for FSM construction."""

import pytest

from repro.hic import analyze
from repro.memory import allocate
from repro.synth import (
    ComputeOp,
    MemReadOp,
    MemWriteOp,
    ReceiveOp,
    TransmitOp,
    synthesize_program,
    synthesize_thread,
)
from tests.conftest import make_fanout_source


def synth(source, thread=None):
    checked = analyze(source)
    mm = allocate(checked)
    if thread is None:
        thread = checked.program.threads[0].name
    return synthesize_thread(checked, mm, thread)


def guarded(fsm, kind):
    """The guarded memory ops of class ``kind`` in every state of ``fsm``."""
    return [
        op
        for state in fsm.states.values()
        for op in state.ops
        if isinstance(op, kind) and op.guarded
    ]


class TestFigure1:
    def test_producer_write_is_guarded(self, figure1_checked):
        mm = allocate(figure1_checked)
        fsm = synthesize_thread(figure1_checked, mm, "t1")
        writes = guarded(fsm, MemWriteOp)
        assert len(writes) == 1
        assert writes[0].port == "D"
        assert writes[0].dep_id == "mt1"

    def test_consumer_read_is_guarded(self, figure1_checked):
        mm = allocate(figure1_checked)
        fsm = synthesize_thread(figure1_checked, mm, "t2")
        reads = guarded(fsm, MemReadOp)
        assert len(reads) == 1
        assert reads[0].port == "C"
        assert reads[0].dep_id == "mt1"

    def test_sync_states_annotated(self, figure1_checked):
        mm = allocate(figure1_checked)
        fsms = synthesize_program(figure1_checked, mm)
        assert "mt1" in fsms["t1"].sync_states
        assert "mt1" in fsms["t2"].sync_states

    def test_fsm_loops_to_initial(self, figure1_checked):
        mm = allocate(figure1_checked)
        fsm = synthesize_thread(figure1_checked, mm, "t1")
        last_states = [
            s
            for s in fsm.states.values()
            if any(t.target == fsm.initial for t in s.transitions)
        ]
        assert last_states

    def test_all_states_reachable(self, figure1_checked):
        mm = allocate(figure1_checked)
        for name in ("t1", "t2", "t3"):
            fsm = synthesize_thread(figure1_checked, mm, name)
            assert fsm.reachable_states() == set(fsm.states)


class TestMemoryDiscipline:
    def test_one_memory_op_per_state(self):
        source = """
        thread t () { int a[4], i, x; x = a[0] + a[1] + a[2]; i = x; }
        """
        fsm = synth(source)
        for state in fsm.states.values():
            assert len(state.memory_ops) <= 1

    def test_register_only_statement_has_no_mem_ops(self):
        fsm = synth("thread t () { int x, y; x = y + 1; }")
        assert all(not s.memory_ops for s in fsm.states.values())

    def test_array_read_uses_offset_expr(self):
        fsm = synth("thread t () { int a[4], i, x; x = a[i + 1]; }")
        reads = [
            op
            for s in fsm.states.values()
            for op in s.ops
            if isinstance(op, MemReadOp)
        ]
        assert len(reads) == 1
        assert reads[0].offset_expr is not None
        assert reads[0].port == "A"

    def test_array_write_uses_offset_expr(self):
        fsm = synth("thread t () { int a[4], i; a[i] = 7; }")
        writes = [
            op
            for s in fsm.states.values()
            for op in s.ops
            if isinstance(op, MemWriteOp)
        ]
        assert len(writes) == 1
        assert writes[0].offset_expr is not None

    def test_message_field_maps_to_word(self):
        fsm = synth("thread t () { message m; int x; x = m.ttl; m.ttl = x - 1; }")
        reads = [
            op
            for s in fsm.states.values()
            for op in s.ops
            if isinstance(op, MemReadOp)
        ]
        writes = [
            op
            for s in fsm.states.values()
            for op in s.ops
            if isinstance(op, MemWriteOp)
        ]
        # ttl is field index 5 in the field-per-word layout.
        assert reads[0].base_address == writes[0].base_address

    def test_duplicate_reads_coalesced(self):
        # x1 read twice in one expression: loaded once.
        source = """
        thread a () { int p, t;
          #consumer{d,[b,v]}
          p = f(t);
        }
        thread b () { int v;
          #producer{d,[a,p]}
          v = g(p, p);
        }
        """
        checked = analyze(source)
        mm = allocate(checked)
        fsm = synthesize_thread(checked, mm, "b")
        assert len(guarded(fsm, MemReadOp)) == 1


class TestControlFlow:
    def test_if_creates_branch_and_join(self):
        fsm = synth("thread t () { int x; if (x > 0) { x = 1; } else { x = 2; } }")
        branch_states = [
            s for s in fsm.states.values() if len(s.transitions) == 2
        ]
        assert branch_states

    def test_while_loops_back(self):
        fsm = synth("thread t () { int i; while (i < 4) { i = i + 1; } }")
        # Some state transitions backwards to an earlier-created state.
        names = list(fsm.states)
        order = {name: i for i, name in enumerate(names)}
        has_back_edge = any(
            order[t.target] < order[s.name]
            for s in fsm.states.values()
            for t in s.transitions
        )
        assert has_back_edge

    def test_case_arms(self):
        fsm = synth(
            "thread t () { int s; case (s) { of 0: { s = 1; } of 1: { s = 2; } "
            "default: { s = 0; } } }"
        )
        case_states = [s for s in fsm.states.values() if len(s.transitions) == 3]
        assert case_states

    def test_for_loop_structure(self):
        fsm = synth(
            "thread t () { int i, a[4]; for (i = 0; i < 4; i = i + 1) "
            "{ a[i] = i; } }"
        )
        writes = [
            op
            for s in fsm.states.values()
            for op in s.ops
            if isinstance(op, MemWriteOp)
        ]
        assert len(writes) == 1

    def test_break_exits_loop(self):
        fsm = synth(
            "thread t () { int i; while (1) { if (i > 3) { break; } "
            "i = i + 1; } i = 0; }"
        )
        # FSM must still be constructible and have an exit path.
        assert fsm.state_count > 3

    def test_receive_transmit_ops(self):
        source = (
            "#interface{eth, gige}\n"
            "thread t () { message m; receive(m, eth); transmit(m, eth); }"
        )
        fsm = synth(source)
        ops = [op for s in fsm.states.values() for op in s.ops]
        assert any(isinstance(op, ReceiveOp) for op in ops)
        assert any(isinstance(op, TransmitOp) for op in ops)

class TestScaling:
    @pytest.mark.parametrize("consumers", [2, 4, 8])
    def test_fanout_scenarios_synthesize(self, consumers):
        checked = analyze(make_fanout_source(consumers))
        mm = allocate(checked)
        fsms = synthesize_program(checked, mm)
        assert len(fsms) == consumers + 1
        guarded_reads = sum(
            len(guarded(fsm, MemReadOp)) for fsm in fsms.values()
        )
        assert guarded_reads == consumers

    def test_state_bits(self, figure1_checked):
        mm = allocate(figure1_checked)
        fsm = synthesize_thread(figure1_checked, mm, "t1")
        assert fsm.state_bits() == max(1, (fsm.state_count - 1).bit_length())

    def test_compound_assignment_desugared(self):
        fsm = synth("thread t () { int x; x += 3; }")
        computes = [
            op
            for s in fsm.states.values()
            for op in s.ops
            if isinstance(op, ComputeOp)
        ]
        assert len(computes) == 1
