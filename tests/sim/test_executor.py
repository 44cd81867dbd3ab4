"""Unit tests for the FSM thread executor."""

import re
from collections import Counter

import pytest

from repro.core import Organization
from repro.flow import SIMULATION_KERNELS, build_simulation, compile_design
from repro.hic import ast
from repro.sim import (
    RxInterface,
    ThreadExecutor,
    TxInterface,
    default_intrinsic,
    to_signed,
    to_unsigned,
)
from repro.synth.fsm import ComputeOp, MemReadOp, State, ThreadFsm, Transition


def run_design(source, cycles=100, functions=None,
               organization=Organization.ARBITRATED):
    design = compile_design(source, organization=organization)
    sim = build_simulation(design, functions=functions)
    sim.run(cycles)
    return sim


class TestArithmetic:
    def test_to_signed_roundtrip(self):
        assert to_signed(to_unsigned(-5)) == -5
        assert to_signed(0x7FFFFFFF) == 0x7FFFFFFF
        assert to_signed(0x80000000) == -(1 << 31)

    def test_default_intrinsic_deterministic(self):
        f1 = default_intrinsic("f")
        f2 = default_intrinsic("f")
        assert f1(1, 2) == f2(1, 2)

    def test_default_intrinsic_name_salted(self):
        assert default_intrinsic("f")(1) != default_intrinsic("g")(1)

    @pytest.mark.parametrize(
        "expr,expected",
        [
            ("3 + 4", 7),
            ("3 - 4", to_unsigned(-1)),
            ("3 * 4", 12),
            ("7 / 2", 3),
            ("-7 / 2", to_unsigned(-3)),  # truncation toward zero
            ("7 % 3", 1),
            ("1 << 4", 16),
            ("256 >> 4", 16),
            ("12 & 10", 8),
            ("12 | 10", 14),
            ("12 ^ 10", 6),
            ("3 < 4", 1),
            ("4 <= 4", 1),
            ("5 == 5", 1),
            ("5 != 5", 0),
            ("1 && 0", 0),
            ("1 || 0", 1),
            ("!0", 1),
            ("~0", to_unsigned(-1)),
            ("1 ? 10 : 20", 10),
            ("0 ? 10 : 20", 20),
        ],
    )
    def test_expression_evaluation(self, expr, expected):
        sim = run_design(f"thread t () {{ int x; x = {expr}; }}", cycles=5)
        assert sim.executors["t"].env["x"] == expected

    def test_division_by_zero_convention(self):
        sim = run_design("thread t () { int x, z; x = 5 / z; }", cycles=5)
        assert sim.executors["t"].env["x"] == (1 << 32) - 1

    def test_custom_function_table(self):
        sim = run_design(
            "thread t () { int x; x = double(21); }",
            cycles=5,
            functions={"double": lambda v: 2 * v},
        )
        assert sim.executors["t"].env["x"] == 42


class TestControlFlowExecution:
    def test_if_else_takes_correct_branch(self):
        sim = run_design(
            "thread t () { int x, y; x = 5; "
            "if (x > 3) { y = 1; } else { y = 2; } }",
            cycles=20,
        )
        assert sim.executors["t"].env["y"] == 1

    def test_while_loop_counts(self):
        source = (
            "thread t () { int i, s, done; "
            "if (done == 0) { s = 0; "
            "for (i = 0; i < 5; i = i + 1) { s = s + i; } done = 1; } }"
        )
        sim = run_design(source, cycles=120)
        assert sim.executors["t"].env["s"] == 10

    def test_case_dispatch(self):
        source = (
            "thread t () { int s, out; s = 2; "
            "case (s) { of 1: { out = 10; } of 2: { out = 20; } "
            "default: { out = 30; } } }"
        )
        sim = run_design(source, cycles=20)
        assert sim.executors["t"].env["out"] == 20

    def test_case_default(self):
        source = (
            "thread t () { int s, out; s = 9; "
            "case (s) { of 1: { out = 10; } default: { out = 30; } } }"
        )
        sim = run_design(source, cycles=20)
        assert sim.executors["t"].env["out"] == 30

    def test_fsm_wraps_and_repeats(self):
        sim = run_design("thread t () { int n; n = n + 1; }", cycles=50)
        stats = sim.executors["t"].stats
        assert stats.rounds_completed > 5
        assert sim.executors["t"].env["n"] == stats.rounds_completed


class TestMemoryExecution:
    def test_array_store_load(self):
        source = (
            "thread t () { int a[4], i, x, done; "
            "if (done == 0) { "
            "for (i = 0; i < 4; i = i + 1) { a[i] = i * 10; } "
            "x = a[2]; done = 1; } }"
        )
        sim = run_design(source, cycles=200)
        assert sim.executors["t"].env["x"] == 20

    def test_message_field_update_in_bram(self):
        source = "thread t () { message m; m.ttl = 64; }"
        sim = run_design(source, cycles=20)
        bram = sim.controllers["bram0"].bram
        design = sim.design
        placement = design.memory_map.placement("t", "m")
        from repro.hic.types import MESSAGE_FIELDS

        ttl_word = placement.base_address + list(MESSAGE_FIELDS).index("ttl")
        assert bram.read(ttl_word) == 64

    def test_shared_value_flows_between_threads(self, figure1_source):
        sim = run_design(figure1_source, cycles=100)
        # t2's y1 must equal g(x1, y2) with x1 = f(xtmp, x2) = f(0, 0).
        f = default_intrinsic("f")
        g = default_intrinsic("g")
        expected_x1 = f(0, 0)
        assert sim.executors["t2"].env["y1"] == g(expected_x1, 0)


class TestInterfaces:
    def test_rx_queue_fifo(self):
        rx = RxInterface("eth")
        rx.push({"payload": 1})
        rx.push({"payload": 2})
        assert rx.pop()["payload"] == 1
        assert rx.pop()["payload"] == 2
        assert rx.pop() is None
        assert rx.delivered == 2

    def test_tx_records_cycle(self):
        tx = TxInterface("eth")
        tx.push(7, {"payload": 3})
        assert tx.messages == [(7, {"payload": 3})]

    def test_receive_blocks_without_traffic(self):
        source = (
            "#interface{eth, gige}\n"
            "thread t () { message m; int n; receive(m, eth); n = n + 1; }"
        )
        sim = run_design(source, cycles=50)
        assert sim.executors["t"].env.get("n", 0) == 0
        assert sim.executors["t"].stats.stall_cycles > 40

    def test_receive_transmit_roundtrip(self):
        source = (
            "#interface{eth, gige}\n"
            "thread t () { message m; receive(m, eth); "
            "m.ttl = m.ttl - 1; transmit(m, eth); }"
        )
        design = compile_design(source)
        sim = build_simulation(design)
        sim.rx["eth"].push({"ttl": 10, "payload": 99})
        sim.run(30)
        assert sim.tx["eth"].count == 1
        __, message = sim.tx["eth"].messages[0]
        assert message["ttl"] == 9
        assert message["payload"] == 99


class TestStats:
    def test_utilization_bounds(self, figure1_source):
        sim = run_design(figure1_source, cycles=100)
        for executor in sim.executors.values():
            assert 0.0 <= executor.stats.utilization <= 1.0

    def test_state_visits_recorded(self):
        sim = run_design("thread t () { int x; x = 1; }", cycles=10)
        visits = sim.executors["t"].stats.state_visits
        assert sum(visits.values()) == 10


class TestDecodedStates:
    """What decoding each state once must keep from walking the
    expression trees every cycle."""

    @pytest.mark.parametrize("kernel", SIMULATION_KERNELS)
    @pytest.mark.parametrize(
        "expr,error,message",
        [
            (
                ast.FieldAccess(ast.Name("m"), "ttl"),
                TypeError,
                "cannot evaluate FieldAccess at simulation time",
            ),
            (
                ast.Binary("**", ast.Name("x"), ast.IntLiteral(2)),
                ValueError,
                "unknown binary operator '**'",
            ),
        ],
        ids=["field-access", "unknown-operator"],
    )
    def test_an_unevaluable_expression_raises_when_its_state_runs(
        self, kernel, expr, error, message
    ):
        """The error comes when the expression runs: not when the
        simulation is built, not behind a short-circuit that skips it,
        and after the state's earlier ops (the compiled kernel's code
        generator refuses the design, so it runs the wheel)."""
        skipped = ast.Binary("&&", ast.IntLiteral(0), expr)
        design = compile_design("thread t () { int x, y, z; }")
        design.fsms["t"] = ThreadFsm(
            thread="t",
            initial="s0",
            states={
                "s0": State("s0", transitions=[Transition(None, "s1")]),
                "s1": State(
                    "s1",
                    ops=[ComputeOp("x", skipped)],
                    transitions=[Transition(None, "s2")],
                ),
                "s2": State(
                    "s2",
                    ops=[ComputeOp("z", ast.IntLiteral(7)), ComputeOp("y", expr)],
                    transitions=[Transition(None, "s0")],
                ),
            },
        )
        sim = build_simulation(design, kernel=kernel)
        sim.run(2)
        env = sim.executors["t"].env
        assert env["x"] == 0
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            sim.run(1)
        assert sim.kernel.cycle == 2
        assert env["z"] == 7

    @pytest.mark.parametrize("kernel", SIMULATION_KERNELS)
    def test_a_register_holding_a_raw_bram_word_reads_as_32_bits(
        self, kernel
    ):
        """A read grant leaves the BRAM's 36-bit word in its destination
        register unmasked; an expression reading it sees 32 bits."""
        design = compile_design("thread t () { int a[4], x; x = a[0] >> 1; }")
        (dest,) = {
            op.dest
            for state in design.fsms["t"].states.values()
            for op in state.ops
            if isinstance(op, MemReadOp)
        }
        sim = build_simulation(design, kernel=kernel)
        word = (1 << 35) | 5
        address = design.memory_map.placement("t", "a").base_address
        sim.controllers["bram0"].bram.write(address, word)
        sim.run(4)
        env = sim.executors["t"].env
        assert env[dest] == word
        assert env["x"] == 2

    @pytest.mark.parametrize("kernel", ["reference", "wheel"])
    def test_a_run_decodes_each_visited_state_once(
        self, kernel, figure1_source, monkeypatch
    ):
        decoded = Counter()
        decode = ThreadExecutor._decode

        def counting_decode(executor, name):
            decoded[executor.fsm.thread, name] += 1
            return decode(executor, name)

        monkeypatch.setattr(ThreadExecutor, "_decode", counting_decode)
        sim = build_simulation(compile_design(figure1_source), kernel=kernel)
        assert not decoded  # building the simulation decodes nothing
        sim.run(2000)
        visited = {
            (thread, state)
            for thread, executor in sim.executors.items()
            for state in executor.stats.state_visits
        }
        assert len(visited) > 3
        assert decoded == Counter(dict.fromkeys(visited, 1))
