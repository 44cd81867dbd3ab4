"""The hold rule the wheel kernel's skipping rests on.

``_classify_state`` decides, per FSM state, whether re-executing it
while nothing outside the thread moves is a provable no-op (see
:class:`repro.sim.executor.HoldClass`), and
:meth:`ThreadExecutor.holds` combines that with the executor's run-time
condition.  The differential tests see a wrong answer only on the
designs they happen to run, so every shape is pinned here on
hand-built :class:`State` objects.
"""

from types import SimpleNamespace

import pytest

from repro.core import ArbitratedController
from repro.hic import ast
from repro.memory import BlockRam, DependencyEntry, DependencyList
from repro.sim import RxInterface, SimulationKernel, ThreadExecutor
from repro.sim.executor import _classify_state
from repro.synth.fsm import (
    ComputeOp,
    MemReadOp,
    MemWriteOp,
    ReceiveOp,
    State,
    ThreadFsm,
    Transition,
    TransmitOp,
)

#: a consumer read of a guarded word no producer ever writes: it blocks
GUARDED_READ = MemReadOp("bram0", 0, "x", port="C", dep_id="d0")


def kind(*ops):
    return _classify_state(State("s", ops=list(ops))).kind


class TestClassifyState:
    def test_a_transmit_does_not_hold(self):
        assert kind(TransmitOp("m", "eth_out")) is None

    def test_a_receive_with_a_memory_op_does_not_hold(self):
        assert kind(ReceiveOp("m", "eth_in"), GUARDED_READ) is None

    def test_a_self_increment_does_not_hold(self):
        increment = ast.Binary("+", ast.Name("i"), ast.IntLiteral(1))
        assert kind(ComputeOp("i", increment)) is None

    def test_reading_a_register_a_later_op_writes_does_not_hold(self):
        assert kind(
            ComputeOp("a", ast.Name("b")), ComputeOp("b", ast.IntLiteral(1))
        ) is None

    @pytest.mark.parametrize(
        "access",
        [
            MemWriteOp("bram0", 1, value_expr=ast.Name("x")),
            MemWriteOp(
                "bram0", 1, value_expr=ast.IntLiteral(0),
                offset_expr=ast.Name("x"),
            ),
            MemReadOp("bram0", 1, "y", offset_expr=ast.Name("x")),
        ],
        ids=["write-value", "write-address", "read-address"],
    )
    def test_an_access_reading_the_states_own_read_does_not_hold(
        self, access
    ):
        assert kind(GUARDED_READ, access) is None

    def test_a_lone_guarded_read_is_a_memory_wait(self):
        assert kind(GUARDED_READ) == "mem"

    def test_a_lone_receive_is_a_receive_wait_on_its_interfaces(self):
        hold = _classify_state(State("s", ops=[ReceiveOp("m", "eth_in")]))
        assert hold.kind == "recv"
        assert hold.rx_interfaces == ("eth_in",)

    def test_forward_only_compute_is_terminal(self):
        assert kind(
            ComputeOp("a", ast.IntLiteral(1)), ComputeOp("b", ast.Name("a"))
        ) == "terminal"

    def test_the_empty_state_is_terminal(self):
        assert kind() == "terminal"


def make_kernel(state, rx=None):
    """One thread ``t`` looping in ``state`` beside one arbitrated BRAM
    whose guarded word ``d0`` is never written."""
    deplist = DependencyList(
        bram="bram0", entries=[DependencyEntry("d0", 1, 0, "prod", ("t",))]
    )
    controller = ArbitratedController(
        BlockRam("bram0"), deplist, ["t"], ["prod"]
    )
    fsm = ThreadFsm(thread="t", states={state.name: state}, initial=state.name)
    executor = ThreadExecutor(
        SimpleNamespace(constants={}),
        None,
        fsm,
        {"bram0": controller},
        rx_interfaces=rx,
    )
    return SimulationKernel({"t": executor}, {"bram0": controller})


def looping(*ops, guard=None):
    return State("s", ops=list(ops), transitions=[Transition(guard, "s")])


class TestExecutorHolds:
    def test_a_memory_wait_holds_only_while_blocked(self):
        kernel = make_kernel(looping(GUARDED_READ))
        executor = kernel.executors["t"]
        assert not executor.holds()  # nothing submitted yet
        kernel.step()
        assert executor.holds()

    def test_a_held_memory_wait_re_asserts_one_request_object(self):
        kernel = make_kernel(looping(GUARDED_READ))
        seen = []
        kernel.controllers["bram0"].request_taps.append(
            lambda request: seen.append(request) or request
        )
        for __ in range(3):
            kernel.step()
        assert kernel.executors["t"].stats.advances == 0
        assert len(seen) == 3
        assert seen[0] is seen[1] is seen[2]

    def test_a_receive_wait_holds_only_while_every_watched_queue_is_empty(
        self,
    ):
        rx = {name: RxInterface(name) for name in ("eth_a", "eth_b", "eth_c")}
        kernel = make_kernel(
            looping(ReceiveOp("m", "eth_a"), ReceiveOp("n", "eth_b")), rx
        )
        executor = kernel.executors["t"]
        kernel.step()
        assert executor.holds()
        rx["eth_c"].push({})  # a queue the state does not watch
        assert executor.holds()
        rx["eth_b"].push({})
        assert not executor.holds()

    def test_a_terminal_state_holds_only_while_unblocked(self):
        state = looping(ComputeOp("a", ast.IntLiteral(1)), guard=ast.Name("b"))
        kernel = make_kernel(state)
        executor = kernel.executors["t"]
        kernel.step()
        assert executor.stats.advances == 0  # the guard stays false
        assert executor.holds()
        executor._blocked = True
        assert not executor.holds()

    def test_nothing_else_holds(self):
        kernel = make_kernel(looping(TransmitOp("m", "eth_out")))
        executor = kernel.executors["t"]
        kernel.step()
        assert not executor.holds()
