"""MemRequest presentation/ordering, the controller records, the
blocked view and ControllerStats.deterministic."""

import pytest

from repro.core.controller import (
    BlockedRequest,
    ControllerStats,
    LatencySample,
    MemRequest,
    MemResult,
)
from repro.flow import build_simulation, compile_design
from repro.net import BernoulliTraffic, forwarding_source


class TestMemRequestRepr:
    def test_read_repr_is_stable_and_informative(self):
        request = MemRequest(client="t2", port="B", address=5, write=False)
        assert repr(request) == "MemRequest(t2: read @5 port B)"

    def test_write_repr_marks_the_kind(self):
        request = MemRequest(
            client="t1", port="D", address=0, write=True, data=7
        )
        assert repr(request) == "MemRequest(t1: write @0 port D)"

    def test_dep_id_appears_when_present(self):
        request = MemRequest(
            client="t2", port="B", address=5, write=False, dep_id="mt1"
        )
        assert repr(request) == "MemRequest(t2: read @5 port B dep=mt1)"


class TestMemRequestOrdering:
    def test_sorts_by_client_first(self):
        a = MemRequest(client="t1", port="D", address=9, write=True)
        b = MemRequest(client="t2", port="A", address=0, write=False)
        assert a < b
        assert sorted([b, a]) == [a, b]

    def test_ties_break_on_port_then_address(self):
        low = MemRequest(client="t1", port="A", address=3, write=False)
        mid = MemRequest(client="t1", port="A", address=7, write=False)
        high = MemRequest(client="t1", port="B", address=0, write=False)
        assert sorted([high, mid, low]) == [low, mid, high]

    def test_reads_order_before_writes_at_the_same_address(self):
        read = MemRequest(client="t1", port="A", address=3, write=False)
        write = MemRequest(client="t1", port="A", address=3, write=True)
        assert read < write

    def test_missing_dep_id_orders_before_any_dep_id(self):
        bare = MemRequest(client="t1", port="B", address=3, write=False)
        dep = MemRequest(
            client="t1", port="B", address=3, write=False, dep_id="mt1"
        )
        assert bare < dep

    def test_comparison_with_other_types_is_not_implemented(self):
        request = MemRequest(client="t1", port="A", address=0, write=False)
        assert request.__lt__("not a request") is NotImplemented


class TestControllerStatsDeterministic:
    def test_constant_waits_are_deterministic(self):
        stats = ControllerStats.from_waits([4, 4, 4, 4])
        assert stats.deterministic
        assert (stats.min_wait, stats.max_wait) == (4, 4)
        assert stats.mean_wait == 4.0

    def test_varying_waits_are_not(self):
        stats = ControllerStats.from_waits([2, 4, 3])
        assert not stats.deterministic
        assert (stats.min_wait, stats.max_wait) == (2, 4)

    def test_empty_sample_set_counts_as_deterministic(self):
        stats = ControllerStats.from_waits([])
        assert stats.deterministic
        assert stats.count == 0
        assert stats.mean_wait == 0.0

    def test_single_sample_is_deterministic(self):
        assert ControllerStats.from_waits([17]).deterministic


class TestRecords:
    """``MemResult``, ``LatencySample`` and ``BlockedRequest`` are
    immutable records: their text, field order and arithmetic are part
    of every report that prints or compares them."""

    REQUEST = MemRequest("t1", "C", 17, False, 0, "mt1")

    def test_reprs(self):
        assert repr(LatencySample("t1", "C", "mt1", 3, 9)) == (
            "LatencySample(client='t1', port='C', dep_id='mt1', "
            "issue_cycle=3, grant_cycle=9)"
        )
        assert repr(LatencySample("t2", "A", None, 0, 0)) == (
            "LatencySample(client='t2', port='A', dep_id=None, "
            "issue_cycle=0, grant_cycle=0)"
        )
        assert repr(BlockedRequest(self.REQUEST, 4, 6)) == (
            "BlockedRequest(request=MemRequest(t1: read @17 port C "
            "dep=mt1), issue_cycle=4, blocked_cycles=6)"
        )
        assert repr(MemResult(True, 42)) == "MemResult(granted=True, data=42)"
        assert repr(MemResult(granted=False)) == (
            "MemResult(granted=False, data=0)"
        )

    def test_field_order(self):
        assert LatencySample._fields == (
            "client", "port", "dep_id", "issue_cycle", "grant_cycle"
        )
        assert BlockedRequest._fields == (
            "request", "issue_cycle", "blocked_cycles"
        )
        assert MemResult._fields == ("granted", "data")
        sample = LatencySample("t1", "D", "mt1", 5, 12)
        assert (sample.client, sample.port, sample.dep_id) == ("t1", "D", "mt1")
        assert (sample.issue_cycle, sample.grant_cycle) == (5, 12)
        assert MemResult(True).data == 0

    def test_wait_cycles(self):
        assert LatencySample("t1", "C", None, 5, 12).wait_cycles == 7
        assert LatencySample("t1", "A", None, 3, 3).wait_cycles == 0

    def test_equality_and_hashing(self):
        for make in (
            lambda k: LatencySample("t1", "C", "mt1", k, 9),
            lambda k: BlockedRequest(self.REQUEST, k, 6),
            lambda k: MemResult(True, k),
        ):
            assert make(1) == make(1)
            assert hash(make(1)) == hash(make(1))
            assert make(1) != make(2)
            assert len({make(1), make(1), make(2)}) == 2

    def test_records_are_immutable(self):
        sample = LatencySample("t1", "C", None, 5, 12)
        with pytest.raises(AttributeError):
            sample.grant_cycle = 13


def _figure1_sim(kernel):
    design = compile_design(forwarding_source(2))
    sim = build_simulation(design, kernel=kernel)
    generator = BernoulliTraffic(0.9, seed=3)
    sim.kernel.add_pre_cycle_hook(generator.attach(sim.rx["eth_in"]))
    return sim


class TestBlockedView:
    """``blocked`` is built on first read after each ``arbitrate``."""

    def test_a_second_read_returns_the_same_list(self):
        sim = _figure1_sim("reference")
        controller = sim.controllers["bram0"]
        seen = 0
        for __ in range(200):
            sim.kernel.step()
            first = controller.blocked
            assert controller.blocked is first
            assert controller.blocked_count == len(first)
            seen += bool(first)
        assert seen

    def test_equal_on_both_sides_of_a_compiled_span_boundary(self):
        """After each generated span the flushed list equals what the
        reference kernel reports at the same cycle."""
        compiled = _figure1_sim("compiled")
        reference = _figure1_sim("reference")
        lists = []
        for __ in range(12):
            compiled.run(37)
            reference.run(37)
            flushed = compiled.controllers["bram0"].blocked
            assert flushed == reference.controllers["bram0"].blocked
            assert compiled.controllers["bram0"].blocked is flushed
            lists.append(flushed)
        assert compiled.kernel.cycles_compiled == 12 * 37
        assert any(lists)
