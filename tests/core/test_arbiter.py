"""Unit tests for the round-robin and priority arbiters."""

import pytest

from repro.core import PriorityArbiter, RoundRobinArbiter


class TestRoundRobin:
    def test_single_requester_granted(self):
        arb = RoundRobinArbiter(["a", "b", "c"])
        assert arb.grant({"b"}) == "b"

    def test_no_requesters(self):
        arb = RoundRobinArbiter(["a"])
        assert arb.grant(set()) is None

    def test_rotation_is_fair(self):
        arb = RoundRobinArbiter(["a", "b", "c"])
        grants = [arb.grant({"a", "b", "c"}) for __ in range(6)]
        assert grants == ["a", "b", "c", "a", "b", "c"]

    def test_pointer_skips_idle_clients(self):
        arb = RoundRobinArbiter(["a", "b", "c"])
        assert arb.grant({"c"}) == "c"
        # Pointer is now past c; with all requesting, a goes next.
        assert arb.grant({"a", "b", "c"}) == "a"

    def test_starvation_freedom(self):
        arb = RoundRobinArbiter([f"t{i}" for i in range(8)])
        served = set()
        for __ in range(8):
            served.add(arb.grant({f"t{i}" for i in range(8)}))
        assert len(served) == 8

    def test_unknown_client_rejected(self):
        arb = RoundRobinArbiter(["a"])
        with pytest.raises(KeyError):
            arb.grant({"ghost"})

    def test_empty_client_list_rejected(self):
        with pytest.raises(ValueError):
            RoundRobinArbiter([])

    def test_duplicate_clients_rejected(self):
        with pytest.raises(ValueError):
            RoundRobinArbiter(["a", "a"])

    def test_history_recorded(self):
        arb = RoundRobinArbiter(["a", "b"])
        arb.grant({"a"})
        arb.grant({"b"})
        assert arb.grant_history == ["a", "b"]

    def test_width(self):
        assert RoundRobinArbiter(["a", "b", "c"]).width == 3


class TestPriority:
    def test_d_beats_c_beats_b(self):
        arb = PriorityArbiter()
        assert arb.select({"B", "C", "D"}) == "D"
        assert arb.select({"B", "C"}) == "C"
        assert arb.select({"B"}) == "B"

    def test_empty(self):
        assert PriorityArbiter().select(set()) is None

    def test_custom_order(self):
        arb = PriorityArbiter(priority_order=("X", "Y"))
        assert arb.select({"Y", "X"}) == "X"
