"""Unit tests for the IP-forwarding reference application."""

import pytest

from repro.core import Organization
from repro.flow import build_simulation, compile_design
from repro.hic import analyze
from repro.net import (
    BernoulliTraffic,
    CORE_FORWARDING_SLICES,
    APP_TOTAL_SLICES,
    demo_table,
    forwarding_functions,
    forwarding_source,
    ip,
    multi_pair_source,
)


class TestSourceGeneration:
    @pytest.mark.parametrize("consumers", [1, 2, 4, 8])
    def test_source_analyzes_clean(self, consumers):
        checked = analyze(forwarding_source(consumers))
        assert len(checked.dependencies) == 1
        assert checked.dependencies[0].dependency_number == consumers

    def test_io_threads_present(self):
        checked = analyze(forwarding_source(2))
        assert checked.interfaces == {"eth_in": "gige", "eth_out": "gige"}

    def test_no_io_variant(self):
        checked = analyze(forwarding_source(2, with_io=False))
        assert checked.interfaces == {}

    def test_invalid_consumer_count(self):
        with pytest.raises(ValueError):
            forwarding_source(0)

    def test_paper_area_constants(self):
        assert CORE_FORWARDING_SLICES == 1000
        assert APP_TOTAL_SLICES == 5430

    def test_multi_pair_source_analyzes(self):
        checked = analyze(multi_pair_source(3, consumers_per_pair=2))
        assert len(checked.dependencies) == 3
        assert all(d.dependency_number == 2 for d in checked.dependencies)

    def test_multi_pair_invalid(self):
        with pytest.raises(ValueError):
            multi_pair_source(0)


class TestForwardingExecution:
    def run_forwarder(self, consumers=2, organization=Organization.ARBITRATED,
                      cycles=1500, rate=0.05):
        design = compile_design(
            forwarding_source(consumers), organization=organization
        )
        table = demo_table()
        sim = build_simulation(design, functions=forwarding_functions(table))
        gen = BernoulliTraffic(rate=rate, seed=13)
        hook = gen.attach(sim.rx["eth_in"])
        sim.kernel.add_pre_cycle_hook(hook)
        sim.run(cycles)
        return sim, hook

    def test_packets_forwarded(self):
        sim, hook = self.run_forwarder()
        assert sim.tx["eth_out"].count > 0
        # Conservation: transmitted <= injected.
        assert sim.tx["eth_out"].count <= hook.injected

    def test_ttl_decremented_on_egress(self):
        sim, __ = self.run_forwarder()
        for __cycle, message in sim.tx["eth_out"].messages:
            assert message["ttl"] == 63  # generator emits ttl=64

    def test_every_consumer_observes_every_decision(self):
        sim, __ = self.run_forwarder(consumers=4, cycles=2000)
        rounds = [
            sim.executors[f"egress{i}"].stats.rounds_completed
            for i in range(4)
        ]
        # All egress threads consume the same stream of decisions.
        assert max(rounds) - min(rounds) <= 1
        assert min(rounds) > 0

    def test_event_driven_forwarder_works_too(self):
        sim, __ = self.run_forwarder(organization=Organization.EVENT_DRIVEN)
        assert sim.tx["eth_out"].count > 0

    def test_lookup_decision_reaches_consumers(self):
        # Single known destination: the decision must equal the route port.
        design = compile_design(forwarding_source(2))
        table = demo_table()
        sim = build_simulation(design, functions=forwarding_functions(table))
        dst = ip(10, 2, 0, 5)
        sim.rx["eth_in"].push({"dst_addr": dst, "ttl": 64, "length": 64})
        sim.run(200)
        expected_port = table.lookup(dst)
        assert sim.executors["egress0"].env["d0"] == expected_port

    def test_expired_packet_not_forwarded(self):
        design = compile_design(forwarding_source(2))
        sim = build_simulation(design, functions=forwarding_functions())
        sim.rx["eth_in"].push({"dst_addr": 1, "ttl": 1, "length": 64})
        sim.run(200)
        assert sim.tx["eth_out"].count == 0


class TestChecksumOnEgress:
    def test_forwarded_packets_have_valid_checksums(self):
        from repro.net import Ipv4Packet

        design = compile_design(forwarding_source(2))
        table = demo_table()
        sim = build_simulation(design, functions=forwarding_functions(table))
        gen = BernoulliTraffic(rate=0.05, seed=21)
        sim.kernel.add_pre_cycle_hook(gen.attach(sim.rx["eth_in"]))
        sim.run(1500)
        assert sim.tx["eth_out"].count > 0
        for __, message in sim.tx["eth_out"].messages:
            packet = Ipv4Packet(**message)
            assert packet.checksum == packet.compute_checksum()
