"""Unit tests for the simulation kernel, probes, and VCD writer."""

import pytest

from repro.core import Organization
from repro.flow import build_simulation, compile_design
from repro.net import forwarding_functions, forwarding_source
from repro.sim import (
    ConsumerLatencyProbe,
    VcdWriter,
    determinism_report,
)
from repro.sim.probes import PostWriteLatencyProbe
from tests.conftest import make_fanout_source


class TestKernel:
    def test_run_counts_cycles(self, figure1_source):
        design = compile_design(figure1_source)
        sim = build_simulation(design)
        result = sim.run(25)
        assert result.cycles_run == 25

    def test_until_predicate_stops_early(self, figure1_source):
        design = compile_design(figure1_source)
        sim = build_simulation(design)
        result = sim.run(1000, until=lambda k: k.cycle >= 10)
        assert result.cycles_run == 10

    def test_hooks_fire_in_order(self, figure1_source):
        design = compile_design(figure1_source)
        sim = build_simulation(design)
        calls = []
        sim.kernel.add_pre_cycle_hook(lambda c, k: calls.append(("pre", c)))
        sim.kernel.add_post_cycle_hook(lambda c, k: calls.append(("post", c)))
        sim.run(2)
        assert calls == [("pre", 0), ("post", 0), ("pre", 1), ("post", 1)]

    def test_describe_mentions_threads(self, figure1_source):
        design = compile_design(figure1_source)
        sim = build_simulation(design)
        text = sim.run(20).describe()
        assert "t1" in text and "rounds" in text

    def test_deterministic_given_same_seed(self):
        def run_once():
            from repro.net import BernoulliTraffic

            design = compile_design(forwarding_source(2))
            sim = build_simulation(design, functions=forwarding_functions())
            gen = BernoulliTraffic(rate=0.1, seed=5)
            sim.kernel.add_pre_cycle_hook(gen.attach(sim.rx["eth_in"]))
            sim.run(500)
            return [m for __, m in sim.tx["eth_out"].messages]

        assert run_once() == run_once()


class TestProbes:
    def make_run(self, organization, consumers=4, cycles=500):
        design = compile_design(
            make_fanout_source(consumers), organization=organization
        )
        sim = build_simulation(design)
        sim.run(cycles)
        return sim

    def test_post_write_latency_event_driven_is_rank(self):
        sim = self.make_run(Organization.EVENT_DRIVEN)
        probe = PostWriteLatencyProbe(sim.controllers["bram0"])
        assert probe.all_deterministic()
        deltas = probe.deltas()
        for (thread, __), waits in deltas.items():
            rank = int(thread[1:]) + 1
            assert set(waits) == {rank}

    def test_post_write_probe_groups_by_consumer(self):
        sim = self.make_run(Organization.ARBITRATED)
        probe = PostWriteLatencyProbe(sim.controllers["bram0"])
        assert len(probe.summaries()) == 4

    def test_consumer_latency_probe_summaries(self):
        sim = self.make_run(Organization.ARBITRATED)
        probe = ConsumerLatencyProbe(sim.controllers["bram0"])
        summaries = probe.summaries()
        assert {s.thread for s in summaries} == {"c0", "c1", "c2", "c3"}
        assert all(s.waits for s in summaries)

    def test_determinism_report_text(self):
        sim = self.make_run(Organization.ARBITRATED)
        probe = ConsumerLatencyProbe(sim.controllers["bram0"])
        text = determinism_report(probe)
        assert "c0/d0" in text

    def test_empty_probe_report(self, figure1_source):
        design = compile_design(figure1_source)
        sim = build_simulation(design)
        probe = ConsumerLatencyProbe(sim.controllers["bram0"])
        assert determinism_report(probe) == "no guarded accesses observed"

    def test_controller_stats_from_empty_waits(self):
        from repro.core.controller import ControllerStats

        stats = ControllerStats.from_waits([])
        assert stats.count == 0
        assert stats.min_wait == 0 and stats.max_wait == 0
        assert stats.mean_wait == 0.0
        assert stats.deterministic

class TestVcd:
    def test_header_and_changes(self):
        vcd = VcdWriter(timescale="8 ns")
        value = {"v": 0}
        vcd.add_signal("state", 4, lambda: value["v"])
        vcd.sample_all(0)
        value["v"] = 3
        vcd.sample_all(1)
        vcd.sample_all(2)  # no change -> no emission
        text = vcd.render()
        assert "$timescale 8 ns $end" in text
        assert "$var wire 4" in text
        assert "#0" in text and "#1" in text and "#2" not in text
        assert "b0011" in text

    def test_single_bit_format(self):
        vcd = VcdWriter()
        vcd.add_signal("flag", 1, lambda: 1)
        vcd.sample_all(0)
        lines = vcd.render().splitlines()
        assert any(line.startswith("1") and len(line) <= 3 for line in lines)

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            VcdWriter().add_signal("x", 0, lambda: 0)

    def test_identifiers_past_single_char_space(self):
        # 94 printable identifier characters: signal 94 wraps to "!!".
        from repro.sim.vcd import _identifier

        assert _identifier(0) == "!"
        assert _identifier(93) == "~"
        assert _identifier(94) == "!!"
        assert _identifier(95) == '"!'

    def test_many_signals_get_unique_identifiers(self):
        vcd = VcdWriter()
        for i in range(200):
            vcd.add_signal(f"s{i}", 1, lambda i=i: i % 2)
        idents = [sig.ident for sig in vcd._signals]
        assert len(set(idents)) == 200
        assert any(len(ident) == 2 for ident in idents)
        vcd.sample_all(0)
        text = vcd.render()
        assert text.count("$var") == 200

    def test_constant_signal_emitted_once(self):
        vcd = VcdWriter()
        vcd.add_signal("const", 4, lambda: 7)
        for t in range(5):
            vcd.sample_all(t)
        text = vcd.render()
        # Initial value appears at #0; no later timestamps since nothing
        # ever changes again.
        assert "#0" in text
        for t in range(1, 5):
            assert f"#{t}" not in text
        assert text.count("b0111") == 1

    def test_kernel_hook_integration(self, figure1_source, tmp_path):
        design = compile_design(figure1_source)
        sim = build_simulation(design)
        vcd = VcdWriter(timescale="8 ns")
        for name, executor in sim.executors.items():
            states = sorted(executor.fsm.states)
            vcd.add_signal(
                f"{name}.state",
                8,
                lambda ex=executor, st=states: st.index(ex.state_name),
            )
        sim.kernel.add_post_cycle_hook(vcd.hook)
        sim.run(30)
        path = tmp_path / "trace.vcd"
        path.write_text(vcd.render())
        content = path.read_text()
        assert "$enddefinitions" in content
        assert content.count("$var") == 3
